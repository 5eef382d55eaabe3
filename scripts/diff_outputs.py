"""Byte-compare what the benchmark ops write at a revision and in the working tree.

Exports the tree of ``--parent REV`` and the working tree with
``bench_pairs.export_tree`` and ``bench_pairs.export_worktree`` into
temporary directories, removed on exit.  For each workload it writes the
inputs once with the parent tree's ``perfbench/workloads.setup`` (in a
subprocess), copies them into one run directory per side, with an empty
``out/`` (the ops do not make it), and runs every op of one pass there, in
order, as

    python -m padeval.cli ARGV...

with that side's ``src`` on ``PYTHONPATH``.  Each op's stdout, stderr and
exit code are stored under ``streams/`` beside its outputs.  The paths of
the two run directories that differ in bytes, or that only one side has, are
printed; the exit code is 1 if there is any, else 0.

Run from the repository root:

    python3 scripts/diff_outputs.py --parent HEAD --seed 11 --scale full
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs  # noqa: E402

WORKLOADS = ("eval_scale", "ocsvm_fit", "detector_pipeline")

# run in the set-up directory with the parent's src and perfbench on the path
_SETUP = """
import json, sys
import workloads
workload = workloads.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(json.dumps([op.argv for op in workload.ops]))
"""


def _env(*paths: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def setup_inputs(tree: str, workload: str, seed: int, scale: str, dest: str) -> list[list[str]]:
    """Write the inputs of ``workload`` under ``dest/inputs`` with ``tree``'s
    perfbench; the CLI arguments of each op of one pass."""
    env = _env(os.path.join(tree, "src"), os.path.join(tree, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", _SETUP, workload, str(seed), scale],
                          cwd=dest, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_ops(tree: str, run_dir: str, ops: list[list[str]]) -> list[int]:
    """Run ``ops`` in order in ``run_dir`` with ``tree``'s padeval, keeping each op's
    streams; their exit codes."""
    env = _env(os.path.join(tree, "src"))
    os.makedirs(os.path.join(run_dir, "out"))
    os.makedirs(os.path.join(run_dir, "streams"))
    codes = []
    for k, argv in enumerate(ops):
        proc = subprocess.run([sys.executable, "-m", "padeval.cli", *argv], cwd=run_dir, env=env,
                              capture_output=True)
        stem = os.path.join(run_dir, "streams", f"{k:02d}-{argv[0]}")
        for ext, data in (("stdout", proc.stdout), ("stderr", proc.stderr),
                          ("exit", f"{proc.returncode}\n".encode())):
            with open(f"{stem}.{ext}", "wb") as fh:
                fh.write(data)
        codes.append(proc.returncode)
    return codes


def differing(a: str, b: str) -> list[str]:
    """The relative paths of files under ``a`` and ``b`` whose bytes differ or that one lacks."""
    def files(root: str) -> set[str]:
        return {os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names}

    in_a, in_b = files(a), files(b)
    return sorted(
        path for path in in_a | in_b
        if path not in in_a or path not in in_b
        or not filecmp.cmp(os.path.join(a, path), os.path.join(b, path), shallow=False)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare the working tree with")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    diffs = []
    with tempfile.TemporaryDirectory(prefix="diff-outputs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        bench_pairs.export_tree(args.parent, trees["parent"])
        bench_pairs.export_worktree(trees["change"])
        for workload in args.workload or WORKLOADS:
            inputs = os.path.join(tmp, "setup", workload)
            os.makedirs(inputs)
            ops = setup_inputs(trees["parent"], workload, args.seed, args.scale, inputs)
            runs = {side: os.path.join(tmp, "runs", side, workload) for side in trees}
            codes = {}
            for side, run_dir in runs.items():
                shutil.copytree(inputs, run_dir)
                codes[side] = run_ops(trees[side], run_dir, ops)
            found = differing(runs["parent"], runs["change"])
            exits = ", ".join(f"{side} {' '.join(map(str, c))}" for side, c in codes.items())
            print(f"{workload}: {len(ops)} ops (exit codes: {exits}), {len(found)} paths differ", flush=True)
            diffs += [f"{workload}/{path}" for path in found]
    for path in diffs:
        print(path)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
