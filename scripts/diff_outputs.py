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

The ``synth`` workload is no benchmark workload: its ops are fixed
``synth-gen`` draws that need no inputs, and they check the features and
landmarks writers, which the set-up of the others runs from the parent tree.
Nor is the ``dialects`` workload: this script writes its small fixed
features, labels, scores, landmarks and manifest tables itself, each with
LF, CRLF and lone-CR line breaks and with blank lines before, inside and
after it, and its ops read them: ocsvm-train and ocsvm-score, dv-score and
dv-batch on the depth map of a ``synth-gen depth`` op, fuse, eval-pad and
eval-vuln.

Byte identity holds for one numpy build and one OpenBLAS kernel: the
solver's and scorer's matrix products sum in the order of the kernel, so
ocsvm-train and ocsvm-score may differ in their last bits across kernels.
The first line printed names the numpy version and the OpenBLAS core that
this process, and so every op it starts, runs under.

Run from the repository root:

    python3 scripts/diff_outputs.py --parent HEAD --seed 11 --scale full
"""

from __future__ import annotations

import argparse
import ctypes
import filecmp
import glob
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import numpy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs  # noqa: E402

WORKLOADS = ("eval_scale", "ocsvm_fit", "detector_pipeline", "synth", "dialects")

#: The ``synth`` workload's ``synth-gen features`` draws, as (n_bonafide, n_attack, d, seed).
_FEATURE_DRAWS = ((4, 3, 5, 3), (50000, 50000, 1, 0), (20000, 20000, 16, 7), (1, 1, 65536, 1))

# run in the set-up directory with the parent's src and perfbench on the path
_SETUP = """
import json, sys
import workloads
workload = workloads.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(json.dumps([op.argv for op in workload.ops]))
"""


def blas_core() -> str:
    """The OpenBLAS core that numpy's bundled OpenBLAS runs on (``OPENBLAS_CORETYPE``
    forces one), or ``unknown`` where that library or its core query is missing."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def _env(*paths: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def setup_inputs(tree: str, workload: str, seed: int, scale: str, dest: str) -> list[list[str]]:
    """Write the inputs of ``workload`` under ``dest/inputs`` with ``tree``'s
    perfbench; the CLI arguments of each op of one pass."""
    env = _env(os.path.join(tree, "src"), os.path.join(tree, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", _SETUP, workload, str(seed), scale],
                          cwd=dest, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def synth_ops(scale: str) -> list[list[str]]:
    """The CLI arguments of the ``synth`` workload, which needs no inputs: the
    feature draws, each row count at most 50 at ``tiny`` scale, and one
    ``synth-gen depth`` per kind."""
    def rows(n: int) -> str:
        return str(min(n, 50) if scale == "tiny" else n)

    ops = [
        ["synth-gen", "features", "--n-bonafide", rows(n_bonafide), "--n-attack", rows(n_attack),
         "--d", str(d), "--seed", str(seed), "--output-dir", f"out/features-{k}"]
        for k, (n_bonafide, n_attack, d, seed) in enumerate(_FEATURE_DRAWS)
    ]
    kinds = ("curved-face", "planar-shirt", "wrinkled-shirt")
    return ops + [["synth-gen", "depth", "--kind", kind, "--output-dir", f"out/depth-{kind}"] for kind in kinds]


#: The ``dialects`` workload's line breaks.
_LINE_BREAKS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}
#: The places of the blank lines in a ``dialects`` table.
_BLANK_PLACES = ("leading", "interior", "trailing")


def _dialect_text(lines: list[str], brk: str, blanks: tuple[str, ...]) -> str:
    """The lines of a table, header first, each ended by ``brk``, with a blank
    line before the header, one after about half the rows, and two after the
    last row, as ``blanks`` names their places."""
    mid = len(lines) // 2 + 1
    lines = [*[""] * ("leading" in blanks), *lines[:mid], *[""] * ("interior" in blanks), *lines[mid:],
             *[""] * (2 * ("trailing" in blanks))]
    return "".join(line + brk for line in lines)


def dialects_ops(scale: str, dest: str) -> list[list[str]]:
    """Write the ``dialects`` tables under ``dest/inputs``; the CLI arguments of
    its ops.  Each variant of the tables has one line break and, at ``full``
    scale, blank lines in no place or in one place, with 200 feature and
    score rows; at ``tiny`` scale, blank lines in every place and 20 rows."""
    n = 20 if scale == "tiny" else 200
    rng = random.Random(5)
    ids = [f"s{k:03d}" for k in range(n)]
    labels = ["bonafide" if k % 2 == 0 else "attack" for k in range(n)]
    tables = {
        "features": ["sample_id,f0,f1,f2,f3"]
        + [",".join([sid, *(repr(rng.gauss(0.0, 1.0)) for _ in range(4))]) for sid in ids],
        "labels": ["sample_id,label"] + [f"{sid},{label}" for sid, label in zip(ids, labels)],
        "scores": ["sample_id,label,score"]
        + [f"{sid},{label},{rng.random()!r}" for sid, label in zip(ids, labels)],
        "vuln": ["sample_id,label,score"]
        + [f"v{k:03d},{('mated', 'nonmated', 'attackmated')[k % 3]},{rng.random()!r}" for k in range(n)],
        "landmarks": ["index,x,y"] + [f"{k},{8 + k % 6 * 3},{8 + k // 6 * 3}" for k in range(30)],
    }
    places = [_BLANK_PLACES] if scale == "tiny" else [(), *((place,) for place in _BLANK_PLACES)]
    os.makedirs(os.path.join(dest, "inputs"))
    ops = [["synth-gen", "depth", "--kind", "curved-face", "--width", "32", "--height", "32",
            "--output-dir", "out/depth"]]
    for name, brk in _LINE_BREAKS.items():
        for blanks in places:
            v = "-".join([name, *blanks])
            tables["manifest"] = ["sample_id,depth,landmarks,label"] + [
                f"c{k},../out/depth/depth.pgm,{v}-landmarks.csv,{labels[k]}" for k in range(4)
            ]
            for table, lines in tables.items():
                with open(os.path.join(dest, "inputs", f"{v}-{table}.csv"), "w", newline="") as fh:
                    fh.write(_dialect_text(lines, brk, blanks))
            stem = f"inputs/{v}-"
            ops += [
                ["ocsvm-train", "--features", stem + "features.csv", "--model", f"out/{v}-model.json"],
                ["ocsvm-score", "--model", f"out/{v}-model.json", "--features", stem + "features.csv",
                 "--labels", stem + "labels.csv", "--out", f"out/{v}-ocsvm.csv"],
                ["dv-score", "--depth", "out/depth/depth.pgm", "--landmarks", stem + "landmarks.csv"],
                ["dv-batch", "--manifest", stem + "manifest.csv", "--out", f"out/{v}-dv.csv"],
                ["fuse", "--a", stem + "scores.csv", "--b", f"out/{v}-ocsvm.csv", "--out", f"out/{v}-fused.csv"],
                ["eval-pad", "--bonafide", stem + "scores.csv", "--attack", stem + "scores.csv",
                 "--output-dir", f"out/{v}-pad"],
                ["eval-vuln", "--mated", stem + "vuln.csv", "--nonmated", stem + "vuln.csv",
                 "--attack", stem + "vuln.csv", "--output-dir", f"out/{v}-vuln"],
            ]
    return ops


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
    print(f"numpy {numpy.__version__}, OpenBLAS core {blas_core()}", flush=True)
    diffs = []
    with tempfile.TemporaryDirectory(prefix="diff-outputs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        bench_pairs.export_tree(args.parent, trees["parent"])
        bench_pairs.export_worktree(trees["change"])
        for workload in args.workload or WORKLOADS:
            inputs = os.path.join(tmp, "setup", workload)
            os.makedirs(inputs)
            if workload == "synth":
                ops = synth_ops(args.scale)
            elif workload == "dialects":
                ops = dialects_ops(args.scale, inputs)
            else:
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
