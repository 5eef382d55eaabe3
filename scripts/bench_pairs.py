"""Alternating parent/change pairs of benchmark runs, summarised per metric.

Exports the tree of ``--parent REV`` (``git archive``) and the working tree
(its tracked files and the untracked ones git does not ignore) into two
temporary directories, removed on exit, so that both sides run from the same
kind of place.  Then for each of ``--pairs`` seeds from ``--seed-start`` it
runs

    python3 perfbench/run.py --workload W --seed s --seconds S --trace 0

where S is the ``run_seconds`` of ``BENCHMARK.json``, once in each tree,
alternating which of the two runs first.  It counts each side's failed ops
and its runs that the harness did not mark ``correct`` (an output check
failed or the negative control was missed); a pair with either is no clean
pair, whatever its numbers.  For each
end-to-end metric of ``BENCHMARK.json`` it prints both sides' median and
quartiles, the number of pairs the change won, whether the gap between the
medians exceeds the parent's interquartile range, and whether the change's
median is worse than the parent's by more than the metric's relative ``bound``.
It also prints each side's drift, its last run against its first: when the
host's speed changes inside a set, both sides move together and the pairs
say little, so a metric where either side drifts by more than its ``bound``
is marked "unresolved".

Run from the repository root:

    python3 scripts/bench_pairs.py --workload eval_scale --parent HEAD --pairs 10 --seed-start 21
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def drift(runs: list[float]) -> float:
    """The last run against the first, relative to the first."""
    first, last = runs[0], runs[-1]
    if first == 0.0:
        return 0.0 if last == 0.0 else math.inf
    return (last - first) / abs(first)


def summarise(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' quartiles over paired runs, how many pairs the change won,
    whether its median is worse than the parent's by more than ``bound``,
    relative to the parent's median, and each side's :func:`drift`, with
    whether either exceeds ``bound`` (the set is then unresolved).

    ``better`` is ``"lower"`` or ``"higher"``; a tie is no win.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of parent and change runs")
    sign = {"lower": 1.0, "higher": -1.0}[better]
    p_q, c_q = quartiles(parent), quartiles(change)
    drifts = drift(parent), drift(change)
    return {
        "parent": p_q,
        "change": c_q,
        "wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "gap_exceeds_parent_iqr": sign * (c_q[1] - p_q[1]) < 0 and abs(c_q[1] - p_q[1]) > p_q[2] - p_q[0],
        "worse_beyond_bound": sign * (c_q[1] - p_q[1]) > bound * abs(p_q[1]),
        "drift": drifts,
        "unresolved": max(map(abs, drifts)) > bound,
    }


def export_tree(rev: str, dest: str) -> None:
    """Write the committed files of ``rev`` under ``dest``."""
    blob = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        # The ``filter`` keyword is missing before Python 3.12 (3.10.12, 3.11.4 with the
        # security backports); the archive is the repository's own, so plain extraction is safe.
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def export_worktree(dest: str) -> None:
    """Copy the working tree's tracked files, and its untracked files that git
    does not ignore, under ``dest``; a tracked file deleted from the working
    tree is left out."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    for rel in filter(None, os.fsdecode(listed).split("\0")):
        src = os.path.join(ROOT, rel)
        if os.path.lexists(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel), follow_symlinks=False)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from ``tree``; its result JSON."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-start", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    # runs whose outputs failed the checks or whose negative control was not caught
    incorrect = {"parent": 0, "change": 0}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_tree:
        export_tree(args.parent, parent_tree)
        export_worktree(change_tree)
        trees = {"parent": parent_tree, "change": change_tree}
        for k in range(args.pairs):
            seed = args.seed_start + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args.workload, seed, seconds)
                runs[side].append(result["metrics"])
                failed[side] += result["failed"]
                incorrect[side] += result["correct"] is not True
            shown = "  ".join(
                f"{m['name']} {runs['parent'][-1][m['name']]['value']:.4g} -> {runs['change'][-1][m['name']]['value']:.4g}"
                for m in metrics
            )
            print(f"pair {k + 1} seed {seed} ({order[0]} first): {shown}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed_start}-{args.seed_start + args.pairs - 1}, "
          f"{seconds:g} s each; failed ops: parent {failed['parent']}, change {failed['change']}; "
          f"runs not correct: parent {incorrect['parent']}, change {incorrect['change']}")
    print(f"{'metric':<12} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} {'won':<7} "
          f"{'gap > parent IQR':<17} {'worse by > bound':<22} drift parent, change")
    for m in metrics:
        name = m["name"]
        s = summarise([r[name]["value"] for r in runs["parent"]], [r[name]["value"] for r in runs["change"]],
                      m["better"], m["bound"])
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (s["parent"], s["change"])]
        won = f"{s['wins']}/{s['pairs']}"
        gap, worse = ("yes" if s[key] else "no" for key in ("gap_exceeds_parent_iqr", "worse_beyond_bound"))
        worse = f"{worse} ({m['bound']:g})"
        drifts = ", ".join(f"{d:+.1%}" for d in s["drift"]) + (" unresolved" if s["unresolved"] else "")
        print(f"{name:<12} {cells[0]:<34} {cells[1]:<34} {won:<7} {gap:<17} {worse:<22} {drifts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
