"""Smoke tests for the experiment scripts under ``scripts/``."""

from __future__ import annotations

import importlib.util
import math
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))


def load_script(name: str):
    path = os.path.join(HERE, "..", "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_separation_sweep_chain_separates_distant_clusters():
    sweep = load_script("separation_sweep")
    rate = sweep.chain_d_eer(4.0, 1000)
    # held-out clusters four sigmas apart: far below chance (0.5); 0.0225 at this seed
    assert 0.0 <= rate < 0.1
    assert sweep.chain_d_eer(4.0, 1000) == rate  # seeded: the chain is deterministic


def test_bench_pairs_summary_on_fixed_numbers():
    pairs = load_script("bench_pairs")
    parent, change = [4.0, 5.0, 6.0, 7.0], [3.0, 4.0, 5.0, 8.0]
    lower = pairs.summarise(parent, change, "lower", 0.25)
    assert lower["parent"] == (4.75, 5.5, 6.25)
    assert lower["change"] == (3.75, 4.5, 5.75)
    assert (lower["wins"], lower["pairs"]) == (3, 4)
    # the medians differ by 1.0, less than the parent's IQR of 1.5
    assert lower["gap_exceeds_parent_iqr"] is False
    higher = pairs.summarise(parent, change, "higher", 0.25)
    assert higher["wins"] == 1 and higher["gap_exceeds_parent_iqr"] is False
    tight = pairs.summarise([4.5, 4.6, 4.4], [3.4, 3.5, 3.3], "lower", 0.25)
    assert tight["wins"] == 3 and tight["gap_exceeds_parent_iqr"] is True
    assert pairs.summarise([2.0], [2.0], "lower", 0.25)["wins"] == 0  # a tie is no win
    assert pairs.quartiles([1.0]) == (1.0, 1.0, 1.0)
    # a bound of 0.25 on a parent median of 10: just inside and just outside
    # it, for a lower-is-better and a higher-is-better metric
    ten = [9.0, 10.0, 11.0]
    assert pairs.summarise(ten, [11.4, 12.4, 13.4], "lower", 0.25)["worse_beyond_bound"] is False
    assert pairs.summarise(ten, [11.6, 12.6, 13.6], "lower", 0.25)["worse_beyond_bound"] is True
    assert pairs.summarise(ten, [6.6, 7.6, 8.6], "higher", 0.25)["worse_beyond_bound"] is False
    assert pairs.summarise(ten, [6.4, 7.4, 8.4], "higher", 0.25)["worse_beyond_bound"] is True
    assert lower["worse_beyond_bound"] is False and higher["worse_beyond_bound"] is False


def test_bench_pairs_drift_on_fixed_numbers():
    pairs = load_script("bench_pairs")
    # the last run against the first, relative to the first
    assert pairs.drift([2.0, 9.0, 2.5]) == 0.25
    assert pairs.drift([4.0, 3.0]) == -0.25
    assert pairs.drift([7.0]) == 0.0
    assert pairs.drift([0.0, 0.0]) == 0.0 and pairs.drift([0.0, 1.0]) == math.inf
    steady = pairs.summarise([10.0, 11.0, 10.0], [9.0, 9.5, 9.0], "lower", 0.25)
    assert steady["drift"] == (0.0, 0.0) and steady["unresolved"] is False
    # a host that slowed down after the first pair: both sides drift, by
    # +100% and +150%, beyond a bound of 0.25
    slowed = pairs.summarise([1.0, 2.0, 2.0], [1.0, 2.5, 2.5], "lower", 0.25)
    assert slowed["drift"] == (1.0, 1.5) and slowed["unresolved"] is True
    # one side is enough, and a drop counts as much as a rise
    assert pairs.summarise([10.0, 10.0], [10.0, 12.6], "lower", 0.25)["unresolved"] is True
    assert pairs.summarise([10.0, 7.4], [10.0, 10.0], "higher", 0.25)["unresolved"] is True
    # just inside the bound on both sides
    assert pairs.summarise([10.0, 12.4], [10.0, 7.6], "lower", 0.25)["unresolved"] is False


def test_bench_pairs_exports_the_archive_of_a_revision(tmp_path, monkeypatch):
    import io
    import subprocess
    import tarfile

    pairs = load_script("bench_pairs")
    blob = io.BytesIO()
    with tarfile.open(fileobj=blob, mode="w") as tar:
        body = b"print('parent')\n"
        info = tarfile.TarInfo("perfbench/run.py")
        info.size = len(body)
        tar.addfile(info, io.BytesIO(body))
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        return subprocess.CompletedProcess(argv, 0, stdout=blob.getvalue())

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    pairs.export_tree("abc123", str(tmp_path))
    assert calls == [["git", "archive", "abc123"]]
    assert (tmp_path / "perfbench" / "run.py").read_bytes() == b"print('parent')\n"


def test_bench_pairs_runs_for_the_declared_seconds_alternating_sides(monkeypatch, capsys):
    import json

    pairs = load_script("bench_pairs")
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    runs = []

    trees = {}

    def fake_run_once(tree, workload, seed, seconds):
        side = {path: name for name, path in trees.items()}[tree]
        runs.append((side, seed, seconds))
        value = 2.0 if side == "change" else 3.0
        metrics = {m["name"]: {"value": value} for m in benchmark["end_to_end"]}
        return {"correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(pairs, "export_tree", lambda rev, dest: trees.setdefault("parent", dest))
    monkeypatch.setattr(pairs, "export_worktree", lambda dest: trees.setdefault("change", dest))
    monkeypatch.setattr(pairs, "run_once", fake_run_once)
    assert pairs.main(["--workload", "eval_scale", "--parent", "HEAD", "--pairs", "2", "--seed-start", "5"]) == 0
    seconds = benchmark["run_seconds"]
    assert runs == [("parent", 5, seconds), ("change", 5, seconds), ("change", 6, seconds), ("parent", 6, seconds)]
    # both sides run from exported copies, neither from the checkout itself
    assert len(set(trees.values())) == 2 and pairs.ROOT not in trees.values()
    out = capsys.readouterr().out
    assert f"{seconds:g} s each" in out and "pass_s" in out
    assert "worse by > bound" in out
    # every run of a side reads the same, so no metric drifts
    assert "drift parent, change" in out and "+0.0%, +0.0%" in out and "unresolved" not in out
    assert "failed ops: parent 0, change 0; runs not correct: parent 0, change 0" in out


def test_bench_pairs_counts_the_runs_that_are_not_correct(monkeypatch, capsys):
    """A run can fail no op and still not be correct: a missed negative control
    or a set-up that did not repeat.  Such runs are counted per side."""
    import json

    pairs = load_script("bench_pairs")
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    trees = {}
    # per side, the seeds whose run the harness marks not correct
    not_correct = {"parent": {7}, "change": {5, 6}}

    def fake_run_once(tree, workload, seed, seconds):
        side = {path: name for name, path in trees.items()}[tree]
        metrics = {m["name"]: {"value": 1.0} for m in benchmark["end_to_end"]}
        return {"correct": seed not in not_correct[side], "failed": int(seed == 6), "metrics": metrics}

    monkeypatch.setattr(pairs, "export_tree", lambda rev, dest: trees.setdefault("parent", dest))
    monkeypatch.setattr(pairs, "export_worktree", lambda dest: trees.setdefault("change", dest))
    monkeypatch.setattr(pairs, "run_once", fake_run_once)
    assert pairs.main(["--workload", "eval_scale", "--parent", "HEAD", "--pairs", "3", "--seed-start", "5"]) == 0
    out = capsys.readouterr().out
    assert "failed ops: parent 1, change 1; runs not correct: parent 1, change 2" in out


def test_bench_pairs_exports_the_working_tree(tmp_path, monkeypatch):
    import subprocess

    pairs = load_script("bench_pairs")
    repo, dest = tmp_path / "repo", tmp_path / "dest"
    (repo / "perfbench").mkdir(parents=True)
    (repo / ".gitignore").write_text("/perfbench/_work/\n")
    (repo / "perfbench" / "run.py").write_text("committed\n")
    (repo / "gone.txt").write_text("deleted after the commit\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(git + ["add", "-A"], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "c"], cwd=repo, check=True)
    (repo / "perfbench" / "run.py").write_text("edited\n")
    (repo / "new.py").write_text("untracked\n")
    (repo / "perfbench" / "_work").mkdir()
    (repo / "perfbench" / "_work" / "out.csv").write_text("ignored\n")
    (repo / "gone.txt").unlink()
    monkeypatch.setattr(pairs, "ROOT", str(repo))
    pairs.export_worktree(str(dest))
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "new.py", "perfbench/run.py"]
    assert (dest / "perfbench" / "run.py").read_text() == "edited\n"


def test_line_hits_lists_the_lines_a_run_never_reaches():
    import subprocess
    import sys

    root = os.path.join(HERE, "..")
    argv = [sys.executable, os.path.join("scripts", "line_hits.py"), os.path.join("tests", "test_api.py"),
            "-q", "-p", "no:cacheprovider"]
    lines = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    # test_api.py imports every module and trains no model
    assert any(line.startswith("src/padeval/ocsvm.py:") and line.endswith(": x_raw = _training_array(features)")
               for line in lines)
    assert not [line for line in lines if line.endswith(": import numpy as np")]


def copy_of_the_checkout(dest):
    """The checkout's ``src`` and ``perfbench``, all the diff script runs, copied under ``dest``."""
    import shutil

    ignore = shutil.ignore_patterns("__pycache__", "_out", "_work")
    for part in ("src", "perfbench"):
        shutil.copytree(os.path.join(HERE, "..", part), os.path.join(dest, part), ignore=ignore)


# the dialects workload runs one synth-gen depth, then seven ops on each of
# its LF, CRLF and lone-CR tables
@pytest.mark.parametrize("workload, n_ops", [("eval_scale", 3), ("dialects", 22)])
def test_diff_outputs_finds_no_difference_between_copies_of_one_tree(monkeypatch, capsys, workload, n_ops):
    diff = load_script("diff_outputs")
    monkeypatch.setattr(diff.bench_pairs, "export_tree", lambda rev, dest: copy_of_the_checkout(dest))
    monkeypatch.setattr(diff.bench_pairs, "export_worktree", copy_of_the_checkout)
    assert diff.main(["--parent", "HEAD", "--scale", "tiny", "--workload", workload]) == 0
    exits = " ".join(["0"] * n_ops)
    assert capsys.readouterr().out == (
        f"{blas_header(diff)}\n{workload}: {n_ops} ops (exit codes: parent {exits}, change {exits}), 0 paths differ\n"
    )


def copy_with_changed_ingest(old, new):
    """A copy of the checkout, like :func:`copy_of_the_checkout`, whose ingest.py has ``old`` replaced by ``new``."""
    def copy(dest):
        copy_of_the_checkout(dest)
        path = os.path.join(dest, "src", "padeval", "ingest.py")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert old in text
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new, 1))

    return copy


def test_diff_outputs_names_the_file_a_changed_writer_makes(monkeypatch, capsys):
    diff = load_script("diff_outputs")
    # one byte of the DET CSV header differs: "threshold" becomes "Threshold"
    changed = copy_with_changed_ingest('_DET_HEADER = ["threshold"', '_DET_HEADER = ["Threshold"')
    monkeypatch.setattr(diff.bench_pairs, "export_tree", lambda rev, dest: copy_of_the_checkout(dest))
    monkeypatch.setattr(diff.bench_pairs, "export_worktree", changed)
    assert diff.main(["--parent", "HEAD", "--scale", "tiny", "--workload", "eval_scale"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [blas_header(diff), "eval_scale: 3 ops (exit codes: parent 0 0 0, change 0 0 0), 2 paths differ"]
    assert out[2:] == ["eval_scale/out/pad/det.csv", "eval_scale/out/vuln/det.csv"]


def test_diff_outputs_compares_the_synth_draws(monkeypatch, capsys):
    diff = load_script("diff_outputs")
    monkeypatch.setattr(diff.bench_pairs, "export_tree", lambda rev, dest: copy_of_the_checkout(dest))
    monkeypatch.setattr(diff.bench_pairs, "export_worktree", copy_of_the_checkout)
    assert diff.main(["--parent", "HEAD", "--scale", "tiny", "--workload", "synth"]) == 0
    exits = " ".join(["0"] * 7)
    assert capsys.readouterr().out == (
        f"{blas_header(diff)}\nsynth: 7 ops (exit codes: parent {exits}, change {exits}), 0 paths differ\n"
    )
    # one byte of the landmarks CSV header differs: "index" becomes "Index"
    changed = copy_with_changed_ingest('_LANDMARKS_HEADER = ["index"', '_LANDMARKS_HEADER = ["Index"')
    monkeypatch.setattr(diff.bench_pairs, "export_worktree", changed)
    assert diff.main(["--parent", "HEAD", "--scale", "tiny", "--workload", "synth"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == f"synth: 7 ops (exit codes: parent {exits}, change {exits}), 3 paths differ"
    assert out[2:] == [f"synth/out/depth-{kind}/landmarks.csv" for kind in
                       ("curved-face", "planar-shirt", "wrinkled-shirt")]


def blas_header(diff) -> str:
    """The first line diff_outputs prints: numpy's version and the OpenBLAS core, one word."""
    import re

    import numpy

    core = diff.blas_core()
    assert re.fullmatch(r"\w+", core)
    return f"numpy {numpy.__version__}, OpenBLAS core {core}"


def test_diff_outputs_names_no_core_where_numpy_cannot_tell(monkeypatch):
    diff = load_script("diff_outputs")
    with monkeypatch.context() as patch:
        patch.setattr(diff.glob, "glob", lambda pattern: [])
        assert diff.blas_core() == "unknown"
    # an OpenBLAS without the query
    monkeypatch.setattr(diff.glob, "glob", lambda pattern: ["libscipy_openblas64_.so"])
    monkeypatch.setattr(diff.ctypes, "CDLL", lambda path: object())
    assert diff.blas_core() == "unknown"
