"""Smoke tests for the experiment scripts under ``scripts/``."""

from __future__ import annotations

import importlib.util
import os

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
    lower = pairs.summarise(parent, change, "lower")
    assert lower["parent"] == (4.75, 5.5, 6.25)
    assert lower["change"] == (3.75, 4.5, 5.75)
    assert (lower["wins"], lower["pairs"]) == (3, 4)
    # the medians differ by 1.0, less than the parent's IQR of 1.5
    assert lower["gap_exceeds_parent_iqr"] is False
    higher = pairs.summarise(parent, change, "higher")
    assert higher["wins"] == 1 and higher["gap_exceeds_parent_iqr"] is False
    tight = pairs.summarise([4.5, 4.6, 4.4], [3.4, 3.5, 3.3], "lower")
    assert tight["wins"] == 3 and tight["gap_exceeds_parent_iqr"] is True
    assert pairs.summarise([2.0], [2.0], "lower")["wins"] == 0  # a tie is no win
    assert pairs.quartiles([1.0]) == (1.0, 1.0, 1.0)


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
        return {"failed": 0, "metrics": {m["name"]: {"value": value} for m in benchmark["end_to_end"]}}

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
