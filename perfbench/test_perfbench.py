"""Self-test of the benchmark harness on tiny inputs.

Run from the repository root (the tier-1 suite only collects ``tests/``)::

    python3 -m pytest perfbench -q

Each workload runs at ``--scale tiny``: every metric declared in
``BENCHMARK.json`` must be emitted with its unit, the outputs must pass the
checks with the negative control caught, and the traced counts must repeat
exactly across two runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("eval_scale", "ocsvm_fit", "detector_pipeline")
COUNT_UNITS = {"count", "rows", "bytes", "records", "values"}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, root: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
            "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert "negative_control caught" in lines
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 3
    return result


def _units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_declared_workloads_match_the_harness():
    assert tuple(w["name"] for w in _spec()["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    result = _result(workload, trace=0)
    declared = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert _units(result) == declared
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_runs(workload):
    first, second = _result(workload, trace=1), _result(workload, trace=1)
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert _units(first) == declared == _units(second)
    counts = [
        name
        for name, unit in declared.items()
        if unit in COUNT_UNITS and name != "python.gc_collections"
    ]
    assert "ocsvm.fit.iterations" in counts and "ingest.parse_report.calls" in counts
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    assert first["metrics"]["cli.run.calls"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    skip = shutil.ignore_patterns("_work", "_out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    proc = _run("eval_scale", trace=0, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
