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
