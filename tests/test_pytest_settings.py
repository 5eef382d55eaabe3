"""The repository's pytest settings: every warning is an error, yet a failing
property test is reported as a failure and the session goes on."""

from __future__ import annotations

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "pyproject.toml")

_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED test_property.py::test_fails" in out
    assert "1 failed, 1 passed" in out
    assert result.returncode == 1
