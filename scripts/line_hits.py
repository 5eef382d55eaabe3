"""List the code lines of the package that a pytest run never executes.

Runs ``pytest.main(argv)`` under a stdlib line tracer (``sys.settrace``)
that follows only frames of files in ``src/padeval``, then prints
``path:line: source`` for every line that starts some instruction of a code
object compiled from those files and that the run never reached.  The
package is imported from ``src/`` under the tracer, so its import-time
lines count as run.  Exits with pytest's exit code.  Run from the
repository root:

    python3 scripts/line_hits.py tests -q
    python3 scripts/line_hits.py tests/test_ingest.py -q -k pgm
"""

from __future__ import annotations

import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "padeval")


def code_lines(path: str) -> set[int]:
    """The lines that start an instruction of some code object compiled from ``path``."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run_traced(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each package file, by absolute path."""
    import pytest

    hits: dict[str, set[int]] = {}
    followed: dict[str, set[int] | None] = {}  # per code file name: its hit set, or None

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in followed:
            path = os.path.abspath(name)
            followed[name] = hits.setdefault(path, set()) if path.startswith(PACKAGE + os.sep) else None
        if followed[name] is None:
            return None
        return on_line(frame, event, arg)

    def on_line(frame, event, arg):
        followed[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    sys.path.insert(0, SRC)
    sys.settrace(on_call)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = run_traced(argv)
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(code_lines(path) - hits.get(path, set())):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
