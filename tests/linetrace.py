"""List each executable statement of ``src/icmvc`` that no test runs.

Runs the suite through ``pytest.main`` under ``sys.settrace`` and
``threading.settrace``, so it needs nothing beyond pytest, then prints one
``path:line: source`` per statement no test reached and a count. Arguments
are passed on to pytest. Code that runs in another process, such as a
grid's forked workers or a test's ``subprocess`` call, is invisible to it.

    python tests/linetrace.py                 # the whole suite
    python tests/linetrace.py -m "not slow"   # the fast lane
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "icmvc"


def executable_lines(path: Path) -> set:
    """The line numbers that carry bytecode in ``path`` or any code object nested in it."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run_traced(pytest_args: list) -> tuple[int, dict]:
    """Run pytest with a line tracer on ``src/icmvc``; returns its exit code and the lines run per file."""
    import pytest

    ran = {str(path): set() for path in SRC.glob("*.py")}
    hits_for = {}  # co_filename -> its set in ``ran``, or None for a file outside src/icmvc

    def trace_line(frame, event, arg):
        if event == "line":
            hits_for[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in hits_for:
            hits_for[name] = ran.get(os.path.realpath(name))
        hits = hits_for[name]
        if hits is None:
            return None
        hits.add(frame.f_lineno)
        return trace_line

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list) -> int:
    os.chdir(ROOT)  # pyproject.toml's testpaths and pythonpath are relative to it
    code, ran = run_traced(argv)
    missed = 0
    for name in sorted(ran):
        path = Path(name)
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} statements in src/icmvc ran in no test (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
