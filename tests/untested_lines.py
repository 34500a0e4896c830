"""List the statements of condenser that no test runs.

Runs pytest in this process with a line tracer (sys.settrace and
threading.settrace) that records the lines run in frames of src/condenser
only, then prints, module by module, each statement inside a function that
no line event reached.  Module-level and class-level statements run at
import and are skipped, as are docstrings, def and class lines, and
statements that compile to no code (global, nonlocal, a bare constant).

    PYTHONPATH=src python tests/untested_lines.py [pytest arguments]

With no arguments it runs the tier-1 suite (tests/ and perfbench/).  The
tracer sees only this process: code that runs only in a subprocess (the
benchmark's worker, `python -m condenser` runs) reads as untested.  Every
call in the process goes through the tracer, so the suite runs about three
times slower than alone (6 min against 2 min on a 2-vCPU machine).  Nothing
collects this file: it is not named test_*.py.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "condenser"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SKIPPED = (ast.Global, ast.Nonlocal, ast.ClassDef, *_FUNCTIONS)  # no code, or a def or class line


def _is_constant(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def statements(source: str) -> dict[int, tuple[int, int]]:
    """The statements inside function bodies, each as its first line mapped
    to the range of lines it owns: a simple statement all of its lines, a
    compound one those before its first nested statement."""
    out: dict[int, tuple[int, int]] = {}

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and in_function and not isinstance(child, _SKIPPED) and not _is_constant(child):
                nested = [n.lineno for n in ast.iter_child_nodes(child) if isinstance(n, (ast.stmt, ast.excepthandler))]
                out[child.lineno] = (child.lineno, max(child.lineno, min(nested) - 1) if nested else child.end_lineno)
            visit(child, in_function or isinstance(child, _FUNCTIONS))

    visit(ast.parse(source), False)
    return out


def main(argv: list[str]) -> int:
    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), str(ROOT / "perfbench")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        lines = ran.get(str(path), set())
        missed = [
            first for first, (lo, hi) in sorted(statements(source).items()) if not lines.intersection(range(lo, hi + 1))
        ]
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} untested")
            for first in missed:
                print(f"  {first}: {text[first - 1].strip()}")
    print(f"{total} untested statements; pytest exited {code}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
