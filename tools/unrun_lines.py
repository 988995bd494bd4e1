"""List the statements of the package that no test executes.

Usage, from the root of a checkout:

    python tools/unrun_lines.py [PYTEST_ARGS...]

It runs pytest on ``tests/`` (plus any extra arguments) in this process,
under a ``sys.settrace`` hook that records the lines executed in
``src/crowdflow`` and ignores every other file.  After the tests it prints,
for every statement of the package that never ran, one line
``path:line  source`` with the path relative to the checkout, sorted by
path and line.  A statement counts as run when any line of its header ran:
the decorators and ``def`` line of a function, the condition of an ``if``,
the whole of a simple statement.  Statements that compile to no code (a
docstring, a bare annotation in a function) are never listed.

Only this process is traced: code that runs in a subprocess, such as the
CLI runs of the acceptance tests and the perfbench smoke tests, is not
seen, so a line listed here may still be run by such a test.  The script
needs nothing beyond the standard library and pytest, so it works where no
coverage package is installed.  It exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crowdflow"


def code_lines(code) -> set[int]:
    """Every line that holds an instruction of ``code`` or its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def headers(tree: ast.Module) -> list[tuple[int, range]]:
    """(first line, header lines) of every statement, in source order."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, range(start, max(end, node.lineno) + 1)))
    return sorted(out)


def unrun(path: Path, ran: set[int]) -> list[int]:
    source = path.read_text()
    compiled = code_lines(compile(source, str(path), "exec"))
    missed = []
    for first, header in headers(ast.parse(source)):
        if compiled.isdisjoint(header):
            continue  # no code to run: a docstring, a bare annotation
        if ran.isdisjoint(header):
            missed.append(first)
    return missed


def main(argv: list[str]) -> int:
    import pytest

    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main([str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text().splitlines()
        for line in unrun(path, ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT).as_posix()}:{line}  {source[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
