"""Print the lines of src/homesale/ that a pytest run never executes.

    python tools/line_reach.py [--strict] [pytest arguments ...]

Runs pytest in this process under a sys.settrace line collector that
follows only frames whose code lives in src/homesale/, on every thread
(validate runs its simulations in a thread pool).  The executable lines
of a module are the line numbers its compiled code objects carry
(co_lines), so comments, blank lines and docstrings never count.  The
body of an `if __name__ == "__main__":` guard is left out: it runs only
in a fresh interpreter, which this in-process collector cannot follow
(tests/test_input_checks.py runs `python -m homesale.cli` in a subprocess).

Prints each unreached line, then `unreached: N of M executable lines`.
Exits with pytest's status, or 1 under --strict when N > 0.  Stdlib
only, because coverage.py is not a dependency.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homesale"


def _code_lines(code) -> set[int]:
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _main_guard_body(tree: ast.Module) -> set[int]:
    lines = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def executable_lines(path: Path) -> set[int]:
    source = path.read_text()
    lines = _code_lines(compile(source, str(path), "exec"))
    return lines - _main_guard_body(ast.parse(source))


def main(argv: list[str]) -> int:
    strict = "--strict" in argv
    pytest_args = [a for a in argv if a != "--strict"]
    # Shared by the pool threads: each update is one dict or set call, and
    # a racing first lookup in `ours` stores the same value either way.
    reached: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}  # per code filename: does it live in PACKAGE?

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            ours[filename] = Path(filename).resolve().parent == PACKAGE
        if not ours[filename]:
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    by_path: dict[Path, set[int]] = {}
    for filename, lines in reached.items():
        by_path.setdefault(Path(filename).resolve(), set()).update(lines)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        gaps = sorted(lines - by_path.get(path, set()))
        total += len(lines)
        missed += len(gaps)
        source = path.read_text().splitlines()
        for line in gaps:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"unreached: {missed} of {total} executable lines")
    if strict and missed:
        return 1
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
