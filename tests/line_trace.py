"""Line trace of the tier-1 suite over the package's statements.

    PYTHONPATH=src python tests/line_trace.py

Sets `sys.settrace` before `m2sl2` is imported, runs the tier-1 suite
in-process, then prints every executable line under `src/m2sl2/` that no
test reached.  The executable lines are those of the compiled modules'
line tables (`co_lines`), so no line list is kept by hand; the tables differ
between Python versions, so the check is pinned to one of them in CI.

Exits 1 if an unreached line is outside the allowlist, which is read off the
syntax tree: `return NotImplemented`, the bodies of `__repr__`, and the
body of the `if __name__ == "__main__":` guard.  Test outcomes are ignored:
timing tests fail under the tracer, and the untraced tier-1 run gates them.
Calls in child interpreters (the fresh-CLI tests) are not traced.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "m2sl2"
SOURCES = {os.path.realpath(p): p for p in sorted(PACKAGE.glob("*.py"))}


def executable_lines(path: Path) -> set[int]:
    """Every line that some instruction of the compiled module maps to."""
    out: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def allowed_lines(path: Path) -> set[int]:
    """Lines that may stay unreached: `return NotImplemented`, `__repr__`
    bodies and the `__main__` guard's body."""
    out: set[int] = set()

    def span(stmts):
        for stmt in stmts:
            out.update(range(stmt.lineno, stmt.end_lineno + 1))

    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Return) and isinstance(node.value, ast.Name)
                and node.value.id == "NotImplemented"):
            span([node])
        elif isinstance(node, ast.FunctionDef) and node.name == "__repr__":
            span(node.body)
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__"
                and isinstance(node.test.comparators[0], ast.Constant)
                and node.test.comparators[0].value == "__main__"):
            span(node.body)
    return out


def trace_tier1() -> dict[str, set[int]]:
    """Run the tier-1 suite under the tracer; the lines reached, per file."""
    reached: dict[str, set[int]] = {path: set() for path in SOURCES}
    # code object -> (its lines not reached yet, its file's reached lines);
    # None for code outside the package.  A call fires no event for the def
    # line, so it is left out.
    left: dict = {}

    def local(frame, event, arg):
        if event == "line":
            lines, seen = left[frame.f_code]
            lines.discard(frame.f_lineno)
            seen.add(frame.f_lineno)
            if not lines:  # every line of this code seen: stop paying for its events
                frame.f_trace_lines = False
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code not in left:
            path = os.path.realpath(code.co_filename)
            left[code] = (({line for _, _, line in code.co_lines() if line}
                           - {code.co_firstlineno}, reached[path])
                          if path in SOURCES else None)
        entry = left[code]
        return local if entry and entry[0] else None

    if "m2sl2" in sys.modules:
        raise SystemExit("m2sl2 was imported before the tracer was set")
    import pytest

    sys.settrace(call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                     "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    imported = sys.modules.get("m2sl2")
    if imported is None or os.path.realpath(imported.__file__) not in SOURCES:
        raise SystemExit(f"the suite did not import m2sl2 from {PACKAGE}")
    return reached


def main() -> int:
    reached = trace_tier1()
    outside = allowed = 0
    print("\nunreached package lines:")
    for real, path in SOURCES.items():
        text = path.read_text(encoding="utf-8").splitlines()
        ok = allowed_lines(path)
        for line in sorted(executable_lines(path) - reached[real]):
            mark = "allowed" if line in ok else "UNREACHED"
            allowed += line in ok
            outside += line not in ok
            print(f"{mark:9} {path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{outside} unreached outside the allowlist, {allowed} allowed")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
