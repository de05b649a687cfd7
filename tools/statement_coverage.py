"""List the statements of src/sphereflow that the test suite never runs.

    python tools/statement_coverage.py [pytest arguments]

Runs the test suite under tests/ (pytest, in this process) under
sys.settrace, with line tracing limited to frames whose code lies in
src/sphereflow/*.py (no coverage package is needed), and
prints every statement of those files that emitted no line event, as
`path:line: source`.  Docstrings and global/nonlocal declarations emit no
line event, so they are left out.  A statement counts as run when any line
of its own (the header of a compound statement, decorators included) did.

Exits 1 when it lists a statement other than the body of an
`if __name__ == "__main__":` guard, and with pytest's code when the suite
fails.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sphereflow"


def _own_lines(node):
    """The lines whose events show that statement node ran."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    last = (body[0].lineno - 1 if isinstance(body, list) and body
            else node.end_lineno)
    return range(first, max(last, node.lineno) + 1)


def _is_main_guard(node):
    return (isinstance(node, ast.If)
            and ast.unparse(node.test) in ("__name__ == '__main__'",
                                           '__name__ == "__main__"'))


def statements(path: Path):
    """(statement, inside a __main__ guard's body) for every statement of
    path that can emit a line event."""
    tree = ast.parse(path.read_text(), str(path))
    guarded = {id(stmt) for node in tree.body if _is_main_guard(node)
               for part in node.body for stmt in ast.walk(part)}
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if (isinstance(node, ast.stmt) and id(node) not in docstrings
                and not isinstance(node, (ast.Global, ast.Nonlocal))):
            yield node, id(node) in guarded


def main(argv) -> int:
    import pytest

    files = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def trace(frame, event, arg):
        lines = files.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unguarded = 0
    for name, ran in files.items():
        path = Path(name)
        source = path.read_text().splitlines()
        for node, guarded in statements(path):
            if ran.isdisjoint(_own_lines(node)):
                unguarded += not guarded
                print(f"{path.relative_to(ROOT)}:{node.lineno}: "
                      f"{source[node.lineno - 1].strip()}")
    if code != 0:
        return int(code)
    return 1 if unguarded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
