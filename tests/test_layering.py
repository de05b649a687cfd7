"""No sphereflow module reaches into another module's private names, and
the package imports no scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sphereflow"


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("sphereflow"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.endswith("__"):
                yield f"{path.name}:{node.lineno} imports {name}"


def test_no_private_cross_module_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _private_imports(path)]
    assert found == []


def test_import_loads_no_scipy():
    # a scipy import alone costs about 32 MB of peak RSS, so the package
    # stays numpy-only; checked in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = ("import sys, sphereflow; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
