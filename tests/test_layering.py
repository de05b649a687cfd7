"""No sphereflow module reaches into another module's private names, the
Bernoulli c^2 is written once, the segment phi_t is formed in one place,
every face flux takes its weights from one place, the interior's
connectivity is computed only by the grid, the strong comparison checks
read the weak comparison's report, only the solver builds the
preconditioner, every linear solve goes through solver.interior_solve, the
flux stencil makes no zero-padded copies, no module hands text to Python's
own compiler, and the package imports no scipy."""

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


def _gas_law_reads(path):
    """Reads of GasModel.bernoulli or GasModel.c0_sq outside
    gas.bernoulli_density and the GasModel class body."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = set()
    for node in ast.walk(tree):
        if (path.name == "gas.py" and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name in ("bernoulli_density", "GasModel")):
            exempt.update(range(node.lineno, node.end_lineno + 1))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in ("bernoulli", "c0_sq")
                and node.lineno not in exempt):
            yield f"{path.name}:{node.lineno} reads .{node.attr}"


def test_sound_speed_is_written_once():
    # every c^2 comes from bernoulli_density, so no second formula can
    # drift from the density it must match
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _gas_law_reads(path)]
    assert found == []


def _called_names(node):
    """Names called inside node, by name or as an attribute."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            yield (func.id if isinstance(func, ast.Name) else
                   func.attr if isinstance(func, ast.Attribute) else None)


def test_segment_is_formed_once():
    # segment_algebra differentiates each field once and is the only place
    # phi_t is formed; a per-t copy would round differently from it
    functions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            assert name != "segment_states", f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = set(_called_names(node))
    for name in ("segment_jacobian", "mean_value_coefficients", "check_segment_conditions"):
        assert "segment_algebra" in functions[name], name
        assert "spherical_gradient" not in functions[name], name


def _functions(path):
    """The module-level functions and class methods of path, by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _attribute_reads(node, attr):
    return [sub.lineno for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr == attr]


def test_face_fluxes_are_weighted_in_one_place():
    # the residual, its Jacobian, the rounding scale, the unit-density
    # stencil and its preconditioner weight their face fluxes alike, so a
    # change to the face states lands in all of them at once
    modules = {path.name: _functions(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert not [name for name, functions in modules.items() if "_face_flux" in functions]
    operators = modules["operators.py"]
    for name in ("flow_residual", "laplace_beltrami", "residual_roundoff",
                 "flow_jacobian", "principal_preconditioner"):
        assert "_face_weights" in set(_called_names(operators[name])), name
    readers = {path.name: _attribute_reads(ast.parse(path.read_text()), "sin_theta_face")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, lines in readers.items() if lines] == ["operators.py"]
    weights = operators["_face_weights"]
    assert all(weights.lineno <= line <= weights.end_lineno for line in readers["operators.py"])


def test_interior_connectivity_is_computed_by_the_grid():
    # one labelling, cached on the grid, serves the solver's warning and
    # the per-component dichotomy; a second flood fill could disagree
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _functions(path):
            if any(word in name for word in ("connect", "component", "flood")):
                assert path.name == "grid.py", f"{path.name} defines {name}"
        if path.name != "grid.py":
            assert "interior_labels" not in _functions(path), path.name
    assert "interior_labels" in _functions(PACKAGE / "grid.py")
    for name in ("solver.py", "comparison.py"):  # BVProblem and strong_comparison_check
        assert _attribute_reads(ast.parse((PACKAGE / name).read_text()), "interior_labels"), name


def test_strong_checks_read_the_report():
    # verify_weak_comparison differentiates each field and checks its
    # states once; the dichotomy and the Hopf indicators read its report
    functions = _functions(PACKAGE / "comparison.py")
    for name in ("strong_comparison_check", "hopf_indicator"):
        params = functions[name].args.args
        assert params[0].arg == "report", name
        assert ast.unparse(params[0].annotation) == "ComparisonReport", name
        called = set(_called_names(functions[name]))
        assert not called & {"spherical_gradient", "field_density",
                             "bernoulli_density", "segment_algebra"}, name


def _preconditioner_uses(path):
    """Loads of principal_preconditioner, by name or as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name == "principal_preconditioner" and isinstance(node.ctx, ast.Load):
            yield f"{path.name}:{node.lineno} uses principal_preconditioner"


def test_preconditioner_is_built_only_by_the_solver():
    # its build costs several applications, so solve_dirichlet builds it
    # once per solve; a build inside flow_jacobian would come back per step
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "solver.py"
             for hit in _preconditioner_uses(path)]
    assert found == []
    assert list(_preconditioner_uses(PACKAGE / "solver.py"))


def _linear_solve_calls(path):
    """Lines that call linear_solve, by name or as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name == "linear_solve":
                yield node.lineno


def test_linear_solve_has_one_caller():
    # interior_solve owns the interior embedding, the matvec count and the
    # fallback to the best iterate; a second caller would copy them
    calls = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := list(_linear_solve_calls(path)))}
    solver = PACKAGE / "solver.py"
    owner = next(node for node in ast.parse(solver.read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "interior_solve")
    assert list(calls) == ["solver.py"] and len(calls["solver.py"]) == 1
    assert owner.lineno <= calls["solver.py"][0] <= owner.end_lineno


def test_operators_make_no_padded_copies():
    # the flux stencil works on face slices: a SphericalGrid.shifted copy
    # per face average would bring back a zero-filled node array and the
    # arithmetic on its padding
    path = PACKAGE / "operators.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"operators.py:{node.lineno} calls .shifted"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "shifted"]
    assert found == []


def _python_compiler_uses(path):
    """Bare-name calls of eval, exec, compile or __import__, and imports of
    ast; an attribute call such as re.compile is not one of them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("eval", "exec", "compile", "__import__")):
            yield f"{path.name}:{node.lineno} calls {node.func.id}"
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom) else [])
        if "ast" in names:
            yield f"{path.name}:{node.lineno} imports ast"


def test_scenario_text_never_reaches_eval():
    # the expression language is parsed by its own grammar: a rewrite that
    # handed scenario text to Python would run whatever a scenario holds
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _python_compiler_uses(path)]
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
