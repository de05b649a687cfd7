"""No sphereflow module reaches into another module's private names, the
Bernoulli c^2 is written once, L^2 = |q|^2 / c^2 is formed once and a field
is read against rho > 0 and L^2 < 1 in one place, admissibility is read
from one window, the segment phi_t is formed in one place, every face flux
takes its weights from one place, the interior's connectivity is computed
only by the grid, the strong comparison checks read the weak comparison's
report, only the solver builds the preconditioner, every linear solve goes
through solver.interior_solve with flow_jacobian as its operator, the
grid's open faces are its one neighbour rule, the weak comparison has
one beta and one Gauss rule, one reader takes the scenario's scalar keys
from the signatures they feed, the CLI's command handlers catch nothing,
no module hands text to Python's own compiler, the package imports no
scipy, and every public name of the package has a caller outside the
tests, none of them a pointwise state."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sphereflow"


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
    gas.bernoulli_density and the GasModel class body, and of EXP_CAP or
    GasModel.window (the admissibility window's bounds) outside gas.py."""
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
        if path.name == "gas.py":
            continue
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name in ("EXP_CAP", "window"):
            yield f"{path.name}:{node.lineno} reads {name}"


def test_sound_speed_is_written_once():
    # every c^2 comes from bernoulli_density, so no second formula can
    # drift from the density it must match; and every reader admits a
    # state by the gas's one window, so no second admissibility rule
    # (a c^2 > 0 test, an exp() guard) can disagree with bernoulli_density
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
    for name in ("segment_jacobian", "weak_form_field", "check_segment_conditions"):
        assert "segment_algebra" in functions[name], name
    for name in ("segment_jacobian", "_mean_values", "check_segment_conditions"):
        assert "spherical_gradient" not in functions[name], name


def _functions(path):
    """The module-level functions and class methods of path, by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _attribute_reads(node, attr):
    return [sub.lineno for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr == attr]


def test_face_fluxes_are_weighted_in_one_place():
    # the residual, its Jacobian, the rounding scale and the preconditioner
    # weight their face fluxes alike, so a change to the face states lands
    # in all of them at once
    modules = {path.name: _functions(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert not [name for name, functions in modules.items() if "_face_flux" in functions]
    operators = modules["operators.py"]
    for name in ("flow_residual", "residual_roundoff", "flow_jacobian",
                 "principal_preconditioner"):
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


def _owners(tree):
    """Line -> the innermost function around it, by name."""
    owner = {}  # ast.walk visits outer functions first
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
    return owner


def _mach_quotients(path):
    """"module:function" of each quotient of a tangential speed (text naming
    q1, q2, q_sq, qsq or speed_sq) by a squared sound speed (text naming
    c2), by the / operator or np.divide."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = _owners(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            num, den = node.left, node.right
        elif isinstance(node, ast.Call) and _name(node.func) == "divide":
            num, den = node.args[:2]
        else:
            continue
        if (re.search(r"\bq(1|2|_sq|sq)|speed_sq", ast.unparse(num))
                and re.search(r"c2", ast.unparse(den))):
            yield f"{path.name}:{owner.get(node.lineno)}"


def test_mach_number_is_formed_once():
    # L^2 = |q|^2 / c^2 is gas.mach_sq alone, and a field is read against
    # rho > 0 and L^2 < 1 by ellipticity.field_readings: a second quotient
    # could mask or round differently from the one the certificate reads
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _mach_quotients(path)]
    assert found == ["gas.py:mach_sq"]
    called = {(path.name, name): set(_called_names(node))
              for path in sorted(PACKAGE.glob("*.py"))
              for name, node in _functions(path).items()}
    for reader in (("ellipticity.py", "certify_uniform_ellipticity"),
                   ("comparison.py", "verify_weak_comparison"),
                   ("solver.py", "manufactured_problem"),
                   ("operators.py", "classify_field")):
        assert called[reader] & {"field_readings", "mach_sq"}, reader
    assert "mach_sq" in called[("ellipticity.py", "field_readings")]


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


def _name(node):
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else None)


def _solved_operators(path):
    """The apply_full argument of every interior_solve call in path, a name
    replaced by every value assigned to it in the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assigned = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, []).append(node.value)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "interior_solve":
            arg = node.args[1]
            yield from assigned.get(arg.id, [arg]) if isinstance(arg, ast.Name) else [arg]


def test_solver_applies_one_linear_operator():
    # the start and every Newton step solve with flow_jacobian, which the
    # preconditioner inverts at a constant state; a second operator (the
    # Laplace-Beltrami stencil of the old harmonic start) would need its
    # own preconditioner and its own face fluxes
    solved = list(_solved_operators(PACKAGE / "solver.py"))
    assert len(solved) >= 2
    assert all(isinstance(node, ast.Call) and _name(node.func) == "flow_jacobian"
               for node in solved), [ast.unparse(node) for node in solved]
    assert "laplace_beltrami" not in _functions(PACKAGE / "operators.py")


def test_grid_has_one_neighbour_rule():
    # every neighbour relation reads SphericalGrid.open_faces, and the flux
    # stencil works on face slices; a rolled or padded node copy, or a
    # per-node neighbour method, would be a second rule for a cut face to miss
    found = [f"{path.name} calls {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in _called_names(ast.parse(path.read_text())) if name in ("roll", "pad")]
    assert found == []
    grid = _functions(PACKAGE / "grid.py")
    assert "open_faces" in grid and not {"shifted", "neighbor"} & set(grid)


def _parameters(path):
    """(function, parameter name) of every function and method in path."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        *filter(None, (args.vararg, args.kwarg))):
                yield node.name, arg.arg


def test_weak_comparison_has_one_beta_and_one_rule():
    # beta = 1/2, where the weak form's b-terms cancel, and the 8-point
    # Gauss-Legendre rule are the method's own: a knob that no caller turns
    # would be a second weak form and a second rule to keep right
    found = [f"{path.name}:{name}({arg})" for path in sorted(PACKAGE.glob("*.py"))
             for name, arg in _parameters(path) if arg in ("beta", "n_quad")]
    assert found == []
    assert [name for name, _ in _parameters(PACKAGE / "operators.py")
            if name == "gauss_legendre"] == []
    assert "gauss_legendre" in _functions(PACKAGE / "operators.py")


def _call_sites(path, callee):
    """The innermost function around each call of callee in path, by name
    or as an attribute ("<module>" outside every function)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = _owners(tree)
    return [owner.get(node.lineno, "<module>") for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node.func) == callee]


def test_scenario_keys_are_read_in_one_place():
    # cli._read refuses a block's unknown keys, converts its scalar keys and
    # notes their block for a library refusal, all from one reading of the
    # signatures; a second reader could accept a key that is not read, or
    # name the wrong block for a refusal
    found = [f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in _call_sites(path, "_scalar_params")]
    assert found == ["cli.py:_read"]


def test_command_handlers_only_call_and_write():
    # run reads every key before a handler runs and turns each refusal into
    # its exit code; the library returns its verdicts, so a try in a handler
    # would read a verdict from an exception
    handlers = {name: node for name, node in _functions(PACKAGE / "cli.py").items()
                if name.startswith("_cmd_")}
    assert len(handlers) == 6
    found = sorted(name for name, node in handlers.items()
                   if any(isinstance(sub, (ast.Try, ast.TryStar)) for sub in ast.walk(node)))
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


# Public names that no program code calls yet, each with the reason it stays.
CALLED_ONLY_BY_TESTS = {
    "segment_jacobian": "the discrete comparison certificate (inverse-positivity of its average)",
}


def _loads(node):
    """Names that node loads, as a name, an attribute, an imported name or a
    string constant (perfbench looks functions up by name)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name that only the tests reach is code the program does not run:
    # what such a test checks belongs on the readers the program does run.
    # Callers are the package, less a name's own definition and the
    # package's exports, and tools/ and perfbench/, which this test only reads
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined[own] = path.name
            if path.name != "__init__.py":
                referenced.update(set(_loads(node)) - {own})
    for path in sorted([*(ROOT / "tools").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        referenced.update(_loads(ast.parse(path.read_text(), filename=str(path))))
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in referenced)
    assert unused == sorted(f"{defined[name]}:{name}" for name in CALLED_ONLY_BY_TESTS)
    # the gas law is read on node arrays only: a FlowState, or a function
    # taking one, would be a second, pointwise copy of the array readers' algebra
    assert "FlowState" not in set(defined) | referenced
