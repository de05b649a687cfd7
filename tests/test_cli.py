import functools
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import DEEP_EXPRESSIONS, SMALL_PATCH

from sphereflow import ScalarField, SphericalGrid, cli, operators
from sphereflow.fieldio import write_field_csv


def write_scenario(path, gas=None, grid=None, command=None):
    cfg = {
        "gas": gas or {"gamma": 2.0, "rho0": 1.0, "bernoulli": 4.0},
        "grid": grid or {
            "theta_min": SMALL_PATCH[0], "theta_max": SMALL_PATCH[1],
            "phi_min": SMALL_PATCH[2], "phi_max": SMALL_PATCH[3],
            "n_theta": 33, "n_phi": 33,
        },
        "command": command,
    }
    path.write_text(json.dumps(cfg, indent=1))
    return path


def grid_block(n, **extra):
    return {"theta_min": SMALL_PATCH[0], "theta_max": SMALL_PATCH[1],
            "phi_min": SMALL_PATCH[2], "phi_max": SMALL_PATCH[3],
            "n_theta": n, "n_phi": n, **extra}


def test_version_command(capsys):
    assert cli.main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == cli.__version__


def test_solve_and_compare_round_trip(tmp_path):
    # solve the supersolution (N f = 0) and the subsolution (N f = 0.05)
    sc_plus = write_scenario(tmp_path / "plus.json", command={
        "name": "solve", "boundary": "1.6 + 0.1*cos(theta)",
    })
    assert cli.run(sc_plus, tmp_path / "plus", quiet=True) == 0
    rep = json.loads((tmp_path / "plus" / "report.json").read_text())
    assert rep["converged"] is True
    assert rep["certificate"]["pass"] is True

    sc_minus = write_scenario(tmp_path / "minus.json", command={
        "name": "solve", "boundary": "1.6 + 0.1*cos(theta) - 0.01",
        "source": "0.05",
    })
    assert cli.run(sc_minus, tmp_path / "minus", quiet=True) == 0

    sc_cmp = write_scenario(tmp_path / "cmp.json", command={
        "name": "compare",
        "field_minus": {"file": str(tmp_path / "minus" / "solution.csv")},
        "field_plus": {"file": str(tmp_path / "plus" / "solution.csv")},
    })
    assert cli.run(sc_cmp, tmp_path / "cmp", quiet=True) == 0
    rep = json.loads((tmp_path / "cmp" / "report.json").read_text())
    assert rep["verdict"] == "Pass"
    assert rep["dichotomy"] == "Strict"
    assert rep["typo_reading_A_pass"] and rep["typo_reading_B_pass"]

    # swapped roles: hypotheses fail, exit code 2
    sc_swap = write_scenario(tmp_path / "swap.json", command={
        "name": "compare",
        "field_minus": {"file": str(tmp_path / "plus" / "solution.csv")},
        "field_plus": {"file": str(tmp_path / "minus" / "solution.csv")},
    })
    assert cli.run(sc_swap, tmp_path / "swap", quiet=True) == 2
    rep = json.loads((tmp_path / "swap" / "report.json").read_text())
    assert rep["verdict"] == "Inapplicable"


def test_hopf_command(tmp_path):
    sc_plus = write_scenario(tmp_path / "plus.json", command={
        "name": "solve", "boundary": "1.6 + 0.1*cos(theta)",
    })
    cli.run(sc_plus, tmp_path / "plus", quiet=True)
    sc_touch = write_scenario(tmp_path / "touch.json", command={
        "name": "solve", "boundary": "1.6 + 0.1*cos(theta)", "source": "0.05",
    })
    cli.run(sc_touch, tmp_path / "touch", quiet=True)

    sc_hopf = write_scenario(tmp_path / "hopf.json", command={
        "name": "hopf",
        "field_minus": {"file": str(tmp_path / "touch" / "solution.csv")},
        "field_plus": {"file": str(tmp_path / "plus" / "solution.csv")},
    })
    assert cli.run(sc_hopf, tmp_path / "hopf", quiet=True) == 0
    rep = json.loads((tmp_path / "hopf" / "report.json").read_text())
    assert len(rep["hopf"]) > 0
    assert all(entry["derivative"] > 0 for entry in rep["hopf"])


def test_hopf_takes_the_gradients_of_compare(tmp_path, monkeypatch):
    # hopf reads the comparison report, so it differentiates no field again;
    # the report differentiates each field once, and f- - f+ for the gap's
    # gradient, and h+ = max(f- - f+, 0) only where it is positive somewhere
    for name, source in (("plus", "0"), ("touch", "0.05")):
        sc = write_scenario(tmp_path / f"{name}.json", grid=grid_block(17), command={
            "name": "solve", "boundary": "1.6 + 0.1*cos(theta)", "source": source})
        assert cli.run(sc, tmp_path / name, quiet=True) == 0
    real, calls = operators.spherical_gradient, []

    def counted(f):
        calls.append(f)
        return real(f)
    for module in list(sys.modules.values()):  # every module that looks it up
        if module.__name__.startswith("sphereflow") and \
                getattr(module, "spherical_gradient", None) is real:
            monkeypatch.setattr(module, "spherical_gradient", counted)
    counts = {}
    touching = {"field_minus": {"file": str(tmp_path / "touch" / "solution.csv")},
                "field_plus": {"file": str(tmp_path / "plus" / "solution.csv")}}
    crossing = {"field_minus": "1.6 + 0.01*sin(8*phi)", "field_plus": "1.6"}
    for name, fields, code in (("compare", touching, 0), ("hopf", touching, 0),
                               ("crossing", crossing, 2)):
        sc = write_scenario(tmp_path / f"{name}.json", grid=grid_block(17), command={
            "name": "hopf" if name == "hopf" else "compare", **fields})
        calls.clear()
        assert cli.run(sc, tmp_path / name, quiet=True) == code
        counts[name] = len(calls)
    assert counts == {"compare": 3, "hopf": 3, "crossing": 4}


def test_compare_refuses_an_inadmissible_segment_of_an_ordered_pair(tmp_path, capsys):
    # f- <= f+ with equality on the first row, both admissible; their
    # theta-slopes cancel at t = a / 4 between them, where the Chaplygin
    # c^2 = z^2 + |q|^2 - 1 < 0 (test_comparison._fanned_pair)
    sc = write_scenario(tmp_path / "fan.json", grid=grid_block(17),
                        gas={"gamma": -1.0, "rho0": 1.0, "bernoulli": 2.0}, command={
        "name": "compare",
        "field_minus": "0.95 - (1 + 8*phi/pi)*(theta - pi/3)",
        "field_plus": "0.95 + (3 - 8*phi/pi)*(theta - pi/3)"})
    assert cli.run(sc, tmp_path / "fan", quiet=True) == 1
    assert "vacuum at node (0, 14), t=0.2372337950418355" in capsys.readouterr().err


def test_hopf_reads_the_weak_form_like_compare(tmp_path):
    # f- - f+ = 4e-9 at every node, within tol_touch and tol_order, so the
    # weak-form minimum -d (h+)^3 at beta = 1/2 is positive, not 0.0
    fields = {"field_minus": "1.5 + 4e-9", "field_plus": "1.5"}
    runs = {"compare": {"name": "compare"},
            "hopf": {"name": "hopf", "nodes": [[0, 16]], "tol_touch": 1e-8}}
    values = {}
    for name, command in runs.items():
        sc = write_scenario(tmp_path / f"{name}.json",
                            command={**command, **fields})
        cli.run(sc, tmp_path / name, quiet=True)
        rep = json.loads((tmp_path / name / "report.json").read_text())
        values[name] = rep["hypotheses"]["weak_form_nonnegative"]["value"]
    assert values["hopf"] == values["compare"] > 0.0


def test_classify_command(tmp_path):
    sc = write_scenario(
        tmp_path / "cls.json",
        grid={"theta_min": np.pi / 2 - 0.32, "theta_max": np.pi / 2 + 0.12,
              "phi_min": 0.0, "phi_max": 0.2, "n_theta": 23, "n_phi": 11},
        command={"name": "classify", "field": "2 + (theta - pi/2)",
                 "pgm": True},
    )
    assert cli.run(sc, tmp_path / "out", quiet=True) == 0
    type_map = (tmp_path / "out" / "type_map.csv").read_text()
    assert ",H" in type_map and ",E" in type_map
    assert (tmp_path / "out" / "l2.csv").exists()
    assert (tmp_path / "out" / "l2.pgm").exists()
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["counts"]["H"] > 0


def test_certify_exit_codes(tmp_path):
    ok = write_scenario(tmp_path / "ok.json", command={
        "name": "certify", "field": "1.6", "eps": 0.5,
    })
    assert cli.run(ok, tmp_path / "ok", quiet=True) == 0
    # a sloped field has max L^2 > 0.0001, so this margin is unattainable
    hard = write_scenario(tmp_path / "hard.json", command={
        "name": "certify", "field": "1.6 + 0.3*cos(theta)", "eps": 0.9999,
    })
    assert cli.run(hard, tmp_path / "hard", quiet=True) == 2
    # max L^2 = 3.37 on this field would pass a negative margin
    negative = write_scenario(tmp_path / "negative.json", grid=grid_block(9), command={
        "name": "certify", "field": "1.6 + 1.2*(theta - 1.3)", "eps": -5.0,
    })
    assert cli.run(negative, tmp_path / "negative", quiet=True) == 1
    assert not (tmp_path / "negative" / "report.json").exists()


def test_solve_exits_two_when_certificate_fails(tmp_path, capsys):
    # Newton converges, but L^2 > 1 at the theta_min edge
    sc = write_scenario(tmp_path / "hyp.json", command={
        "name": "solve", "boundary": "1.6 + 0.2*cos(theta)*cos(4*phi)",
    })
    assert cli.run(sc, tmp_path / "out") == 2
    assert "certificate fail" in capsys.readouterr().out
    assert (tmp_path / "out" / "solution.csv").exists()
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["converged"] is True
    assert rep["certificate"]["pass"] is False
    assert rep["certificate"]["eps_L"] < 0.0
    assert rep["certificate"]["worst_node"]["i"] == 0


def test_manufacture_command(tmp_path):
    sc = write_scenario(tmp_path / "man.json", command={
        "name": "manufacture", "exact": "2 + 0.1*cos(theta)",
    })
    assert cli.run(sc, tmp_path / "man", quiet=True) == 0
    for name in ("exact.csv", "source.csv", "boundary.csv", "report.json"):
        assert (tmp_path / "man" / name).exists()


def test_missing_gamma_names_the_key(tmp_path, capsys):
    sc = tmp_path / "bad.json"
    sc.write_text(json.dumps({
        "gas": {"rho0": 1.0},
        "grid": {"theta_min": 1.0, "theta_max": 2.0, "phi_min": 0.0,
                 "phi_max": 1.0, "n_theta": 9, "n_phi": 9},
        "command": {"name": "certify", "field": "1.6"},
    }))
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    assert "gas.gamma" in capsys.readouterr().err


def test_malformed_numbers_name_the_key(tmp_path, capsys):
    for key, command in (
            ("newton_tol", {"name": "solve", "boundary": "1.6",
                            "newton_tol": None}),
            ("pgm", {"name": "classify", "field": "1.6", "pgm": "abc"})):
        sc = write_scenario(tmp_path / f"{key}.json", command=command)
        assert cli.run(sc, tmp_path / key, quiet=True) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"command.{key}" in err


def test_unknown_command_lists_the_commands(tmp_path, capsys):
    for name in ("plot", ["solve"]):
        sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9),
                            command={"name": name})
        assert cli.run(sc, tmp_path / "out", quiet=True) == 1
        err = capsys.readouterr().err
        assert "config error: unknown command" in err and "'hopf'" in err


def test_bad_expression_exits_one(tmp_path, capsys):
    sc = write_scenario(tmp_path / "bad.json", command={
        "name": "certify", "field": "1/(theta-theta)",
    })
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    assert "expression" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(DEEP_EXPRESSIONS))
def test_deeply_nested_expression_exits_one(tmp_path, name):
    # a fresh interpreter, so the run sees the command line's own stack
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9), command={
        "name": "certify", "field": DEEP_EXPRESSIONS[name]})
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "sphereflow.cli", "run", str(sc),
         "--out", str(tmp_path / "out"), "--quiet"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("expression error: expression nested")
    assert "Traceback" not in done.stderr


def test_unparsable_json_exits_one(tmp_path, capsys):
    sc = tmp_path / "broken.json"
    sc.write_text("{not json")
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    assert "parse" in capsys.readouterr().err


def test_field_that_is_no_spec_names_the_key(tmp_path, capsys):
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9),
                        command={"name": "certify", "field": 5})
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "'command.field'" in err


def test_missing_scenario_file_exits_one(tmp_path, capsys):
    assert cli.run(tmp_path / "absent.json", tmp_path / "out", quiet=True) == 1
    assert capsys.readouterr().err.startswith("cannot read scenario")


def test_unwritable_report_is_an_io_error(tmp_path, capsys):
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9),
                        command={"name": "certify", "field": "1.6"})
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    assert capsys.readouterr().err.startswith("i/o error")


def test_main_runs_a_scenario(tmp_path, capsys):
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9),
                        command={"name": "certify", "field": "1.6"})
    assert cli.main(["run", str(sc), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["pass"]
    assert capsys.readouterr().out == ""


def test_vacuum_solve_exits_one(tmp_path, capsys):
    sc = write_scenario(tmp_path / "vac.json",
                        gas={"gamma": 2.0, "rho0": 1.0, "bernoulli": -10.0},
                        command={"name": "solve", "boundary": "0.1"})
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1


def test_nan_source_node_exits_one(tmp_path, capsys):
    # a nan residual is not above newton_tol, so this solve once "converged"
    # in 0 Newton iterations
    g = SphericalGrid(*SMALL_PATCH, 17, 17)
    source = np.zeros(g.shape)
    source[8, 8] = np.nan
    write_field_csv(tmp_path / "source.csv", ScalarField(g, source))
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(17), command={
        "name": "solve", "boundary": "1.6 + 0.1*cos(theta)",
        "source": {"file": "source.csv"}})
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    assert capsys.readouterr().err == \
        "error: source not finite at interior node (8, 8)\n"
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("name, key, message", [
    ("solve", "boundary", "initial iterate already inadmissible at node (0, 0)"),
    ("certify", "field", "density is not a finite double at node (0, 0): c^2 = 2.99864"),
])
def test_an_overflowing_density_exits_one(tmp_path, capsys, name, key, message):
    # c^2 > 0 at every node, but rho = (c^2)^1000 overflows past c^2 = 2.03:
    # solve once "converged" with residual nan, and certify passed with
    # eps_rho = inf
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9),
                        gas={"gamma": 1.001, "rho0": 1, "bernoulli": 4000},
                        command={"name": name, key: "1.6 + 0.1*cos(theta)"})
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any((tmp_path / "out").iterdir())


_BASE = "1.6 + 0.1*cos(theta)"
_BELOW = _BASE + " - 0.01*sin(6*(theta - pi/3))*sin(4*phi)"  # touches on the edges
DETERMINISTIC_COMMANDS = {
    "classify": {"field": "2 + (theta - pi/2)", "pgm": True},
    "solve": {"boundary": _BASE},
    "compare": {"field_minus": _BELOW, "field_plus": _BASE},
    "certify": {"field": _BASE},
    "hopf": {"field_minus": _BELOW, "field_plus": _BASE, "nodes": [[0, 8], [8, 0]]},
    "manufacture": {"exact": "2 + 0.1*cos(theta)*sin(2*phi)"},
}


@pytest.mark.parametrize("name", DETERMINISTIC_COMMANDS)
def test_reports_are_deterministic(tmp_path, name):
    # a repeated run writes the same files, byte for byte
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(17),
                        command={"name": name, **DETERMINISTIC_COMMANDS[name]})
    codes = [cli.run(sc, tmp_path / out, quiet=True) for out in ("a", "b")]
    # the expression pair is ordered, but f+ is no supersolution: exit 2
    assert codes == [2 if name in ("compare", "hopf") else 0] * 2
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "report.json" in files
    for file in files:
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    if name == "solve":
        rep = json.loads((tmp_path / "a" / "report.json").read_text())
        assert rep["stop_reason"] == "newton_tol"
        assert len(rep["forcing"]) == len(rep["inner_matvecs"]) == rep["iterations"]
    if name == "manufacture":  # the source is the residual, 0 where f is data
        source = np.loadtxt(tmp_path / "a" / "source.csv", delimiter=",", skiprows=1)
        boundary = SphericalGrid(*SMALL_PATCH, 17, 17).boundary_mask.ravel()
        assert np.all(source[boundary, 2] == 0.0)
        assert np.all(source[~boundary, 2] != 0.0)


def test_mask_file_round(tmp_path):
    mask_lines = []
    for i in range(9):
        row = ["1"] * 9
        if i < 3:
            row[:3] = ["0", "0", "0"]
        mask_lines.append(",".join(row))
    (tmp_path / "mask.csv").write_text("\n".join(mask_lines) + "\n")
    sc = write_scenario(
        tmp_path / "sc.json",
        grid={"theta_min": 1.0, "theta_max": 2.0, "phi_min": 0.0,
              "phi_max": 1.0, "n_theta": 9, "n_phi": 9, "mask": "mask.csv"},
        command={"name": "certify", "field": "1.6", "eps": 0.1},
    )
    assert cli.run(sc, tmp_path / "out", quiet=True) == 0


# The scalar keys a scenario block may carry, per library call they feed.
SCENARIO_KEYS = {
    "GasModel": {"gamma", "rho0", "bernoulli"},
    "SphericalGrid": {"theta_min", "theta_max", "phi_min", "phi_max",
                      "n_theta", "n_phi", "phi_periodic"},
    "solve_dirichlet": {"newton_tol", "max_newton"},
    "classify_field": set(),
    "certify_uniform_ellipticity": {"eps"},
    "verify_weak_comparison": {"tol_sub", "tol_order"},
    "strong_comparison_check": {"gap_tol"},
    "hopf_indicator": {"tol_touch"},
}

# The scalar keys of each command block: its calls' and its handler's.
COMMAND_KEYS = {
    "classify": {"pgm"},
    "solve": {"newton_tol", "max_newton"},
    "compare": {"tol_sub", "tol_order", "gap_tol"},
    "certify": {"eps"},
    "hopf": {"tol_sub", "tol_order", "tol_touch"},
    "manufacture": set(),
}


def test_scenario_keys_are_pinned():
    for name, keys in SCENARIO_KEYS.items():
        read = cli._options(getattr(cli, name), dict.fromkeys(keys, 1))
        assert set(read) == keys, name
    for name, (handler, calls, _, _) in cli._COMMANDS.items():
        keys = {key for fn in (*calls, handler) for key in cli._scalar_params(fn)}
        assert keys == COMMAND_KEYS[name], name


def test_every_key_reaches_its_library_call(tmp_path, monkeypatch):
    calls = {}
    for name in SCENARIO_KEYS:
        real = getattr(cli, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.setdefault(_name, []).append(kwargs)
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, functools.wraps(real, updated=())(spy))

    def run(tag, command, gas=None, grid=None):
        calls.clear()
        sc = write_scenario(tmp_path / f"{tag}.json", gas=gas,
                            grid=grid or grid_block(9), command=command)
        assert cli.run(sc, tmp_path / tag, quiet=True) in (0, 2)
        return {name: kwargs for name, (kwargs,) in calls.items()}

    gas = {"gamma": 1.4, "rho0": 1.2, "bernoulli": 3.5}
    grid = {"theta_min": 1.0, "theta_max": 2.0, "phi_min": 0.0,
            "phi_max": 2 * np.pi, "n_theta": 9, "n_phi": 12,
            "phi_periodic": True}
    solve = {"newton_tol": 1e-9, "max_newton": 30}
    verify = {"tol_sub": 1e-8, "tol_order": 1e-7}
    pair = {"field_minus": {"file": str(tmp_path / "touch" / "solution.csv")},
            "field_plus": {"file": str(tmp_path / "plus" / "solution.csv")}}
    seen = [
        (run("classify", {"name": "classify", "field": "1.6"}, gas, grid),
         {"GasModel": gas, "SphericalGrid": grid, "classify_field": {}}),
        (run("certify", {"name": "certify", "field": "1.6", "eps": 1e-3}),
         {"certify_uniform_ellipticity": {"eps": 1e-3}}),
        (run("plus", {"name": "solve", "boundary": "1.6 + 0.1*cos(theta)",
                      **solve}),
         {"solve_dirichlet": solve}),
        (run("touch", {"name": "solve", "source": "0.05",
                       "boundary": "1.6 + 0.1*cos(theta)"}), {}),
        (run("compare", {"name": "compare", **pair, **verify,
                         "gap_tol": 1e-9}),
         {"verify_weak_comparison": verify,
          "strong_comparison_check": {"gap_tol": 1e-9}}),
        (run("hopf", {"name": "hopf", **pair, **verify, "tol_touch": 1e-8}),
         {"verify_weak_comparison": verify,
          "hopf_indicator": {"tol_touch": 1e-8}}),
    ]
    for got, expected in seen:
        for name, values in expected.items():
            assert got[name] == values, name
            assert set(values) == SCENARIO_KEYS[name]
            params = inspect.signature(getattr(cli, name)).parameters
            for key, value in values.items():
                default = params[key].default
                assert default is params[key].empty or value != default, key
    assert (tmp_path / "hopf" / "report.json").exists()


@pytest.mark.parametrize("key, command", [
    ("beta", {"name": "compare", "beta": 2.0}),
    ("n_quad", {"name": "compare", "n_quad": 0}),
    ("eps_type", {"name": "classify", "field": "1.5", "eps_type": 0}),
    ("command.nodes", {"name": "hopf", "nodes": [[4, 4]]}),
])
def test_out_of_range_values_name_the_key(tmp_path, capsys, key, command):
    if command["name"] in ("compare", "hopf"):
        command = {"field_minus": "1.5", "field_plus": "1.5", **command}
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9),
                        command=command)
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err


@pytest.mark.parametrize("nodes, named", [
    ([[20, 4]], "(20, 4)"), ([[-1, 4]], "(-1, 4)"), ([[4]], "[4]"),
    (5, "list"),
])
def test_hopf_rejects_nodes_off_the_grid(tmp_path, capsys, nodes, named):
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9), command={
        "name": "hopf", "field_minus": "1.5", "field_plus": "1.5",
        "nodes": nodes})
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "command.nodes" in err and named in err


WAVE = "sin(4*(theta-pi/3)*3)*sin(4*phi)"  # zero on the patch edges


def test_hopf_skips_the_indicator_when_ordering_fails(tmp_path, capsys):
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9), command={
        "name": "hopf", "field_plus": "1.5",
        "field_minus": f"1.5 + 1e-3*{WAVE}"})
    assert cli.run(sc, tmp_path / "out") == 2
    assert "skipped" in capsys.readouterr().out
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["ordering_pass"] is False and rep["hopf"] == []


def test_hopf_indicator_reads_tol_order(tmp_path):
    # f- exceeds f+ by 2e-6 inside: within tol_order, so the comparison
    # accepts the ordering and the indicator reads it from its report
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9), command={
        "name": "hopf", "field_plus": "1.5",
        "field_minus": f"1.5 - 2e-6*{WAVE}", "tol_order": 1e-5})
    assert cli.run(sc, tmp_path / "out", quiet=True) == 2
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["ordering_pass"] is True and len(rep["hopf"]) > 0


THIN_MASK = "".join(",".join(["1" if i in (3, 4) else "0"] * 9) + "\n"
                    for i in range(9))  # theta rows 3-4 only


@pytest.mark.parametrize("gamma, command, message", [
    (1.0, {"name": "certify", "field": "40"},
     "isothermal density exponent exceeds +/-700 at node (0, 0)"),
    (2.0, {"name": "classify", "field": "1.6"},
     "mask too thin for a derivative stencil at node (3, 0)"),
    (2.0, {"name": "hopf", "field_minus": "1.6", "field_plus": "1.6",
           "nodes": [[0, 0]]},
     "node (0, 0) has 2 outward directions"),
    (2.0, {"name": "hopf", "field_minus": "1.6 - 0.01", "field_plus": "1.6",
           "nodes": [[0, 4]]},
     "fields differ by 1.000e-02 at node (0, 4)"),
], ids=["isothermal_overflow", "thin_mask", "corner_node", "non_touching_node"])
def test_failure_exits_one_naming_the_node(tmp_path, capsys, gamma, command,
                                           message):
    grid = grid_block(9)
    if command["name"] == "classify":
        (tmp_path / "mask.csv").write_text(THIN_MASK)
        grid["mask"] = "mask.csv"
    sc = write_scenario(tmp_path / "sc.json", grid=grid, command=command,
                        gas={"gamma": gamma, "rho0": 1.0, "bernoulli": 4.0})
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_null_grid_number_is_a_config_error(tmp_path, capsys):
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9, n_theta=None),
                        command={"name": "certify", "field": "1.6"})
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "grid.n_theta" in err


def test_nonconvergence_writes_report_and_solution(tmp_path, capsys):
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(17), command={
        "name": "solve", "boundary": "1.6 + 0.1*cos(theta)", "max_newton": 1})
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    assert "solver failed" in capsys.readouterr().err
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "Newton cap 1" in rep["error"] and rep["converged"] is False
    assert len(rep["residuals"]) == 2
    assert (tmp_path / "out" / "solution.csv").exists()


@pytest.mark.parametrize("edit, key", [
    (lambda cfg: cfg["command"].update(max_newtn=1), "command.max_newtn"),
    (lambda cfg: cfg["grid"].update(n_thta=9), "grid.n_thta"),
    (lambda cfg: cfg["gas"].update(gama=2.0), "gas.gama"),
    (lambda cfg: cfg.update(grid=5), "scenario.grid"),
    (lambda cfg: cfg.update(command=["solve"]), "scenario.command"),
    (lambda cfg: cfg["gas"].update(gamma=3.0, rho0=1e300), "gas.rho0"),
    (lambda cfg: cfg["grid"].update(sin_floor=1e-4), "grid.sin_floor"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_scenario_errors_name_the_key(tmp_path, capsys, edit, key):
    # a misspelt key, a block that is not an object, a gas whose reference
    # sound speed overflows and the pole floor, a grid constant, are config
    # errors, not tracebacks or silently ignored
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(17), command={
        "name": "solve", "boundary": "1.6 + 0.1*cos(theta)"})
    cfg = json.loads(sc.read_text())
    edit(cfg)
    sc.write_text(json.dumps(cfg))
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not any((tmp_path / "out").iterdir())


def test_scenario_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text("5")
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    assert capsys.readouterr().err.startswith("config error")


def test_manufacture_boundary_is_the_exact_field(tmp_path):
    sc = write_scenario(tmp_path / "man.json", grid=grid_block(17), command={
        "name": "manufacture", "exact": "2 + 0.1*cos(theta)*sin(2*phi)"})
    assert cli.run(sc, tmp_path / "man", quiet=True) == 0
    exact = (tmp_path / "man" / "exact.csv").read_bytes()
    assert exact.startswith(b"theta,phi,value\n")
    assert (tmp_path / "man" / "boundary.csv").read_bytes() == exact


@pytest.mark.parametrize("bad", ["field", "mask", "scenario"])
def test_non_utf8_input_names_the_file(tmp_path, capsys, bad):
    # a byte that is not UTF-8 is an error naming the file, not a traceback
    (tmp_path / "field.csv").write_bytes(
        b"theta,phi,value\n1.0,0,\xff2\n" if bad == "field" else
        b"theta,phi,value\n")
    (tmp_path / "mask.csv").write_bytes(
        b"1,1,1\n1,\xff,1\n1,1,1\n" if bad == "mask" else b"1,1,1\n" * 3)
    sc = write_scenario(
        tmp_path / "scenario.json",
        grid={"theta_min": 1.0, "theta_max": 2.0, "phi_min": 0.0,
              "phi_max": 1.0, "n_theta": 3, "n_phi": 3, "mask": "mask.csv"},
        command={"name": "certify", "field": {"file": "field.csv"}})
    if bad == "scenario":
        sc.write_bytes(sc.read_bytes().replace(b'"certify"', b'"\xffcertify"'))
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    named = "scenario.json" if bad == "scenario" else f"{bad}.csv"
    err = capsys.readouterr().err
    assert str(tmp_path / named) in err and "utf-8" in err


@pytest.mark.parametrize("block, value, key", [
    ("grid", {"phi_periodic": "false"}, "grid.phi_periodic"),
    ("grid", {"phi_periodic": 2}, "grid.phi_periodic"),
    ("grid", {"n_theta": 33.9}, "grid.n_theta"),
    ("grid", {"n_phi": "33"}, "grid.n_phi"),
    ("grid", {"n_phi": True}, "grid.n_phi"),
    ("command", {"max_newton": 1.5}, "command.max_newton"),
    ("command", {"newton_tol": False}, "command.newton_tol"),
    ("command", {"newton_tol": "1e-9"}, "command.newton_tol"),
], ids=["bool_text", "bool_two", "int_fraction", "int_text", "int_bool",
        "newton_fraction", "float_bool", "float_text"])
def test_scalar_keys_take_only_their_json_type(tmp_path, capsys, block,
                                              value, key):
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9), command={
        "name": "solve", "boundary": "1.6 + 0.1*cos(theta)"})
    cfg = json.loads(sc.read_text())
    cfg[block].update(value)
    sc.write_text(json.dumps(cfg))
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"'{key}'" in err


def test_integral_numbers_and_zero_one_are_accepted():
    block = {**grid_block(9), "n_theta": 9.0, "phi_periodic": 0}
    read = cli._options(cli.SphericalGrid, block, "grid")
    assert read["n_theta"] == 9 and type(read["n_theta"]) is int
    assert read["phi_periodic"] is False
    assert type(read["theta_min"]) is float
    assert cli._options(cli.solve_dirichlet, {"max_newton": 7})["max_newton"] == 7


# A valid command block per command, and a key that only another command
# reads.  Each command also refuses the settings of its calls that are module
# constants: the solver's, the weak form's beta and n_quad and the parabolic
# band eps_type.
COMMAND_BLOCKS = {
    "solve": ({"boundary": "1.6 + 0.1*cos(theta)"}, "eps"),
    "classify": ({"field": "1.6"}, "field_minus"),
    "compare": ({"field_minus": "1.6", "field_plus": "1.6"}, "nodes"),
    "hopf": ({"field_minus": "1.6", "field_plus": "1.6"}, "gap_tol"),
    "certify": ({"field": "1.6"}, "boundary"),
    "manufacture": ({"exact": "1.6"}, "pgm"),
}


SOLVER_CONSTANTS = {"max_damping": 20, "lin_tol": 1e-11, "lin_max_iter": 4000,
                    "cert_eps": 1e-7}
CHECK_CONSTANTS = {"compare": {"beta": 1.0, "n_quad": 6},
                   "hopf": {"beta": 1.0, "n_quad": 6},
                   "classify": {"eps_type": 0.0}}


@pytest.mark.parametrize("name, key", [
    *(pytest.param(name, key, id=name)
      for name, (_, key) in COMMAND_BLOCKS.items()),
    *(pytest.param("solve", key, id=f"solve-{key}") for key in SOLVER_CONSTANTS),
    *(pytest.param(name, key, id=f"{name}-{key}")
      for name, keys in CHECK_CONSTANTS.items() for key in keys),
])
def test_a_key_of_another_command_is_refused(tmp_path, capsys, name, key,
                                             monkeypatch):
    block = COMMAND_BLOCKS[name][0]
    value = {"eps": -5.0, "nodes": [[0, 4]], "gap_tol": -1.0, "pgm": True,
             **SOLVER_CONSTANTS, **CHECK_CONSTANTS.get(name, {})}.get(key, "1.6")
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9),
                        command={"name": name, **block, key: value})
    # refused before any field is read
    monkeypatch.setattr(cli, "evaluate_expression", None)
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"'command.{key}'" in err
    assert f"command '{name}' does not read it" in err
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("pgm, written", [
    (True, True), (False, False), (1, True), (0, False), ("no", None),
    (2, None),
])
def test_pgm_is_a_bool_key(tmp_path, capsys, pgm, written):
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9), command={
        "name": "classify", "field": "1.6", "pgm": pgm})
    code = cli.run(sc, tmp_path / "out", quiet=True)
    if written is None:
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "'command.pgm'" in err
        assert not (tmp_path / "out" / "report.json").exists()
    else:
        assert code == 0
        assert (tmp_path / "out" / "l2.pgm").exists() is written


# A solved field compared with itself passes; the constant 1.6 is no
# supersolution, so that pair is Inapplicable; the wave puts f- above f+
# inside, so that pair fails the interior ordering.
GAP_PAIRS = {
    "pass": ({"file": "solved/solution.csv"},) * 2,
    "inapplicable": ("1.6", "1.6"),
    "unordered": (f"1.5 + 1e-3*{WAVE}", "1.5"),
}


@pytest.mark.parametrize("pair", GAP_PAIRS)
@pytest.mark.parametrize("gap_tol", [-1.0, float("nan"), "abc"])
def test_gap_tol_is_checked_on_every_compare(tmp_path, capsys, pair,
                                             gap_tol):
    solve = write_scenario(tmp_path / "solve.json", grid=grid_block(9),
                           command={"name": "solve",
                                    "boundary": "1.6 + 0.1*cos(theta)"})
    assert cli.run(solve, tmp_path / "solved", quiet=True) == 0
    f_minus, f_plus = GAP_PAIRS[pair]
    command = {"name": "compare", "field_minus": f_minus, "field_plus": f_plus}
    good = write_scenario(tmp_path / "good.json", grid=grid_block(9),
                          command=command)
    assert cli.run(good, tmp_path / "good", quiet=True) == (
        0 if pair == "pass" else 2)
    rep = json.loads((tmp_path / "good" / "report.json").read_text())
    assert rep["applicable"] is (pair == "pass")
    assert rep["ordering_pass"] is (pair != "unordered")
    bad = write_scenario(tmp_path / "bad.json", grid=grid_block(9),
                         command={**command, "gap_tol": gap_tol})
    assert cli.run(bad, tmp_path / "bad", quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'command.gap_tol'" in err
    assert not (tmp_path / "bad" / "report.json").exists()


def test_nan_eps_type_is_refused(tmp_path, capsys):
    # the band width is the constant EPS_TYPE; a nan for the old key is
    # refused as a key classify does not read, before any number is checked
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9), command={
        "name": "classify", "field": "1.6", "eps_type": float("nan")})
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'command.eps_type'" in err
    assert "command 'classify' does not read it" in err
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("block, key, value", [
    ("gas", "gamma", float("nan")),
    ("gas", "bernoulli", float("inf")),
    ("grid", "theta_max", float("inf")),
    ("grid", "phi_min", float("nan")),
    ("command", "newton_tol", float("nan")),
    ("command", "newton_tol", float("-inf")),
])
def test_non_finite_numbers_are_refused(tmp_path, capsys, block, key, value):
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9), command={
        "name": "solve", "boundary": "1.6 + 0.1*cos(theta)"})
    cfg = json.loads(sc.read_text())
    cfg[block][key] = value
    sc.write_text(json.dumps(cfg))
    assert ("NaN" if value != value else "Infinity") in sc.read_text()
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"'{block}.{key}'" in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("key, command", [
    ("eps", {"name": "certify", "field": "1.6", "eps": -5.0}),
    ("max_newton", {"name": "solve", "boundary": "1.6 + 0.1*cos(theta)",
                    "max_newton": 0}),
    ("gap_tol", {"name": "compare", "field_minus": "1.6", "field_plus": "1.6",
                 "gap_tol": -1e-9}),
    ("newton_tol", {"name": "solve", "boundary": "1.6 + 0.1*cos(theta)",
                    "newton_tol": 1e-20}),
    ("eps", {"name": "certify", "field": "1.6", "eps": 0.0}),
    # refused with nodes, without them (before the default-node search)
    # and on an unordered pair
    ("tol_touch", {"name": "hopf", "field_minus": "1.6", "field_plus": "1.6",
                   "nodes": [[0, 4]], "tol_touch": -1e-9}),
    ("tol_touch", {"name": "hopf", "field_minus": "1.6", "field_plus": "1.6",
                   "tol_touch": -1e-9}),
    ("tol_touch", {"name": "hopf", "field_minus": f"1.5 + 1e-3*{WAVE}",
                   "field_plus": "1.5", "tol_touch": -1e-9}),
    # a negative tolerance turned a comparison Inapplicable, exit 2
    ("tol_sub", {"name": "compare", "field_minus": "1.6", "field_plus": "1.6",
                 "tol_sub": -1e-3}),
    ("tol_order", {"name": "compare", "field_minus": "1.6",
                   "field_plus": "1.6", "tol_order": -0.5}),
    ("tol_sub", {"name": "hopf", "field_minus": "1.6", "field_plus": "1.6",
                 "tol_sub": -1e-3}),
    ("tol_order", {"name": "hopf", "field_minus": "1.6", "field_plus": "1.6",
                   "tol_order": -0.5}),
])
def test_library_refusals_name_the_command_key(tmp_path, capsys, key, command):
    # the library names the key it refuses by its parameter name; the CLI
    # names it by its place in the scenario
    sc = write_scenario(tmp_path / "sc.json", grid=grid_block(9),
                        command=command)
    assert cli.run(sc, tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad value for 'command.{key}': ")
    assert not (tmp_path / "out" / "report.json").exists()


def test_two_island_pair_is_strict_on_one_and_identical_on_the_other(tmp_path):
    # the strong principle holds per connected domain: with phi columns
    # 15-17 masked out, raising the datum on the right island alone leaves
    # the left one Identical, which is no interior touching point
    mask = np.ones((33, 33), dtype=bool)
    mask[:, 15:18] = False
    (tmp_path / "mask.csv").write_text(
        "".join(",".join("1" if m else "0" for m in row) + "\n" for row in mask))
    grid = grid_block(33, mask="mask.csv")
    g = SphericalGrid(*SMALL_PATCH, 33, 33, mask=mask)
    datum = 1.6 + 0.1 * np.cos(g.theta_mesh) + np.where(g.phi_mesh > g.phis[17], 0.01, 0.0)
    write_field_csv(tmp_path / "plus_datum.csv", ScalarField(g, datum))
    for name, boundary in (("minus", "1.6 + 0.1*cos(theta)"),
                           ("plus", {"file": "plus_datum.csv"})):
        sc = write_scenario(tmp_path / f"{name}.json", grid=grid,
                            command={"name": "solve", "boundary": boundary})
        with pytest.warns(UserWarning, match="disconnected"):
            assert cli.run(sc, tmp_path / name, quiet=True) == 0
    sc = write_scenario(tmp_path / "cmp.json", grid=grid, command={
        "name": "compare", "field_minus": {"file": "minus/solution.csv"},
        "field_plus": {"file": "plus/solution.csv"}})
    assert cli.run(sc, tmp_path / "cmp", quiet=True) == 0
    rep = json.loads((tmp_path / "cmp" / "report.json").read_text())
    assert rep["verdict"] == "Pass" and rep["dichotomy"] == "Mixed"
    left, right = rep["components"]
    assert left["dichotomy"] == "Identical" and left["node"]["j"] < 15
    assert right["dichotomy"] == "Strict" and right["node"]["j"] > 17
    assert right["min_gap"] > 0.009 and right["max_abs_gap"] < 0.011
    assert left["max_abs_gap"] < 1e-12
