"""Scenario runner: parse a JSON config, dispatch one command, emit artifacts.

Each command is one row of _COMMANDS.  run refuses any key its row does not
list and reads every key before the handler runs: the handlers only call
the library and write outputs.  Exit codes: 0 for pass/converged, 2 when
hypotheses are Inapplicable, a certificate fails or hopf's interior ordering
fails, 1 for hard errors (vacuum, non-convergence, bad config, I/O).
Outputs are deterministic: rerunning an identical scenario yields
byte-identical files (fixed key order, no timestamps).
"""

import argparse
import functools
import inspect
import json
import math
import shutil
import sys
from pathlib import Path

from . import __version__
from .comparison import (
    Dichotomy,
    hopf_indicator,
    straight_edge_nodes,
    strong_comparison_check,
    verify_weak_comparison,
)
from .ellipticity import certify_uniform_ellipticity
from .errors import (
    ConfigError,
    ExpressionDomainError,
    ExpressionParseError,
    NonConvergenceError,
    SphereflowError,
)
from .expressions import evaluate_expression
from .fieldio import (
    read_field_csv,
    read_mask_csv,
    write_field_csv,
    write_json_report,
    write_l2_csv,
    write_pgm,
    write_type_map_csv,
)
from .gas import EPS_TYPE, GasModel
from .grid import SphericalGrid
from .operators import classify_field
from .solver import BVProblem, manufactured_problem, solve_dirichlet


def _require(block, key, where):
    if key not in block:
        raise ConfigError(f"missing key '{where}.{key}'", key=f"{where}.{key}")
    return block[key]


@functools.cache
def _scalar_params(fn) -> dict:
    """The parameters of fn (a function or a dataclass) annotated int, float
    or bool, by name."""
    return {name: param
            for name, param in inspect.signature(fn).parameters.items()
            if param.annotation in (int, float, bool)}


def _block(cfg, key):
    """cfg[key], which must be a JSON object."""
    block = _require(cfg, key, "scenario")
    if not isinstance(block, dict):
        raise ConfigError(f"'scenario.{key}' must be a JSON object",
                          key=f"scenario.{key}")
    return block


def _refuse_unknown_keys(block, where, calls, other, reader):
    """Refuse a key that is not in other or a scalar parameter of calls."""
    allowed = {*other, *(key for fn in calls for key in _scalar_params(fn))}
    for name in block:
        if name not in allowed:
            raise ConfigError(f"unknown key '{where}.{name}': {reader} does "
                              f"not read it", key=f"{where}.{name}")


def _convert(kind, value):
    """value as kind, from a JSON value of that kind: a bool is true, false,
    1 or 0, an int is an integral number and a float is any finite number.
    Strings, and booleans where a number is due, are refused."""
    if kind is bool:
        ok = isinstance(value, int) and value in (0, 1)
    else:
        ok = (isinstance(value, int) and not isinstance(value, bool)
              or isinstance(value, float) and math.isfinite(value)
              and (kind is float or value.is_integer()))
    if not ok:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return kind(value)


def _options(fn, block, where="command") -> dict:
    """Keyword arguments of fn (a function or a dataclass) read from block.

    Every parameter of fn annotated int, float or bool is read under its own
    name and converted to that type by _convert; it is required when fn
    gives it no default, and otherwise falls back to that default.
    """
    kwargs = {}
    for name, param in _scalar_params(fn).items():
        value = (_require(block, name, where) if param.default is param.empty
                 else block.get(name, param.default))
        try:
            kwargs[name] = _convert(param.annotation, value)
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"bad value for '{where}.{name}': {err}",
                              key=f"{where}.{name}") from err
    return kwargs


def _build_gas(cfg) -> GasModel:
    block = _block(cfg, "gas")
    _refuse_unknown_keys(block, "gas", (GasModel,), (), "GasModel")
    return GasModel(**_options(GasModel, block, "gas"))


def _build_grid(cfg, base_dir: Path) -> SphericalGrid:
    block = _block(cfg, "grid")
    _refuse_unknown_keys(block, "grid", (SphericalGrid,), ("mask",),
                         "SphericalGrid")
    kwargs = _options(SphericalGrid, block, "grid")
    if "mask" in block:
        kwargs["mask"] = read_mask_csv(base_dir / block["mask"],
                                       kwargs["n_theta"], kwargs["n_phi"])
    return SphericalGrid(**kwargs)


def _field_from_spec(spec, grid, base_dir: Path, where: str):
    if isinstance(spec, str):
        return evaluate_expression(spec, grid)
    if isinstance(spec, dict) and "file" in spec:
        return read_field_csv(base_dir / spec["file"], grid)
    raise ConfigError(f"'{where}' must be given as an expression string or "
                      f"{{\"file\": <path>}}", key=where)


def _cmd_classify(gas, grid, args, out, pgm: bool = False):
    tm = classify_field(gas, args["field"])
    write_type_map_csv(out / "type_map.csv", grid, tm.letters())
    write_l2_csv(out / "l2.csv", grid, tm.l2)
    if pgm:
        write_pgm(out / "l2.pgm", tm.l2)
    counts = tm.counts()
    write_json_report(out / "report.json", {
        "command": "classify",
        "eps_type": EPS_TYPE,
        "counts": counts,
    })
    return 0, f"classified {grid.n_theta * grid.n_phi} nodes: {counts}"


def _cmd_solve(gas, grid, args, out, solve):
    problem = BVProblem(gas=gas, grid=grid, boundary=args["boundary"],
                        source=args["source"])
    phi, report = solve_dirichlet(problem, **solve)
    write_field_csv(out / "solution.csv", phi)
    write_json_report(out / "report.json", report.to_dict())
    passed = report.final_certificate.passed
    return (0 if passed else 2,
            f"converged in {report.iterations} Newton iterations, "
            f"residual {report.residual_history[-1]:.3e}, "
            f"certificate {'pass' if passed else 'fail'}")


def _cmd_certify(gas, grid, args, out, certify):
    cert = certify_uniform_ellipticity(gas, args["field"], **certify)
    write_json_report(out / "report.json", cert.to_dict())
    return (0 if cert.passed else 2,
            f"certificate {'pass' if cert.passed else 'fail'}: "
            f"eps_rho={cert.eps_rho:.4g} eps_L={cert.eps_L:.4g}")


def _cmd_compare(gas, grid, args, out, verify, strong):
    report = verify_weak_comparison(gas, args["field_minus"],
                                    args["field_plus"], **verify)
    try:
        strong_comparison_check(report, **strong)
    except ConfigError:  # a ValueError too
        raise
    except ValueError:
        pass  # Inapplicable or unordered: the dichotomy stays undefined
    write_json_report(out / "report.json", report.to_dict())
    ok = report.verdict == "Pass" and report.dichotomy is not Dichotomy.ANOMALOUS
    return (0 if ok else 2, f"comparison verdict: {report.verdict}"
            + (f", dichotomy {report.dichotomy.value}"
               if report.dichotomy else ""))


def _cmd_hopf(gas, grid, args, out, verify, hopf):
    report = verify_weak_comparison(gas, args["field_minus"],
                                    args["field_plus"], **verify)
    given = "nodes" in args
    nodes = args["nodes"] if given else [
        (i, j) for i, j in straight_edge_nodes(grid)
        if abs(report.gap.values[i, j]) <= hopf["tol_touch"]]
    try:  # an empty list still has tol_touch and the ordering checked
        report.hopf = hopf_indicator(report, nodes if isinstance(nodes, list)
                                     else [], **hopf)
    except ConfigError as err:  # a ValueError too
        if err.key != "boundary_nodes":
            raise
        raise ConfigError(f"bad entry in 'command.nodes': {err}",
                          key="command.nodes") from err
    except ValueError:  # the interior ordering fails
        write_json_report(out / "report.json", report.to_dict())
        return 2, "interior ordering fails: hopf indicators skipped"
    if not report.hopf:
        raise ConfigError("'command.nodes' must be a nonempty list of pairs" if given
                          else "no touching straight-edge boundary nodes found",
                          key="command.nodes")
    write_json_report(out / "report.json", report.to_dict())
    positive = all(h.derivative > 0.0 for h in report.hopf)
    return (0 if report.applicable and positive else 2,
            f"hopf indicators at {len(report.hopf)} nodes, "
            f"min {min(h.derivative for h in report.hopf):.4g}")


def _cmd_manufacture(gas, grid, args, out):
    problem = manufactured_problem(gas, grid, args["exact"])
    write_field_csv(out / "exact.csv", args["exact"])
    write_field_csv(out / "source.csv", problem.source)
    shutil.copyfile(out / "exact.csv", out / "boundary.csv")  # same field
    write_json_report(out / "report.json", {
        "command": "manufacture",
        "admissible": True,
    })
    return 0, "manufactured problem written (exact/source/boundary)"


# One row per command: (handler, the library calls whose int, float and bool
# parameters are its scalar keys, its field keys with their default specs
# (None: required), its other keys).  The handler's own int, float and bool
# parameters (pgm) are scalar keys too.  run reads every key, then calls
# handler(gas, grid, args, out, *options, **flags): args maps the field keys
# to their fields and the other keys given to their values, options holds a
# dict of keyword arguments per call.  It returns (exit code, summary line).
_FIELD = {"field": None}
_PAIR = {"field_minus": None, "field_plus": None}
_COMMANDS = {
    "classify": (_cmd_classify, (), _FIELD, ()),
    "solve": (_cmd_solve, (solve_dirichlet,),
              {"boundary": None, "source": "0"}, ()),
    "compare": (_cmd_compare,
                (verify_weak_comparison, strong_comparison_check), _PAIR, ()),
    "certify": (_cmd_certify, (certify_uniform_ellipticity,), _FIELD, ()),
    "hopf": (_cmd_hopf, (verify_weak_comparison, hopf_indicator), _PAIR,
             ("nodes",)),
    "manufacture": (_cmd_manufacture, (), {"exact": None}, ()),
}


def run(scenario_path, out_dir, quiet: bool = False) -> int:
    """Execute one scenario config; returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = Path(scenario_path)
    try:
        cfg = json.loads(path.read_text())
    except OSError as err:
        print(f"cannot read scenario: {err}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as err:
        print(f"cannot read scenario: {path}: {err}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as err:
        print(f"config parse error at line {err.lineno}: {err.msg}",
              file=sys.stderr)
        return 1
    block_of = dict.fromkeys(_scalar_params(GasModel), "gas")
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("the scenario must be a JSON object",
                              key="scenario")
        gas = _build_gas(cfg)
        grid = _build_grid(cfg, path.parent)
        block = _block(cfg, "command")
        name = _require(block, "name", "command")
        if name not in tuple(_COMMANDS):
            raise ConfigError(
                f"unknown command '{name}' (expected one of {tuple(_COMMANDS)})",
                key="command.name")
        handler, calls, fields, other = _COMMANDS[name]
        block_of.update(dict.fromkeys((key for fn in (*calls, handler)
                                       for key in _scalar_params(fn)), "command"))
        _refuse_unknown_keys(block, "command", (*calls, handler),
                             ("name", *fields, *other), f"command '{name}'")
        options = [_options(fn, block) for fn in calls]
        flags = _options(handler, block)
        args = {key: block[key] for key in other if key in block}
        for key, default in fields.items():
            args[key] = _field_from_spec(block.get(key, default), grid,
                                         path.parent, f"command.{key}")
        code, summary = handler(gas, grid, args, out, *options, **flags)
        if not quiet:
            print(summary)
        return code
    except ConfigError as err:
        if err.key in block_of:  # a library refusal names its bare key
            err = f"bad value for '{block_of[err.key]}.{err.key}': {err}"
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (ExpressionParseError, ExpressionDomainError) as err:
        print(f"expression error: {err}", file=sys.stderr)
        return 1
    except NonConvergenceError as err:
        if err.report is not None:
            payload = err.report.to_dict()
            payload["error"] = str(err)
            write_json_report(out / "report.json", payload)
        if err.field is not None:
            write_field_csv(out / "solution.csv", err.field)
        print(f"solver failed: {err}", file=sys.stderr)
        return 1
    except SphereflowError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sphereflow",
        description="Conical potential flow on the unit sphere: solve, "
                    "classify, certify ellipticity and check comparison "
                    "principles.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("scenario", help="path to the scenario JSON")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--quiet", action="store_true",
                      help="suppress progress chatter")
    sub.add_parser("version", help="print the package version")
    args = parser.parse_args(argv)
    if args.cmd == "version":
        print(__version__)
        return 0
    return run(args.scenario, args.out, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
