"""Scenario runner: parse a JSON config, dispatch one command, emit artifacts.

Each command is one row of _COMMANDS.  run reads every key before the
handler runs, each block through _read, which refuses the keys the block
does not read and converts the rest: the handlers only call the library and
write outputs, with no try.  Exit codes: 0 for pass/converged, 2 when
hypotheses are Inapplicable, a certificate fails or hopf's interior ordering
fails, 1 for hard errors (vacuum, non-convergence, bad config, I/O).  Outputs are
deterministic: rerunning an identical scenario yields byte-identical files
(fixed key order, no timestamps).

The scenario contract, which a sweep of single-key edits in test_cli holds:
- every block (gas, grid, command and a {"file": ...} field spec) refuses a
  key it does not read;
- a JSON number means the same thing in every int position: 33 and 33.0
  are 33, in a hopf node too, and 33.5, booleans and strings are refused;
- run returns 0, 1 or 2 and never raises;
- a refusal (exit 1) prints one line to stderr, starting with one of
  "config error: ", "config parse error", "cannot read scenario: ",
  "expression error: ", "error: ", "solver failed: " or "i/o error: ";
  exits 0 and 2 print nothing there;
- a key's value is refused or accepted whatever the fields' verdict: the
  library checks its inputs before it reads a pair's ordering.
"""

import argparse
import functools
import inspect
import json
import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .comparison import (
    Dichotomy,
    hopf_indicator,
    strong_comparison_check,
    verify_weak_comparison,
)
from .ellipticity import certify_uniform_ellipticity
from .errors import (
    ConfigError,
    ExpressionDomainError,
    ExpressionParseError,
    GridError,
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
from .gas import EPS_TYPE, FlowType, GasModel
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


def _read(block, where, reader, calls, other, block_of) -> list:
    """A dict of keyword arguments per call of calls (functions or dataclasses)
    read from block, the JSON object at where.  A key that is neither in other
    nor a scalar parameter of calls (annotated int, float or bool) is refused
    first.  Each scalar parameter is then read under its name, converted by
    _convert, and required when its call gives it no default; block_of maps
    it and each other key to where, for run to name a refused bare key's block."""
    params = [_scalar_params(fn) for fn in calls]
    block_of.update(dict.fromkeys(other, where))
    for name in block:
        if name not in other and not any(name in p for p in params):
            raise ConfigError(f"unknown key '{where}.{name}': {reader} does "
                              f"not read it", key=f"{where}.{name}")
    options = [{} for _ in calls]
    for kwargs, p in zip(options, params):
        for name, param in p.items():
            block_of[name] = where
            value = (_require(block, name, where) if param.default is param.empty
                     else block.get(name, param.default))
            try:
                kwargs[name] = _convert(param.annotation, value)
            except (TypeError, ValueError, OverflowError) as err:
                raise ConfigError(f"bad value for '{where}.{name}': {err}",
                                  key=f"{where}.{name}") from err
    return options


def _field_from_spec(spec, grid, base_dir: Path, where: str):
    if isinstance(spec, str):
        return evaluate_expression(spec, grid)
    if isinstance(spec, dict) and isinstance(spec.get("file"), str):
        _read(spec, where, "a field spec", (), ("file",), {})
        field = read_field_csv(path := base_dir / spec["file"], grid)
        bad = np.argwhere(~np.isfinite(field.values))  # as an expression's
        if bad.size:
            i, j = bad[0].tolist()
            raise GridError(f"{path}: value {field.values[i, j]} at node ({i}, {j}) "
                            "is not finite")
        return field
    raise ConfigError(f"'{where}' must be given as an expression string or "
                      f"{{\"file\": <path>}}", key=where)


def _cmd_classify(gas, grid, args, out, pgm: bool = False):
    codes, l2 = classify_field(gas, args["field"])
    letters = [t.letter for t in FlowType]
    write_type_map_csv(out / "type_map.csv", grid, np.array(letters)[codes])
    write_l2_csv(out / "l2.csv", grid, l2)
    if pgm:
        write_pgm(out / "l2.pgm", l2)
    counts = dict(zip(letters, np.bincount(codes.ravel(), minlength=len(letters)).tolist()))
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
    strong_comparison_check(report, **strong)  # None: the dichotomy is undefined
    write_json_report(out / "report.json", report.to_dict())
    ok = report.verdict == "Pass" and report.dichotomy is not Dichotomy.ANOMALOUS
    return (0 if ok else 2, f"comparison verdict: {report.verdict}"
            + (f", dichotomy {report.dichotomy.value}"
               if report.dichotomy else ""))


def _nodes(value):
    """'command.nodes', a nonempty list of pairs of ints, each index read by
    _convert.  Refused under the key nodes, as hopf_indicator refuses a node."""
    if not (isinstance(value, list) and value):
        raise ConfigError(f"expected a nonempty list of [i, j] pairs, got {value!r}",
                          key="nodes")
    nodes = []
    for raw in value:
        try:
            i, j = raw
            nodes.append((_convert(int, i), _convert(int, j)))
        except (TypeError, ValueError):
            raise ConfigError(f"node {raw!r} is not a pair of integers", key="nodes") from None
    return nodes


def _cmd_hopf(gas, grid, args, out, verify, hopf):
    report = verify_weak_comparison(gas, args["field_minus"],
                                    args["field_plus"], **verify)
    readings = hopf_indicator(report, args.get("nodes"), **hopf)
    write_json_report(out / "report.json", report.to_dict())
    if readings is None:
        return 2, "interior ordering fails: hopf indicators skipped"
    positive = all(h.derivative > 0.0 for h in readings)
    return (0 if report.applicable and positive else 2,
            f"hopf indicators at {len(readings)} nodes, "
            f"min {min(h.derivative for h in readings):.4g}")


def _cmd_manufacture(gas, grid, args, out):
    problem = manufactured_problem(gas, grid, args["exact"])
    write_field_csv(out / "exact.csv", args["exact"])
    write_field_csv(out / "source.csv", problem.source)
    shutil.copyfile(out / "exact.csv", out / "boundary.csv")  # same field
    write_json_report(out / "report.json", {"command": "manufacture"})
    return 0, "manufactured problem written (exact/source/boundary)"


# One row per command: (handler, the library calls whose int, float and bool
# parameters are its scalar keys, its field keys with their default specs
# (None: required), its other keys with their readers).  The handler's own
# int, float and bool parameters (pgm) are scalar keys too.  _read refuses
# any other key and converts the scalar ones, a dict of keyword arguments per
# call (options) and one for the handler (flags); run reads the rest, then
# calls handler(gas, grid, args, out, *options, **flags): args maps the field
# keys to their fields and the other keys given to what their readers
# return.  It returns (exit code, summary line).
_FIELD = {"field": None}
_PAIR = {"field_minus": None, "field_plus": None}
_COMMANDS = {
    "classify": (_cmd_classify, (), _FIELD, {}),
    "solve": (_cmd_solve, (solve_dirichlet,),
              {"boundary": None, "source": "0"}, {}),
    "compare": (_cmd_compare,
                (verify_weak_comparison, strong_comparison_check), _PAIR, {}),
    "certify": (_cmd_certify, (certify_uniform_ellipticity,), _FIELD, {}),
    "hopf": (_cmd_hopf, (verify_weak_comparison, hopf_indicator), _PAIR,
             {"nodes": _nodes}),
    "manufacture": (_cmd_manufacture, (), {"exact": None}, {}),
}


def run(scenario_path, out_dir, quiet: bool = False) -> int:
    """Execute one scenario config; returns the process exit code."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1
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
    block_of = {}  # the block of each scalar key read, filled by _read
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("the scenario must be a JSON object",
                              key="scenario")
        gas = GasModel(**_read(_block(cfg, "gas"), "gas", "GasModel", (GasModel,), (),
                               block_of)[0])
        block = _block(cfg, "grid")
        grid = SphericalGrid(**_read(block, "grid", "SphericalGrid", (SphericalGrid,),
                                     ("mask",), block_of)[0])  # checks the sizes
        if "mask" in block:
            if not isinstance(block["mask"], str):
                raise ConfigError(f"'grid.mask' must be a file name, got {block['mask']!r}",
                                  key="grid.mask")
            grid = replace(grid, mask=read_mask_csv(path.parent / block["mask"], *grid.shape))
        block = _block(cfg, "command")
        name = _require(block, "name", "command")
        if name not in tuple(_COMMANDS):
            raise ConfigError(
                f"unknown command '{name}' (expected one of {tuple(_COMMANDS)})",
                key="command.name")
        handler, calls, fields, other = _COMMANDS[name]
        *options, flags = _read(block, "command", f"command '{name}'", (*calls, handler),
                                ("name", *fields, *other), block_of)
        args = {key: read(block[key]) for key, read in other.items() if key in block}
        for key, default in fields.items():
            args[key] = _field_from_spec(block.get(key, default), grid,
                                         path.parent, f"command.{key}")
        code, summary = handler(gas, grid, args, out, *options, **flags)
        if not quiet:
            print(summary)
        return code
    except ConfigError as err:
        if err.key in block_of:  # the refusal names its bare key
            err = f"bad value for '{block_of[err.key]}.{err.key}': {err}"
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (ExpressionParseError, ExpressionDomainError) as err:
        print(f"expression error: {err}", file=sys.stderr)
        return 1
    except NonConvergenceError as err:
        write_json_report(out / "report.json", {**err.report.to_dict(), "error": str(err)})
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
