"""Span tracer for the traced run and the per-layer metrics derived from it.

Wrappers are installed from here on each traced public function, at every
`sphereflow` module attribute that refers to it, so a call is seen under
the name the caller looks up (`flow_residual` called by the solver is the
`sphereflow.solver.flow_residual` wrapper).  A span records name, calling
module, start, end, parent span and op id; spans stay in memory and are
written out when the run ends.  A function that the package no longer
has is listed as absent and its metrics read 0.
"""

import functools
import json
import os
import sys
import time

import numpy as np

# (defining module, function); the span is named "<layer>.<function>".
TRACED = (
    ("operators", "flow_residual"),
    ("operators", "spherical_gradient"),
    ("operators", "spherical_divergence"),
    ("operators", "field_density"),
    ("operators", "classify_field"),
    ("comparison", "mean_value_coefficients"),
    ("comparison", "linearized_operator"),
    ("comparison", "linearized_diag"),
    ("comparison", "verify_weak_comparison"),
    ("comparison", "weak_form_field"),
    ("comparison", "hopf_indicator"),
    ("comparison", "strong_comparison_check"),
    ("ellipticity", "check_segment_conditions"),
    ("ellipticity", "certify_uniform_ellipticity"),
    ("solver", "solve_dirichlet"),
    ("solver", "linear_solve"),
    ("solver", "manufactured_problem"),
    ("expressions", "evaluate_expression"),
    ("fieldio", "write_field_csv"),
    ("fieldio", "write_type_map_csv"),
    ("fieldio", "write_l2_csv"),
    ("fieldio", "write_pgm"),
    ("fieldio", "write_json_report"),
    ("fieldio", "read_field_csv"),
    ("fieldio", "read_mask_csv"),
    ("cli", "run"),
)
WRITERS = {"fieldio.write_field_csv", "fieldio.write_type_map_csv",
           "fieldio.write_l2_csv", "fieldio.write_pgm",
           "fieldio.write_json_report"}
READERS = {"fieldio.read_field_csv", "fieldio.read_mask_csv"}
CLI_COMMANDS = ("solve", "classify", "certify", "compare", "hopf",
                "manufacture")
JACOBIAN = {"comparison.mean_value_coefficients",
            "comparison.linearized_operator", "comparison.linearized_diag"}

NAME, SITE, START, END, PARENT, OP = range(6)


class Tracer:
    """Installs wrappers; records spans while `active` is true.

    With `spans=False` only the wrappers on `sphereflow.cli` are installed
    and they only note the class of an exception passing through, which
    is how a failed CLI op (exit code 1) gets its exception class.
    """

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.active = False
        self.spans = []
        self.stack = []
        self.op = None
        self.last_error = None
        self.solves = []        # (op id, iterations, residual history)
        self.bytes = {"read": 0, "written": 0}
        self.absent = []
        self._restore = []

    # -- installation ------------------------------------------------------
    def install(self):
        import importlib
        homes = {layer: importlib.import_module(f"sphereflow.{layer}")
                 for layer, _ in TRACED}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "sphereflow"
                                         or name.startswith("sphereflow."))]
        for layer, attr in TRACED:
            fn = getattr(homes[layer], attr, None)
            if fn is None:
                self.absent.append(f"{layer}.{attr}")
                continue
            for mod in modules:
                if not self.spans_on and mod.__name__ != "sphereflow.cli":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, self._wrap(
                            f"{layer}.{attr}", mod.__name__, fn))
        if self.spans_on:
            problem = getattr(sys.modules.get("sphereflow.solver"),
                              "BVProblem", None)
            post = getattr(problem, "__post_init__", None)
            if post is None:
                self.absent.append("solver.BVProblem.__post_init__")
            else:
                self._patch(problem, "__post_init__", self._wrap(
                    "solver.problem_setup", "sphereflow.solver", post))

    def _patch(self, owner, key, new):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old in reversed(self._restore):
            setattr(owner, key, old)
        self._restore.clear()

    # -- the wrapper ---------------------------------------------------------
    def _wrap(self, name, site, fn):
        tracer = self
        writes, reads = name in WRITERS, name in READERS
        is_linear_solve = name == "solver.linear_solve"
        is_solve = name == "solver.solve_dirichlet"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                try:
                    return fn(*args, **kwargs)
                except Exception as err:
                    tracer.last_error = type(err).__name__
                    raise
            if is_linear_solve and args:
                args = (tracer.counted_matvec(args[0]),) + args[1:]
            stack = tracer.stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                tracer.last_error = type(err).__name__
                if is_solve:
                    tracer.note_solve(getattr(err, "report", None))
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, site, start, end, parent,
                                     tracer.op)
            if is_solve:
                tracer.note_solve(out[1])
            if writes or reads:
                size = os.path.getsize(args[0])
                tracer.bytes["written" if writes else "read"] += size
            return out

        return traced

    def counted_matvec(self, op):
        tracer = self

        def matvec(x):
            stack = tracer.stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return op(x)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = ("comparison.matvec", "sphereflow.solver",
                                     start, end, parent, tracer.op)

        return matvec

    def note_solve(self, report):
        if report is not None:
            self.solves.append((self.op, int(report.iterations),
                                [float(r) for r in report.residual_history]))

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "site", "start", "end", "parent",
                                  "op"], "spans": self.spans,
                       "solves": self.solves}, fh)


def _median_ratio(history):
    ratios = [b / a for a, b in zip(history, history[1:]) if a > 0.0]
    return float(np.median(ratios)) if ratios else 0.0


def layer_metrics(tracer: Tracer, op_commands: dict,
                  overhead_s: float) -> dict:
    """Per-layer metrics of one traced round from the recorded spans."""
    spans = tracer.spans
    dur = {}
    calls = {}
    solver_dur = {}
    solver_calls = {}
    child = [0.0] * len(spans)
    cli = {c: [0.0, 0.0] for c in CLI_COMMANDS}
    for sp in spans:
        d = sp[END] - sp[START]
        dur[sp[NAME]] = dur.get(sp[NAME], 0.0) + d
        calls[sp[NAME]] = calls.get(sp[NAME], 0) + 1
        if sp[SITE] == "sphereflow.solver":
            solver_dur[sp[NAME]] = solver_dur.get(sp[NAME], 0.0) + d
            solver_calls[sp[NAME]] = solver_calls.get(sp[NAME], 0) + 1
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += d
    for idx, sp in enumerate(spans):
        if sp[NAME] == "cli.run":
            command = op_commands.get(sp[OP])
            if command in cli:
                cli[command][0] += sp[END] - sp[START]
                cli[command][1] += sp[END] - sp[START] - child[idx]

    def total(name):
        return dur.get(name, 0.0)

    def mean_us(name):
        return 1e6 * dur[name] / calls[name] if calls.get(name) else 0.0

    iters = sum(s[1] for s in tracer.solves)
    matvecs = calls.get("comparison.matvec", 0)
    residual_calls = solver_calls.get("operators.flow_residual", 0)
    write_s = sum(total(n) for n in WRITERS)
    read_s = sum(total(n) for n in READERS)
    written, read = tracer.bytes["written"], tracer.bytes["read"]
    out = {
        "solver.newton_iters": iters,
        "solver.newton_contraction": max(
            (_median_ratio(s[2]) for s in tracer.solves), default=0.0),
        "solver.linear_solve_s": total("solver.linear_solve"),
        "solver.matvecs": matvecs,
        "solver.matvecs_per_step": matvecs / iters if iters else 0.0,
        "solver.jacobian_s": sum(solver_dur.get(n, 0.0) for n in JACOBIAN),
        "solver.residual_s": solver_dur.get("operators.flow_residual", 0.0),
        "solver.residual_evals_per_step":
            residual_calls / iters if iters else 0.0,
        "solver.problem_setup_s": total("solver.problem_setup"),
        "operators.flow_residual_calls": calls.get("operators.flow_residual",
                                                   0),
        "operators.flow_residual_us": mean_us("operators.flow_residual"),
        "operators.spherical_gradient_us":
            mean_us("operators.spherical_gradient"),
        "operators.field_density_us": mean_us("operators.field_density"),
        "operators.classify_field_s": total("operators.classify_field"),
        "comparison.verify_weak_comparison_s":
            total("comparison.verify_weak_comparison"),
        "comparison.mean_value_coefficients_s":
            total("comparison.mean_value_coefficients"),
        "comparison.weak_form_field_s": total("comparison.weak_form_field"),
        "comparison.hopf_indicator_s": total("comparison.hopf_indicator"),
        "comparison.matvec_us": mean_us("comparison.matvec"),
        "ellipticity.check_segment_conditions_s":
            total("ellipticity.check_segment_conditions"),
        "ellipticity.certify_s":
            total("ellipticity.certify_uniform_ellipticity"),
        "fieldio.write_s": write_s,
        "fieldio.read_s": read_s,
        "fieldio.bytes_written": written,
        "fieldio.bytes_read": read,
        "fieldio.write_mb_per_s": written / write_s / 1e6 if write_s else 0.0,
        "fieldio.read_mb_per_s": read / read_s / 1e6 if read_s else 0.0,
        "expressions.evaluate_s": total("expressions.evaluate_expression"),
    }
    for command, (total, self_time) in cli.items():
        out[f"cli.{command}_s"] = total
        out[f"cli.{command}_self_s"] = self_time
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(spans)
    return out
