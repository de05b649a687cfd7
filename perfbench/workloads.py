"""Workload inputs: scenario files and the op plan a worker executes.

`generate(workload, seed, directory)` writes every scenario JSON a round
needs into `directory` and returns the plan (also written there as
`plan.json`).  Only numpy is imported here; the program under test is
never touched, so generation is pure input making.

A plan is a list of phases.  Each phase is a list of ops; an op names its
kind (`cli` runs a scenario through `sphereflow.cli.run`, `api` calls a
package function on fields read back from CSV), the per-op metric its time
feeds, and the check that validates its output.
"""

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("solve_ladder", "pair_suite", "scenario_io")

# README patch and the wide patch of the manufactured problem.
README_PATCH = (math.pi / 3, math.pi / 2, 0.0, math.pi / 4)
WIDE_PATCH = (math.pi / 3, 2 * math.pi / 3, 0.0, math.pi / 2)
README_GAS = {"gamma": 2.0, "rho0": 1.0, "bernoulli": 4.0}
README_BOUNDARY = "1.6 + 0.1*cos(theta)"

# f = 2 + 0.1 cos(theta) for gamma = 2, rho0 = 1, B = 4, where rho = c^2 =
# 3 - z^2/2 - |q|^2/2 and q = (-0.1 sin(theta), 0).  The source is
# N(f) = -0.1 (rho' sin + 2 rho cos) + 2 rho z with
# rho' = 0.1 z sin - 0.01 sin cos, written out in the scenario language.
MMS_EXACT = "2 + 0.1*cos(theta)"
_Z = "(2 + 0.1*cos(theta))"
_RHO = f"(3 - 0.5*{_Z}^2 - 0.005*sin(theta)^2)"
_DRHO = f"(0.1*{_Z}*sin(theta) - 0.01*sin(theta)*cos(theta))"
MMS_SOURCE = (f"-0.1*({_DRHO}*sin(theta) + 2*{_RHO}*cos(theta))"
              f" + 2*{_RHO}*{_Z}")

README_SIZES = (33, 65, 97)
MMS_SIZES = (65, 129)
SHORT_REPEATS = 3
# The n = 97 README solve fails today at any Newton cap (its contraction is
# 0.84 per step; 1e-10 needs about 135 steps), and the exact Jacobian of
# the ROADMAP needs at most 6.  A cap of 20 keeps that verdict and saves
# the 30 steps (about 20 s a run) that the default cap of 50 would add.
README_CAPS = {97: 20}
SCENARIO_IO_N = 513

# Per-gas data of the solver-built comparison pairs: boundary level inside
# the corridor where z >= c holds and the homogeneous solution stays
# subsonic on the README patch.
PAIR_GASES = (
    (-1.0, {"bernoulli": 2.0, "level": 1.50}),
    (1.0, {"bernoulli": 4.0, "level": 1.25}),
    (1.4, {"bernoulli": 4.0, "level": 1.40}),
    (2.0, {"bernoulli": 4.0, "level": 1.55}),
)
PAIR_N = 33
PAIR_AMPLITUDE = 0.04          # a1, a2 ~ U(-0.04, 0.04)
PAIR_MARGIN = (0.01, 0.05)     # boundary margin of the subsolution
PAIR_SOURCE = (0.02, 0.08)     # constant subsolution source
PAIR_CHECK_PASSES = 8          # check passes per round


def grid_block(patch, n):
    return {"theta_min": patch[0], "theta_max": patch[1],
            "phi_min": patch[2], "phi_max": patch[3],
            "n_theta": n, "n_phi": n}


def _write(directory: Path, name: str, gas: dict, grid: dict, command: dict):
    sub = directory / name
    sub.mkdir(parents=True, exist_ok=True)
    path = sub / "scenario.json"
    path.write_text(json.dumps({"gas": gas, "grid": grid,
                                "command": command}, indent=1))
    return {"scenario": f"{name}/scenario.json", "out": f"{name}/out"}


def _signed(x: float) -> str:
    return f"+ {x!r}" if x >= 0.0 else f"- {-x!r}"


def _solve_ladder(directory: Path, rng):
    phase = []
    for n in README_SIZES:
        command = {"name": "solve", "boundary": README_BOUNDARY}
        if n in README_CAPS:
            command["max_newton"] = README_CAPS[n]
        op = _write(directory, f"readme_n{n}", README_GAS,
                    grid_block(README_PATCH, n), command)
        op.update(id=f"readme_n{n}", kind="cli", command="solve",
                  metric=f"solve_readme_n{n}_s",
                  check={"type": "readme", "n": n, "newton_tol": 1e-10})
        phase.append(op)
    for n in MMS_SIZES:
        op = _write(directory, f"mms_n{n}", README_GAS,
                    grid_block(WIDE_PATCH, n),
                    {"name": "solve", "boundary": MMS_EXACT,
                     "source": MMS_SOURCE})
        op.update(id=f"mms_n{n}", kind="cli", command="solve",
                  metric=f"solve_mms_n{n}_s", check={"type": "mms", "n": n})
        phase.append(op)
    # the two short solves run three times a round, for a median
    short = [phase[0], phase[len(README_SIZES)]]
    return [phase] + [short] * (SHORT_REPEATS - 1)


def _pair_suite(directory: Path, rng):
    build, check = [], []
    grid = grid_block(README_PATCH, PAIR_N)
    for gamma, data in PAIR_GASES:
        gas = {"gamma": gamma, "rho0": 1.0, "bernoulli": data["bernoulli"]}
        a1, a2 = rng.uniform(-PAIR_AMPLITUDE, PAIR_AMPLITUDE, size=2)
        phase = rng.uniform(0.0, math.pi)
        margin = float(rng.uniform(*PAIR_MARGIN))
        source = float(rng.uniform(*PAIR_SOURCE))
        bnd = (f"{data['level']!r} {_signed(float(a1))}*cos(theta) "
               f"{_signed(float(a2))}*sin(theta)*sin(phi + {float(phase)!r})")
        tag = f"g{gamma:+.1f}"
        fields = {}
        for role, boundary, src in (("plus", bnd, "0"),
                                    ("minus", f"{bnd} - {margin!r}",
                                     repr(source)),
                                    ("touch", bnd, repr(source))):
            op = _write(directory, f"{tag}_{role}", gas, grid,
                        {"name": "solve", "boundary": boundary,
                         "source": src})
            op.update(id=f"{tag}_{role}", kind="cli", command="solve",
                      metric="pair_build_s", check={"type": "converged"})
            build.append(op)
            fields[role] = f"{tag}_{role}/out/solution.csv"
        mid = PAIR_N // 2
        last = PAIR_N - 1
        midpoints = [[0, mid], [last, mid], [mid, 0], [mid, last]]
        ref = {"gas": gas, "n": PAIR_N, "fields": fields}
        op = _write(directory, f"{tag}_compare", gas, grid,
                    {"name": "compare",
                     "field_minus": {"file": f"../{fields['minus']}"},
                     "field_plus": {"file": f"../{fields['plus']}"}})
        op.update(id=f"{tag}_compare", kind="cli", command="compare",
                  metric="pair_check_s", check={"type": "compare", **ref})
        check.append(op)
        op = _write(directory, f"{tag}_hopf", gas, grid,
                    {"name": "hopf",
                     "field_minus": {"file": f"../{fields['touch']}"},
                     "field_plus": {"file": f"../{fields['plus']}"},
                     "nodes": midpoints})
        op.update(id=f"{tag}_hopf", kind="cli", command="hopf",
                  metric="pair_check_s", check={"type": "hopf", **ref})
        check.append(op)
        check.append({"id": f"{tag}_segment", "kind": "api",
                      "call": "check_segment_conditions",
                      "args": ["minus", "plus"], "metric": "pair_check_s",
                      "check": {"type": "segment"}, **ref})
        for role in ("minus", "plus"):
            check.append({"id": f"{tag}_certify_{role}", "kind": "api",
                          "call": "certify_uniform_ellipticity",
                          "args": [role], "metric": "pair_check_s",
                          "check": {"type": "certificate"}, **ref})
    return [build] + [check] * PAIR_CHECK_PASSES


def _scenario_io(directory: Path, rng):
    n = SCENARIO_IO_N
    grid = grid_block(WIDE_PATCH, n)
    exact = {"file": "../manufacture/out/exact.csv"}
    ops = [
        ("manufacture", {"name": "manufacture", "exact": MMS_EXACT}),
        ("classify", {"name": "classify", "field": exact, "pgm": True}),
        ("certify", {"name": "certify", "field": exact}),
    ]
    phase = []
    for name, command in ops:
        op = _write(directory, name, README_GAS, grid, command)
        op.update(id=name, kind="cli", command=name, metric=f"{name}_s",
                  check={"type": name, "n": n})
        phase.append(op)
    return [phase]


def _warmup(directory: Path):
    """Small ops that touch every command once before anything is timed."""
    grid = grid_block(README_PATCH, 9)
    sol = {"file": "../warm_solve/out/solution.csv"}
    specs = [
        ("warm_solve", {"name": "solve", "boundary": README_BOUNDARY}),
        ("warm_manufacture", {"name": "manufacture", "exact": MMS_EXACT}),
        ("warm_classify", {"name": "classify", "field": sol, "pgm": True}),
        ("warm_certify", {"name": "certify", "field": sol}),
        ("warm_compare", {"name": "compare", "field_minus": sol,
                          "field_plus": sol}),
        ("warm_hopf", {"name": "hopf", "field_minus": sol, "field_plus": sol,
                       "nodes": [[0, 4]]}),
    ]
    return [dict(_write(directory, name, README_GAS, grid, cmd), id=name)
            for name, cmd in specs]


_BUILDERS = {
    "solve_ladder": _solve_ladder,
    "pair_suite": _pair_suite,
    "scenario_io": _scenario_io,
}


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write the inputs of one workload and return its plan."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    plan = {"workload": workload, "seed": seed,
            "warmup": _warmup(directory),
            "phases": _BUILDERS[workload](directory, rng)}
    (directory / "plan.json").write_text(json.dumps(plan))
    return plan
