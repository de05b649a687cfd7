"""Run every distinct CLI op of the benchmark workloads and keep its files,
or compare two such output trees number by number.

    python tools/cli_outputs.py OUT [--seed 7]
    python tools/cli_outputs.py --compare A B

For each workload of perfbench/workloads.py, writes its inputs with
`generate(workload, seed, OUT/<workload>)` and runs, in this process with
`sphereflow.cli.run`, each `cli` op of its plan once, in plan order:
the warm-ups, then every phase (an op repeated across phases runs once).
The benchmark's grids are unmasked and not periodic, so a fixed masked set
follows under OUT/masked, the same for every seed, on two masks read from
`grid.mask` files: a 25^2 patch with a hole and a cut corner, and a
phi-periodic band with a hole.  On each it runs a `solve` of f+ and of a
subsolution f- with f+'s boundary values, `classify` and `certify` of f+,
and `compare` and `hopf` of the pair, `hopf` at straight-edge nodes that
include one beside the periodic seam.  Each op writes into its own `out`
directory there, and its workload, id and exit code are printed one line
each; the exit codes are also kept in OUT/<workload>/exit_codes.json.
`diff -r` of the OUT trees of two checkouts, made with the same seed,
shows every output byte that differs.

--compare A B tells a roundoff change from a change of behaviour.  Both
trees must hold the same files.  In JSON files (reports, exit codes) the
keys, their order, every string, bool, null and integer (exit codes, step
and matvec counts) must match exactly, and a float x against y within
|x - y| <= ATOL = 1e-13 or <= RTOL max(|x|, |y|), RTOL = 1e-12.  In CSV
files the header, the row count, the coordinate columns (theta, phi, i,
j) and every text that is not a number must match exactly, and a number
within CSV_RTOL = 1e-14 relative.  nan matches nan.  Other files must be
byte-identical.  Prints, per file that differs, the largest absolute and
relative difference, then each mismatch; exits 1 on any mismatch, else 0.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COORDINATES = ("theta", "phi", "i", "j")
RTOL, ATOL, CSV_RTOL = 1e-12, 1e-13, 1e-14  # JSON floats; CSV numbers
MASKED_GAS = {"gamma": 2.0, "rho0": 1.0, "bernoulli": 4.0}
MASKED_BOUNDARY = "1.6 + 0.1*cos(theta)"
MASKED_SOURCE = "0.05"  # f-'s, so that f- <= f+ with equal boundary values


def _masked_grids():
    """name: (grid block, mask, hopf nodes) of the fixed masked set."""
    hole = np.ones((25, 25), dtype=bool)  # a hole and a cut corner
    hole[8:14, 10:16] = False
    hole[:3, :4] = False
    band = np.zeros((21, 32), dtype=bool)  # a phi-periodic band with a hole
    band[3:18] = True
    band[9:12, 5:9] = False
    # the README patch's theta range, where the solver converges from its
    # start at MASKED_BOUNDARY
    rows = {"theta_min": math.pi / 3, "theta_max": math.pi / 2, "phi_min": 0.0}
    return {
        "hole_corner": ({**rows, "phi_max": math.pi / 4, "n_theta": 25, "n_phi": 25},
                        hole, [[7, 12], [11, 9], [0, 10], [3, 1]]),
        "periodic_band": ({**rows, "phi_max": 2 * math.pi, "n_theta": 21, "n_phi": 32,
                           "phi_periodic": True},
                          band, [[3, 0], [17, 31], [8, 6], [10, 4]]),
    }


def write_masked_set(directory):
    """Write the masked set under directory: per grid its `grid.mask` file
    and one scenario per op.  Returns the ops by id, in run order."""
    ops = {}
    for name, (grid, mask, nodes) in _masked_grids().items():
        (directory / name).mkdir(parents=True, exist_ok=True)
        (directory / name / "grid.mask").write_text(
            "".join(",".join(map(str, row)) + "\n" for row in mask.astype(int).tolist()))
        fields = {role: {"file": f"../{role}/out/solution.csv"} for role in ("plus", "minus")}
        pair = {"field_minus": fields["minus"], "field_plus": fields["plus"]}
        commands = {
            "plus": {"name": "solve", "boundary": MASKED_BOUNDARY},
            "minus": {"name": "solve", "boundary": MASKED_BOUNDARY, "source": MASKED_SOURCE},
            "classify": {"name": "classify", "field": fields["plus"]},
            "certify": {"name": "certify", "field": fields["plus"]},
            "compare": {"name": "compare", **pair},
            "hopf": {"name": "hopf", **pair, "nodes": nodes},
        }
        for op, command in commands.items():
            path = directory / name / op / "scenario.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({"gas": MASKED_GAS,
                                        "grid": {**grid, "mask": "../grid.mask"},
                                        "command": command}, indent=1))
            ops[f"{name}_{op}"] = {"scenario": f"{name}/{op}/scenario.json",
                                   "out": f"{name}/{op}/out"}
    return ops


def run_ops(out, seed):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from sphereflow import cli
    from workloads import WORKLOADS, generate

    for workload in (*WORKLOADS, "masked"):
        directory = out / workload
        if workload == "masked":
            ops = write_masked_set(directory)
        else:
            plan = generate(workload, seed, directory)
            ops = {op["id"]: op for phase in [plan["warmup"], *plan["phases"]]
                   for op in phase if op.get("kind", "cli") == "cli"}
        codes = {}
        for op_id, op in ops.items():
            codes[op_id] = cli.run(directory / op["scenario"], directory / op["out"],
                                   quiet=True)
            print(f"{workload} {op_id} {codes[op_id]}", flush=True)
        (directory / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    return 0


class FileDiff:
    """Largest differences and mismatches found in one file."""

    def __init__(self):
        self.mismatches, self.largest = [], [0.0, 0.0]  # abs, rel

    def exact(self, x, y, where):
        if x != y:
            self.mismatches.append(f"{where}: {x!r} != {y!r}")

    def number(self, x, y, where, rtol, atol=0.0):
        if x == y or (math.isnan(x) and math.isnan(y)):
            return
        d = abs(x - y)
        r = d / max(abs(x), abs(y)) if math.isfinite(d) else math.inf
        self.largest = [max(self.largest[0], d), max(self.largest[1], r)]
        if not (d <= atol or r <= rtol):
            self.mismatches.append(f"{where}: {x!r} vs {y!r} (abs {d:.3g}, rel {r:.3g})")

    def json(self, x, y, where=""):
        if isinstance(x, dict) and isinstance(y, dict):
            if list(x) != list(y):
                return self.exact(list(x), list(y), f"{where} keys")
            for k in x:
                self.json(x[k], y[k], f"{where}.{k}")
        elif isinstance(x, list) and isinstance(y, list):
            if len(x) != len(y):
                return self.exact(len(x), len(y), f"{where} length")
            for i, (u, v) in enumerate(zip(x, y)):
                self.json(u, v, f"{where}[{i}]")
        elif isinstance(x, float) or isinstance(y, float):
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
                return self.exact(x, y, where)
            self.number(float(x), float(y), where, RTOL, ATOL)
        else:
            self.exact(x, y, where)

    def csv(self, a, b):
        rows_a, rows_b = a.splitlines(), b.splitlines()
        self.exact(rows_a[:1], rows_b[:1], "header")
        self.exact(len(rows_a), len(rows_b), "rows")
        if self.mismatches:
            return
        columns = rows_a[0].split(",")
        for line, (u, v) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
            if u == v:
                continue
            fields_u, fields_v = u.split(","), v.split(",")
            if len(fields_u) != len(fields_v):
                self.exact(u, v, f"line {line}")
                continue
            for column, s, t in zip(columns, fields_u, fields_v):
                where = f"line {line} {column}"
                x, y = (None, None) if column in COORDINATES else (_float(s), _float(t))
                if x is None or y is None:
                    self.exact(s, t, where)
                else:
                    self.number(x, y, where, CSV_RTOL)


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def compare_trees(a, b):
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    failed = False
    for rel in sorted(files[0] ^ files[1]):
        print(f"{rel}: only in {a if rel in files[0] else b}")
        failed = True
    for rel in sorted(files[0] & files[1]):
        x, y = (a / rel).read_bytes(), (b / rel).read_bytes()
        if x == y:
            continue
        diff = FileDiff()
        if rel.suffix == ".json":
            diff.json(json.loads(x), json.loads(y))
        elif rel.suffix == ".csv":
            diff.csv(x.decode(), y.decode())
        else:
            diff.mismatches.append("bytes differ")
        d, r = diff.largest
        print(f"{rel}: max abs {d:.3g} rel {r:.3g}"
              + (f", {len(diff.mismatches)} mismatches" if diff.mismatches else ""))
        for problem in diff.mismatches[:10]:
            print(f"  {problem}")
        failed |= bool(diff.mismatches)
    print("FAIL" if failed else "match within tolerance")
    return 1 if failed else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path, nargs="?", help="output directory")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default 7)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two output trees instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare_trees(*args.compare)
    if args.out is None:
        parser.error("give OUT, or --compare A B")
    return run_ops(args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
