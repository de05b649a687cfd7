"""Run every distinct CLI op of the benchmark workloads and keep its files.

    python tools/cli_outputs.py OUT [--seed 7]

For each workload of perfbench/workloads.py, writes its inputs with
`generate(workload, seed, OUT/<workload>)` and runs, in this process with
`sphereflow.cli.run`, each `cli` op of its plan once, in plan order:
the warm-ups, then every phase (an op repeated across phases runs once).
Each op writes into its own `out` directory there, and its workload, id
and exit code are printed one line each.  `diff -r` of the OUT trees of
two checkouts, made with the same seed, shows every output byte that
differs between them.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path, help="output directory")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default 7)")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from sphereflow import cli
    from workloads import WORKLOADS, generate

    for workload in WORKLOADS:
        directory = args.out / workload
        plan = generate(workload, args.seed, directory)
        ops = {op["id"]: op for phase in [plan["warmup"], *plan["phases"]]
               for op in phase if op.get("kind", "cli") == "cli"}
        for op_id, op in ops.items():
            code = cli.run(directory / op["scenario"], directory / op["out"],
                           quiet=True)
            print(f"{workload} {op_id} {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
