"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seeds A-B [--out DIR]

For each seed s from A to B it runs, from the root of each checkout,
`perfbench/run.py --workload W --seed s --seconds S --trace 0`, S being
BENCHMARK.json's `run_seconds`, the parent first on odd seeds and the
change first on even ones.  Each run's standard output is kept as
DIR/<side>-<seed>.txt (DIR a new temporary directory unless given), and
its result line is printed as `<side> <seed> <line>`; a run that exits
nonzero is printed with the tail of its error output instead.

The runs of the seeds where both sides gave a result then go to
`perfbench/compare.py`, the parent's as base and the change's as head.
After its table this tool prints, per workload and end-to-end metric,
what compare does not: the parent's interquartile range as a share of
its median, how many pairs the change wins (a strictly better value, by
the metric's `better`), and every run as parent/change by seed.
Exits 1 when a run failed or compare finds a metric worse than its bound.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import compare  # noqa: E402  (the benchmark's own comparison)
from run import quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 600  # run.py ends each workload's run after 170 s


def seed_range(text):
    """[A, ..., B] from "A-B" (or one seed from "A")."""
    lo, _, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be A-B, got {text!r}") from None
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def run_once(checkout, workload, seed, seconds):
    """(standard output, or None, and the tail of stderr) of one benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, "\n".join(proc.stderr.splitlines()[-5:]) or f"exit {proc.returncode}"
    return proc.stdout, ""


def pair_lines(parent, change, metrics):
    """Per workload and end-to-end metric of BENCHMARK.json: the parent's
    IQR as a share of its median, the pairs the change wins and every run,
    from the two sides' run files of the same seeds in the same order."""
    base, head = compare.load(parent), compare.load(change)
    out = []
    for workload in sorted(set(base) & set(head)):
        out.append(f"== {workload}: parent IQR, pairs won, every run parent/change by seed")
        for m in metrics:
            p = [s["end_to_end"][m["name"]] for s in base[workload]]
            c = [s["end_to_end"][m["name"]] for s in head[workload]]
            q1, med, q3 = quartiles(p)
            sign = 1.0 if m["better"] == "lower" else -1.0
            wins = sum(sign * (y - x) < 0 for x, y in zip(p, c))
            out.append(f"  {m['name']:<25}{(q3 - q1) / med:>7.1%}{f'{wins}/{len(p)}':>7}  "
                       + ", ".join(f"{x:.4g}/{y:.4g}" for x, y in zip(p, c)))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
    out = args.out or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    out.mkdir(parents=True, exist_ok=True)
    files, failed = {"parent": [], "change": []}, 0
    for seed in args.seeds:
        got = {}
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            text, err = run_once(getattr(args, side), args.workload, seed, spec["run_seconds"])
            if text is None:
                failed += 1
                print(f"{side} {seed} no result: {err}", flush=True)
                continue
            got[side] = out / f"{side}-{seed}.txt"
            got[side].write_text(text)
            print(f"{side} {seed} {text.splitlines()[-1]}", flush=True)
        if len(got) == 2:
            for side, path in got.items():
                files[side].append(str(path))
    print(f"run outputs in {out}")
    if not files["parent"]:
        return 1
    worse = compare.main(["--base", *files["parent"], "--head", *files["change"]])
    print("\n".join(pair_lines(files["parent"], files["change"], spec["end_to_end"])))
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
