"""Compare two sets of benchmark results, metric by metric and workload by
workload.

    python3 perfbench/compare.py --base base/*.txt --head head/*.txt

Each file is the captured standard output of one or more `run.py` runs
with `--trace 0`.  For every end-to-end metric (those of BENCHMARK.json,
and the per-op times as wall time and, with `.norm`, normalized) it
prints both sides' median and quartiles over the runs and whether the
head's median is within the metric's bound of the base's.  The share of
failed ops of each side is printed too.  Exit code 1 when a metric is
worse than its bound.
"""

import argparse
import json
import sys
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """{workload: [summary, ...]} from the detail lines of the files."""
    runs = {}
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if line.startswith('{"perfbench"'):
                summary = json.loads(line)["perfbench"]
                if summary.get("trace"):
                    continue
                runs.setdefault(summary["workload"], []).append(summary)
    return runs


def _fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def series(summaries, bounds):
    """{metric: (values, bound)} over the runs of one workload."""
    out = {}
    for s in summaries:
        for name, value in s["end_to_end"].items():
            out.setdefault(name, ([], bounds.get(name)))[0].append(value)
        for name, op in s["ops"].items():
            out.setdefault(name, ([], op["bound"]))[0].append(op["median"])
            out.setdefault(f"{name}.norm", ([], op["bound"]))[0].append(
                op["norm_median"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base, head = load(args.base), load(args.head)
    worse = 0
    for workload in sorted(set(base) | set(head)):
        if workload not in base or workload not in head:
            print(f"== {workload}: results on one side only")
            continue
        print(f"== {workload}: {len(base[workload])} base runs, "
              f"{len(head[workload])} head runs")
        for side, runs in (("base", base[workload]), ("head", head[workload])):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            print(f"  {side} failed {fail}/{att} ops")
        b_series, h_series = series(base[workload], bounds), \
            series(head[workload], bounds)
        print(f"  {'metric':<25}{'base median [q1, q3]':>32}"
              f"{'head median [q1, q3]':>32}{'change':>9}  verdict")
        for name in b_series:
            if name not in h_series:
                print(f"  {name:<25} absent on the head side")
                continue
            (bv, bound), (hv, _) = b_series[name], h_series[name]
            bq = quartiles(bv)
            hq = quartiles(hv)
            change = hq[1] / bq[1] - 1.0
            within = change <= bound
            worse += not within
            print(f"  {name:<25}{_fmt(bq):>32}{_fmt(hq):>32}"
                  f"{100 * change:+8.1f}%  "
                  f"{'within' if within else 'WORSE than'} bound "
                  f"{100 * bound:.0f}%")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
