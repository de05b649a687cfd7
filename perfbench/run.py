"""sphereflow benchmark: one workload (or all) per command, with checks.

    python3 perfbench/run.py --workload solve_ladder --seed 1 --seconds 15
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the root of a source checkout; the package is imported from its
`src/`.  This process makes the workload's inputs from the seed and runs
them in a single-threaded worker process (`worker.py`).  It prints every
per-op time by name with its unit, one detail line (`{"perfbench": ...}`:
quartiles, failures by exception class, environment) and, last, the
result line `{"correct", "attempted", "failed", "metrics"}`.  With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` the per-layer ones from a traced round.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
OP_BOUND = 0.25          # bound of each per-op time in compare.py
DEADLINE_S = 170.0       # a run ends before the 180 s limit
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                  "VECLIB_MAXIMUM_THREADS",
                                  "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment():
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs across numpy
        blas = "unknown"
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy, "commit": commit,
            "blas": blas, "blas_threads": SINGLE_THREAD}


def spawn_worker(directory, seconds, mode, deadline):
    env = dict(os.environ, **SINGLE_THREAD)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(directory),
         str(seconds), mode], env=env, stdout=sys.stderr, cwd=ROOT)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ({mode}) passed the {DEADLINE_S:.0f} s "
                         "deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise BenchError(f"worker ({mode}) exited with {rc}")
    return json.loads((directory / "result.json").read_text())


def run_workload(workload, seed, seconds, trace, deadline):
    from workloads import generate
    work = HERE / "_work" / f"{workload}-{os.getpid()}"
    try:
        setup = []
        if not trace:
            for k in range(SETUP_REPEATS):
                start = time.perf_counter()
                generate(workload, seed, work / f"setup{k}")
                spawn_worker(work / f"setup{k}", seconds, "probe", deadline)
                setup.append(time.perf_counter() - start)
        plan = generate(workload, seed, work / "run")
        result = spawn_worker(work / "run", seconds,
                              "trace" if trace else "run", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    return summarize(workload, plan, result, setup)


def summarize(workload, plan, result, setup):
    """Per-op samples, end-to-end metrics and failure counts of a run.

    Ops with the same metric in one phase are summed into one sample; a
    failed op voids its sample, so it gives no time to any metric.
    """
    metrics = [op["metric"] for phase in plan["phases"] for op in phase]
    samples = {m: ([], []) for m in dict.fromkeys(metrics)}
    rounds = ([], [])
    failures = {}
    attempted = failed = 0
    for records in result["rounds"]:
        groups = {}
        for op_id, metric, phase, seconds, error, norm in records:
            attempted += 1
            if error is not None:
                failed += 1
                by_class = failures.setdefault(op_id, {})
                by_class[error] = by_class.get(error, 0) + 1
            groups.setdefault((phase, metric), []).append((seconds, norm))
        for (_, metric), times in groups.items():
            if all(t is not None for t, _ in times):
                samples[metric][0].append(sum(t for t, _ in times))
                samples[metric][1].append(sum(n or 0.0 for _, n in times))
        ok = [r for r in records if r[4] is None]
        rounds[0].append(sum(r[3] for r in ok))
        rounds[1].append(sum(r[5] or 0.0 for r in ok))
    ops = {}
    for metric, (raw, norm) in samples.items():
        if raw:
            q1, med, q3 = quartiles(raw)
            ops[metric] = {"median": med, "q1": q1, "q3": q3, "n": len(raw),
                           "norm_median": statistics.median(norm),
                           "unit": "s", "bound": OP_BOUND}
    end_to_end = {}
    if setup:
        medians = [v["norm_median"] for v in ops.values()]
        end_to_end = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "round_norm_s": statistics.median(rounds[1]),
            "op_geomean_norm_s": math.exp(statistics.fmean(
                math.log(m) for m in medians)),
        }
    return {
        "workload": workload, "seed": plan["seed"],
        "rounds": len(result["rounds"]), "attempted": attempted,
        "failed": failed, "failures": failures,
        "problems": result["problems"], "ops": ops,
        "end_to_end": end_to_end, "setup_samples": setup,
        "round_samples": rounds[0], "round_norm_samples": rounds[1],
        "layers": result.get("layers", {}), "absent": result.get("absent", []),
        "spans": result.get("spans"),
    }


def print_summary(summary, units):
    print(f"== {summary['workload']} seed {summary['seed']}: "
          f"{summary['rounds']} round(s), {summary['attempted']} ops "
          f"attempted, {summary['failed']} failed")
    for metric, s in summary["ops"].items():
        print(f"  {metric:<24} {s['median']:12.4f} s   "
              f"[q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n {s['n']}]"
              + (f"  normalized {s['norm_median']:.4f} s"
                 if s["norm_median"] else ""))
    for name, value in {**summary["end_to_end"], **summary["layers"]}.items():
        print(f"  {name:<40} {value:14.6g} {units.get(name, '')}")
    for op_id, by_class in summary["failures"].items():
        for cls, count in by_class.items():
            print(f"  failed: {op_id} {cls} x{count}")
    for problem in summary["problems"]:
        print(f"  WRONG OUTPUT: {problem}")
    if summary["absent"]:
        print(f"  absent (metrics read 0): {', '.join(summary['absent'])}")


def metric_block(summary, spec, trace):
    """The result-line metrics named in BENCHMARK.json, each with its unit."""
    source = summary["layers"] if trace else summary["end_to_end"]
    key = "per_layer" if trace else "end_to_end"
    out = {}
    for m in spec[key]:
        if m["name"] not in source and not trace:
            raise BenchError(f"end-to-end metric {m['name']} not measured")
        out[m["name"]] = {"value": source.get(m["name"], 0.0),
                          "unit": m["unit"]}
    return out


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "sphereflow" / "__init__.py").is_file():
        print(f"no sphereflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment()
    summaries = []
    try:
        for name in names:
            if args.workload == "all":
                deadline = time.monotonic() + DEADLINE_S
            summary = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace), deadline)
            summary["env"] = env
            summary["trace"] = args.trace
            summaries.append(summary)
            print_summary(summary, units)
            print(json.dumps({"perfbench": summary}))
        blocks = [metric_block(s, spec, args.trace) for s in summaries]
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        metrics = blocks[0]
    else:
        metrics = {f"{s['workload']}.{k}": v
                   for s, block in zip(summaries, blocks)
                   for k, v in block.items()}
    print(json.dumps({
        "correct": all(not s["problems"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
