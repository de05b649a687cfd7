"""One workload in one single-threaded process.

    python3 perfbench/worker.py <work dir> <seconds> <mode>

`mode` is `probe` (set up and exit: the set-up time sample), `run`
(untraced whole rounds until `seconds` have passed) or `trace` (one traced
round, then the round's successful ops again untraced for the tracing
overhead).  The plan and scenarios come from `<work dir>/plan.json`; the
result is written to `<work dir>/result.json`.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import sphereflow
    if not Path(sphereflow.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"sphereflow imported from {sphereflow.__file__}, "
                          f"not from {ROOT / 'src'}")
    return sphereflow


class Runner:
    def __init__(self, sf, checks, work: Path, plan: dict, tracer):
        self.sf = sf
        self.checks = checks
        self.work = work
        self.plan = plan
        self.tracer = tracer
        self.fields = {}
        self.problems = []

    def warm_up(self):
        from sphereflow import cli
        for op in self.plan["warmup"]:
            cli.run(self.work / op["scenario"], self.work / op["out"],
                    quiet=True)

    def load_fields(self, phase):
        """Read the pair fields the API ops of a phase act on (untimed)."""
        from sphereflow.fieldio import read_field_csv
        from workloads import README_PATCH
        for op in phase:
            if op["kind"] != "api" or op["id"] in self.fields:
                continue
            gas = self.sf.GasModel(**op["gas"])
            grid = self.sf.SphericalGrid(*README_PATCH, op["n"], op["n"])
            active, self.tracer.active = self.tracer.active, False
            args = [read_field_csv(self.work / op["fields"][role], grid)
                    for role in op["args"]]
            self.tracer.active = active
            self.fields[op["id"]] = (gas, args)

    def execute(self, op):
        """Run one op; returns (seconds or None, error class or None, out)."""
        from sphereflow import cli
        self.tracer.op = op["id"]
        self.tracer.last_error = None
        if op["kind"] == "cli":
            scenario = self.work / op["scenario"]
            out_dir = self.work / op["out"]
            start = time.perf_counter()
            try:
                rc = cli.run(scenario, out_dir, quiet=True)
            except Exception as err:  # the CLI let an exception escape
                return None, type(err).__name__, None
            elapsed = time.perf_counter() - start
            # exit 2 is a completed command with a negative verdict, which
            # the output check reports; anything else non-zero is a failure
            if rc not in (0, 2):
                return None, self.tracer.last_error or f"exit{rc}", rc
            return elapsed, None, rc
        gas, args = self.fields[op["id"]]
        fn = getattr(self.sf, op["call"])
        start = time.perf_counter()
        try:
            if op["call"] == "certify_uniform_ellipticity":
                value = fn(gas, *args, 1e-8)
            else:
                value = fn(gas, *args)
        except Exception as err:
            return None, type(err).__name__, None
        return time.perf_counter() - start, None, value

    def check(self, op, out):
        active = self.tracer.active
        self.tracer.active = False
        try:
            problems = self.checks[op["check"]["type"]](op, out, self.work)
        except Exception as err:  # unreadable or malformed output
            problems = [f"check raised {type(err).__name__}: {err}"]
        finally:
            self.tracer.active = active
        self.problems.extend(f"{op['id']}: {p}" for p in problems)

    def run_round(self, ops_filter=None):
        """One round: op records [id, metric, phase, seconds, error, start].

        `main` replaces the start by the normalized seconds (see speed.py)
        in untraced runs and by None in traced ones.
        """
        records = []
        self.fields = {}
        for p, phase in enumerate(self.plan["phases"]):
            self.load_fields(phase)
            for op in phase:
                if ops_filter is not None and (p, op["id"]) not in ops_filter:
                    continue
                start = time.perf_counter()
                seconds, error, out = self.execute(op)
                if error is None:
                    self.check(op, out)
                records.append([op["id"], op["metric"], p, seconds, error,
                                start])
        return records


def main(argv):
    work, seconds, mode = Path(argv[1]), float(argv[2]), argv[3]
    sf = import_package()
    from checks import CHECKS
    from speed import SpeedProbe
    from tracing import Tracer, layer_metrics
    plan = json.loads((work / "plan.json").read_text())
    tracer = Tracer(spans=(mode == "trace"))
    tracer.install()
    runner = Runner(sf, CHECKS, work, plan, tracer)
    runner.warm_up()
    result = {}
    if mode == "probe":
        (work / "result.json").write_text(json.dumps(result))
        return 0

    rounds = []
    if mode == "run":
        probe = SpeedProbe()
        probe.start()
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < seconds:
            rounds.append(runner.run_round())
        probe.stop()
        for record in (r for records in rounds for r in records):
            record[5] = (None if record[3] is None
                         else probe.normalized(record[5], record[3]))
    else:
        tracer.active = True
        rounds.append(runner.run_round())
        tracer.active = False
        tracer.uninstall()
        for record in rounds[0]:
            record[5] = None
        ok = {(r[2], r[0]) for r in rounds[0] if r[4] is None}
        plain = runner.run_round(ops_filter=ok)
        traced_s = sum(r[3] for r in rounds[0] if r[4] is None)
        plain_s = sum(r[3] for r in plain if r[4] is None)
        commands = {op["id"]: op.get("command")
                    for phase in plan["phases"] for op in phase}
        result["layers"] = layer_metrics(tracer, commands,
                                         traced_s - plain_s)
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
        tracer.write(HERE / "out" / f"spans-{plan['workload']}"
                                    f"-seed{plan['seed']}.json")
    result["rounds"] = rounds
    result["problems"] = runner.problems
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
