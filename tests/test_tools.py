"""tools/cli_outputs.py: what --compare counts as the same behaviour, and
the fixed masked set that takes the same-outputs rule to masks and seams;
tools/bench_pairs.py on canned run outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

import sphereflow as sf
from sphereflow import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"
_spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_outputs)

REPORT = {"converged": True, "iterations": 5, "stop_reason": "newton_tol",
          "residuals": [5.47, 1e-13], "forcing": [0.5, 0.02]}
FIELD = "theta,phi,value\n1.0471975511965976,0,1.6500000000000001\n"


def _tree(root, report, field):
    (root / "w" / "out").mkdir(parents=True)
    (root / "w" / "out" / "report.json").write_text(json.dumps(report))
    (root / "w" / "out" / "solution.csv").write_text(field)
    (root / "w" / "exit_codes.json").write_text(json.dumps({"solve": 0}))
    return root


@pytest.mark.parametrize("edit, field, code", [
    (lambda r: None, FIELD, 0),
    (lambda r: r["residuals"].__setitem__(1, 1.5e-13), FIELD, 0),  # within atol
    (lambda r: r["residuals"].__setitem__(0, 5.47 * (1 + 1e-13)), FIELD, 0),
    (lambda r: r["residuals"].__setitem__(0, 5.47 * (1 + 1e-11)), FIELD, 1),
    (lambda r: r["forcing"].__setitem__(1, 0.02 * (1 + 1e-6)), FIELD, 1),
    (lambda r: r.__setitem__("iterations", 6), FIELD, 1),
    (lambda r: r.__setitem__("stop_reason", "roundoff_floor"), FIELD, 1),
    (lambda r: r.pop("forcing"), FIELD, 1),
    (lambda r: None, FIELD.replace("1.6500000000000001", "1.65"), 0),  # 1 ulp
    (lambda r: None, FIELD.replace("1.6500000000000001", "1.6500000000001"), 1),
    (lambda r: None, FIELD.replace("1.0471975511965976", "1.0471975511965979"), 1),
], ids=["same", "tiny", "rtol", "residual", "forcing", "integer",
        "string", "key", "csv_ulp", "csv_value", "coordinate"])
def test_compare_tells_roundoff_from_behaviour(tmp_path, capsys, edit, field, code):
    report = json.loads(json.dumps(REPORT))
    edit(report)
    a = _tree(tmp_path / "a", REPORT, FIELD)
    b = _tree(tmp_path / "b", report, field)
    assert cli_outputs.main(["--compare", str(a), str(b)]) == code
    assert capsys.readouterr().out.splitlines()[-1] == (
        "match within tolerance" if code == 0 else "FAIL")


def test_compare_needs_the_same_files(tmp_path, capsys):
    a = _tree(tmp_path / "a", REPORT, FIELD)
    b = _tree(tmp_path / "b", REPORT, FIELD)
    (b / "w" / "out" / "l2.pgm").write_bytes(b"P5")
    assert cli_outputs.main(["--compare", str(a), str(b)]) == 1
    assert "l2.pgm: only in" in capsys.readouterr().out


def test_masked_set_reaches_masks_and_the_seam(tmp_path):
    # every op of the set succeeds, and hopf reads straight-edge nodes of
    # each mask, one of them beside the periodic seam
    ops = cli_outputs.write_masked_set(tmp_path)
    codes = {op_id: cli.run(tmp_path / op["scenario"], tmp_path / op["out"], quiet=True)
             for op_id, op in ops.items()}
    assert codes == dict.fromkeys(ops, 0)
    for name, (block, mask, nodes) in cli_outputs._masked_grids().items():
        grid = sf.SphericalGrid(**block, mask=mask)
        assert set(map(tuple, nodes)) <= set(sf.straight_edge_nodes(grid))
        report = json.loads((tmp_path / ops[f"{name}_hopf"]["out"] / "report.json").read_text())
        assert [[h["i"], h["j"]] for h in report["hopf"]] == nodes
        assert all(h["derivative"] > 0.0 for h in report["hopf"])
    block, _, nodes = cli_outputs._masked_grids()["periodic_band"]
    assert block["phi_periodic"] and any(j in (0, block["n_phi"] - 1) for _, j in nodes)


_pairs_spec = importlib.util.spec_from_file_location(
    "bench_pairs", TOOL.with_name("bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_pairs_spec)
_pairs_spec.loader.exec_module(bench_pairs)


def _run_output(workloads, round_s, rss):
    """The standard output of one `run.py --trace 0` run, detail lines and result line."""
    lines = [json.dumps({"perfbench": {
        "workload": w, "trace": 0, "attempted": 100, "failed": 0,
        "end_to_end": {"setup_s": 0.22, "peak_rss_mb": rss, "round_norm_s": round_s,
                       "op_geomean_norm_s": round_s / 8},
        "ops": {"op": {"median": round_s, "norm_median": round_s, "bound": 0.25}}}})
        for w in workloads]
    lines.append(json.dumps({"correct": True, "attempted": 100 * len(workloads),
                             "failed": 0, "metrics": {}}))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", ["pair_suite", "all"])
def test_bench_pairs_alternates_and_compares(tmp_path, monkeypatch, capsys, workload):
    # canned run outputs stand in for the benchmark runs
    names = bench_pairs.WORKLOADS if workload == "all" else (workload,)
    values = {("parent", 11): (0.10, 50.0), ("change", 11): (0.09, 51.0),
              ("parent", 12): (0.12, 50.0), ("change", 12): (0.11, 52.0),
              ("parent", 13): (0.14, 50.0), ("change", 13): (0.15, 53.0)}
    canned = {key: _run_output(names, *v) for key, v in values.items()}
    calls = []

    def run_once(checkout, workload, seed, seconds):
        side = checkout.name
        calls.append((side, workload, seed, seconds))
        return canned[side, seed], ""

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", workload, "--seeds", "11-13",
                             "--out", str(tmp_path / "out")]) == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert {c[1:] for c in calls} == {(workload, s, 15) for s in (11, 12, 13)}
    assert (tmp_path / "out" / "change-12.txt").read_text() == canned["change", 12]
    out = capsys.readouterr().out.splitlines()
    assert out[:6] == [f"{side} {seed} {canned[side, seed].splitlines()[-1]}"
                       for side, _, seed, _ in calls]
    for name in names:
        # compare's table: medians 0.12 -> 0.11, within the 25% bound
        block = out[out.index(f"== {name}: 3 base runs, 3 head runs"):]
        row = next(line.split() for line in block if line.split()[0] == "round_norm_s")
        assert row[1] == "0.12" and row[4] == "0.11" and row[7:] == ["-8.3%", "within",
                                                                     "bound", "25%"]
        # then the parent's IQR (quartiles 0.10 and 0.14), 2 of 3 pairs won
        block = out[out.index(f"== {name}: parent IQR, pairs won, every run parent/change by seed"):]
        rows = {line.split()[0]: line.split() for line in block[1:5]}
        assert rows["round_norm_s"] == ["round_norm_s", "33.3%", "2/3",
                                        "0.1/0.09,", "0.12/0.11,", "0.14/0.15"]
        assert rows["peak_rss_mb"][1:3] == ["0.0%", "0/3"]


def test_bench_pairs_drops_a_seed_without_result(tmp_path, monkeypatch, capsys):
    def run_once(checkout, workload, seed, seconds):
        if checkout.name == "change" and seed == 3:
            return None, "benchmark failed: boom"
        return _run_output((workload,), 0.1, 50.0), ""

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "solve_ladder", "--seeds", "3-4",
                             "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "change 3 no result: benchmark failed: boom" in out
    assert "== solve_ladder: 1 base runs, 1 head runs" in out
    with pytest.raises(SystemExit):  # run.py's workloads and "all" only
        bench_pairs.main(["p", "c", "--workload", "w", "--seeds", "3"])
