"""tools/cli_outputs.py: what --compare counts as the same behaviour, and
the fixed masked set that takes the same-outputs rule to masks and seams."""

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
