import numpy as np
import pytest

from helpers import WIDE_PATCH

import sphereflow as sf
from sphereflow import ScalarField, SphericalGrid
from sphereflow.fieldio import (
    read_field_csv,
    read_mask_csv,
    write_field_csv,
    write_json_report,
    write_l2_csv,
    write_pgm,
    write_type_map_csv,
)


def test_field_csv_round_trip(tmp_path):
    g = SphericalGrid(*WIDE_PATCH, 17, 13)
    rng = np.random.default_rng(9)
    f = ScalarField(g, rng.normal(size=g.shape) * 1e3)
    path = tmp_path / "field.csv"
    write_field_csv(path, f)
    back = read_field_csv(path, g)
    # 17 significant digits round-trip doubles bit-identically
    assert np.array_equal(back.values, f.values)


def test_field_csv_rejects_wrong_grid(tmp_path):
    g = SphericalGrid(*WIDE_PATCH, 9, 9)
    other = SphericalGrid(*WIDE_PATCH, 11, 9)
    path = tmp_path / "field.csv"
    write_field_csv(path, ScalarField.constant(g, 1.0))
    with pytest.raises(sf.GridError):
        read_field_csv(path, other)


def test_map_writers_match_per_node_format(tmp_path):
    # reference: one f-string per node, non-finite L^2 written as nan
    g = SphericalGrid(*WIDE_PATCH, 4, 3)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=g.shape) * 1e5
    vals[0, 0] = -0.0
    l2 = rng.random(g.shape)
    l2[1, 1], l2[2, 2], l2[3, 0] = np.nan, np.inf, -np.inf
    letters = np.array(list("EPHV"))[rng.integers(0, 4, g.shape)]
    nodes = [(i, j) for i in range(g.n_theta) for j in range(g.n_phi)]
    coords = {(i, j): f"{g.thetas[i]:.17g},{g.phis[j]:.17g}" for i, j in nodes}
    expected = {
        "field.csv": ["theta,phi,value"] + [
            f"{coords[n]},{vals[n]:.17g}" for n in nodes],
        "type.csv": ["i,j,theta,phi,type"] + [
            f"{i},{j},{coords[i, j]},{letters[i, j]}" for i, j in nodes],
        "l2.csv": ["i,j,theta,phi,l2"] + [
            f"{i},{j},{coords[i, j]},"
            + (f"{l2[i, j]:.17g}" if np.isfinite(l2[i, j]) else "nan")
            for i, j in nodes],
    }
    write_field_csv(tmp_path / "field.csv", ScalarField(g, vals))
    write_type_map_csv(tmp_path / "type.csv", g, letters)
    write_l2_csv(tmp_path / "l2.csv", g, l2)
    for name, lines in expected.items():
        assert (tmp_path / name).read_text() == "\n".join(lines) + "\n"


def test_map_writers_match_per_node_format_non_square(tmp_path):
    # grid lines are formatted once each: rows must still pair every node
    # with its own i, j, theta and phi on a grid with n_theta != n_phi
    g = SphericalGrid(*WIDE_PATCH, 41, 7)
    rng = np.random.default_rng(6)
    vals = rng.normal(size=g.shape) * 10.0 ** rng.integers(-300, 300, g.shape)
    vals[0, :3] = -1e-310, 5e-324, -1.7976931348623157e308
    l2 = np.where(rng.random(g.shape) < 0.1, np.nan, vals)
    letters = np.array(list("EPHV"))[rng.integers(0, 4, g.shape)]
    write_field_csv(tmp_path / "field.csv", ScalarField(g, vals))
    write_type_map_csv(tmp_path / "type.csv", g, letters)
    write_l2_csv(tmp_path / "l2.csv", g, l2)
    rows = {name: (tmp_path / name).read_text().splitlines()[1:]
            for name in ("field.csv", "type.csv", "l2.csv")}
    for k, (i, j) in enumerate(np.ndindex(g.shape)):
        at = f"{g.thetas[i]:.17g},{g.phis[j]:.17g}"
        assert rows["field.csv"][k] == f"{at},{vals[i, j]:.17g}"
        assert rows["type.csv"][k] == f"{i},{j},{at},{letters[i, j]}"
        assert rows["l2.csv"][k] == f"{i},{j},{at},{l2[i, j]:.17g}"
    assert len(rows["field.csv"]) == g.n_theta * g.n_phi


def test_mask_csv(tmp_path):
    path = tmp_path / "mask.csv"
    path.write_text("1,1,0\n1,1,1\n0,1,1\n")
    mask = read_mask_csv(path, 3, 3)
    assert mask.tolist() == [[True, True, False],
                             [True, True, True],
                             [False, True, True]]
    with pytest.raises(sf.ConfigError):
        read_mask_csv(path, 4, 3)


def test_pgm_writer(tmp_path):
    path = tmp_path / "map.pgm"
    arr = np.array([[0.0, 1.0], [np.nan, 0.5]])
    write_pgm(path, arr)
    text = path.read_text().splitlines()
    assert text[0] == "P2"
    assert text[1] == "2 2"
    assert text[2] == "255"


def test_json_report_sanitizes_nonfinite(tmp_path):
    path = tmp_path / "r.json"
    write_json_report(path, {"a": float("inf"), "b": [np.float64(2.0), np.nan],
                             "c": np.bool_(True), "d": np.int64(3)})
    import json
    data = json.loads(path.read_text())
    assert data == {"a": None, "b": [2.0, None], "c": True, "d": 3}
