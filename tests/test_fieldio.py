import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import WIDE_PATCH, per_line_read_field_csv

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
    path.write_text("1,1,0\n1,1\n0,1,1\n")
    with pytest.raises(sf.ConfigError, match="row 2 has 2 entries, expected 3") as err:
        read_mask_csv(path, 3, 3)
    assert err.value.key == "grid.mask"
    path.write_text(" 1 ,1,0\n1,1, 1\n0\t,1,1\n")  # whitespace is ignored
    assert read_mask_csv(path, 3, 3).tolist() == mask.tolist()
    for entry in ("0.0", "x", "2", "", "1.0"):  # refused, not read as masked
        path.write_text(f"1,1,0\n1,{entry},1\n0,1,1\n")
        with pytest.raises(sf.ConfigError, match=f"row 2 column 2 is '{entry}', "
                                                 "expected 0 or 1") as err:
            read_mask_csv(path, 3, 3)
        assert err.value.key == "grid.mask"


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


# --- the reader's contract ------------------------------------------------

def _contract_grid():
    return SphericalGrid(*WIDE_PATCH, 5, 4)


def _field_lines(tmp_path):
    """A valid field file on _contract_grid() and its lines."""
    g = _contract_grid()
    vals = np.arange(g.n_theta * g.n_phi, dtype=float).reshape(g.shape) / 7
    path = tmp_path / "field.csv"
    write_field_csv(path, ScalarField(g, vals))
    return g, vals, path, path.read_text().splitlines()


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit", [
    lambda lines: ["theta,phi,val"] + lines[1:],
    lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
    lambda lines: lines[:3] + [lines[3] + ",1"] + lines[4:],
    lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",abc"] + lines[4:],
    lambda lines: lines[:1],
    lambda lines: lines[:-1],
    lambda lines: lines + [lines[-1]],
    lambda lines: [],
    # float() reads this as the node; np.loadtxt, whose float syntax the
    # reader keeps, does not
    lambda lines: lines[:1] + [lines[1].replace("1.047", "1.047_", 1)]
    + lines[2:],
], ids=["header", "two_columns", "four_columns", "non_numeric",
        "header_only", "too_few_rows", "too_many_rows", "empty",
        "digit_separator"])
def test_field_csv_rejects_malformed_files(tmp_path, edit):
    g, _, path, lines = _field_lines(tmp_path)
    _write_lines(path, edit(lines))
    with pytest.raises(sf.GridError, match="field.csv"):
        read_field_csv(path, g)


@pytest.mark.parametrize("column,offset",
                         [(0, 3e-9), (1, 3e-9), (0, np.nan), (1, np.nan)],
                         ids=["0", "1", "0-nan", "1-nan"])
def test_field_csv_off_grid_coordinate_names_the_file_row(tmp_path, column,
                                                          offset):
    g, _, path, lines = _field_lines(tmp_path)
    row = 7  # file row, 1-based; row 1 is the header
    parts = lines[row - 1].split(",")
    parts[column] = repr(float(parts[column]) + offset)
    lines[row - 1] = ",".join(parts)
    _write_lines(path, lines)
    with pytest.raises(sf.GridError, match=f"row {row} coordinates"):
        read_field_csv(path, g)


def test_field_csv_accepts_coordinates_in_other_text(tmp_path):
    # coordinates within 1e-9 of the node in any float syntax are accepted
    g, vals, path, lines = _field_lines(tmp_path)
    theta = f"{g.thetas[0]:.17g}"
    assert theta == "1.0471975511965976"
    lines[1] = lines[1].replace(theta, "1.04719755119659760", 1)
    lines[2] = lines[2].replace(theta, " 1.047197551", 1)
    t, p, v = lines[3].split(",")
    lines[3] = f"{float(t) - 4e-10!r},{float(p):.12e},{v}"
    _write_lines(path, lines)
    assert np.array_equal(read_field_csv(path, g).values, vals)


def test_field_csv_accepts_blank_lines_and_crlf(tmp_path):
    g, vals, path, lines = _field_lines(tmp_path)
    lines = lines[:6] + [""] + lines[6:] + ["", ""]
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    assert np.array_equal(read_field_csv(path, g).values, vals)


@pytest.mark.parametrize("column", [0, 1])
def test_field_csv_never_truncates_a_long_coordinate(tmp_path, column):
    # the node's own text padded with zeros, then scaled a thousandfold:
    # any prefix of it reads as the node, the whole text does not
    g, _, path, lines = _field_lines(tmp_path)
    parts = lines[5].split(",")
    parts[column] = parts[column] + "0" * 40 + "1e3"
    lines[5] = ",".join(parts)
    _write_lines(path, lines)
    with pytest.raises(sf.GridError, match="row 6"):
        read_field_csv(path, g)


def test_field_csv_round_trips_nan_and_inf(tmp_path):
    g = _contract_grid()
    vals = np.linspace(-1.0, 1.0, g.n_theta * g.n_phi).reshape(g.shape)
    vals[0, 0], vals[1, 2], vals[4, 3] = np.nan, np.inf, -np.inf
    path = tmp_path / "field.csv"
    write_field_csv(path, ScalarField(g, vals))
    assert "\n1.0471975511965976,0,nan\n" in "\n" + path.read_text()
    back = read_field_csv(path, g).values
    assert np.array_equal(back, vals, equal_nan=True)


def _float(text):
    try:
        return float(text)
    except ValueError:
        return np.nan


# Edits of a field file: the new text of a data row from its three fields,
# or the new lines with data row k >= 1 edited.
_ROW_EDITS = {
    "crlf_in_line": lambda t, p, v: f"{t},{p},{v}\r",
    "two_columns": lambda t, p, v: f"{t},{p}",
    "four_columns": lambda t, p, v: f"{t},{p},{v},1",
    "spaces": lambda t, p, v: "  ",
    "nan": lambda t, p, v: f"{t},{p},nan",
    "inf": lambda t, p, v: f"{t},{p},inf",
    "-inf": lambda t, p, v: f"{t},{p},-inf",
    "non_numeric": lambda t, p, v: f"{t},{p},abc",
    "digit_separator": lambda t, p, v: f"{t},{p},1_0",
    "theta_leading_space": lambda t, p, v: f" {t},{p},{v}",
    "theta_other_text": lambda t, p, v: f"{_float(t) - 4e-10!r},{p},{v}",
    "phi_other_text": lambda t, p, v: f"{t},{_float(p):.12e},{v}",
    "theta_off_grid": lambda t, p, v: f"{_float(t) + 3e-9!r},{p},{v}",
    "phi_off_grid": lambda t, p, v: f"{t},{_float(p) + 3e-9!r},{v}",
    "coordinate_nan": lambda t, p, v: f"nan,{p},{v}",
    "theta_31": lambda t, p, v: f"{t:0<31},{p},{v}",
    "theta_32": lambda t, p, v: f"{t:0<32},{p},{v}",
    "phi_40": lambda t, p, v: f"{t},{p:0<40},{v}",
    "not_utf8": lambda t, p, v: f"{t},{p},\udcff{v}",
}
_LINES_EDITS = {
    "blank": lambda lines, k: lines[:k] + [""] + lines[k:],
    "drop_row": lambda lines, k: lines[:k] + lines[k + 1:],
    "repeat_row": lambda lines, k: lines[:k + 1] + lines[k:],
    "append_row": lambda lines, k: lines + [lines[k]],
    "truncate": lambda lines, k: lines[:k],
    "header": lambda lines, k: ["theta,phi"] + lines[1:],
}
_FIELD_EDITS = [*_ROW_EDITS, *_LINES_EDITS]


def _edit_field_lines(lines, edit, k):
    if edit in _LINES_EDITS:
        return _LINES_EDITS[edit](lines, k)
    fields = (lines[k].split(",") + ["", ""])[:3]
    return lines[:k] + [_ROW_EDITS[edit](*fields)] + lines[k + 1:]


@pytest.mark.parametrize("edit", [None] + _FIELD_EDITS)
@settings(derandomize=True, max_examples=12, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(3, 48), st.integers(3, 60)),
                       st.tuples(st.integers(3, 4), st.integers(257, 520))),
       at=st.integers(0, 10 ** 6),
       edits=st.lists(st.tuples(st.sampled_from(_FIELD_EDITS),
                                st.integers(0, 10 ** 6)), max_size=2),
       crlf=st.booleans())
def test_field_csv_reads_as_the_per_line_reader(tmp_path_factory, edit, shape,
                                                at, edits, crlf):
    # grids of one to several blocks of theta lines: the blocks accept and
    # refuse what one np.loadtxt call per theta line did, with the same bits
    # and the same exception class
    g = SphericalGrid(*WIDE_PATCH, *shape)
    vals = np.random.default_rng(shape).normal(size=g.shape)
    path = tmp_path_factory.mktemp("field") / "field.csv"
    write_field_csv(path, ScalarField(g, vals))
    lines = path.read_text().splitlines()
    edits = ([(edit, at)] if edit else []) + edits
    for name, k in edits:
        if len(lines) > 1:  # a data row is left to edit
            lines = _edit_field_lines(lines, name, 1 + k % (len(lines) - 1))
    path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode(
        errors="surrogateescape") + b"\n")

    def outcome(reader):
        try:
            return reader(path, g).values.view(np.uint64).tolist()
        except Exception as err:
            return type(err), "None" in str(err)

    got = outcome(read_field_csv)
    assert got == outcome(per_line_read_field_csv)
    if not edits:
        assert got == vals.view(np.uint64).tolist()


@pytest.fixture
def loadtxt_rows(monkeypatch):
    """The max_rows of each np.loadtxt call made from here on."""
    rows = []
    load = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: rows.append(
        kwargs.get("max_rows")) or load(*args, **kwargs))
    return rows


def test_field_csv_read_makes_few_loadtxt_calls(tmp_path, loadtxt_rows):
    # a 33^2 read took 34 calls, one per theta line and one for extra rows
    g = SphericalGrid(*WIDE_PATCH, 33, 33)
    path = tmp_path / "field.csv"
    write_field_csv(path, ScalarField.constant(g, 1.5))
    assert np.all(read_field_csv(path, g).values == 1.5)
    *blocks, extra = loadtxt_rows
    assert len(blocks) <= 3 and extra is None
    assert sum(blocks) == g.n_theta * g.n_phi
    assert all(n % g.n_phi == 0 for n in blocks)  # whole theta lines


@pytest.mark.parametrize("line, edit, reason", [
    (600, lambda t, p, v: f"{t},{p},abc", "could not convert string 'abc'"),
    (1000, lambda t, p, v: f"{t},{p},{v},1", "requires 3 columns but 4 were"),
    (800, lambda t, p, v: f"{t},{p}", "requires 3 columns but 2 were"),
    (1092, lambda t, p, v: "x", "requires 3 columns but 1 were"),
    (2, lambda t, p, v: f"{t},{p},abc", "could not convert string 'abc'"),
], ids=["non_numeric", "four_columns", "value_missing", "extra_row",
        "first_row"])
def test_field_csv_names_a_malformed_row_by_its_file_line(tmp_path, line,
                                                          edit, reason,
                                                          loadtxt_rows):
    # 33^2 reads in blocks of 15 theta lines: all edits but the last lie in
    # a block after the first, and a blank line sets file lines apart from
    # data rows
    g = SphericalGrid(*WIDE_PATCH, 33, 33)
    path = tmp_path / "field.csv"
    write_field_csv(path, ScalarField.constant(g, 1.5))
    lines = path.read_text().splitlines()
    lines.insert(5, "")
    parts = lines[min(line, len(lines)) - 1].split(",")
    lines[line - 1:line] = [edit(*parts)]  # past the end: one more row
    _write_lines(path, lines)
    with pytest.raises(sf.GridError) as err:
        read_field_csv(path, g)
    assert str(err.value).startswith(f"{path}: row {line}: ")
    assert reason in str(err.value) and str(err.value).count("row") == 1
    assert "usecols" not in str(err.value)
    # the lines are read one at a time from the refused block's start only
    assert len(loadtxt_rows) <= 4 + 15 * 33


@pytest.mark.parametrize("rows", [1, 495, 700, 1088])
def test_field_csv_short_file_counts_its_data_rows(tmp_path, rows):
    g = SphericalGrid(*WIDE_PATCH, 33, 33)
    path = tmp_path / "field.csv"
    write_field_csv(path, ScalarField.constant(g, 1.5))
    lines = path.read_text().splitlines()[:1 + rows]
    _write_lines(path, lines[:3] + [""] + lines[3:])
    with pytest.raises(sf.GridError) as err:
        read_field_csv(path, g)
    assert str(err.value) == f"{path}: {rows} data rows, expected 1089"


def test_field_csv_read_peak_memory_is_flat(tmp_path):
    # at 257^2 a block of at most 512 rows is one theta line: the peak stays
    # a small multiple of the returned array, where a whole-file parse holds
    # every row
    g = SphericalGrid(*WIDE_PATCH, 257, 257)
    path = tmp_path / "field.csv"
    write_field_csv(path, ScalarField(g, np.random.default_rng(3).normal(
        size=g.shape)))
    read_field_csv(path, g)  # warm numpy's lazy imports
    tracemalloc.start()
    try:
        values = read_field_csv(path, g).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured 1.40 per line; the whole-file parse it replaced measured 5.1
    assert peak <= 2.0 * values.nbytes


# --- the writers' bytes ---------------------------------------------------

def test_map_writers_match_per_node_format_two_digit_indices(tmp_path):
    # i and j run past 9, so every index slot is exercised at two digits
    g = SphericalGrid(*WIDE_PATCH, 12, 13)
    rng = np.random.default_rng(8)
    l2 = rng.random(g.shape)
    l2[10, 11], l2[3, 12] = np.nan, np.inf
    letters = np.array(list("EPHV"))[rng.integers(0, 4, g.shape)]
    write_type_map_csv(tmp_path / "type.csv", g, letters)
    write_l2_csv(tmp_path / "l2.csv", g, l2)
    nodes = list(np.ndindex(g.shape))
    at = {(i, j): f"{i},{j},{g.thetas[i]:.17g},{g.phis[j]:.17g}"
          for i, j in nodes}
    assert (tmp_path / "type.csv").read_text() == "".join(
        ["i,j,theta,phi,type\n"] + [f"{at[n]},{letters[n]}\n" for n in nodes])
    assert (tmp_path / "l2.csv").read_text() == "".join(
        ["i,j,theta,phi,l2\n"] + [
            f"{at[n]}," + (f"{l2[n]:.17g}" if np.isfinite(l2[n]) else "nan")
            + "\n" for n in nodes])


@pytest.mark.parametrize("arr, text", [
    ([[0.0, 1.0, 0.25], [np.nan, 0.5, -np.inf]],
     "P2\n3 2\n255\n0 255 64\n0 128 0\n"),
    ([[2.5, 2.5], [2.5, 2.5], [2.5, 2.5]], "P2\n2 3\n255\n0 0\n0 0\n0 0\n"),
    ([[np.nan, np.nan]], "P2\n2 1\n255\n0 0\n"),
], ids=["nan", "constant", "all_nan"])
def test_pgm_writer_bytes(tmp_path, arr, text):
    path = tmp_path / "map.pgm"
    write_pgm(path, np.array(arr))
    assert path.read_bytes() == text.encode()
