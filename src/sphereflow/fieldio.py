"""File formats: ScalarField CSV, type/L^2 maps, masks, PGM and JSON reports.

ScalarField CSV carries a `theta,phi,value` header and one node per row in
theta-outer row-major order, printed with 17 significant digits so values
round-trip bit-identically.  Grid geometry lives in the scenario config,
not in the CSV.  Fields are written with one format call per theta line and
read with one np.loadtxt call per block of whole theta lines.  A coordinate
is accepted when its text is the grid's own %.17g text, or else when it
reads within 1e-9 of its node.  A row np.loadtxt refuses is named by its
line in the file.
`manufacture` writes boundary.csv as a byte copy of exact.csv.
"""

import json
import math
import re
import warnings

import numpy as np

from .errors import ConfigError, GridError
from .grid import ScalarField, SphericalGrid


def _coord_text(values) -> list:
    """The %.17g text of each coordinate: what the writers print and what
    read_field_csv accepts without converting."""
    return ["%.17g" % v for v in values.tolist()]


def _write_rows(path, header, grid, values, value_fmt="%.17g", indexed=False):
    """CSV with a header line and one `[i,j,]theta,phi,value` row per grid
    node (theta index outer), written with one `%` call per theta line.

    The phi (and j) text fills fixed slots of one argument list and each
    line's values fill its value slots."""
    phis = _coord_text(grid.phis)
    fixed = [list(map(str, range(grid.n_phi))), phis] if indexed else [phis]
    width = len(fixed) + 1  # argument slots per row
    args = [None] * (width * grid.n_phi)
    for k, texts in enumerate(fixed):
        args[k::width] = texts
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, (theta, row) in enumerate(zip(_coord_text(grid.thetas), values)):
            line = f"{i},%s,{theta},%s," if indexed else f"{theta},%s,"
            args[width - 1::width] = row.tolist()
            fh.write((line + value_fmt + "\n") * grid.n_phi % tuple(args))


def write_field_csv(path, f: ScalarField):
    _write_rows(path, "theta,phi,value", f.grid, f.values)


# Coordinates are read as text of at most this many characters; text that
# fills the field may have been cut.  %.17g text has at most 24.
_COORD_WIDTH = 32
_ROW = np.dtype([("theta", f"U{_COORD_WIDTH}"), ("phi", f"U{_COORD_WIDTH}"),
                 ("value", "f8")])


def _load_rows(fh, max_rows):
    with warnings.catch_warnings():  # blank lines and missing rows
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(fh, dtype=_ROW, delimiter=",", comments=None,
                          max_rows=max_rows, ndmin=1)


def _check_node(path, grid, i, j, texts):
    """Raise GridError unless texts, the (theta, phi) text of node (i, j)'s
    row, read as floats within 1e-9 of the node.  np.loadtxt reads them, as
    it reads the values."""
    row = i * grid.n_phi + j + 2
    try:
        if max(map(len, texts)) >= _COORD_WIDTH:
            raise ValueError(f"text of {_COORD_WIDTH} or more characters "
                             "may have been cut")
        theta, phi = np.loadtxt([",".join(texts)], delimiter=",",
                                comments=None)
    except ValueError as err:
        raise GridError(f"{path}: row {row} coordinates {texts} do not read "
                        f"as floats: {err}") from None
    if not (abs(theta - grid.thetas[i]) <= 1e-9 and abs(phi - grid.phis[j]) <= 1e-9):
        raise GridError(
            f"{path}: row {row} coordinates ({theta}, {phi}) do not match "
            f"grid node ({grid.thetas[i]}, {grid.phis[j]})")


def _refused_row(path, start):
    """'row <line>: <reason>', lines counted from 1, for the first line of
    path from data row `start` on that np.loadtxt refuses when it reads that
    line alone.  Skipping `start` lines after the header skips no later data
    row, as a blank line is no data row (nor, read alone, a refusal)."""
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if number < start + 2:
                continue
            try:
                _load_rows([line], 1)
            except ValueError as err:  # drop its "at row" (from 0 or 1) and advice
                return f"row {number}: " + re.sub(r" at row \d+|; use .*", "", str(err))


# Rows per np.loadtxt call, in whole theta lines and at least one: few calls
# on small grids, and on large ones a peak a small multiple of the result.
_BLOCK_ROWS = 512


def read_field_csv(path, grid: SphericalGrid) -> ScalarField:
    """Read a field written by write_field_csv onto a matching grid.

    One np.loadtxt call per block of whole theta lines, at most _BLOCK_ROWS
    rows.  A coordinate whose text is the grid's own %.17g text matches by
    construction; only other text is converted and checked."""
    values = np.empty(grid.shape)
    thetas = np.array(_coord_text(grid.thetas))[:, None]
    phis = np.array(_coord_text(grid.phis))
    step = max(1, _BLOCK_ROWS // grid.n_phi)  # theta lines per block
    start = 0  # a malformed row lies at or after this data row
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "theta,phi,value":
                raise GridError(f"{path}: expected header 'theta,phi,value', "
                                f"got {header!r}")
            for i0 in range(0, grid.n_theta, step):
                block = values[i0:i0 + step]
                start = i0 * grid.n_phi
                rows = _load_rows(fh, block.size)
                if rows.size < block.size:
                    raise GridError(f"{path}: {start + rows.size} data rows, "
                                    f"expected {values.size}")
                rows = rows.reshape(block.shape)
                off = ((rows["theta"] != thetas[i0:i0 + step])
                       | (rows["phi"] != phis))
                for i, j in zip(*np.nonzero(off)):
                    _check_node(path, grid, i0 + i, j, rows[i, j].item()[:2])
                block[...] = rows["value"]
            extra = _load_rows(fh, None).size
    except UnicodeDecodeError as err:
        raise GridError(f"{path}: {err}") from None
    except ValueError:  # a malformed row
        raise GridError(f"{path}: {_refused_row(path, start)}") from None
    if extra:
        raise GridError(f"{path}: {values.size + extra} data rows, "
                        f"expected {values.size}")
    return ScalarField(grid, values)


def write_type_map_csv(path, grid: SphericalGrid, letters: np.ndarray):
    _write_rows(path, "i,j,theta,phi,type", grid, letters, "%s", indexed=True)


def write_l2_csv(path, grid: SphericalGrid, l2: np.ndarray):
    """Non-finite L^2 values (vacuum) are written as nan."""
    l2 = np.where(np.isfinite(l2), l2, np.nan)
    _write_rows(path, "i,j,theta,phi,l2", grid, l2, indexed=True)


# The text of each gray level, which write_pgm looks up per pixel.
_GRAY_TEXT = np.array([str(level) for level in range(256)], dtype=object)


def write_pgm(path, values: np.ndarray):
    """8-bit ASCII PGM of a scalar map, linearly scaled over finite values."""
    arr = np.asarray(values, dtype=float)
    finite = np.isfinite(arr)
    gray = np.zeros(arr.shape, dtype=int)
    if finite.any():
        lo = float(arr[finite].min())
        hi = float(arr[finite].max())
        span = hi - lo if hi > lo else 1.0
        gray[finite] = np.clip(
            np.round(255.0 * (arr[finite] - lo) / span), 0, 255).astype(int)
    rows, cols = arr.shape
    body = "\n".join(map(" ".join, _GRAY_TEXT[gray].tolist()))
    with open(path, "w") as fh:
        fh.write(f"P2\n{cols} {rows}\n255\n{body}\n")


def read_mask_csv(path, n_theta: int, n_phi: int) -> np.ndarray:
    """Mask file: n_theta lines of n_phi comma-separated 0/1 entries."""
    try:
        with open(path) as fh:
            rows = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: {err}", key="grid.mask") from None
    if len(rows) != n_theta:
        raise ConfigError(f"{path}: {len(rows)} mask rows, expected {n_theta}",
                          key="grid.mask")
    mask = np.zeros((n_theta, n_phi), dtype=bool)
    for i, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != n_phi:
            raise ConfigError(
                f"{path}: mask row {i + 1} has {len(parts)} entries, "
                f"expected {n_phi}", key="grid.mask")
        for j, entry in enumerate(p.strip() for p in parts):
            if entry not in ("0", "1"):
                raise ConfigError(f"{path}: mask row {i + 1} column {j + 1} is "
                                  f"{entry!r}, expected 0 or 1", key="grid.mask")
            mask[i, j] = entry == "1"
    return mask


def _sanitize(obj):
    """Replace non-finite floats with None so reports stay strict JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def write_json_report(path, payload: dict):
    text = json.dumps(_sanitize(payload), indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
