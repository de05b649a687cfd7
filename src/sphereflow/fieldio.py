"""File formats: ScalarField CSV, type/L^2 maps, masks, PGM and JSON reports.

ScalarField CSV carries a `theta,phi,value` header and one node per row in
theta-outer row-major order, printed with 17 significant digits so values
round-trip bit-identically.  Grid geometry lives in the scenario config,
not in the CSV.
"""

import json
import math
import warnings

import numpy as np

from .errors import ConfigError, GridError
from .grid import ScalarField, SphericalGrid


def _write_rows(path, header, grid, values, value_fmt="%.17g", indexed=False):
    """CSV with a header line and one `[i,j,]theta,phi,value` row per grid
    node (theta index outer).  Coordinates and indices are formatted once
    per grid line; only the value is formatted per node."""
    phis = ["%.17g" % p for p in grid.phis.tolist()]
    cols = list(zip(map(str, range(grid.n_phi)), phis)) if indexed else [(p,) for p in phis]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, (theta, row) in enumerate(zip(grid.thetas.tolist(), values)):
            theta = "%.17g" % theta
            line = (f"{i},%s,{theta},%s," if indexed else f"{theta},%s,") + value_fmt + "\n"
            fh.write("".join([line % (*col, v) for col, v in zip(cols, row.tolist())]))


def write_field_csv(path, f: ScalarField):
    _write_rows(path, "theta,phi,value", f.grid, f.values)


def read_field_csv(path, grid: SphericalGrid) -> ScalarField:
    """Read a field written by write_field_csv onto a matching grid."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "theta,phi,value":
            raise GridError(f"{path}: expected header 'theta,phi,value', "
                            f"got {header!r}")
        try:
            with warnings.catch_warnings():  # no rows is reported below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as err:
            raise GridError(f"{path}: {err}") from None
    expected = grid.n_theta * grid.n_phi
    if data.shape[0] != expected:
        raise GridError(f"{path}: {data.shape[0]} data rows, expected {expected}")
    if data.shape[1] != 3:
        raise GridError(f"{path}: {data.shape[1]} columns per row, expected 3")
    data = data.reshape(grid.n_theta, grid.n_phi, 3)
    off = ((np.abs(data[..., 0] - grid.thetas[:, None]) > 1e-9)
           | (np.abs(data[..., 1] - grid.phis) > 1e-9))
    if np.any(off):
        i, j = np.argwhere(off)[0]
        raise GridError(
            f"{path}: row {i * grid.n_phi + j + 2} coordinates "
            f"({data[i, j, 0]}, {data[i, j, 1]}) do not match grid node "
            f"({grid.thetas[i]}, {grid.phis[j]})")
    return ScalarField(grid, data[..., 2].copy())


def write_type_map_csv(path, grid: SphericalGrid, letters: np.ndarray):
    _write_rows(path, "i,j,theta,phi,type", grid, letters, "%s", indexed=True)


def write_l2_csv(path, grid: SphericalGrid, l2: np.ndarray):
    """Non-finite L^2 values (vacuum) are written as nan."""
    l2 = np.where(np.isfinite(l2), l2, np.nan)
    _write_rows(path, "i,j,theta,phi,l2", grid, l2, indexed=True)


def write_pgm(path, values: np.ndarray):
    """8-bit ASCII PGM of a scalar map, linearly scaled over finite values."""
    arr = np.asarray(values, dtype=float)
    finite = np.isfinite(arr)
    if finite.any():
        lo = float(arr[finite].min())
        hi = float(arr[finite].max())
        span = hi - lo if hi > lo else 1.0
        gray = np.zeros(arr.shape, dtype=int)
        gray[finite] = np.clip(
            np.round(255.0 * (arr[finite] - lo) / span), 0, 255).astype(int)
    else:
        gray = np.zeros(arr.shape, dtype=int)
    rows, cols = arr.shape
    lines = [f"P2", f"{cols} {rows}", "255"]
    for i in range(rows):
        lines.append(" ".join(map(str, gray[i].tolist())))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mask_csv(path, n_theta: int, n_phi: int) -> np.ndarray:
    """Mask file: n_theta lines of n_phi comma-separated 0/1 entries."""
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
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
        mask[i] = [p.strip() not in ("0", "") for p in parts]
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
    with open(path, "w") as fh:
        json.dump(_sanitize(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")
