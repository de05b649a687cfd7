"""Shared test utilities: random admissible states, finite-difference and
per-t oracles kept independent of the library code paths they check, and
the readers (fields_with_states, bernoulli_state, mean_values_at,
flux_laplacian) by which a test reaches single states through the array
path the program runs."""

import contextlib
import warnings
from collections import deque

import numpy as np
import pytest

import sphereflow as sf
from sphereflow import GasModel, GridError, ScalarField, SphericalGrid, VectorField, field_density
from sphereflow.comparison import _mean_values
from sphereflow.gas import EXP_CAP, bernoulli_density, require_admissible
from sphereflow.grid import STENCILS
from sphereflow.operators import (_phi_modes, gauss_legendre, segment_algebra,
                                  spherical_gradient)

# Per-gas scenario data for solver-built comparison pairs.  Boundary levels
# sit inside the corridor where z >= c holds and the homogeneous solution
# stays subsonic on the test patch.
PAIR_SCENARIOS = {
    2.0: dict(bernoulli=4.0, level=1.55),
    1.4: dict(bernoulli=4.0, level=1.40),
    1.0: dict(bernoulli=4.0, level=1.25),
    -1.0: dict(bernoulli=2.0, level=1.50),
}

SMALL_PATCH = (np.pi / 3, np.pi / 2, 0.0, np.pi / 4)
WIDE_PATCH = (np.pi / 3, 2 * np.pi / 3, 0.0, np.pi / 2)

# Expressions nested past the parser's cap, each deep enough to exhaust
# the interpreter's recursion limit without it.
DEEP_EXPRESSIONS = {
    "parentheses": "(" * 400 + "1" + ")" * 400,
    "signs": "-" * 3000 + "1",
    "powers": "2^" * 2000 + "2",
}


def random_gas(rng, gamma):
    return GasModel(gamma=gamma, rho0=rng.uniform(0.5, 2.0),
                    bernoulli=rng.uniform(1.0, 5.0))


def random_gas_with_supersonic_radial(rng, gamma):
    """Random gas whose z >= c set is nonempty (Chaplygin needs B > c0^2)."""
    rho0 = rng.uniform(0.5, 2.0)
    c0_sq = 1.0 if gamma == 1.0 else rho0 ** (gamma - 1.0)
    lo = c0_sq + 0.5 if gamma < 1.0 else 1.0
    return GasModel(gamma=gamma, rho0=rho0,
                    bernoulli=rng.uniform(lo, lo + 4.0))


def random_admissible_state(rng, gas, elliptic=False, max_l2=0.98,
                            z_above_c=False, c2_floor=0.05):
    """Rejection-sample a state (q1, q2, z) with rho > 0 (optionally
    elliptic, z >= c), with c^2 from reference_bernoulli.

    Keeps c^2 above a floor so density partials stay O(1); near-vacuum
    states blow the scale up and are not what the tolerance checks target.
    """
    for _ in range(20000):
        z = rng.uniform(0.05, 3.0)
        speed = rng.uniform(0.0, 1.5)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        c2 = float(reference_bernoulli(gas, speed * speed, z)[1])
        if c2 <= c2_floor:
            continue
        if elliptic and speed * speed > max_l2 * c2:
            continue
        if z_above_c and z < np.sqrt(c2):
            continue
        return speed * np.cos(ang), speed * np.sin(ang), z
    raise RuntimeError("state sampling failed")


def random_admissible_states(rng, gas, shape, **kwargs):
    """random_admissible_state drawn for every node of shape, as node arrays
    (q1, q2, z)."""
    draws = [random_admissible_state(rng, gas, **kwargs) for _ in range(int(np.prod(shape)))]
    return tuple(np.array(x).reshape(shape) for x in zip(*draws))


@contextlib.contextmanager
def fields_with_states(*states):
    """Fields on one grid whose gradients read as given node arrays: each
    state is (q1, q2, z), node arrays of one shape (at least 3 x 3), and
    field_density, segment_algebra and every reader built on them see it
    node by node while the context is open."""
    grid = SphericalGrid(*WIDE_PATCH, *np.shape(states[0][2]))
    fields = [ScalarField(grid, np.array(state[2], dtype=float)) for state in states]
    grads = {id(f): VectorField(grid, *(np.array(q, dtype=float) for q in state[:2]))
             for f, state in zip(fields, states)}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sf.operators, "spherical_gradient", lambda f: grads[id(f)])
        yield fields


def bernoulli_state(gas, q1, q2, z):
    """(rho, c^2) node arrays (at least 2-D) of the states (q1, q2, z) by
    bernoulli_density, refused at the first inadmissible one by
    require_admissible, as field_density refuses a node."""
    head = np.atleast_2d(gas.head(np.square(q1) + np.square(q2), z))
    rho, c2, ok = bernoulli_density(gas, head)
    require_admissible(gas, head, ok, True)
    return rho, c2


def mean_values_at(gas, q1, q2, z):
    """comparison._mean_values of the pair (f, f) whose nodes carry the
    states (q1, q2, z), scalars or node arrays of at least 3 x 3: the flux
    Jacobian (a11, a12, a22, d) at each state, as weak_form_field reads it
    (floats for scalar states)."""
    shape = np.broadcast(q1, q2, z).shape
    state = tuple(np.broadcast_to(x, shape or (3, 3)) for x in (q1, q2, z))
    with fields_with_states(state, state) as (f_minus, f_plus):
        co = mean_values(gas, f_minus, f_plus).values()
    return tuple(co) if shape else tuple(float(c[0, 0]) for c in co)


def flux_laplacian(f):
    """The flux stencil's Laplace-Beltrami Delta_h f at interior nodes (0.0
    elsewhere): flow_jacobian at the rest state 0 of the gas (2, 1, 4), where
    q = z = 0 and rho = c^2 = 3, applies div(3 grad v) + 6 v."""
    g = f.grid
    apply = sf.flow_jacobian(GasModel(2.0, 1.0, 4.0), ScalarField.constant(g, 0.0))
    return np.where(g.interior_mask, apply(f.values) / 3.0 - 2.0 * f.values, 0.0)


def excess(gas, x):
    """|q|^2 + z^2 - c^2 at x = (q1, q2, z), with bernoulli_density's c^2:
    a polynomial at every state, so it is read off the window too."""
    q_sq = x[0] * x[0] + x[1] * x[1]
    return q_sq + x[2] * x[2] - bernoulli_density(gas, np.array(gas.head(q_sq, x[2])), False)[1]


def principal_matrix(c2, q1, q2):
    """The paper's principal matrix [[c2 - q1^2, -q1 q2], [-q1 q2, c2 - q2^2]]
    at one state."""
    return np.array([[c2 - q1 * q1, -q1 * q2], [-q1 * q2, c2 - q2 * q2]])


def fd_density_partials(gas, q1, q2, z, h=1e-6):
    """Central finite differences of bernoulli_state's rho in q1, q2 and z."""
    out = []
    for k in range(3):
        ends = []
        for step in (h, -h):
            state = [q1, q2, z]
            state[k] = np.add(state[k], step)
            ends.append(bernoulli_state(gas, *state)[0])
        out.append((ends[0] - ends[1]) / (2.0 * h))
    return tuple(out)


def fd_hessian(fn, x0, h=1e-4):
    """Central finite-difference Hessian of a scalar function on R^3."""
    x0 = np.asarray(x0, dtype=float)
    H = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            xpp = x0.copy(); xpp[i] += h; xpp[j] += h
            xpm = x0.copy(); xpm[i] += h; xpm[j] -= h
            xmp = x0.copy(); xmp[i] -= h; xmp[j] += h
            xmm = x0.copy(); xmm[i] -= h; xmm[j] -= h
            H[i, j] = (fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (4.0 * h * h)
    return H


def observed_orders(errors):
    """log2 ratios of successive errors from a dyadic refinement."""
    return [float(np.log2(errors[k] / errors[k + 1]))
            for k in range(len(errors) - 1)]


# Second-derivative weights in units of 1/h^2 on the differences
# f[k + offset] - f[k], one row per stencil of grid.STENCILS and on its
# offsets: the library takes first derivatives only.
SECOND_DERIVATIVE_WEIGHTS = (
    (1, 1, 0),       # central
    (-5, 4, -1),     # forward, 4 points
    (-5, 4, -1),     # backward, 4 points
    (-2, 1, 0),      # forward, 3 points
    (-2, 1, 0),      # backward, 3 points
)


def per_node_derivative(vals, grid, axis, order):
    """d/dx (order 1, operators._derivative) or d2/dx2 (order 2) by a
    per-node gather: each masked node applies the first usable stencil of
    STENCILS, term by term in table order, with the neighbors wrapping
    across a periodic phi seam; zero off the mask."""
    m = grid.mask_array
    n = grid.shape[axis]
    wrap = axis == 1 and grid.phi_periodic
    h = grid.h_theta if axis == 0 else grid.h_phi
    div = 2.0 * h if order == 1 else h * h
    out = np.zeros(grid.shape)
    for node in zip(*np.nonzero(m)):
        def at(off):
            k = node[axis] + off
            if wrap:
                k %= n
            elif not 0 <= k < n:
                return None
            return node[:axis] + (k,) + node[axis + 1:]
        for (offsets, w1), w2 in zip(STENCILS, SECOND_DERIVATIVE_WEIGHTS):
            points = [at(off) for off in offsets]
            if all(p is not None and m[p] for p in points):
                break
        else:
            raise GridError(f"no stencil at node {node}")
        w = w1 if order == 1 else w2
        terms = [(vals[p] - vals[node]) * float(wk) for p, wk in zip(points, w)]
        out[node] = (terms[0] + terms[1] + terms[2]) / div
    return out


def expanded_residual(gas, f):
    """The termwise second-order expansion of the flow equation at f's
    field_density state, with every derivative from per_node_derivative: a
    reference for flow_residual.  It carries an overall factor c^2/rho
    relative to the flux form, so the two agree only for gamma = 2 (where
    rho = c^2) or on exact solutions."""
    grid = f.grid
    _, c2, q1, q2 = field_density(gas, f)
    st = grid.sin_theta[:, None]
    vals = f.values
    f_tt = per_node_derivative(vals, grid, 0, 2)
    f_pp = per_node_derivative(vals, grid, 1, 2)
    f_tp = per_node_derivative(per_node_derivative(vals, grid, 0, 1), grid, 1, 1)
    cot = (np.cos(grid.thetas) / grid.sin_theta)[:, None]
    out = (
        (c2 - q1 * q1) * f_tt
        + (c2 - q2 * q2) * f_pp / (st * st)
        - 2.0 * q1 * q2 * f_tp / st
        + cot * (c2 + q2 * q2) * q1
        + (2.0 * c2 - q1 * q1 - q2 * q2) * vals
    )
    return ScalarField(grid, np.where(grid.mask_array, out, 0.0))


def thomas_preconditioner(grid, k):
    """principal_preconditioner(grid, k) by one Thomas sweep per phi mode,
    row by row: the same separable stencil, shifted by k rho_row, on the
    interior's bounding box, with rho_row the unit density's mean over each
    row's masked nodes."""
    im = grid.interior_mask
    rows = np.flatnonzero(im.any(axis=1))
    cols = np.flatnonzero(im.any(axis=0) | grid.phi_periodic)
    box = im[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    basis, lam = _phi_modes(box.shape[1], grid.phi_periodic)
    m = grid.mask_array
    rho_row = np.where(m, 1.0, 0.0).sum(axis=1) / np.maximum(m.sum(axis=1), 1)
    face = grid.sin_theta_face[:, 0] * (rho_row[:-1] + rho_row[1:])
    i = np.arange(rows[0], rows[-1] + 1)
    st = grid.sin_theta[i, None]
    lower, upper = (face[i + k, None] / (2.0 * st * grid.h_theta ** 2) for k in (-1, 0))
    inv = rho_row[i, None] * (lam / (st * grid.h_phi) ** 2 + k) - lower - upper
    inv[0] = 1.0 / inv[0]
    for r in range(1, i.size):
        inv[r] = 1.0 / (inv[r] - lower[r] * upper[r - 1] * inv[r - 1])
    ratio = upper * inv

    def precondition(x):
        y = np.zeros(box.shape)
        y[box] = x
        y = y @ basis
        y[0] *= inv[0]
        for r in range(1, i.size):
            y[r] = (y[r] - lower[r] * y[r - 1]) * inv[r]
        for r in range(i.size - 2, -1, -1):
            y[r] -= ratio[r] * y[r + 1]
        return (y @ basis.T)[box]

    return precondition


# A field row as the reader below reads it: coordinates as text of fewer
# than 32 characters, the value as a float.
_FIELD_ROW = np.dtype([("theta", "U32"), ("phi", "U32"), ("value", "f8")])


def _field_rows(fh, max_rows):
    with warnings.catch_warnings():  # blank lines and missing rows
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(fh, dtype=_FIELD_ROW, delimiter=",", comments=None,
                          max_rows=max_rows, ndmin=1)


def _check_field_node(path, grid, i, j, texts):
    row = i * grid.n_phi + j + 2
    try:
        if max(map(len, texts)) >= 32:
            raise ValueError("text of 32 or more characters may have been cut")
        theta, phi = np.loadtxt([",".join(texts)], delimiter=",",
                                comments=None)
    except ValueError as err:
        raise GridError(f"{path}: row {row} coordinates {texts} do not read "
                        f"as floats: {err}") from None
    if not (abs(theta - grid.thetas[i]) <= 1e-9
            and abs(phi - grid.phis[j]) <= 1e-9):
        raise GridError(f"{path}: row {row} coordinates ({theta}, {phi}) do "
                        f"not match grid node ({grid.thetas[i]}, "
                        f"{grid.phis[j]})")


def per_line_read_field_csv(path, grid):
    """fieldio.read_field_csv with one np.loadtxt call per theta line, the
    reference for its blocks of lines.  Its parsing and node check are its
    own copies, so they pin what the reader accepted before the blocks.  A
    malformed row's message gives np.loadtxt's own row count, not the file
    line."""
    values = np.empty(grid.shape)
    phis = np.array(["%.17g" % v for v in grid.phis.tolist()])
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "theta,phi,value":
                raise GridError(f"{path}: expected header 'theta,phi,value', "
                                f"got {header!r}")
            for i, theta in enumerate(grid.thetas.tolist()):
                line = _field_rows(fh, grid.n_phi)
                if line.size < grid.n_phi:
                    raise GridError(f"{path}: {i * grid.n_phi + line.size} "
                                    f"data rows, expected {values.size}")
                for j in np.flatnonzero((line["theta"] != "%.17g" % theta)
                                        | (line["phi"] != phis)):
                    _check_field_node(path, grid, i, j, line[j].item()[:2])
                values[i] = line["value"]
            extra = _field_rows(fh, None).size
    except ValueError as err:  # a malformed row, or text that is not UTF-8
        raise GridError(f"{path}: {err}") from None
    if extra:
        raise GridError(f"{path}: {values.size + extra} data rows, "
                        f"expected {values.size}")
    return ScalarField(grid, values)


def padded_boundary_mask(grid):
    """SphericalGrid.boundary_mask from a zero-padded copy of the mask, with
    the phi columns wrapped across a periodic seam."""
    m = grid.mask_array
    pad = np.zeros((grid.n_theta + 2, grid.n_phi + 2), dtype=bool)
    pad[1:-1, 1:-1] = m
    if grid.phi_periodic:
        pad[1:-1, 0] = m[:, -1]
        pad[1:-1, -1] = m[:, 0]
    surrounded = (
        pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:]
    )
    return m & ~surrounded


def stepped_node(grid, i, j, di, dj):
    """(i + di, j + dj) with j wrapped on a periodic grid; None off the patch."""
    ii, jj = i + di, j + dj
    if grid.phi_periodic:
        jj %= grid.n_phi
    if 0 <= ii < grid.n_theta and 0 <= jj < grid.n_phi:
        return ii, jj
    return None


def bfs_interior_labels(grid):
    """SphericalGrid.interior_labels by a breadth-first search from each
    unlabelled interior node in flat order, one 4-neighbour step at a time."""
    im = grid.interior_mask
    out = np.zeros(grid.shape, dtype=int)
    for start in zip(*np.nonzero(im)):
        if out[start]:
            continue
        out[start] = out.max() + 1
        queue = deque([start])
        while queue:
            i, j = queue.popleft()
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nb = stepped_node(grid, i, j, di, dj)
                if nb is not None and im[nb] and not out[nb]:
                    out[nb] = out[start]
                    queue.append(nb)
    return out


def outward_directions(grid, i, j):
    """Directions (di, dj) in which node (i, j) has no masked neighbor, in
    the order +theta, -theta, +phi, -phi."""
    m = grid.mask_array
    nth, nph = grid.shape
    per = grid.phi_periodic
    dirs = []
    if i + 1 >= nth or not m[i + 1, j]:
        dirs.append((1, 0))
    if i - 1 < 0 or not m[i - 1, j]:
        dirs.append((-1, 0))
    jp = (j + 1) % nph if per else j + 1
    jm = (j - 1) % nph if per else j - 1
    if jp >= nph or not m[i, jp]:
        dirs.append((0, 1))
    if jm < 0 or not m[i, jm]:
        dirs.append((0, -1))
    return dirs


# Reference copies of the segment sweeps that check_segment_conditions and
# _mean_values made before their closed forms: per value of t,
# the full state of phi_t = t f- + (1-t) f+ from the endpoint gradients,
# with the Bernoulli law written out here.  Roundoff slack of z >= c.
SEGMENT_SLACK = 1e-12


def reference_bernoulli(gas, q_sq, z):
    """(rho, c^2, admissible) of the Bernoulli law, elementwise: admissible
    where c^2 > 0 (|head/2| <= EXP_CAP for the isothermal gas) and rho is a
    finite double > 0, found by forming rho, not from the gas's window;
    rejected entries carry rho = 1."""
    head = gas.bernoulli - z * z - q_sq
    with np.errstate(over="ignore"):
        if gas.gamma == 1.0:
            ok = np.abs(0.5 * head) <= EXP_CAP
            rho, c2 = gas.rho0 * np.exp(np.where(ok, 0.5 * head, 0.0)), np.ones_like(head)
        else:
            c2 = gas.c0_sq + 0.5 * (gas.gamma - 1.0) * head
            ok = c2 > 0.0
            rho = np.where(ok, c2, 1.0) ** (1.0 / (gas.gamma - 1.0))
    ok = ok & (rho > 0.0) & (rho < np.inf)
    return np.where(ok, rho, 1.0), c2, ok


def field_state(f):
    """(q1, q2, z) node arrays of a field: its gradient and value."""
    grad = spherical_gradient(f)
    return grad.v_theta, grad.v_phi, f.values


SEGMENT_CONDITIONS = ("rho_positive", "mach_elliptic", "z_above_sound", "form_positive")


def segment_failures(gas, minus, plus, t, band=0.0):
    """Where each of SEGMENT_CONDITIONS fails at the states (q1, q2, z) =
    t minus + (1-t) plus, for t broadcast against the node arrays, and the
    form minimum there.  The thresholds of L^2 < 1, z >= c and the form move
    by band: a state fails only beyond it (band > 0) or already within it
    (band < 0).  The form fails wherever it is evaluated; callers gate it."""
    q1, q2, z = (t * m + (1.0 - t) * p for m, p in zip(minus, plus))
    q_sq = q1 * q1 + q2 * q2
    rho, c2, ok = reference_bernoulli(gas, q_sq, z)
    c2 = np.where(ok, c2, 1.0)
    tan = rho / c2 * (c2 - q_sq)
    form = np.minimum(tan, rho / c2 * (z * z - c2))
    slack = SEGMENT_SLACK + band
    return (~ok, ok & (q_sq / c2 >= 1.0 + band),
            ok & (z - np.sqrt(np.maximum(c2, 0.0)) < -slack),
            (form < -slack) | (tan <= 0.0)), form


def segment_sweep(gas, minus, plus, n_t, band=0.0):
    """check_segment_conditions by sampling n_t uniform values of t, for
    endpoint states (q1, q2, z) of node arrays: (failed, the first failed
    condition of each node, in SEGMENT_CONDITIONS order, and the least form
    minimum over the (node, t) that pass the first three)."""
    t = np.linspace(0.0, 1.0, n_t).reshape((n_t,) + (1,) * np.ndim(plus[2]))
    (rho, mach, z_gap, form_bad), form = segment_failures(gas, minus, plus, t, band)
    live = ~(rho | mach | z_gap)
    first = np.full(np.shape(plus[2]), "", dtype=object)
    for name, bad in zip(SEGMENT_CONDITIONS, (rho, mach, z_gap, live & form_bad)):
        first = np.where((first == "") & bad.any(axis=0), name, first)
    return first != "", first, np.where(live, form, np.inf).min(axis=0)


def gauss_rule(n_quad):
    """The n_quad-point Gauss-Legendre (nodes, weights) on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_quad)
    return 0.5 * (x + 1.0), 0.5 * w


def per_t_mean_value_coefficients(gas, f_minus, f_plus, n_quad):
    """comparison._mean_values by accumulating its four coefficients at each
    node of the n_quad-point Gauss-Legendre rule in t, off the mask zero."""
    mask = f_plus.grid.mask_array
    minus, plus = field_state(f_minus), field_state(f_plus)
    acc = dict.fromkeys(MEAN_VALUES, 0.0)
    for t, wt in zip(*gauss_rule(n_quad)):
        q1, q2, z = (t * m + (1.0 - t) * p for m, p in zip(minus, plus))
        rho, c2, ok = reference_bernoulli(gas, q1 * q1 + q2 * q2, z)
        assert ok[mask].all()
        rho = np.where(mask, rho, 0.0)
        scale = np.where(mask, rho / np.where(mask, c2, 1.0), 0.0)
        for name, term in (("a11", rho - q1 * q1 * scale), ("a12", -q1 * q2 * scale),
                           ("a22", rho - q2 * q2 * scale), ("d", 2.0 * (rho - z * z * scale))):
            acc[name] = acc[name] + wt * term
    return acc


MEAN_VALUES = ("a11", "a12", "a22", "d")


def mean_values(gas, f_minus, f_plus):
    """comparison._mean_values over the whole grid of the pair, as
    weak_form_field forms it, by name (MEAN_VALUES)."""
    seg = segment_algebra(gas, f_minus, f_plus)
    return dict(zip(MEAN_VALUES, _mean_values(gas, f_plus.grid.mask_array, seg)))


def gauss_state_failures(gas, f_minus, f_plus):
    """(ts, inadmissible, c^2) of the Gauss-point states of phi_t, stacked
    over t: where the Bernoulli law rejects a masked node's state, and c^2
    there (1 for the isothermal gas)."""
    ts = gauss_legendre()[0]
    minus, plus = field_state(f_minus), field_state(f_plus)
    bad, c2s = [], []
    for t in ts:
        q1, q2, z = (t * m + (1.0 - t) * p for m, p in zip(minus, plus))
        _, c2, ok = reference_bernoulli(gas, q1 * q1 + q2 * q2, z)
        bad.append(~ok & f_plus.grid.mask_array)
        c2s.append(c2)
    return ts, np.array(bad), np.array(c2s)


def reference_weak_form_field(gas, f_minus, f_plus):
    """weak_form_field by its full-grid formula: the coefficients at every
    node, F = 2 h+ a(grad h+, grad h+) - d (h+)^3 where h+ > 0 and 0.0
    elsewhere."""
    grid = f_plus.grid
    co = mean_values(gas, f_minus, f_plus)
    m = grid.mask_array
    hplus = np.where(m, np.maximum(f_minus.values - f_plus.values, 0.0), 0.0)
    pos = hplus > 0.0
    grad = spherical_gradient(ScalarField(grid, hplus))
    g1 = np.where(pos, grad.v_theta, 0.0)
    g2 = np.where(pos, grad.v_phi, 0.0)
    quad = co["a11"] * g1 * g1 + 2.0 * co["a12"] * g1 * g2 + co["a22"] * g2 * g2
    return np.where(pos, 2.0 * hplus * quad - co["d"] * hplus * hplus * hplus, 0.0)
