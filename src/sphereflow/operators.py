"""Discrete calculus on spherical patches and the potential-flow operator.

The gradient on the unit sphere is D = (d/dtheta, d/dphi / sin(theta)) and
the divergence of v = (v_theta, v_phi) is
(1/sin)(d/dtheta)(sin * v_theta) + (1/sin)(d/dphi) v_phi.  All stencils are
second-order central at nodes with two masked neighbors and second-order
one-sided at patch edges and mask boundaries, so derivatives (and hence
the flow states rho, c^2 of field_density and segment_algebra) are
defined up to the boundary.

The nonlinear operator evaluated by flow_residual is

    div(rho * D f) + 2 * rho * f

in conservative (flux) form with arithmetic-mean face densities.  The
equation holds at interior nodes, with f given at the others, so the flux
operators (flow_residual, laplace_beltrami, residual_roundoff,
flow_jacobian) are exact at interior nodes only, and flow_residual is 0.0
at every other node.  flow_jacobian is its exact derivative there, applied
matrix-free; segment_jacobian averages it over the segment between two
fields.  Only first derivatives are taken: the termwise expansion of the
equation, with its second derivatives, is a reference kept with the tests.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigError, InadmissibleStateError, NotEllipticError
from .gas import (
    FlowState,
    FlowType,
    GasModel,
    bernoulli_density,
    classify_codes,
    density,
    require_admissible,
    sound_speed_sq,
)
from .grid import ScalarField, SphericalGrid, VectorField, require_same_grid


def _face_mean(a, grid, axis):
    """Arithmetic mean of a node array on the faces k + 1/2 along axis."""
    return 0.5 * grid.on_faces(np.add, a, axis)


def _add_divergence(out, grid, axis, flux, combine=np.subtract):
    """out += the divergence along axis of face fluxes laid out by
    grid.on_faces (theta faces sin-weighted): combine(flux[k + 1/2],
    flux[k - 1/2]) / (sin(theta) h), in place, nothing at the ends of a
    non-periodic axis; exact at interior nodes only."""
    div = grid.at_nodes(combine, flux, axis)
    div /= grid.sin_theta[:, None] * (grid.h_theta if axis == 0 else grid.h_phi)
    out += div


def _face_weights(grid):
    """Flux weights w of the unit-density stencil, as columns: the face flux
    of rho D v is w * rho_face * (v[k + 1] - v[k]) on the faces of
    grid.on_faces, with w = sin(theta_face) / h_theta on theta faces
    (sin-weighted) and 1 / (sin(theta) h_phi) on phi faces.  Every flux
    operator reads them."""
    return grid.sin_theta_face / grid.h_theta, 1.0 / (grid.h_phi * grid.sin_theta[:, None])


def _derivative(vals, grid: SphericalGrid, axis):
    """d/dx along axis at every masked node: central differences
    ((f[k+1] - f[k]) + (f[k] - f[k-1])) / 2h over the whole array, wrapping
    across a periodic phi seam, then the grid's table of one-sided stencils
    (grid.STENCILS) at patch edges and mask boundaries; zero off the mask."""
    vals = np.asarray(vals, dtype=float)
    div = 2.0 * (grid.h_theta if axis == 0 else grid.h_phi)
    out = grid.at_nodes(np.add, grid.on_faces(np.subtract, vals, axis), axis)
    out /= div
    nodes, idx, w1 = grid.stencils[axis]
    flat = vals.ravel()
    terms = (flat[idx] - flat[nodes]) * w1
    out.ravel()[nodes] = (terms[0] + terms[1] + terms[2]) / div
    return out if grid.mask is None else np.where(grid.mask, out, 0.0)


def spherical_gradient(f: ScalarField) -> VectorField:
    """D f = (df/dtheta, df/dphi / sin(theta)) at every masked node."""
    grid = f.grid
    dth = _derivative(f.values, grid, 0)
    dph = _derivative(f.values, grid, 1)
    return VectorField(grid, dth, dph / grid.sin_theta[:, None])


def spherical_divergence(v: VectorField) -> ScalarField:
    """(1/sin) d/dtheta (sin * v_theta) + (1/sin) d/dphi (v_phi)."""
    grid = v.grid
    st = grid.sin_theta[:, None]
    dth = _derivative(st * v.v_theta, grid, 0)
    dph = _derivative(v.v_phi, grid, 1)
    return ScalarField(grid, np.where(grid.mask_array, (dth + dph) / st, 0.0))


def field_density(gas: GasModel, f: ScalarField):
    """(rho, c2, q1, q2) node arrays; rho is zero off the mask.

    Raises like require_admissible, naming the first inadmissible masked
    node.
    """
    vf = spherical_gradient(f)
    q1, q2 = vf.v_theta, vf.v_phi
    m = f.grid.mask_array
    rho, c2, ok = bernoulli_density(gas, head := gas.head(q1 * q1 + q2 * q2, f.values))
    require_admissible(gas, head, ok, m)
    return np.where(m, rho, 0.0), c2, q1, q2


def segment_algebra(gas: GasModel, f_minus: ScalarField, f_plus: ScalarField,
                    gradients=None):
    """(q1, q2, z, dq1, dq2, dz, h0, h1, h2) node arrays of phi_t = f+ + t (f- - f+)
    from one gradient of each field: f+'s gradient and value, their increments
    to f-, and the Bernoulli head B - z_t^2 - |q_t|^2 = h0 + h1 t + h2 t^2 of
    bernoulli_density, so c^2 = c0^2 + (gamma-1)/2 head is quadratic in t.
    gradients, if known, are the (q1, q2) of f- and of f+ (field_density's)."""
    require_same_grid(f_minus, f_plus)
    (m1, m2), (q1, q2) = gradients or [
        (g.v_theta, g.v_phi) for g in map(spherical_gradient, (f_minus, f_plus))]
    z, dq1, dq2, dz = f_plus.values, m1 - q1, m2 - q2, f_minus.values - f_plus.values
    return (q1, q2, z, dq1, dq2, dz, gas.head(q1 * q1 + q2 * q2, z),
            -2.0 * (q1 * dq1 + q2 * dq2 + z * dz), -(dq1 * dq1 + dq2 * dq2 + dz * dz))


def laplace_beltrami(grid: SphericalGrid, v):
    """D_face(grad_face v) for a value array v, exact at interior nodes: the
    flux stencil of flow_residual at unit density, which
    principal_preconditioner(grid) inverts."""
    out = np.zeros(grid.shape)
    for axis, w in enumerate(_face_weights(grid)):
        _add_divergence(out, grid, axis, w * grid.on_faces(np.subtract, v, axis))
    return out


def _phi_modes(m, periodic):
    """Orthonormal eigenvectors (as columns) and eigenvalues of the phi second
    difference on m nodes, zero-ended (sine modes) or periodic (Fourier)."""
    k, j = np.arange(m), np.arange(m)[:, None]
    if periodic:
        freq = (k + 1) // 2
        angle = 2.0 * np.pi * freq / m
        basis = np.where((k % 2 == 1) | (k == 0), np.cos(j * angle), np.sin(j * angle))
        basis *= np.where((freq == 0) | (2 * freq == m), 1.0, np.sqrt(2.0)) / np.sqrt(m)
    else:
        angle = np.pi * (k + 1) / (m + 1)
        basis = np.sqrt(2.0 / (m + 1)) * np.sin((j + 1) * angle)
    lam = -4.0 * np.sin(0.5 * angle) ** 2
    return basis, lam


def principal_preconditioner(grid: SphericalGrid):
    """Approximate inverse, on interior values in flat order, of the flux
    stencil v -> D_face(rho_face grad_face v) with face densities from
    rho_row, 1 on the rows holding a masked node and 0 on the others: the
    unit-density stencil of laplace_beltrami, cut at empty rows.  It is
    separable on the bounding box of the interior (the whole ring when phi
    is periodic), where fast diagonalization (Lynch, Rice & Thomas, Numer.
    Math. 6 (1964) 185-199) inverts it: per phi mode of the second
    difference (eigenvalue lam_k <= 0) the theta system times sin(theta) is
    lam_k W - G, with G = C C^T tridiagonal positive definite and
    W = diag(rho_row / (sin(theta) h_phi^2)) >= 0.  If C^-1 W C^-T =
    Q diag(nu) Q^T, its inverse is P diag(1 / (lam_k nu - 1)) P^T with
    P = C^-T Q: four matrix products and a divide per application.  Box
    nodes off the interior are solved for and dropped, so it is exact on an
    interior that fills its box.  A build costs 5-15 applications, so the
    solver builds one per solve."""
    im = grid.interior_mask
    rows = np.flatnonzero(im.any(axis=1))
    cols = np.flatnonzero(im.any(axis=0) | grid.phi_periodic)
    box = im[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    basis, lam = _phi_modes(box.shape[1], grid.phi_periodic)
    rho_row = grid.mask_array.any(axis=1).astype(float)
    w_theta, w_phi = (w[:, 0] for w in _face_weights(grid))
    face = w_theta * _face_mean(rho_row, grid, 0) / grid.h_theta
    i = np.arange(rows[0], rows[-1] + 1)
    st = grid.sin_theta[i]
    # W is 0 on rows without masked nodes, and G on a row inside three of them
    diag = face[i - 1] + face[i]
    off = np.diag(face[i[:-1]], 1)
    g = np.diag(np.where(diag > 0.0, diag, 1.0)) - off - off.T
    c_inv = np.linalg.inv(np.linalg.cholesky(g))
    nu, q = np.linalg.eigh((c_inv * (rho_row[i] * w_phi[i] / grid.h_phi)) @ c_inv.T)
    right = c_inv.T @ q
    left = right.T * st
    denom = nu[:, None] * lam - 1.0

    def precondition(x):
        y = np.zeros(box.shape)
        y[box] = x
        y = left @ (y @ basis)
        y /= denom
        return (right @ y @ basis.T)[box]

    return precondition


def flow_residual(gas: GasModel, f: ScalarField, *, state=None) -> ScalarField:
    """Evaluate the potential-flow operator div(rho D f) + 2 rho f by the
    conservative flux stencil with arithmetic-mean face densities at the
    interior nodes, where the equation holds; 0.0 at every other node.
    state is field_density(gas, f), if known."""
    grid = f.grid
    rho = (field_density(gas, f) if state is None else state)[0]
    out = 2.0 * rho * f.values
    for axis, w in enumerate(_face_weights(grid)):
        _add_divergence(out, grid, axis, w * _face_mean(rho, grid, axis)
                        * grid.on_faces(np.subtract, f.values, axis))
    return ScalarField(grid, np.where(grid.interior_mask, out, 0.0))


def residual_roundoff(f: ScalarField, rho):
    """Node array of the rounding scale of flow_residual at interior nodes,
    for f's density rho (field_density(gas, f)[0]).

    The interior flux stencil applied to |f| with absolute weights: every
    difference f[k+1] - f[k] becomes |f[k+1]| + |f[k]| and every flux
    difference a sum, times the unit roundoff.  It is the size of the change
    that rounding f to double precision makes in the residual: a random
    1-ulp perturbation of the README solution moves the residual by about
    1.2 times its maximum at n = 33 to 257.
    """
    grid = f.grid
    a = np.abs(f.values)
    out = 2.0 * rho * a
    for axis, w in enumerate(_face_weights(grid)):
        _add_divergence(out, grid, axis, w * _face_mean(rho, grid, axis)
                        * grid.on_faces(np.add, a, axis), combine=np.add)
    return np.finfo(float).eps * out


def flow_jacobian(gas: GasModel, f: ScalarField, *, state=None):
    """apply(v) = D_face(rho_face grad_face v + drho_face grad_face f)
    + 2 (rho v + drho f): the exact derivative of the flux residual at f, on
    value arrays and exact at interior nodes, with the face averages and
    differences of flow_residual and the chain rule
    drho = -(rho/c^2)(q1 dv/dtheta + q2 dv/dphi / sin + z v) through the
    Bernoulli density.  Raises like field_density if f is inadmissible;
    state is field_density(gas, f), if known.  The chain rule, 1/(2h) and
    1/sin fold into per-node coefficients of the central differences, zero
    at the stencil tables' rows: one gather applies those."""
    grid, vals = f.grid, f.values
    rho, c2, q1, q2 = field_density(gas, f) if state is None else state
    scale = -rho / np.where(grid.mask_array, c2, 1.0)
    coef = (scale * q1 / (2.0 * grid.h_theta),
            scale * q2 / (2.0 * grid.h_phi * grid.sin_theta[:, None]))
    sz, rho2, vals2 = scale * vals, 2.0 * rho, 2.0 * vals
    tables = grid.stencils
    own, idx = np.concatenate([t[0] for t in tables]), np.concatenate([t[1] for t in tables], 1)
    weights = np.concatenate([w1 * c.ravel()[rows]
                              for (rows, _, w1), c in zip(tables, coef)], 1)
    for (rows, *_), c in zip(tables, coef):
        c.ravel()[rows] = 0.0
    # per axis, flux = a (v[k+1] - v[k]) + b (drho[k+1] + drho[k]) on the faces
    faces = [(w * _face_mean(rho, grid, axis), 0.5 * w * grid.on_faces(np.subtract, vals, axis))
             for axis, w in enumerate(_face_weights(grid))]

    def apply(v):
        steps = [grid.on_faces(np.subtract, v, axis) for axis in (0, 1)]
        drho = sz * v
        for axis, (c, step) in enumerate(zip(coef, steps)):  # central differences
            central = grid.at_nodes(np.add, step, axis)
            central *= c
            drho += central
        flat = v.ravel()
        np.add.at(drho.ravel(), own, ((flat[idx] - flat[own]) * weights).sum(axis=0))
        out = rho2 * v
        out += vals2 * drho
        for axis, ((a, b), flux) in enumerate(zip(faces, steps)):
            flux *= a
            flux += b * grid.on_faces(np.add, drho, axis)
            _add_divergence(out, grid, axis, flux)
        return out

    return apply


@cache
def gauss_legendre(n_quad: int):
    """Read-only n_quad-point Gauss-Legendre (nodes, weights) on [0, 1]."""
    if n_quad < 1:
        raise ConfigError("n_quad must be >= 1", "n_quad")
    x, w = np.polynomial.legendre.leggauss(n_quad)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


def segment_jacobian(gas: GasModel, f_minus: ScalarField, f_plus: ScalarField,
                     n_quad: int = 8):
    """apply(v) on value arrays: flow_jacobian's apply averaged over phi_t =
    t f- + (1-t) f+ by n_quad-point Gauss-Legendre in t, so apply(f- - f+)
    = flow_residual(f-) - flow_residual(f+) at interior nodes up to the
    quadrature error.  The state of each phi_t, at gradient q+ + t dq and
    value z+ + t dz, comes from segment_algebra's head, so no phi_t is
    differentiated again; raises like field_density, naming t, if some phi_t
    is inadmissible."""
    grid = require_same_grid(f_minus, f_plus)
    mask = grid.mask_array
    q1, q2, z, dq1, dq2, dz, h0, h1, h2 = segment_algebra(gas, f_minus, f_plus)
    ts, ws = gauss_legendre(n_quad)
    parts = []
    for t, wt in zip(ts, ws):
        rho, c2, ok = bernoulli_density(gas, head := h0 + t * (h1 + t * h2))
        require_admissible(gas, head, ok, mask, float(t))
        state = np.where(mask, rho, 0.0), c2, q1 + t * dq1, q2 + t * dq2
        parts.append((wt, flow_jacobian(gas, ScalarField(grid, z + t * dz), state=state)))

    def apply(v):
        return sum(wt * jac(v) for wt, jac in parts)

    return apply


def principal_matrix(gas: GasModel, s: FlowState):
    """Second-order coefficient matrix [[c2-q1^2, -q1 q2], [-q1 q2, c2-q2^2]]."""
    c2 = sound_speed_sq(gas, s)
    return np.array([
        [c2 - s.q1 * s.q1, -s.q1 * s.q2],
        [-s.q1 * s.q2, c2 - s.q2 * s.q2],
    ])


def eigenvalue_ratio(gas: GasModel, s: FlowState) -> float:
    """lambda_max / lambda_min of the principal matrix, equal to 1/(1 - L^2).

    Only defined for strictly elliptic states; raises NotEllipticError
    otherwise, and at every state that density() refuses.
    """
    try:
        density(gas, s)
    except InadmissibleStateError as err:
        raise NotEllipticError(str(err)) from err
    l2 = s.speed_sq() / sound_speed_sq(gas, s)
    if l2 >= 1.0:
        raise NotEllipticError(f"L^2 = {l2:.6g} >= 1")
    return 1.0 / (1.0 - l2)


@dataclass
class TypeMap:
    """Per-node classification codes and the pseudo-Mach-squared map."""

    codes: np.ndarray  # FlowType integer codes
    l2: np.ndarray     # nan where undefined (vacuum)

    def letters(self):
        lut = np.array(list("EPHV"))
        return lut[self.codes]

    def counts(self):
        return {t.letter: int(np.sum(self.codes == int(t))) for t in FlowType}


def classify_field(gas: GasModel, f: ScalarField) -> TypeMap:
    """Classify every node of a potential field by its local flow type."""
    vf = spherical_gradient(f)
    s = FlowState(vf.v_theta, vf.v_phi, f.values)
    codes = classify_codes(gas, s)
    defined = codes != int(FlowType.VACUUM)
    with np.errstate(divide="ignore", invalid="ignore"):
        l2 = np.where(defined, s.speed_sq() / sound_speed_sq(gas, s), np.nan)
    return TypeMap(codes=codes, l2=l2)
