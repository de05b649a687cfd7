"""Ellipticity algebra: the 3x3 comparison matrix, its lower bound,
segment-set condition sweeps, and uniform-ellipticity certificates.

The comparison matrix packs the (q, z)-Jacobian of the flow fluxes
A = rho * q (tangential mass flux) and B = 2 * rho * z (radial source),
with the last column weighted by -beta.  Its quadratic form controls the
sign structure that the weak comparison principle rests on: under
rho > 0, L^2 < 1 and z >= c the form is nonnegative, and strictly
positive whenever the tangential part of the test vector is nonzero.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .gas import FlowState, GasModel, density, density_partials, sound_speed_sq
from .grid import ScalarField, require_same_grid
from .operators import field_density, segment_states

# Roundoff slack for the z >= c hypothesis (equality is permitted).
Z_GE_C_SLACK = 1e-12


def comparison_matrix(gas: GasModel, s: FlowState, beta: float = 0.5) -> np.ndarray:
    """The 3x3 flux-Jacobian matrix with beta-weighted last column at a
    pointwise state, from the analytic density partials.

    Row i holds (d A1, d A2, -beta d B) by q_i (and by z in the last row).
    At beta = 1/2 this reduces to
    (1/rho^(gamma-2)) [[c2-q1^2, -q1 q2, q1 z], [-q1 q2, c2-q2^2, q2 z],
    [-q1 z, -q2 z, z^2-c2]].
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    rho = density(gas, s)
    dq1, dq2, dz = density_partials(gas, s)
    q1, q2, z = s.q1, s.q2, s.z
    return np.array([
        [rho + q1 * dq1, q2 * dq1, -beta * 2.0 * z * dq1],
        [q1 * dq2, rho + q2 * dq2, -beta * 2.0 * z * dq2],
        [q1 * dz, q2 * dz, -beta * (2.0 * rho + 2.0 * z * dz)],
    ])


def quadratic_form_and_bound(H: np.ndarray, gas: GasModel, s: FlowState,
                             xi) -> tuple[float, float]:
    """(sum H_ij xi_i xi_j, Schwartz lower bound) at a beta = 1/2 matrix.

    The bound is (1/rho^(gamma-2)) ((c2-|q|^2)(xi1^2+xi2^2) + (z^2-c2) xi3^2)
    and form >= bound holds for every xi.
    """
    xi = np.asarray(xi, dtype=float)
    form = float(xi @ H @ xi)
    rho = density(gas, s)
    c2 = sound_speed_sq(gas, s)
    scale = rho / c2  # rho^(2-gamma) under c^2 = rho^(gamma-1)
    bound = scale * (
        (c2 - s.speed_sq()) * (xi[0] ** 2 + xi[1] ** 2)
        + (s.z * s.z - c2) * xi[2] ** 2
    )
    return form, float(bound)


@dataclass
class NodeViolation:
    i: int
    j: int
    t: float
    condition: str
    value: float


@dataclass
class SegmentCheckReport:
    """Per-node verdicts for the hypotheses along the segment [f-, f+].

    ``worst`` locates the smallest quadratic-form minimum over every
    (node, t) the witness evaluated, as {"i", "j", "t", "value"}, or is
    None when the witness evaluated no node.
    """

    pass_mask: np.ndarray
    violations: list[NodeViolation] = field(default_factory=list)
    worst: dict | None = None

    @property
    def all_pass(self) -> bool:
        return len(self.violations) == 0


def _form_minima(q1, q2, z, c2, scale):
    """Exact minima of the form scale (c2 |x_t|^2 - (q . x_t)^2
    + (z^2 - c2) x3^2), x_t = (x1, x2), over unit vectors x: (over all x,
    over those with x3 = 0).  Elementwise in the node data.

    The form is x^T H x for the beta = 1/2 comparison matrix H.  The
    symmetric part of H is block diagonal, with eigenvalues
    scale (c2 - |q|^2) and scale c2 on the tangential block and
    scale (z^2 - c2) on the radial one, so both minima are eigenvalues.
    """
    tan = scale * (c2 - (q1 * q1 + q2 * q2))
    return np.minimum(tan, scale * (z * z - c2)), tan


def check_segment_conditions(gas: GasModel, f_minus: ScalarField,
                             f_plus: ScalarField, n_t: int = 9) -> SegmentCheckReport:
    """Sweep t in [0, 1] and verify the matrix hypotheses at every node.

    At each of n_t uniformly spaced t the convex combination
    phi_t = t f- + (1-t) f+ is checked for rho > 0, L^2 < 1 and z >= c
    (within roundoff slack).  At nodes that pass those, the quadratic form
    is a witness: its exact minimum over unit vectors (the smallest
    eigenvalue of the comparison matrix's symmetric part) must not fall
    below -slack, and its tangential minimum must be positive.  Records
    the first violation per node, and the smallest form minimum in
    ``worst``.
    """
    grid = require_same_grid(f_minus, f_plus)
    if n_t < 2:
        raise ValueError("n_t must be >= 2")
    mask = grid.mask_array

    pass_mask = mask.copy()
    recorded = ~mask  # off-mask nodes never report
    violations: dict[tuple[int, int], NodeViolation] = {}
    worst = None

    def record(bad, t, condition, value_arr):
        nonlocal recorded
        fresh = bad & ~recorded
        if not fresh.any():
            return
        for i, j in np.argwhere(fresh):
            violations[(int(i), int(j))] = NodeViolation(
                int(i), int(j), float(t), condition, float(value_arr[i, j]))
        recorded |= fresh
        pass_mask[fresh] = False

    ts = np.linspace(0.0, 1.0, n_t)
    for t, q1, q2, z, rho, c2, rho_ok in segment_states(gas, f_minus, f_plus, ts):
        qsq = q1 * q1 + q2 * q2
        record(mask & ~rho_ok, t, "rho_positive", c2)

        safe_c2 = np.where(rho_ok, c2, 1.0)
        l2 = np.where(rho_ok, qsq / safe_c2, np.inf)
        record(mask & rho_ok & (l2 >= 1.0), t, "mach_elliptic", l2)

        c = np.sqrt(np.maximum(safe_c2, 0.0))
        z_gap = z - c
        record(mask & rho_ok & (z_gap < -Z_GE_C_SLACK), t, "z_above_sound", z_gap)

        # Quadratic-form witness at nodes still clean for this t.
        live = mask & ~recorded
        if not np.any(live):
            continue
        form_min, tan = _form_minima(q1, q2, z, safe_c2, rho / safe_c2)
        form_min = np.where(live, form_min, np.inf)
        i, j = np.unravel_index(np.argmin(form_min), mask.shape)
        if worst is None or form_min[i, j] < worst["value"]:
            worst = {"i": int(i), "j": int(j), "t": float(t),
                     "value": float(form_min[i, j])}
        record(live & ((form_min < -Z_GE_C_SLACK) | (tan <= 0.0)), t,
               "form_positive", form_min)

    out = sorted(violations.values(), key=lambda v: (v.i, v.j))
    return SegmentCheckReport(pass_mask=pass_mask, violations=out, worst=worst)


@dataclass
class EllipticityCertificate:
    """Attained uniform-ellipticity margins of a field over its mask."""

    eps: float
    eps_rho: float
    eps_L: float
    ratio_max: float | None
    passed: bool
    worst_node: dict
    violations: list = field(default_factory=list)

    def to_dict(self):
        return {
            "pass": self.passed,
            "eps": self.eps,
            "eps_rho": self.eps_rho,
            "eps_L": self.eps_L,
            "ratio_max": self.ratio_max,
            "worst_node": self.worst_node,
            "violations": self.violations,
        }


MAX_REPORTED_VIOLATIONS = 100


def certify_uniform_ellipticity(gas: GasModel, f: ScalarField, eps: float = 1e-8,
                                *, state=None) -> EllipticityCertificate:
    """Certify min rho >= eps and max L^2 <= 1 - eps over masked nodes.

    The certificate records the attained margins and, when the field is
    elliptic, the worst eigenvalue ratio 1/(1 - max L^2).  Vacuum nodes
    raise, as does eps <= 0 or nan (ConfigError); non-elliptic states
    merely fail the certificate.  state is field_density(gas, f), if known.
    """
    if not eps > 0.0:
        raise ConfigError(f"eps must be positive, got {eps}", "eps")
    grid = f.grid
    mask = grid.mask_array
    rho, c2, q1, q2 = field_density(gas, f) if state is None else state
    qsq = q1 * q1 + q2 * q2
    l2 = np.where(mask, qsq / np.where(mask, c2, 1.0), 0.0)

    rho_masked = np.where(mask, rho, np.inf)
    l2_masked = np.where(mask, l2, -np.inf)
    eps_rho = float(np.min(rho_masked))
    max_l2 = float(np.max(l2_masked))
    eps_l = 1.0 - max_l2
    ratio = 1.0 / (1.0 - max_l2) if max_l2 < 1.0 else None
    passed = (eps_rho >= eps) and (eps_l >= eps)

    margin = np.where(mask, np.minimum(rho - eps, (1.0 - l2) - eps), np.inf)
    wi, wj = np.unravel_index(int(np.argmin(margin)), margin.shape)
    worst = {
        "i": int(wi), "j": int(wj),
        "theta": float(grid.thetas[wi]), "phi": float(grid.phis[wj]),
    }
    violations = []
    bad = mask & ((rho < eps) | (l2 > 1.0 - eps))
    for i, j in np.argwhere(bad)[:MAX_REPORTED_VIOLATIONS]:
        violations.append({
            "i": int(i), "j": int(j),
            "theta": float(grid.thetas[i]), "phi": float(grid.phis[j]),
            "rho": float(rho[i, j]), "l2": float(l2[i, j]),
        })
    return EllipticityCertificate(
        eps=eps, eps_rho=eps_rho, eps_L=eps_l, ratio_max=ratio,
        passed=passed, worst_node=worst, violations=violations,
    )
