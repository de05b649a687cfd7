"""Ellipticity readings: exact segment-condition checks and
uniform-ellipticity certificates, elementwise over node arrays.

The paper's comparison matrix packs the (q, z)-Jacobian of the flow fluxes
A = rho * q (tangential mass flux) and B = 2 * rho * z (radial source),
with the last column weighted by -1/2:

    (rho/c^2) [[c2-q1^2, -q1 q2, q1 z], [-q1 q2, c2-q2^2, q2 z],
               [-q1 z, -q2 z, z^2-c2]].

Its quadratic form controls the sign structure that the weak comparison
principle rests on: under rho > 0, L^2 < 1 and z >= c the form is
nonnegative, and strictly positive whenever the tangential part of the
test vector is nonzero.  _form_minima reads the form's exact minima.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .gas import GasModel, bernoulli_density, mach_sq, window_margins
from .grid import ScalarField, require_same_grid
from .operators import field_density, segment_algebra

# Roundoff slack for the z >= c hypothesis (equality is permitted).
Z_GE_C_SLACK = 1e-12


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

    ``worst`` locates the smallest quadratic-form minimum over the nodes
    the witness evaluated, each at its t, as {"i", "j", "t", "value"}, or
    is None when the witness evaluated no node.
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

    The form is x^T H x for the comparison matrix H (module docstring).
    The symmetric part of H is block diagonal, with eigenvalues
    scale (c2 - |q|^2) and scale c2 on the tangential block and
    scale (z^2 - c2) on the radial one, so both minima are eigenvalues.
    """
    tan = scale * (c2 - (q1 * q1 + q2 * q2))
    return np.minimum(tan, scale * (z * z - c2)), tan


def _least(p0, p1, p2):
    """(min, argmin) over t in [0, 1] of p0 + p1 t + p2 t^2, elementwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(p2 > 0.0, np.clip(-0.5 * p1 / p2, 0.0, 1.0), p1 + p2 < 0.0)
    return p0 + t * (p1 + t * p2), t


def check_segment_conditions(gas: GasModel, f_minus: ScalarField,
                             f_plus: ScalarField) -> SegmentCheckReport:
    """Decide the matrix hypotheses at every node for all t in [0, 1] at once.

    On phi_t = t f- + (1-t) f+ the head, c^2, c^2 - |q|^2 and z^2 - c^2 are
    quadratics in t (segment_algebra), with least values in closed form.  A
    node records its first failed condition as a NodeViolation at the
    minimizing t, valued by the least margin: rho_positive, the lesser of
    window_margins' w - lo and hi - w below 0 (w is c^2, or head/2 at
    gamma = 1); mach_elliptic, c^2 - |q|^2 <= 0 (L^2 >= 1); z_above_sound,
    z - c below -slack (least at t = 0, 1 or where z^2 - c^2 is); form_positive, where
    those pass, the form's exact minimum over unit vectors (the smallest
    eigenvalue of the comparison matrix's symmetric part) below -slack, or
    a tangential minimum <= 0, at the t where min(c^2 - |q|^2, z^2 - c^2)
    is least, so with that minimum's sign.  ``worst`` holds the smallest.
    """
    mask = require_same_grid(f_minus, f_plus).mask_array
    q1, q2, z, dq1, dq2, dz, h0, h1, h2 = segment_algebra(gas, f_minus, f_plus)
    k = 0.5 * (gas.gamma - 1.0)  # c^2 = c0^2 + k head, so 1 at gamma = 1
    c2 = (bernoulli_density(gas, h0, False)[1], k * h1, k * h2)  # coefficients of 1, t, t^2
    (lo, t_lo), (hi, t_hi) = (_least(*p) for p in window_margins(gas, h0, h1, h2))
    admit = np.minimum(lo, hi), np.where(lo <= hi, t_lo, t_hi)
    mach = _least(c2[0] - (q1 * q1 + q2 * q2), c2[1] - 2.0 * (q1 * dq1 + q2 * dq2),
                  c2[2] - (dq1 * dq1 + dq2 * dq2))
    rad = _least(z * z - c2[0], 2.0 * z * dz - c2[1], dz * dz - c2[2])
    ends = [z + t * dz - np.sqrt(np.maximum(c2[0] + t * (c2[1] + t * c2[2]), 0.0))
            for t in (0.0, 1.0, rad[1])]
    gap = np.minimum(np.minimum(ends[0], ends[1]), ends[2])
    gap = gap, np.where(ends[0] == gap, 0.0, np.where(ends[1] == gap, 1.0, rad[1]))
    t = np.where(mach[0] <= rad[0], mach[1], rad[1])
    rho, c2_t, ok = bernoulli_density(gas, h0 + t * (h1 + t * h2))
    c2_t = np.where(ok, c2_t, 1.0)
    form, tan = _form_minima(q1 + t * dq1, q2 + t * dq2, z + t * dz, c2_t, rho / c2_t)
    bad = (admit[0] < 0.0, mach[0] <= 0.0,
           gap[0] < -Z_GE_C_SLACK, (form < -Z_GE_C_SLACK) | (tan <= 0.0))
    live = mask & ~(bad[0] | bad[1] | bad[2])

    names = ("rho_positive", "mach_elliptic", "z_above_sound", "form_positive")
    failed, violations = ~mask, []  # off-mask nodes never report
    for condition, nodes, (value, at) in zip(names, bad, (admit, mach, gap, (form, t))):
        nodes = nodes & ~failed
        violations += [NodeViolation(int(i), int(j), float(at[i, j]), condition,
                                     float(value[i, j])) for i, j in np.argwhere(nodes)]
        failed |= nodes
    worst = None
    if live.any():
        value, (i, j) = extreme(form, live, True)
        worst = {"i": i, "j": j, "t": float(t[i, j]), "value": value}
    violations.sort(key=lambda v: (v.i, v.j))
    return SegmentCheckReport(pass_mask=~failed, violations=violations, worst=worst)


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


def extreme(arr, region, minimize):
    """(value, (i, j)) of arr's least (minimize) or greatest entry over
    region, the first in flat order on ties: the one reducer of a reading."""
    masked = np.where(region, arr, np.inf if minimize else -np.inf)
    flat = int(masked.argmin() if minimize else masked.argmax())
    return float(masked.flat[flat]), divmod(flat, masked.shape[1])


def field_readings(f: ScalarField, state):
    """(|q|^2, L^2, (min rho, node), (max L^2, node)) of f over its mask,
    read once from its field_density state: |q|^2 and L^2 are node arrays,
    L^2 mach_sq's (inf off the mask), and the pairs are extreme's readings
    against rho > 0, L^2 < 1."""
    rho, c2, q1, q2 = state
    mask = f.grid.mask_array
    l2 = mach_sq(qsq := q1 * q1 + q2 * q2, c2, mask)
    return qsq, l2, extreme(rho, mask, True), extreme(l2, mask, False)


def certify_uniform_ellipticity(gas: GasModel, f: ScalarField, eps: float = 1e-8,
                                *, state=None) -> EllipticityCertificate:
    """Certify min rho >= eps and max L^2 <= 1 - eps over masked nodes.

    The certificate records the attained margins, field_readings' min rho
    and 1 - max L^2, and, when the field is elliptic, the worst eigenvalue
    ratio 1/(1 - max L^2).  Vacuum nodes raise, as does eps <= 0 or nan
    (ConfigError); non-elliptic states merely fail the certificate.  state
    is field_density(gas, f), if known.
    """
    if not eps > 0.0:
        raise ConfigError(f"eps must be positive, got {eps}", "eps")
    grid, mask = f.grid, f.grid.mask_array
    state = field_density(gas, f) if state is None else state
    _, l2, (eps_rho, _), (max_l2, _) = field_readings(f, state)
    rho = state[0]
    eps_l = 1.0 - max_l2
    ratio = 1.0 / (1.0 - max_l2) if max_l2 < 1.0 else None
    passed = (eps_rho >= eps) and (eps_l >= eps)

    def at(i, j):  # a node's record in the certificate
        return dict(i=int(i), j=int(j), theta=float(grid.thetas[i]), phi=float(grid.phis[j]))

    worst = at(*extreme(np.minimum(rho - eps, (1.0 - l2) - eps), mask, True)[1])
    bad = mask & ((rho < eps) | (l2 > 1.0 - eps))
    violations = [{**at(i, j), "rho": float(rho[i, j]), "l2": float(l2[i, j])}
                  for i, j in np.argwhere(bad)[:MAX_REPORTED_VIOLATIONS]]
    return EllipticityCertificate(
        eps=eps, eps_rho=eps_rho, eps_L=eps_l, ratio_max=ratio,
        passed=passed, worst_node=worst, violations=violations,
    )
