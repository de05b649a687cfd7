"""Executable verdicts for the weak/strong comparison principles.

Given a sub/supersolution pair (f-, f+) of the potential-flow equation,
this module evaluates every hypothesis of the comparison theorems at the
discrete level (residual signs, boundary ordering, admissibility and
ellipticity of both fields, z >= c) from one gradient of each field, and
the sign of the weak-form integrand, whose mean-value coefficients over the
segment are formed only where h+ = (f- - f+)+ > 0, into one ComparisonReport;
the strict-or-identical dichotomy and the one-sided Hopf boundary indicators
read that report, so a pair's ordering and admissibility are checked once.

Hypothesis failures mark a report Inapplicable, never Failed: the theorems
are conditional, and the harness must not claim a counterexample when the
premises are unmet.
"""

import operator
from dataclasses import asdict, dataclass, field as dc_field
from enum import Enum

import numpy as np

from .ellipticity import Z_GE_C_SLACK, extreme, field_readings
from .errors import ConfigError, CornerNodeError, NonTouchingNodeError
from .gas import GasModel, bernoulli_density, mach_sq, require_admissible
from .grid import ScalarField, SphericalGrid, require_same_grid
from .operators import (field_density, flow_residual, gauss_legendre,
                        segment_algebra, spherical_gradient)

WEAK_FORM_TOL = 1e-10


def _mean_values(gas, mask, seg, where=None):
    """gauss_legendre t-averages of the continuous equation's flux Jacobian
    over the segment of segment_algebra's seg: (a11, a12 = a21, a22, d) as node
    arrays, or as flat arrays at where's nodes only (None if it has none).

    The gradient q+ + t dq and value z+ + t dz of phi_t = t f- + (1-t) f+ are
    affine in t, so each coefficient is R = sum w rho less a quadratic form
    in the moments S_k = sum w t^k rho/c^2, k = 0, 1, 2: e.g. a11 = R -
    (q1+^2 S0 + 2 q1+ dq1 S1 + dq1^2 S2).  Every Gauss-point state is checked
    first at every node of mask, t ascending, then in flat node order,
    against the gas's window, which admits what bernoulli_density does
    without forming a density; an inadmissible one raises naming (node, t).
    """
    ts, ws = gauss_legendre()
    t = ts[:, None, None]
    _, _, ok = bernoulli_density(gas, head := (seg[8] * t + seg[7]) * t + seg[6], False)
    k = int(np.argmax((mask & ~ok).any(axis=(1, 2))))
    require_admissible(gas, head[k], ok[k], mask, float(ts[k]))
    if where is not None:
        if not where.any():
            return None
        seg, mask = [a[where] for a in seg], True
    q1, q2, z, dq1, dq2, dz, h0, h1, h2 = seg
    r, s = np.zeros(z.shape), np.zeros((3,) + z.shape)
    for t, wt in zip(ts, ws):
        rho, c2, _ = bernoulli_density(gas, h0 + t * (h1 + t * h2))
        rho = np.where(mask, wt * rho, 0.0)
        r += rho
        s += np.multiply.outer((1.0, t, t * t), rho / np.where(mask, c2, 1.0))

    def moment(a, da, b, db):  # sum w a_t b_t rho/c^2 for a_t = a + t da, b_t = b + t db
        return a * b * s[0] + (a * db + da * b) * s[1] + da * db * s[2]

    return (r - moment(q1, dq1, q1, dq1), -moment(q1, dq1, q2, dq2),
            r - moment(q2, dq2, q2, dq2), 2.0 * (r - moment(z, dz, z, dz)))


def weak_form_field(gas: GasModel, f_minus: ScalarField, f_plus: ScalarField,
                    gradients=None) -> np.ndarray:
    """Weak-form integrand F at every node.

    F = 2 h+ a_ij di h+ dj h+ - d (h+)^3  with h+ = max(f- - f+, 0) and a, d
    from _mean_values: the comparison form at beta = 1/2,
    (1/beta) (h+)^(1/beta - 1) (a_ij di h+ dj h+ + (1 - 2 beta) b_i h+ di h+
    - beta d (h+)^2), whose b-terms cancel there.

    F is 0.0 where h+ = 0 (for an ordered pair, everywhere), so a, d and
    the gradient of h+ are formed only where h+ > 0; every quadrature state
    is still checked.  gradients, if known, are as in segment_algebra.
    """
    grid = require_same_grid(f_minus, f_plus)
    hplus = np.where(grid.mask_array, np.maximum(f_minus.values - f_plus.values, 0.0), 0.0)
    pos = hplus > 0.0
    seg = segment_algebra(gas, f_minus, f_plus, gradients)
    co = _mean_values(gas, grid.mask_array, seg, pos)
    F = np.zeros(grid.shape)
    if co is None:
        return F
    a11, a12, a22, d = co
    grad = spherical_gradient(ScalarField(grid, hplus))
    g1, g2, h = grad.v_theta[pos], grad.v_phi[pos], hplus[pos]
    quad = a11 * g1 * g1 + 2.0 * a12 * g1 * g2 + a22 * g2 * g2
    F[pos] = 2.0 * h * quad - d * h * h * h
    return F


class Dichotomy(Enum):
    STRICT = "Strict"
    IDENTICAL = "Identical"
    ANOMALOUS = "Anomalous"
    MIXED = "Mixed"  # Strict on some interior components, Identical on the rest


@dataclass
class HypothesisResult:
    passed: bool
    worst_node: tuple | None
    value: float | None

    def to_dict(self):
        node = None
        if self.worst_node is not None:
            node = {"i": int(self.worst_node[0]), "j": int(self.worst_node[1])}
        return {"pass": bool(self.passed), "worst_node": node,
                "value": self.value}


@dataclass
class HopfResult:
    i: int
    j: int
    theta: float
    phi: float
    derivative: float


# Conclusion-chain checks that do not gate applicability.
_NON_GATING = ("weak_form_nonnegative",)


@dataclass
class ComparisonReport:
    """verify_weak_comparison's verdict: each hypothesis by name (both Mach
    readings of f+ as mach_elliptic_plus_reading_a/_b), the interior gap,
    and what strong_comparison_check and hopf_indicator add to it."""

    hypotheses: dict
    interior_min_gap: float
    interior_max_abs_gap: float
    min_gap_node: tuple
    min_gap_grad: tuple
    ordering_pass: bool
    gap: ScalarField = dc_field(repr=False, compare=False)  # f+ - f-
    dichotomy: Dichotomy | None = None
    components: list = dc_field(default_factory=list)
    hopf: list = dc_field(default_factory=list)

    @property
    def applicable(self) -> bool:
        return all(h.passed for name, h in self.hypotheses.items()
                   if name not in _NON_GATING)

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "Inapplicable"
        return "Pass" if self.ordering_pass else "Failed"

    def to_dict(self):
        parts = {"components": self.components} if self.components else {}
        return {
            "verdict": self.verdict,
            "applicable": self.applicable,
            "hypotheses": {k: v.to_dict() for k, v in self.hypotheses.items()},
            "interior_min_gap": self.interior_min_gap,
            "interior_max_abs_gap": self.interior_max_abs_gap,
            "min_gap_node": {"i": int(self.min_gap_node[0]),
                             "j": int(self.min_gap_node[1])},
            "min_gap_grad": list(self.min_gap_grad),
            "ordering_pass": self.ordering_pass,
            "dichotomy": self.dichotomy.value if self.dichotomy else None,
            **parts,
            "hopf": [asdict(h) for h in self.hopf],
        }


def verify_weak_comparison(gas: GasModel, f_minus: ScalarField,
                           f_plus: ScalarField, tol_sub: float = 1e-9,
                           tol_order: float = 1e-8) -> ComparisonReport:
    """Check every hypothesis and the interior ordering for a field pair.

    Hypotheses (gating): residual signs of the sub/supersolution at
    interior nodes, boundary ordering, rho > 0 and L^2 < 1 for both fields
    as field_readings reads them (the supersolution Mach condition in both
    literature readings: the plain (f+, f+) one and the mixed one, mach_sq
    of f+'s |q|^2 from field_readings with the subsolution value in the
    sound speed), and z >= c for both fields.  The weak-form
    nonnegativity is recorded alongside but does not gate applicability,
    being a consequence rather than a premise (weak_form_field at beta = 1/2
    and 8 Gauss points).  tol_sub or tol_order < 0 or nan raises ConfigError.
    """
    for key, tol in (("tol_sub", tol_sub), ("tol_order", tol_order)):
        if not tol >= 0.0:
            raise ConfigError(f"{key} must be >= 0, got {tol}", key)
    grid = require_same_grid(f_minus, f_plus)
    m = grid.mask_array
    im = grid.interior_mask
    bm = grid.boundary_mask
    hyp = {}

    state_m, state_p = field_density(gas, f_minus), field_density(gas, f_plus)
    res_minus = flow_residual(gas, f_minus, state=state_m).values
    v, node = extreme(res_minus, im, minimize=True)
    hyp["subsolution_sign"] = HypothesisResult(v >= -tol_sub, node, v)

    res_plus = flow_residual(gas, f_plus, state=state_p).values
    v, node = extreme(res_plus, im, minimize=False)
    hyp["supersolution_sign"] = HypothesisResult(v <= tol_sub, node, v)

    bgap = f_minus.values - f_plus.values
    v, node = extreme(bgap, bm, minimize=False)
    hyp["boundary_ordering"] = HypothesisResult(v <= tol_order, node, v)

    _, _, rho_m, l2_m = field_readings(f_minus, state_m)
    qsq_p, _, rho_p, l2_p = field_readings(f_plus, state_p)
    for tag, (v, node) in (("minus", rho_m), ("plus", rho_p)):
        hyp[f"rho_positive_{tag}"] = HypothesisResult(v > 0.0, node, v)
    # reading B: field_readings' |q|^2 of f+, c^2 at f-'s value
    _, c2_mixed, ok = bernoulli_density(gas, gas.head(qsq_p, f_minus.values), False)
    l2_b = extreme(mach_sq(qsq_p, c2_mixed, ok), m, minimize=False)
    for tag, (v, node) in (("minus", l2_m), ("plus_reading_a", l2_p), ("plus_reading_b", l2_b)):
        hyp[f"mach_elliptic_{tag}"] = HypothesisResult(v < 1.0, node, v)

    for tag, f, c2 in (("minus", f_minus, state_m[1]), ("plus", f_plus, state_p[1])):
        v, node = extreme(f.values - np.sqrt(np.where(m, c2, 1.0)), m, minimize=True)
        hyp[f"z_above_sound_{tag}"] = HypothesisResult(v >= -Z_GE_C_SLACK, node, v)

    F = weak_form_field(gas, f_minus, f_plus, gradients=(state_m[2:], state_p[2:]))
    v, node = extreme(F, m, minimize=True)
    hyp["weak_form_nonnegative"] = HypothesisResult(v >= -WEAK_FORM_TOL, node, v)

    gap = f_plus.values - f_minus.values
    min_gap, gap_node = extreme(gap, im, minimize=True)
    max_abs, _ = extreme(np.abs(gap), im, minimize=False)
    gdiff = spherical_gradient(ScalarField(grid, bgap))
    grad_at = (float(gdiff.v_theta[gap_node]), float(gdiff.v_phi[gap_node]))

    return ComparisonReport(
        hypotheses=hyp,
        interior_min_gap=min_gap,
        interior_max_abs_gap=max_abs,
        min_gap_node=gap_node,
        min_gap_grad=grad_at,
        ordering_pass=min_gap >= -tol_order,
        gap=ScalarField(grid, gap),
    )


def straight_edge_nodes(grid: SphericalGrid) -> list:
    """Boundary nodes with exactly one outward direction (no corners)."""
    return [(int(i), int(j)) for i, j in np.argwhere(grid.open_sides.sum(0) == 1)]


def hopf_indicator(report: ComparisonReport, boundary_nodes,
                   tol_touch: float = 1e-9) -> list:
    """One-sided outward-normal derivative of (f- - f+) at touching nodes.

    Reads the pair's verify_weak_comparison report, which has checked both
    fields' admissibility and stencils.  Every requested node must be a
    pair of integers (a boolean is not one) naming a boundary node with
    exactly one outward direction (straight mask edge; corners fail the
    interior sphere condition) and must carry equal field values within
    tol_touch.  tol_touch < 0 or nan raises ConfigError, and an unordered
    report ValueError naming its interior node.  When f- < f+ holds inside
    and the ellipticity hypotheses are met, the returned derivatives are
    what the Hopf lemma asserts to be strictly positive.
    """
    if not tol_touch >= 0.0:
        raise ConfigError(f"tol_touch must be >= 0, got {tol_touch}", "tol_touch")
    if not report.ordering_pass:
        raise ValueError(f"f_minus exceeds f_plus at interior node "
                         f"{report.min_gap_node} by {-report.interior_min_gap:.3e}")
    grid, diff = report.gap.grid, -report.gap.values  # f- - f+
    results = []
    for raw in boundary_nodes:
        try:
            i, j = (operator.index(None if isinstance(k, bool) else k) for k in raw)
        except (TypeError, ValueError):
            raise ConfigError(f"node {raw!r} is not a pair of integers",
                              "boundary_nodes") from None
        if not (0 <= i < grid.n_theta and 0 <= j < grid.n_phi
                and grid.boundary_mask[i, j]):
            raise ConfigError(f"node ({i}, {j}) is not a boundary node of the "
                              f"{grid.shape} grid", "boundary_nodes")
        if abs(diff[i, j]) > tol_touch:
            raise NonTouchingNodeError(
                f"fields differ by {abs(diff[i, j]):.3e} at node ({i}, {j})"
            )
        sides = np.flatnonzero(grid.open_sides[:, i, j])
        if sides.size != 1:
            raise CornerNodeError(
                f"node ({i}, {j}) has {sides.size} outward directions; "
                "interior sphere condition unverifiable"
            )
        axis = int(sides[0]) // 2  # +th, -th, +ph, -ph
        nodes, idx, _ = grid.stencils[axis]  # one-sided: inward across open faces
        p1, p2 = idx[:2, np.searchsorted(nodes, i * grid.n_phi + j)]
        h = grid.h_theta if axis == 0 else grid.h_phi * grid.sin_theta[i]
        deriv = (3.0 * diff[i, j] - 4.0 * diff.flat[p1] + diff.flat[p2]) / (2.0 * h)
        results.append(HopfResult(
            i=i, j=j, theta=float(grid.thetas[i]), phi=float(grid.phis[j]),
            derivative=float(deriv),
        ))
    return results


def _dichotomy(min_gap, max_abs_gap, gap_tol):
    if max_abs_gap <= gap_tol:
        return Dichotomy.IDENTICAL
    return Dichotomy.STRICT if min_gap > gap_tol else Dichotomy.ANOMALOUS


def strong_comparison_check(report: ComparisonReport,
                            gap_tol: float = 1e-10) -> Dichotomy:
    """Classify an ordered pair as Strict, Identical or Anomalous.

    Anomalous means an interior touching point between non-identical
    ordered fields, which cannot occur for exact elliptic solutions; at
    the discrete level it flags a hypothesis breach or discretization
    error, with the near-touching node and the gradient of (f- - f+)
    there available on the report.  The strong principle holds on each
    connected domain, so when the whole interior reads Anomalous each of
    its components (grid.interior_labels) is classified too.  If their
    classes differ, report.components lists each one (class, min gap, max
    |gap| and its min-gap node), and the pair is Anomalous if some
    component is, else Mixed.  gap_tol < 0 or nan raises ConfigError.
    """
    if not gap_tol >= 0.0:
        raise ConfigError(f"gap_tol must be >= 0, got {gap_tol}", "gap_tol")
    if not report.applicable:
        raise ValueError("hypotheses failed; dichotomy undefined (Inapplicable)")
    if not report.ordering_pass:
        raise ValueError("interior ordering violated; dichotomy undefined")
    report.dichotomy = _dichotomy(report.interior_min_gap, report.interior_max_abs_gap, gap_tol)
    report.components = []
    if report.dichotomy is not Dichotomy.ANOMALOUS:
        return report.dichotomy
    labels = report.gap.grid.interior_labels
    nodes = np.flatnonzero(labels)
    lab, gap = labels.flat[nodes], report.gap.values.flat[nodes]
    order = np.lexsort((gap, lab))  # by component, then gap; stable on ties
    first = np.flatnonzero(np.diff(lab[order], prepend=0))  # each one's min gap
    max_abs = np.maximum.reduceat(np.abs(gap[order]), first)
    for k, m in zip(order[first], max_abs):
        i, j = np.unravel_index(nodes[k], labels.shape)
        report.components.append({
            "dichotomy": _dichotomy(gap[k], m, gap_tol).value,
            "min_gap": float(gap[k]), "max_abs_gap": float(m),
            "node": {"i": int(i), "j": int(j)}})
    classes = {part["dichotomy"] for part in report.components}
    if len(classes) == 1:  # one component, or every one Anomalous
        report.components = []
    elif Dichotomy.ANOMALOUS.value not in classes:
        report.dichotomy = Dichotomy.MIXED
    return report.dichotomy
