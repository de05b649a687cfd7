import re

import numpy as np
import pytest

from helpers import (
    PAIR_SCENARIOS,
    SMALL_PATCH,
    WIDE_PATCH,
    field_state,
    gauss_rule,
    gauss_state_failures,
    mean_values,
    per_t_mean_value_coefficients,
    reference_bernoulli,
    reference_weak_form_field,
)

import sphereflow as sf
from sphereflow import (
    Dichotomy,
    GasModel,
    ScalarField,
    SphericalGrid,
)
from sphereflow.comparison import weak_form_field
from sphereflow.operators import gauss_legendre


@pytest.fixture(scope="module")
def solver_pair():
    """gamma=2 pair: N f+ = 0, N f- = 0.05, boundary margin 0.01."""
    gas = GasModel(2.0, 1.0, 4.0)
    grid = SphericalGrid(*SMALL_PATCH, 33, 33)
    bnd = ScalarField.from_function(grid, lambda th, ph: 1.6 + 0.1 * np.cos(th))
    bnd_low = ScalarField(grid, bnd.values - 0.01)
    zero = ScalarField.constant(grid, 0.0)
    src = ScalarField.constant(grid, 0.05)
    f_plus, _ = sf.solve_dirichlet(
        sf.BVProblem(gas=gas, grid=grid, boundary=bnd, source=zero))
    f_minus, _ = sf.solve_dirichlet(
        sf.BVProblem(gas=gas, grid=grid, boundary=bnd_low, source=src))
    f_touch, _ = sf.solve_dirichlet(
        sf.BVProblem(gas=gas, grid=grid, boundary=bnd, source=src))
    return gas, grid, f_plus, f_minus, f_touch


def _use_rule(monkeypatch, n_quad):
    """Put the n_quad-point Gauss-Legendre rule in place of the segment
    averages' own 8-point one (n_quad = 8 keeps their own)."""
    if n_quad != 8:
        rule = gauss_rule(n_quad)
        for module in (sf.operators, sf.comparison):
            monkeypatch.setattr(module, "gauss_legendre", lambda: rule)


def test_mean_value_coefficients_constant(gas_b4, wide_grid_33):
    f = ScalarField.constant(wide_grid_33, 2.0)
    co = mean_values(gas_b4, f, f)
    np.testing.assert_allclose(co["a11"], 1.0, atol=1e-14)
    np.testing.assert_allclose(co["a22"], 1.0, atol=1e-14)
    np.testing.assert_allclose(co["a12"], 0.0, atol=1e-15)
    # d = 2 rho + 2 z (d rho/d z) = 2 - 8
    np.testing.assert_allclose(co["d"], -6.0, atol=1e-14)


def test_mean_value_zero_gap_any_quadrature(gas_b4, wide_grid_33):
    f = ScalarField.from_function(wide_grid_33,
                                  lambda th, ph: 2 + 0.1 * np.cos(th))
    # with f- = f+ every t has the endpoint state: the 1-point rule is exact
    c1 = per_t_mean_value_coefficients(gas_b4, f, f, 1)
    c8 = mean_values(gas_b4, f, f)
    for name, coef in c1.items():
        np.testing.assert_allclose(coef, c8[name], rtol=0, atol=1e-13)


def test_mean_value_gauss_convergence(gas_b4, wide_grid_33):
    lo = ScalarField.constant(wide_grid_33, 2.0)
    hi = ScalarField.constant(wide_grid_33, 2.2)
    c8 = mean_values(gas_b4, lo, hi)
    c16 = per_t_mean_value_coefficients(gas_b4, lo, hi, 16)
    for name, coef in c16.items():
        np.testing.assert_allclose(c8[name], coef, rtol=0, atol=1e-12)


# the weak form's mean-value coefficients and the discrete segment Jacobian
SEGMENT_AVERAGES = {"mean_value_coefficients": mean_values,
                    "segment_jacobian": sf.segment_jacobian}


@pytest.mark.parametrize("average", SEGMENT_AVERAGES.values(), ids=SEGMENT_AVERAGES)
def test_mean_value_vacuum_on_segment(gas_b4, wide_grid_33, average):
    lo = ScalarField.constant(wide_grid_33, 2.6)
    hi = ScalarField.constant(wide_grid_33, 2.6)
    with pytest.raises(sf.VacuumError) as err:
        average(gas_b4, lo, hi)
    assert err.value.t is not None


@pytest.mark.parametrize("average", SEGMENT_AVERAGES.values(), ids=SEGMENT_AVERAGES)
def test_mean_value_grid_mismatch(gas_b4, average):
    g1 = SphericalGrid(*WIDE_PATCH, 9, 9)
    g2 = SphericalGrid(*WIDE_PATCH, 11, 9)
    with pytest.raises(sf.GridMismatchError):
        average(gas_b4, ScalarField.constant(g1, 2.0),
                ScalarField.constant(g2, 2.0))


@pytest.mark.parametrize("n_quad", [1, 8, 16])
def test_mean_value_moments_match_the_per_t_sum(pair_suite, gas_b4, wide_grid_33, n_quad,
                                                monkeypatch):
    # the moment form against the coefficients accumulated at each Gauss t,
    # on the library's own 8-point rule and on two others put in its place,
    # on one solver-built pair per gas and on a pair whose gradients change
    # sign along the segment (q_t = (1 - 2t) q+), where the moment terms
    # cancel down to a small coefficient (a12 = 0 at n_quad = 1, t = 1/2):
    # to within 1e-13 of the largest coefficient of the pair
    g = wide_grid_33
    bump = ScalarField.from_function(g, lambda th, ph: 0.1 * np.cos(2 * th) * np.sin(ph))
    pairs = [(sc.gas, sc.f_minus, sc.f_plus) for sc in pair_suite[:4]]
    pairs.append((gas_b4, ScalarField(g, 2.05 - bump.values),
                  ScalarField(g, 2.0 + bump.values)))
    _use_rule(monkeypatch, n_quad)
    for gas, f_minus, f_plus in pairs:
        got = mean_values(gas, f_minus, f_plus)
        want = per_t_mean_value_coefficients(gas, f_minus, f_plus, n_quad)
        scale = max(np.abs(coef).max() for coef in want.values())
        for name, coef in want.items():
            assert np.abs(got[name] - coef).max() <= 1e-13 * scale, name


def test_mean_value_overflow_names_node_and_gauss_t(wide_grid_33):
    # the isothermal exp() guard fails at every t: the first Gauss node is named
    gas = GasModel(1.0, 1.0, 2000.0)
    f = ScalarField.constant(wide_grid_33, 1.0)
    with pytest.raises(sf.GasOverflowError) as err:
        mean_values(gas, f, f)
    assert err.value.node == (0, 0)
    assert err.value.t == float(gauss_legendre()[0][0])


def test_segment_jacobian_zero(gas_b4, wide_grid_33):
    f = ScalarField.constant(wide_grid_33, 2.0)
    out = sf.segment_jacobian(gas_b4, f, f)(np.zeros(wide_grid_33.shape))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("n_quad", [1, 3, 8])
def test_segment_jacobian_differentiates_each_field_once(gas_b4, wide_grid_33, n_quad,
                                                         monkeypatch):
    # the quadrature states interpolate the gradients of f- and f+, so no
    # phi_t is differentiated again, neither in the build nor in apply, on
    # the library's own 8-point rule or on another put in its place
    _use_rule(monkeypatch, n_quad)
    calls = []
    gradient = sf.operators.spherical_gradient

    def counted(f):
        calls.append(f)
        return gradient(f)

    monkeypatch.setattr(sf.operators, "spherical_gradient", counted)
    f_plus = ScalarField.from_function(wide_grid_33, lambda th, ph: 2 + 0.1 * np.cos(th))
    f_minus = ScalarField(wide_grid_33, f_plus.values + 0.01 * np.sin(wide_grid_33.phi_mesh))
    apply = sf.segment_jacobian(gas_b4, f_minus, f_plus)
    apply(f_minus.values - f_plus.values)
    assert len(calls) == 2 and calls[0] is f_minus and calls[1] is f_plus


def test_segment_jacobian_laplacian_plus_zeroth_order(gas_b4):
    # at the uniform state f = 2, rho = c^2 = 1 and the Jacobian is Delta - 6
    g = SphericalGrid(np.pi / 4, 3 * np.pi / 4, 0.0, np.pi / 2, 49, 49)
    f = ScalarField.constant(g, 2.0)
    h = ScalarField.from_function(g, lambda th, ph: np.cos(th))
    out = sf.segment_jacobian(gas_b4, f, f)(h.values)
    i = 8  # node at theta = pi/3
    assert g.thetas[i] == pytest.approx(np.pi / 3, abs=1e-12)
    j = 24
    # Delta cos = -2 cos, so the operator gives -8 cos(pi/3) = -4
    assert out[i, j] == pytest.approx(-4.0, abs=5e-3)


def test_segment_jacobian_is_the_discrete_mean_value_operator(pair_suite):
    # N(f-) - N(f+) = J(f- - f+) with J the segment average of the exact
    # Jacobian, up to the 8-point quadrature error
    for sc in pair_suite:
        im = sc.grid.interior_mask
        dn = (sf.flow_residual(sc.gas, sc.f_minus).values
              - sf.flow_residual(sc.gas, sc.f_plus).values)
        jv = sf.segment_jacobian(sc.gas, sc.f_minus, sc.f_plus)(
            sc.f_minus.values - sc.f_plus.values)
        assert np.abs(jv - dn)[im].max() <= 1e-10 * np.abs(dn)[im].max()


def test_linearization_matches_frechet_derivative(gas_b4, wide_grid_33):
    g = wide_grid_33
    phi = ScalarField.from_function(g, lambda th, ph: 2 + 0.1 * np.cos(th))
    h = ScalarField.from_function(
        g, lambda th, ph: 0.1 * (np.sin(th) * np.sin(ph) + np.cos(th)))
    lin = sf.segment_jacobian(gas_b4, phi, phi)(h.values)
    eps = 1e-6
    r0 = sf.flow_residual(gas_b4, phi).values
    r1 = sf.flow_residual(
        gas_b4, ScalarField(g, phi.values + eps * h.values)).values
    fd = (r1 - r0) / eps
    assert np.abs(lin - fd)[g.interior_mask].max() < 1e-3


def test_weak_form_zero_when_ordered(gas_b4, wide_grid_33):
    lo = ScalarField.constant(wide_grid_33, 2.0)
    hi = ScalarField.constant(wide_grid_33, 2.2)
    F = weak_form_field(gas_b4, lo, hi)
    assert np.all(F == 0.0)


def _weak_form_grid(kind):
    if kind == "plain":
        return SphericalGrid(*SMALL_PATCH, 33, 33)
    if kind == "masked":  # a hole and a cut corner
        mask = np.ones((25, 25), dtype=bool)
        mask[8:14, 10:16] = False
        mask[:3, :4] = False
        return SphericalGrid(*WIDE_PATCH, 25, 25, mask=mask)
    mask = np.zeros((21, 32), dtype=bool)  # a phi-periodic band with a hole
    mask[3:18] = True
    mask[9:12, 5:9] = False
    return SphericalGrid(np.pi / 3, 2 * np.pi / 3, 0.0, 2 * np.pi, 21, 32,
                         mask=mask, phi_periodic=True)


@pytest.mark.parametrize("kind", ["plain", "masked", "periodic"])
@pytest.mark.parametrize("gamma", [-1.0, 1.0, 1.4, 2.0])
def test_weak_form_matches_the_full_grid_formula(gamma, kind):
    # on crossing pairs, where h+ > 0 at some nodes and 0 at others, F and
    # the report's weak-form minimum carry the bits of the formula that
    # forms the coefficients at every node
    g = _weak_form_grid(kind)
    gas = GasModel(gamma, 1.0, PAIR_SCENARIOS[gamma]["bernoulli"])
    base = PAIR_SCENARIOS[gamma]["level"] + 0.03 * np.cos(g.theta_mesh)
    bump = 0.02 * np.cos(6 * g.theta_mesh) * np.sin(4 * g.phi_mesh + 0.3)
    f_minus, f_plus = ScalarField(g, base + bump), ScalarField(g, base - 0.3 * bump)
    m = g.mask_array
    assert (bump[m] > 0.0).any() and (bump[m] <= 0.0).any()
    want = reference_weak_form_field(gas, f_minus, f_plus)
    got = weak_form_field(gas, f_minus, f_plus)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert (got[m] != 0.0).any()
    least = np.where(m, want, np.inf)
    node = np.unravel_index(np.argmin(least), g.shape)
    hyp = sf.verify_weak_comparison(gas, f_minus, f_plus).hypotheses["weak_form_nonnegative"]
    assert hyp.worst_node == node
    assert np.float64(hyp.value).view(np.uint64) == least[node].view(np.uint64)


def _fanned_pair(level, slope):
    """An ordered pair on a 17^2 patch whose segment leaves the gas law
    between admissible endpoints: f+ = level + a (theta - theta_min) and
    f- = level - (4 slope - a) (theta - theta_min), with a falling from
    3 slope at phi_min to slope at phi_max.  On the first row phi_t is
    level, and its theta-slope a - 4 slope t vanishes at t = a / (4 slope):
    the states near there fail first in the last columns."""
    g = SphericalGrid(*SMALL_PATCH, 17, 17)
    d = g.theta_mesh - g.thetas[0]
    a = slope * (3.0 - 2.0 * (g.phi_mesh - g.phis[0]) / (g.phis[-1] - g.phis[0]))
    return ScalarField(g, level - (4.0 * slope - a) * d), ScalarField(g, level + a * d)


@pytest.mark.parametrize("gas, level, slope", [
    (GasModel(-1.0, 1.0, 2.0), 0.95, 1.0),  # c^2 = z^2 + |q|^2 - 1 < 0 near q = 0
    (GasModel(1.0, 1.0, 1500.0), 1.0, 12.0),  # exponent (B - z^2 - |q|^2)/2 > 700
])
def test_ordered_pair_checks_every_gauss_state(gas, level, slope):
    # h+ = 0 at every node, so no weak-form coefficient is formed; every
    # Gauss-point state is still checked, t ascending, then in flat node
    # order, which here names another node than node-major order would
    f_minus, f_plus = _fanned_pair(level, slope)
    assert np.all(f_minus.values <= f_plus.values)
    ts, bad, c2 = gauss_state_failures(gas, f_minus, f_plus)
    assert np.abs(c2).min() > 1e-6 and not bad[[0, -1]].any()  # admissible ends
    k = int(np.argmax(bad.any(axis=(1, 2))))
    node = tuple(int(i) for i in np.argwhere(bad[k])[0])
    assert bad[:, 0, 0].any() and node != (0, 0)
    at = f" at node {node}, t={float(ts[k])}"
    if gas.gamma == 1.0:
        error, message = sf.GasOverflowError, "isothermal density exponent exceeds +/-700" + at
    else:
        error, message = sf.VacuumError, f"vacuum{at}: c^2 = {c2[k][node]:.6g} <= 0"
    for check in (sf.verify_weak_comparison, weak_form_field, mean_values):
        with pytest.raises(error) as err:
            check(gas, f_minus, f_plus)
        assert (err.value.node, err.value.t, str(err.value)) == (node, ts[k], message)


def test_weak_form_positive_from_zeroth_order(gas_b4, wide_grid_33):
    # h+ = 0.2 constant: gradients vanish, F = -d (h+)^3
    lo = ScalarField.constant(wide_grid_33, 2.2)
    hi = ScalarField.constant(wide_grid_33, 2.0)
    co = mean_values(gas_b4, lo, hi)
    F = weak_form_field(gas_b4, lo, hi)[5, 5]
    d_val = co["d"][5, 5]
    assert d_val < 0.0
    expected = 2.0 * 0.2 * (-0.5 * d_val * 0.04)
    assert F == pytest.approx(expected, rel=1e-12)
    assert F > 0.0


def test_weak_form_algebraic_identity(gas_b4):
    # beta F (h+)^(1 - 1/beta) equals the general bracket, b-terms and all,
    # at beta = 1/2 wherever h+ > 0
    g = SphericalGrid(*WIDE_PATCH, 17, 17)
    rng = np.random.default_rng(3)
    lo = ScalarField(g, 2.05 + 0.02 * rng.random(g.shape))
    hi = ScalarField.constant(g, 2.0)
    beta = 0.5
    co = mean_values(gas_b4, lo, hi)
    # the flux sensitivities b_i = sum w (-q_i z rho/c^2) over the Gauss
    # states, which the b-free weak form does not form
    b1 = b2 = 0.0
    for t, wt in zip(*gauss_legendre()):
        q1, q2, z = (t * m + (1.0 - t) * p for m, p in zip(field_state(lo), field_state(hi)))
        rho, c2, _ = reference_bernoulli(gas_b4, q1 * q1 + q2 * q2, z)
        b1, b2 = b1 - wt * q1 * z * rho / c2, b2 - wt * q2 * z * rho / c2
    F = weak_form_field(gas_b4, lo, hi)
    hplus = np.maximum(lo.values - hi.values, 0.0)
    grad = sf.spherical_gradient(ScalarField(g, hplus))
    g1, g2 = grad.v_theta, grad.v_phi
    quad = (co["a11"] * g1 * g1 + 2.0 * co["a12"] * g1 * g2
            + co["a22"] * g2 * g2 + b1 * hplus * g1 + b2 * hplus * g2
            - beta * (2.0 * b1 * hplus * g1 + 2.0 * b2 * hplus * g2)
            - beta * co["d"] * hplus * hplus)
    pos = hplus > 0
    lhs = beta * F[pos] * hplus[pos] ** (1.0 - 1.0 / beta)
    np.testing.assert_allclose(lhs, quad[pos], rtol=0, atol=1e-10)


def test_verify_solver_pair(solver_pair):
    gas, grid, f_plus, f_minus, _ = solver_pair
    rep = sf.verify_weak_comparison(gas, f_minus, f_plus)
    assert rep.verdict == "Pass"
    assert rep.applicable
    assert all(h.passed for h in rep.hypotheses.values())
    assert rep.interior_min_gap > 0.0
    assert all(rep.hypotheses[f"mach_elliptic_plus_reading_{r}"].passed for r in "ab")
    assert sf.strong_comparison_check(rep) is Dichotomy.STRICT
    d = rep.to_dict()
    assert d["dichotomy"] == "Strict"
    assert d["ordering_pass"] is True


def test_verify_swapped_roles_inapplicable(solver_pair):
    gas, grid, f_plus, f_minus, _ = solver_pair
    rep = sf.verify_weak_comparison(gas, f_plus, f_minus)
    assert rep.verdict == "Inapplicable"
    assert not rep.hypotheses["boundary_ordering"].passed


@pytest.mark.parametrize("key, tol", [
    ("tol_sub", -1e-3), ("tol_sub", float("nan")),
    ("tol_order", -0.5), ("tol_order", float("nan"))])
def test_verify_refuses_a_bad_tolerance(solver_pair, key, tol):
    # this Pass pair read Inapplicable under a negative or nan tolerance,
    # on its supersolution sign or its boundary ordering, with no error
    gas, grid, f_plus, f_minus, _ = solver_pair
    with pytest.raises(sf.ConfigError, match=f"{key} must be >= 0") as err:
        sf.verify_weak_comparison(gas, f_minus, f_plus, **{key: tol})
    assert err.value.key == key


def test_verify_identical_fields(solver_pair):
    gas, grid, f_plus, _, _ = solver_pair
    rep = sf.verify_weak_comparison(gas, f_plus, f_plus)
    assert rep.verdict == "Pass"
    assert rep.interior_min_gap == 0.0
    assert rep.hypotheses["weak_form_nonnegative"].value == 0.0
    # a negative tolerance would read these fields as Strict
    for gap_tol in (-1e-3, float("nan")):
        with pytest.raises(sf.ConfigError, match="gap_tol must be >= 0") as err:
            sf.strong_comparison_check(rep, gap_tol=gap_tol)
        assert err.value.key == "gap_tol" and rep.dichotomy is None
    assert sf.strong_comparison_check(rep) is Dichotomy.IDENTICAL


def hopf(gas, f_minus, f_plus, nodes, **kwargs):
    """hopf_indicator on the pair's comparison report."""
    return sf.hopf_indicator(sf.verify_weak_comparison(gas, f_minus, f_plus),
                             nodes, **kwargs)


def test_hopf_zero_for_identical_fields(solver_pair):
    gas, grid, f_plus, _, _ = solver_pair
    nodes = sf.straight_edge_nodes(grid)
    out = hopf(gas, f_plus, f_plus, nodes)
    assert len(out) == len(nodes)
    assert all(h.derivative == 0.0 for h in out)


def test_hopf_positive_for_touching_pair(solver_pair):
    gas, grid, f_plus, _, f_touch = solver_pair
    mid = 16
    nodes = [(0, mid), (32, mid), (mid, 0), (mid, 32)]
    out = hopf(gas, f_touch, f_plus, nodes)
    assert all(h.derivative > 0.0 for h in out)


def test_hopf_corner_and_nontouching_errors(solver_pair):
    gas, grid, f_plus, f_minus, f_touch = solver_pair
    with pytest.raises(sf.CornerNodeError):
        hopf(gas, f_touch, f_plus, [(0, 0)])
    # margin pair does not touch on the boundary
    with pytest.raises(sf.NonTouchingNodeError):
        hopf(gas, f_minus, f_plus, [(0, 16)])


def test_hopf_rejects_nodes_off_the_grid(solver_pair):
    gas, grid, f_plus, _, f_touch = solver_pair
    rep = sf.verify_weak_comparison(gas, f_touch, f_plus)
    # (false, true) is not node (0, 1), a touching straight-edge node here
    for node in [(33, 16), (-1, 16), (16, 16), (0,), (0.0, 16), (False, True), (0, True)]:
        with pytest.raises(sf.ConfigError) as err:
            sf.hopf_indicator(rep, [node])
        assert err.value.key == "boundary_nodes"
        assert isinstance(err.value, ValueError)


def test_hopf_refuses_a_bad_tol_touch(gas_b4):
    # fields 0.1 apart touch nowhere; a nan tolerance made every node touch
    g = SphericalGrid(*SMALL_PATCH, 9, 9)
    rep = sf.verify_weak_comparison(gas_b4, ScalarField.constant(g, 1.5),
                                    ScalarField.constant(g, 1.6))
    with pytest.raises(sf.NonTouchingNodeError, match="differ by 1.000e-01"):
        sf.hopf_indicator(rep, [(0, 4)])
    for tol_touch in (float("nan"), -1e-9):
        for nodes in ([(0, 4)], []):
            with pytest.raises(sf.ConfigError, match="tol_touch must be >= 0") as err:
                sf.hopf_indicator(rep, nodes, tol_touch=tol_touch)
            assert err.value.key == "tol_touch"


def test_hopf_unordered_pair_names_the_interior_node(solver_pair):
    gas, grid, f_plus, f_minus, _ = solver_pair
    rep = sf.verify_weak_comparison(gas, f_plus, f_minus)  # swapped
    with pytest.raises(ValueError, match="at interior node") as err:
        sf.hopf_indicator(rep, [(0, 16)])
    i, j = (int(k) for k in re.search(r"\((\d+), (\d+)\)", str(err.value)).groups())
    assert grid.interior_mask[i, j] and (i, j) == rep.min_gap_node
    assert f"by {-rep.interior_min_gap:.3e}" in str(err.value)


def test_hopf_thin_mask_names_a_masked_node(gas_b4):
    # a strip two theta-nodes wide leaves the straight-edge node (7, 12)
    # one inward node, too few for any theta stencil: the gradients of the
    # report a hopf indicator reads refuse the mask
    mask = np.zeros((17, 17), dtype=bool)
    mask[2:15, 2:9] = True
    mask[7:9, 9:15] = True
    g = SphericalGrid(*WIDE_PATCH, 17, 17, mask=mask)
    assert (7, 12) in sf.straight_edge_nodes(g)
    f = ScalarField.constant(g, 2.0)
    with pytest.raises(sf.GridError, match="too thin") as err:
        hopf(gas_b4, f, f.copy(), [(7, 12)])
    i, j = (int(k) for k in re.search(r"\((\d+), (\d+)\)", str(err.value)).groups())
    assert mask[i, j]


@pytest.mark.parametrize("gas, level, spike, error", [
    (GasModel(2.0, 1.0, 4.0), 1.5, 3.0, sf.VacuumError),  # c^2 = 1 + (4 - 9)/2 < 0
    (GasModel(1.0, 1.0, 4.0), 1.0, 40.0, sf.GasOverflowError),  # exponent < -700
])
def test_verify_names_the_first_inadmissible_node(gas, level, spike, error):
    # on the notched 17^2 grid, a spike at (0, 13) makes the states at
    # (0, 12), (0, 13) and (0, 14) inadmissible: (0, 12), the first in
    # flat order, is named whichever field spikes
    mask = np.ones((17, 17), dtype=bool)
    mask[:5, :5] = False
    g = SphericalGrid(*SMALL_PATCH, 17, 17, mask=mask)
    vals = np.full(g.shape, level)
    vals[0, 13] = spike
    spiked, flat = ScalarField(g, vals), ScalarField.constant(g, level)
    for f_minus, f_plus in ((spiked, spiked.copy()), (spiked, flat), (flat, spiked)):
        with pytest.raises(error) as err:
            sf.verify_weak_comparison(gas, f_minus, f_plus)
        assert err.value.node == (0, 12)


def test_hopf_across_the_periodic_seam(gas_b4):
    # (7, 0) opens onto a hole at +phi, so its inward steps wrap to (7, 17)
    # and (7, 16)
    mask = np.ones((17, 18), dtype=bool)
    mask[6:9, 1:3] = False
    g = SphericalGrid(np.pi / 3, 2 * np.pi / 3, 0.0, 2 * np.pi, 17, 18,
                      mask=mask, phi_periodic=True)
    f_plus = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.1 * np.cos(th))
    f_minus = ScalarField(g, f_plus.values - 0.01 * np.sin(g.phi_mesh / 2))
    assert (7, 0) in sf.straight_edge_nodes(g)
    (out,) = hopf(gas_b4, f_minus, f_plus, [(7, 0)])
    d = f_minus.values - f_plus.values
    expect = ((3 * d[7, 0] - 4 * d[7, 17] + d[7, 16])
              / (2 * g.h_phi * np.sin(g.thetas[7])))
    assert expect > 0.0
    assert out.derivative == pytest.approx(expect, rel=1e-14)


def test_hopf_one_dimensional_sanity(gas_b4):
    g = SphericalGrid(*WIDE_PATCH, 65, 65)
    a, b = g.theta_min, g.theta_max
    amp = 0.5
    base = ScalarField.constant(g, 1.6)
    bump = ScalarField(
        g, base.values - amp * np.sin(g.theta_mesh - a) * np.sin(b - g.theta_mesh))
    out = hopf(gas_b4, bump, base, [(0, 32), (64, 32)])
    expect = amp * np.sin(b - a)
    for h in out:
        assert h.derivative == pytest.approx(expect, abs=5e-3 * amp)


def test_anomalous_fixture_detected(gas_b4):
    g = SphericalGrid(*WIDE_PATCH, 17, 17)
    ic, jc = 8, 8
    d = 0.05 * ((g.theta_mesh - g.thetas[ic]) ** 2
                + (g.phi_mesh - g.phis[jc]) ** 2)
    lo = ScalarField.constant(g, 2.0)
    hi = ScalarField(g, 2.0 + d)
    rep = sf.verify_weak_comparison(gas_b4, lo, hi)
    # hand-built fields are not discrete sub/supersolutions; force the
    # hypotheses green to exercise the dichotomy detector alone
    for h in rep.hypotheses.values():
        h.passed = True
    assert rep.ordering_pass
    assert sf.strong_comparison_check(rep) is Dichotomy.ANOMALOUS
    assert rep.min_gap_node == (ic, jc)
    # the touching point carries a vanishing gradient of (f- - f+)
    assert np.hypot(*rep.min_gap_grad) < 1e-10


def _hypotheses_forced_green(gas, lo, hi):
    # hand-built fields are not discrete sub/supersolutions; force the
    # hypotheses green to exercise the dichotomy alone
    rep = sf.verify_weak_comparison(gas, lo, hi)
    for h in rep.hypotheses.values():
        h.passed = True
    return rep


def test_ring_cut_into_two_arcs_is_classified_per_arc(gas_b4):
    # a field raised on the arc away from the seam: the arc through
    # phi = 0 = 2*pi stays Identical, so the pair is Mixed, not Anomalous
    mask = np.ones((9, 24), dtype=bool)
    mask[:, 5:7] = mask[:, 15:17] = False
    g = SphericalGrid(np.pi / 3, 2 * np.pi / 3, 0.0, 2 * np.pi, 9, 24,
                      mask=mask, phi_periodic=True)
    lo = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.1 * np.cos(th))
    hi = ScalarField(g, lo.values + np.where((g.phis > g.phis[6]) & (g.phis < g.phis[15]),
                                             0.01, 0.0))
    rep = _hypotheses_forced_green(gas_b4, lo, hi)
    assert rep.verdict == "Pass" and rep.interior_min_gap == 0.0
    assert sf.strong_comparison_check(rep) is Dichotomy.MIXED
    seam_arc, raised_arc = rep.components
    assert seam_arc == {"dichotomy": "Identical", "min_gap": 0.0, "max_abs_gap": 0.0,
                        "node": {"i": 1, "j": 0}}
    assert raised_arc["dichotomy"] == "Strict" and raised_arc["min_gap"] == pytest.approx(0.01)
    assert 6 < raised_arc["node"]["j"] < 15
    assert rep.to_dict()["components"] == rep.components
    # with a gap_tol above the raise both arcs are Identical: no list
    assert sf.strong_comparison_check(rep, gap_tol=0.02) is Dichotomy.IDENTICAL
    assert "components" not in rep.to_dict()
    # an interior touching point on the raised arc makes it Anomalous
    hi.values[4, 10] = lo.values[4, 10]
    rep = _hypotheses_forced_green(gas_b4, lo, hi)
    assert sf.strong_comparison_check(rep) is Dichotomy.ANOMALOUS
    assert [c["dichotomy"] for c in rep.components] == ["Identical", "Anomalous"]
    assert rep.components[1]["node"] == {"i": 4, "j": 10}
    # raised and touched on both arcs, every arc is Anomalous: none is listed
    hi.values[:, 1:4] += 0.01
    hi.values[4, 2] = lo.values[4, 2]
    rep = _hypotheses_forced_green(gas_b4, lo, hi)
    assert sf.strong_comparison_check(rep) is Dichotomy.ANOMALOUS
    assert rep.components == [] and "components" not in rep.to_dict()


def test_many_components_are_classified_each_by_its_own_nodes(gas_b4):
    # 12 x 12 islands of 5 x 5 masked nodes, each with a 3 x 3 interior:
    # raised by a step that varies from column to column, left equal, or
    # touched at one node; every entry matches its own nodes' extremes
    mask = np.ones((71, 71), dtype=bool)
    mask[5::6] = False
    mask[:, 5::6] = False
    g = SphericalGrid(*WIDE_PATCH, 71, 71, mask=mask)
    labels = g.interior_labels
    assert labels.max() == 144
    lo = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.1 * np.cos(th))
    # the step repeats down each column, so a component's min gap is tied
    # on its rows: the first node in flat order is named, as for the pair
    step = np.where(labels % 5 == 0, 0.0, 1e-4 + 1e-6 * np.cos(7.0 * labels + np.arange(71)))
    step[labels == 0] = 0.0
    step[tuple(np.argwhere(labels == 77)[4])] = 0.0  # the centre of island 77
    hi = ScalarField(g, lo.values + step)
    rep = _hypotheses_forced_green(gas_b4, lo, hi)
    assert sf.strong_comparison_check(rep) is Dichotomy.ANOMALOUS
    assert len(rep.components) == 144
    gap = hi.values - lo.values
    for part, label in zip(rep.components, range(1, 145)):
        own = np.where(labels == label, gap, np.inf)
        i, j = np.unravel_index(np.argmin(own), own.shape)
        assert part["min_gap"] == own[i, j] and part["node"] == {"i": i, "j": j}
        assert part["max_abs_gap"] == np.abs(gap[labels == label]).max()
        expected = ("Identical" if label % 5 == 0 else
                    "Anomalous" if label == 77 else "Strict")
        assert part["dichotomy"] == expected


def test_strong_check_precondition_error(solver_pair):
    gas, grid, f_plus, f_minus, _ = solver_pair
    rep = sf.verify_weak_comparison(gas, f_plus, f_minus)  # swapped
    with pytest.raises(ValueError, match="hypotheses failed"):
        sf.strong_comparison_check(rep)
    for h in rep.hypotheses.values():
        h.passed = True
    assert rep.applicable and not rep.ordering_pass
    with pytest.raises(ValueError, match="interior ordering violated"):
        sf.strong_comparison_check(rep)


def test_verify_evaluates_each_flow_state_once(gas_b4, monkeypatch):
    # one field_density per field, minus then plus, feeds both the residual
    # sign and the admissibility hypotheses
    g = SphericalGrid(*WIDE_PATCH, 17, 17)
    lo = ScalarField.constant(g, 2.0)
    hi = ScalarField.from_function(g, lambda th, ph: 2.0 + 0.01 * np.cos(th))
    calls = []
    density = sf.operators.field_density

    def counted(gas, f, *rest):
        calls.append(f)
        return density(gas, f, *rest)

    monkeypatch.setattr(sf.operators, "field_density", counted)
    monkeypatch.setattr(sf.comparison, "field_density", counted)
    sf.verify_weak_comparison(gas_b4, lo, hi)
    assert len(calls) == 2 and calls[0] is lo and calls[1] is hi


def test_verify_names_the_minus_field_first(gas_b4):
    g = SphericalGrid(*WIDE_PATCH, 17, 17)
    good = ScalarField.constant(g, 2.0)
    bad_minus, bad_plus = good.copy(), good.copy()
    bad_minus.values[4, 5] = 2.6  # z^2 > B + 2 c0^2/(gamma-1) = 6
    bad_plus.values[6, 7] = 2.6
    for f_minus, f_plus, named in ((good, bad_plus, bad_plus),
                                   (bad_minus, bad_plus, bad_minus)):
        with pytest.raises(sf.VacuumError) as want:
            sf.field_density(gas_b4, named)
        with pytest.raises(sf.VacuumError) as err:
            sf.verify_weak_comparison(gas_b4, f_minus, f_plus)
        assert str(err.value) == str(want.value)
        assert err.value.node == want.value.node
