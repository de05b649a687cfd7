import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (WIDE_PATCH, random_admissible_state, random_gas,
                     random_gas_with_supersonic_radial)

import sphereflow as sf
from sphereflow import FlowState, GasModel, ScalarField, SphericalGrid
from sphereflow.cli import _scalar_params
from sphereflow.ellipticity import _form_minima
from sphereflow.gas import density, density_partials, sound_speed_sq
from sphereflow.operators import spherical_gradient


def closed_form_matrix(gas, s):
    """Half-weight comparison matrix straight from the c^2 identity."""
    rho = density(gas, s)
    c2 = sound_speed_sq(gas, s)
    scale = rho / c2  # 1/rho^(gamma-2)
    q1, q2, z = s.q1, s.q2, s.z
    return scale * np.array([
        [c2 - q1 * q1, -q1 * q2, q1 * z],
        [-q1 * q2, c2 - q2 * q2, q2 * z],
        [-q1 * z, -q2 * z, z * z - c2],
    ])


def test_matrix_examples(gas_b4):
    H = sf.comparison_matrix(gas_b4, FlowState(0.0, 0.0, 2.0), 0.5)
    np.testing.assert_allclose(H, np.diag([1.0, 1.0, 3.0]), atol=1e-14)

    H2 = sf.comparison_matrix(gas_b4, FlowState(0.5, 0.0, 2.0), 0.5)
    np.testing.assert_allclose(
        H2,
        [[0.625, 0.0, 1.0], [0.0, 0.875, 0.0], [-1.0, 0.0, 3.125]],
        atol=1e-14)

    # q = 0, z = 0: every off-diagonal entry carries a q or z factor
    for gas in (gas_b4, GasModel(-1.0, 1.0, -1.0), GasModel(1.0, 2.0, 1.0)):
        s0 = FlowState(0.0, 0.0, 0.0)
        H0 = sf.comparison_matrix(gas, s0, 0.5)
        rho = density(gas, s0)
        c2 = sound_speed_sq(gas, s0)
        np.testing.assert_allclose(
            H0, np.diag([rho, rho, -c2 * rho / c2]), atol=1e-14)


def test_matrix_matches_closed_form():
    # density_partials assembly against the c^2 = rho^(gamma-1) closed form
    rng = np.random.default_rng(31)
    for gamma in (-1.0, 0.0, 1.0, 1.4, 2.0, 3.0):
        for _ in range(200):
            gas = random_gas(rng, gamma)
            s = random_admissible_state(rng, gas)
            H = sf.comparison_matrix(gas, s, 0.5)
            np.testing.assert_allclose(H, closed_form_matrix(gas, s),
                                       rtol=1e-12, atol=1e-12)


def test_matrix_general_beta_is_flux_jacobian():
    # columns of H are (dA1, dA2, -beta dB) by (q1, q2, z)
    gas = GasModel(1.4, 1.2, 3.0)
    s = FlowState(0.3, -0.2, 1.1)
    beta = 0.8
    H = sf.comparison_matrix(gas, s, beta)
    rho = density(gas, s)
    dq1, dq2, dz = density_partials(gas, s)
    expected = np.array([
        [rho + s.q1 * dq1, s.q2 * dq1, -beta * 2.0 * s.z * dq1],
        [s.q1 * dq2, rho + s.q2 * dq2, -beta * 2.0 * s.z * dq2],
        [s.q1 * dz, s.q2 * dz, -beta * (2.0 * rho + 2.0 * s.z * dz)],
    ])
    np.testing.assert_allclose(H, expected, rtol=1e-14)
    with pytest.raises(ValueError):
        sf.comparison_matrix(gas, s, 0.0)
    with pytest.raises(sf.VacuumError):
        sf.comparison_matrix(GasModel(2.0, 1.0, 4.0), FlowState(3.0, 0.0, 0.0), 0.5)


def test_upper_block_matches_principal_matrix():
    rng = np.random.default_rng(37)
    for gamma in (-1.0, 1.0, 2.0):
        for _ in range(100):
            gas = random_gas(rng, gamma)
            s = random_admissible_state(rng, gas)
            H = sf.comparison_matrix(gas, s, 0.5)
            rho = density(gas, s)
            c2 = sound_speed_sq(gas, s)
            block = (rho / c2) * sf.principal_matrix(gas, s)
            np.testing.assert_allclose(H[:2, :2], block, rtol=1e-12, atol=1e-12)


def test_form_and_bound_examples(gas_b4):
    s = FlowState(0.0, 0.0, 2.0)
    H = sf.comparison_matrix(gas_b4, s, 0.5)
    form, bound = sf.quadratic_form_and_bound(H, gas_b4, s, (1.0, 1.0, 1.0))
    assert (form, bound) == pytest.approx((5.0, 5.0), abs=1e-14)

    s2 = FlowState(0.5, 0.0, 2.0)
    H2 = sf.comparison_matrix(gas_b4, s2, 0.5)
    form2, bound2 = sf.quadratic_form_and_bound(H2, gas_b4, s2, (1.0, 1.0, 1.0))
    assert (form2, bound2) == pytest.approx((4.625, 4.375), abs=1e-14)

    form3, bound3 = sf.quadratic_form_and_bound(H2, gas_b4, s2, (0.0, 0.0, 0.0))
    assert form3 == 0.0 and bound3 == 0.0


def test_schwartz_bound_random():
    rng = np.random.default_rng(41)
    for _ in range(10000):
        gas = random_gas(rng, rng.choice([-1.0, 0.0, 1.0, 1.4, 2.0, 3.0]))
        s = random_admissible_state(rng, gas)
        H = sf.comparison_matrix(gas, s, 0.5)
        xi = rng.normal(size=3)
        form, bound = sf.quadratic_form_and_bound(H, gas, s, xi)
        assert form >= bound - 1e-12 * max(1.0, abs(form), abs(bound))


def test_form_positive_under_hypotheses():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        gas = random_gas_with_supersonic_radial(
            rng, rng.choice([-1.0, 1.0, 1.4, 2.0]))
        s = random_admissible_state(rng, gas, elliptic=True, z_above_c=True)
        H = sf.comparison_matrix(gas, s, 0.5)
        xi = rng.normal(size=3)
        tang = np.hypot(xi[0], xi[1])
        if tang == 0.0:
            continue
        xi[:2] /= tang  # |(xi1, xi2)| = 1
        form, bound = sf.quadratic_form_and_bound(H, gas, s, xi)
        assert bound >= -1e-12
        assert form > 0.0


def test_segment_conditions_pass_case(gas_b4):
    g = SphericalGrid(*WIDE_PATCH, 17, 17)
    rep = sf.check_segment_conditions(
        gas_b4, ScalarField.constant(g, 2.0), ScalarField.constant(g, 2.2),
        n_t=9)
    assert rep.all_pass
    assert rep.pass_mask.all()


def test_segment_conditions_z_below_c(gas_b4):
    # z = 1 gives c^2 = 2.5 > 1 = z^2, so H_33 < 0 at xi = e3
    g = SphericalGrid(*WIDE_PATCH, 9, 9)
    rep = sf.check_segment_conditions(
        gas_b4, ScalarField.constant(g, 1.0), ScalarField.constant(g, 1.0))
    assert not rep.all_pass
    assert all(v.condition == "z_above_sound" for v in rep.violations)
    assert not rep.pass_mask.any()


def test_segment_degenerates_to_pointwise(gas_b4):
    g = SphericalGrid(*WIDE_PATCH, 9, 9)
    f = ScalarField.constant(g, 2.0)
    few = sf.check_segment_conditions(gas_b4, f, f, n_t=2)
    many = sf.check_segment_conditions(gas_b4, f, f, n_t=9)
    assert few.all_pass == many.all_pass
    np.testing.assert_array_equal(few.pass_mask, many.pass_mask)


def test_segment_conditions_need_two_parameters(gas_b4):
    f = ScalarField.constant(SphericalGrid(*WIDE_PATCH, 9, 9), 2.0)
    with pytest.raises(ValueError, match="n_t must be >= 2"):
        sf.check_segment_conditions(gas_b4, f, f, n_t=1)


def test_segment_vacuum_in_coefficients(gas_b4):
    g = SphericalGrid(*WIDE_PATCH, 9, 9)
    # midpoint of the segment between z = -2.6 and z = +2.6 is fine, but
    # the endpoints themselves are beyond the vacuum ceiling sqrt(6)
    rep = sf.check_segment_conditions(
        gas_b4, ScalarField.constant(g, 2.6), ScalarField.constant(g, 2.6))
    assert not rep.all_pass
    assert rep.violations[0].condition == "rho_positive"


def _symmetric_part(gas, s):
    H = sf.comparison_matrix(gas, s, 0.5)
    return 0.5 * (H + H.T)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(gamma=st.sampled_from([-1.0, 1.0, 1.4, 2.0]),
       rho0=st.floats(0.5, 2.0), bernoulli=st.floats(1.0, 5.0),
       speed=st.floats(0.0, 1.5), angle=st.floats(0.0, 2.0 * np.pi),
       z=st.floats(0.05, 3.0))
def test_form_minima_is_smallest_eigenvalue(gamma, rho0, bernoulli, speed,
                                            angle, z):
    # the witness is exact: the smallest eigenvalue of the symmetric part
    # of the beta = 1/2 comparison matrix, and of its tangential block
    gas = GasModel(gamma, rho0, bernoulli)
    s = FlowState(speed * np.cos(angle), speed * np.sin(angle), z)
    c2 = sound_speed_sq(gas, s)
    assume(c2 > 0.05)  # admissible and away from vacuum, as in helpers
    sym = _symmetric_part(gas, s)
    eig = np.linalg.eigvalsh(sym)
    form_min, tan = _form_minima(s.q1, s.q2, s.z, c2, density(gas, s) / c2)
    tol = 1e-12 * np.abs(eig).max()
    assert abs(form_min - eig[0]) <= tol
    assert abs(tan - np.linalg.eigvalsh(sym[:2, :2])[0]) <= tol


def test_segment_worst_is_brute_force_eigenvalue_minimum(gas_b4):
    g = SphericalGrid(*WIDE_PATCH, 9, 9)
    f_minus = ScalarField.from_function(
        g, lambda th, ph: 2.0 + 0.1 * np.cos(2 * th) * np.sin(ph))
    f_plus = ScalarField.from_function(
        g, lambda th, ph: 2.2 + 0.15 * np.sin(th) * np.cos(3 * ph))
    ts = np.linspace(0.0, 1.0, 9)
    rep = sf.check_segment_conditions(gas_b4, f_minus, f_plus, n_t=ts.size)
    assert rep.all_pass  # so the witness evaluated every (node, t)

    gm, gp = spherical_gradient(f_minus), spherical_gradient(f_plus)
    brute = {}
    for t in ts:
        q1 = t * gm.v_theta + (1.0 - t) * gp.v_theta
        q2 = t * gm.v_phi + (1.0 - t) * gp.v_phi
        z = t * f_minus.values + (1.0 - t) * f_plus.values
        for i, j in np.ndindex(g.shape):
            s = FlowState(q1[i, j], q2[i, j], z[i, j])
            brute[(i, j, float(t))] = np.linalg.eigvalsh(
                _symmetric_part(gas_b4, s))[0]
    lowest = min(brute.values())
    w = rep.worst
    assert set(w) == {"i", "j", "t", "value"}
    assert abs(w["value"] - lowest) <= 1e-12 * abs(lowest)
    assert abs(brute[(w["i"], w["j"], w["t"])] - lowest) <= 1e-12 * abs(lowest)

    # every node fails an analytic check first: the witness evaluates none
    low = ScalarField.constant(g, 1.0)
    assert sf.check_segment_conditions(gas_b4, low, low).worst is None


def test_segment_form_positive_in_slack_band(gas_b4):
    # z just below c = sqrt(2): z >= c holds within its slack, but the
    # radial eigenvalue z^2 - c^2 falls below -slack only for the lower z
    g = SphericalGrid(*WIDE_PATCH, 9, 9)
    f = ScalarField.constant(g, np.sqrt(2.0) - 3e-13)
    rep = sf.check_segment_conditions(gas_b4, f, f)
    assert len(rep.violations) == g.shape[0] * g.shape[1]
    assert not rep.pass_mask.any()
    for v in rep.violations:
        assert (v.t, v.condition) == (0.0, "form_positive")
        assert v.value == pytest.approx(-1.2723e-12, abs=1e-15)

    f = ScalarField.constant(g, np.sqrt(2.0) - 1e-13)
    assert sf.check_segment_conditions(gas_b4, f, f).all_pass


def test_certify_examples(gas_b4, wide_grid_33):
    cert = sf.certify_uniform_ellipticity(
        gas_b4, ScalarField.constant(wide_grid_33, 2.0), eps=0.5)
    assert cert.passed
    assert cert.eps_rho == pytest.approx(1.0, abs=1e-14)
    assert cert.eps_L == pytest.approx(1.0, abs=1e-14)
    assert cert.ratio_max == pytest.approx(1.0, abs=1e-14)

    f = ScalarField.from_function(wide_grid_33,
                                  lambda th, ph: 2 + 0.1 * np.cos(th))
    cert2 = sf.certify_uniform_ellipticity(gas_b4, f, eps=0.5)
    assert cert2.passed
    # |Df| <= 0.1, so max L^2 is bounded by 0.01 / min c^2 (node sweep)
    c2 = sf.field_density(gas_b4, f)[1]
    assert 1.0 - cert2.eps_L <= 0.01 / c2.min() + 1e-12


def test_certify_fails_on_hyperbolic_node(gas_b4):
    g = SphericalGrid(np.pi / 2 - 0.12, np.pi / 2 + 0.12, 0.0, 0.2, 11, 5)
    f = ScalarField.from_function(g, lambda th, ph: 2.0 + (th - np.pi / 2))
    cert = sf.certify_uniform_ellipticity(gas_b4, f, eps=0.5)
    assert not cert.passed
    assert cert.eps_L <= -1.0
    assert cert.ratio_max is None
    assert len(cert.violations) > 0
    d = cert.to_dict()
    assert d["pass"] is False and "worst_node" in d
    # a margin eps <= 0 would pass this field (eps_L > -5), so it is refused
    for eps in (-5.0, 0.0, float("nan")):
        with pytest.raises(sf.ConfigError, match="eps must be positive") as err:
            sf.certify_uniform_ellipticity(gas_b4, f, eps=eps)
        assert err.value.key == "eps"


def test_certify_pass_bounds_eigen_ratio(gas_b4, wide_grid_33):
    eps = 0.5
    f = ScalarField.from_function(wide_grid_33,
                                  lambda th, ph: 2 + 0.1 * np.cos(th))
    cert = sf.certify_uniform_ellipticity(gas_b4, f, eps)
    assert cert.passed
    _, _, q1, q2 = sf.field_density(gas_b4, f)
    z = f.values
    m = wide_grid_33.mask_array
    for i, j in np.argwhere(m)[::37]:
        s = FlowState(q1[i, j], q2[i, j], z[i, j])
        assert sf.eigenvalue_ratio(gas_b4, s) <= 1.0 / eps + 1e-12


def test_certificate_reads_a_given_state():
    # state= skips the certificate's own field_density and changes nothing;
    # the scenario reader leaves it alone, as it is not a scalar option
    gas = GasModel(2.0, 1.0, 4.0)
    g = SphericalGrid(*WIDE_PATCH, 17, 17)
    f = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.1 * np.cos(th)
                                  + 0.03 * np.sin(th) * np.cos(2 * ph))
    want = sf.certify_uniform_ellipticity(gas, f, 1e-3)
    got = sf.certify_uniform_ellipticity(gas, f, 1e-3, state=sf.field_density(gas, f))
    assert got.to_dict() == want.to_dict()
    assert "state" not in _scalar_params(sf.certify_uniform_ellipticity)
