import contextlib
import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (SEGMENT_CONDITIONS, WIDE_PATCH, field_state,
                     random_admissible_state, random_gas,
                     random_gas_with_supersonic_radial, segment_failures,
                     segment_sweep)

import sphereflow as sf
from sphereflow import FlowState, GasModel, ScalarField, SphericalGrid, VectorField
from sphereflow.cli import _scalar_params
from sphereflow.ellipticity import _form_minima
from sphereflow.gas import EXP_CAP, density, density_partials, sound_speed_sq


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
    H = sf.comparison_matrix(gas_b4, FlowState(0.0, 0.0, 2.0))
    np.testing.assert_allclose(H, np.diag([1.0, 1.0, 3.0]), atol=1e-14)

    H2 = sf.comparison_matrix(gas_b4, FlowState(0.5, 0.0, 2.0))
    np.testing.assert_allclose(
        H2,
        [[0.625, 0.0, 1.0], [0.0, 0.875, 0.0], [-1.0, 0.0, 3.125]],
        atol=1e-14)

    # q = 0, z = 0: every off-diagonal entry carries a q or z factor
    for gas in (gas_b4, GasModel(-1.0, 1.0, -1.0), GasModel(1.0, 2.0, 1.0)):
        s0 = FlowState(0.0, 0.0, 0.0)
        H0 = sf.comparison_matrix(gas, s0)
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
            H = sf.comparison_matrix(gas, s)
            np.testing.assert_allclose(H, closed_form_matrix(gas, s),
                                       rtol=1e-12, atol=1e-12)


def test_matrix_general_beta_is_flux_jacobian():
    # columns of H are (dA1, dA2, -dB/2) by (q1, q2, z): the flux Jacobian
    # at the weak comparison's beta = 1/2
    gas = GasModel(1.4, 1.2, 3.0)
    s = FlowState(0.3, -0.2, 1.1)
    beta = 0.5
    H = sf.comparison_matrix(gas, s)
    rho = density(gas, s)
    dq1, dq2, dz = density_partials(gas, s)
    expected = np.array([
        [rho + s.q1 * dq1, s.q2 * dq1, -beta * 2.0 * s.z * dq1],
        [s.q1 * dq2, rho + s.q2 * dq2, -beta * 2.0 * s.z * dq2],
        [s.q1 * dz, s.q2 * dz, -beta * (2.0 * rho + 2.0 * s.z * dz)],
    ])
    np.testing.assert_allclose(H, expected, rtol=1e-14)
    with pytest.raises(sf.VacuumError):
        sf.comparison_matrix(GasModel(2.0, 1.0, 4.0), FlowState(3.0, 0.0, 0.0))


def test_upper_block_matches_principal_matrix():
    rng = np.random.default_rng(37)
    for gamma in (-1.0, 1.0, 2.0):
        for _ in range(100):
            gas = random_gas(rng, gamma)
            s = random_admissible_state(rng, gas)
            H = sf.comparison_matrix(gas, s)
            rho = density(gas, s)
            c2 = sound_speed_sq(gas, s)
            block = (rho / c2) * sf.principal_matrix(gas, s)
            np.testing.assert_allclose(H[:2, :2], block, rtol=1e-12, atol=1e-12)


def test_form_and_bound_examples(gas_b4):
    s = FlowState(0.0, 0.0, 2.0)
    H = sf.comparison_matrix(gas_b4, s)
    form, bound = sf.quadratic_form_and_bound(H, gas_b4, s, (1.0, 1.0, 1.0))
    assert (form, bound) == pytest.approx((5.0, 5.0), abs=1e-14)

    s2 = FlowState(0.5, 0.0, 2.0)
    H2 = sf.comparison_matrix(gas_b4, s2)
    form2, bound2 = sf.quadratic_form_and_bound(H2, gas_b4, s2, (1.0, 1.0, 1.0))
    assert (form2, bound2) == pytest.approx((4.625, 4.375), abs=1e-14)

    form3, bound3 = sf.quadratic_form_and_bound(H2, gas_b4, s2, (0.0, 0.0, 0.0))
    assert form3 == 0.0 and bound3 == 0.0


def test_schwartz_bound_random():
    rng = np.random.default_rng(41)
    for _ in range(10000):
        gas = random_gas(rng, rng.choice([-1.0, 0.0, 1.0, 1.4, 2.0, 3.0]))
        s = random_admissible_state(rng, gas)
        H = sf.comparison_matrix(gas, s)
        xi = rng.normal(size=3)
        form, bound = sf.quadratic_form_and_bound(H, gas, s, xi)
        assert form >= bound - 1e-12 * max(1.0, abs(form), abs(bound))


def test_form_positive_under_hypotheses():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        gas = random_gas_with_supersonic_radial(
            rng, rng.choice([-1.0, 1.0, 1.4, 2.0]))
        s = random_admissible_state(rng, gas, elliptic=True, z_above_c=True)
        H = sf.comparison_matrix(gas, s)
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
        gas_b4, ScalarField.constant(g, 2.0), ScalarField.constant(g, 2.2))
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
    # with f- = f+ every t has the endpoint state, so the exact check is the
    # pointwise one: a sweep over the two endpoints reads the same
    g = SphericalGrid(*WIDE_PATCH, 9, 9)
    for f in (ScalarField.constant(g, 2.0), ScalarField.constant(g, 1.0),
              ScalarField.constant(g, 2.6),
              ScalarField.from_function(g, lambda th, ph: 1.42 + 0.02 * np.cos(3 * ph))):
        rep = sf.check_segment_conditions(gas_b4, f, f)
        failed, first, _ = segment_sweep(gas_b4, field_state(f), field_state(f), 2)
        np.testing.assert_array_equal(rep.pass_mask, ~failed)
        assert [v.condition for v in rep.violations] == list(first[failed])


def test_segment_conditions_take_no_t_samples():
    # the minima over t are exact, so there is no sample count to choose
    assert list(inspect.signature(sf.check_segment_conditions).parameters) == [
        "gas", "f_minus", "f_plus"]


def test_segment_vacuum_in_coefficients(gas_b4):
    g = SphericalGrid(*WIDE_PATCH, 9, 9)
    # midpoint of the segment between z = -2.6 and z = +2.6 is fine, but
    # the endpoints themselves are beyond the vacuum ceiling sqrt(6)
    rep = sf.check_segment_conditions(
        gas_b4, ScalarField.constant(g, 2.6), ScalarField.constant(g, 2.6))
    assert not rep.all_pass
    assert rep.violations[0].condition == "rho_positive"


def _symmetric_part(gas, s):
    H = sf.comparison_matrix(gas, s)
    return 0.5 * (H + H.T)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(gamma=st.sampled_from([-1.0, 1.0, 1.4, 2.0]),
       rho0=st.floats(0.5, 2.0), bernoulli=st.floats(1.0, 5.0),
       speed=st.floats(0.0, 1.5), angle=st.floats(0.0, 2.0 * np.pi),
       z=st.floats(0.05, 3.0))
def test_form_minima_is_smallest_eigenvalue(gamma, rho0, bernoulli, speed,
                                            angle, z):
    # the witness is exact: the smallest eigenvalue of the symmetric part
    # of the comparison matrix, and of its tangential block
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
    rep = sf.check_segment_conditions(gas_b4, f_minus, f_plus)
    assert rep.all_pass  # so the witness evaluated every node
    w = rep.worst
    assert set(w) == {"i", "j", "t", "value"}

    # the value is the smallest eigenvalue at the reported (node, t)
    minus, plus = field_state(f_minus), field_state(f_plus)
    i, j, t = w["i"], w["j"], w["t"]
    s = FlowState(*(t * m[i, j] + (1.0 - t) * p[i, j] for m, p in zip(minus, plus)))
    eig = np.linalg.eigvalsh(_symmetric_part(gas_b4, s))[0]
    assert abs(w["value"] - eig) <= 1e-12 * abs(eig)

    # t is where the form's sign-setting margin min(c^2 - |q|^2, z^2 - c^2)
    # is least at that node, and a dense sweep finds no smaller form value
    # anywhere than the worst one, up to how far the form moves with t
    ts = np.linspace(0.0, 1.0, 2001)
    states = [FlowState(*(u * m[i, j] + (1.0 - u) * p[i, j]
                          for m, p in zip(minus, plus))) for u in (t, *ts)]
    margins = [min(sound_speed_sq(gas_b4, x) - x.speed_sq(),
                   x.z * x.z - sound_speed_sq(gas_b4, x)) for x in states]
    assert margins[0] <= min(margins[1:]) + 1e-12
    _, _, swept = segment_sweep(gas_b4, minus, plus, ts.size)
    assert swept.min() <= w["value"] + 1e-12
    assert swept.min() >= w["value"] - 1e-3 * abs(w["value"])

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


def test_segment_isothermal_overflow_reports_the_exponent_margin():
    # gamma = 1 has c^2 = 1, so the exp() guard's margin is the value: the
    # exponent (2000 - 1)/2 = 999.5 lies 299.5 past EXP_CAP = 700
    gas = GasModel(1.0, 1.0, 2000.0)
    f = ScalarField.constant(SphericalGrid(*WIDE_PATCH, 9, 9), 1.0)
    rep = sf.check_segment_conditions(gas, f, f)
    assert len(rep.violations) == 81
    for v in rep.violations:
        assert (v.condition, v.t, v.value) == ("rho_positive", 0.0, EXP_CAP - 999.5)


@pytest.mark.parametrize("bernoulli, z, end", [(4000.0, 1.6, 1), (-1994.0, 2.0, 0)],
                         ids=["overflow", "underflow"])
def test_segment_density_out_of_doubles_is_not_rho_positive(bernoulli, z, end):
    # c^2 = 2.99872 and 1e-3 are > 0, but rho = (c^2)^1000 is inf and 0.0
    # there; the check read c^2 alone and passed both.  The margin is
    # hi - c^2 past the window's upper end, c^2 - lo below its lower one
    gas = GasModel(1.001, 1.0, bernoulli)
    f = ScalarField.constant(SphericalGrid(*WIDE_PATCH, 9, 9), z)
    rep = sf.check_segment_conditions(gas, f, f)
    c2 = sound_speed_sq(gas, FlowState(0.0, 0.0, z))
    margin = gas.window[3] - c2 if end else c2 - gas.window[2]
    assert len(rep.violations) == 81 and margin < 0.0
    for v in rep.violations:
        assert (v.condition, v.t, v.value) == ("rho_positive", 0.0, margin)


@contextlib.contextmanager
def pointwise_pair(minus, plus):
    """Fields whose gradients read as the given node arrays: the segment
    check then sees the endpoint states (q1, q2, z) node by node."""
    grid = SphericalGrid(*WIDE_PATCH, *np.shape(plus[2]))
    fields = [ScalarField(grid, np.array(state[2], dtype=float)) for state in (minus, plus)]
    grads = {id(f): VectorField(grid, *(np.array(q, dtype=float) for q in state[:2]))
             for f, state in zip(fields, (minus, plus))}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sf.operators, "spherical_gradient", lambda f: grads[id(f)])
        yield fields


def _uniform(state, shape=(3, 3)):
    return tuple(np.full(shape, x) for x in state)


@pytest.mark.parametrize("gas, minus, plus, condition, t, value", [
    # gamma = 2, B = 4: q runs from (v, 0) to (-v, 0) with v^2 = 0.6 at
    # z^2 = 1.9.  Both ends have z >= c, but at q = 0 (t = 1/2, the vertex
    # of z^2 - c^2) c^2 = 2.05 > z^2
    (GasModel(2.0, 1.0, 4.0), (-np.sqrt(0.6), 0.0, np.sqrt(1.9)),
     (np.sqrt(0.6), 0.0, np.sqrt(1.9)), "z_above_sound", 0.5,
     np.sqrt(1.9) - np.sqrt(2.05)),
    # gamma = 1, B = 1401.5, z = c = 1: the ends have |q|^2 = 0.81 and the
    # head 1399.69 within the guard, but the head peaks at the vertex
    # t = 1/2, where exp() overflows
    (GasModel(1.0, 1.0, 1401.5), (0.0, -0.9, 1.0), (0.0, 0.9, 1.0),
     "rho_positive", 0.5, EXP_CAP - 700.25),
    # gamma = 1: the head falls below -1400 at the t = 1 end, not inside
    (GasModel(1.0, 1.0, 2.0), (0.0, 0.0, 37.5), (0.0, 0.1, 1.5),
     "rho_positive", 1.0, EXP_CAP - 0.5 * (37.5 ** 2 - 2.0)),
])
def test_segment_minimum_at_the_vertex_or_an_end(gas, minus, plus, condition, t, value):
    with pointwise_pair(_uniform(minus), _uniform(plus)) as (f_minus, f_plus):
        rep = sf.check_segment_conditions(gas, f_minus, f_plus)
    assert len(rep.violations) == 9
    for v in rep.violations:
        assert (v.condition, v.t) == (condition, t)
        assert v.value == pytest.approx(value, rel=1e-12)
    # the endpoints alone pass the vertex cases: a sweep of t = 0, 1 misses them
    failed, _, _ = segment_sweep(gas, _uniform(minus), _uniform(plus), 2)
    assert failed.all() == (t == 1.0)


def _segment_pairs(rng, gas, shape):
    """(minus, plus) endpoint states (q1, q2, z) as node arrays, three kinds
    in turn: free draws (q ~ N(0, s^2) with s in [0.05, 2], z in [0, 3]);
    pairs whose ends both meet rho > 0, L^2 < 1 and z >= c; and pairs from
    (v, z) to (-w v, z), w in [0.2, 1], with z between the z >= c
    thresholds of |q| = w |v| and of q = 0, which cross z = c inside the
    segment for gamma > 1, around t = 1/(1 + w)."""
    k = 0.5 * (gas.gamma - 1.0)
    pairs = []
    for kind in range(int(np.prod(shape))):
        if kind % 3 == 0:
            s = rng.uniform(0.05, 2.0)
            pair = [(*rng.normal(0.0, s, 2), rng.uniform(0.0, 3.0)) for _ in range(2)]
        elif kind % 3 == 1:
            pair = [(x.q1, x.q2, x.z) for x in (random_admissible_state(
                rng, gas, elliptic=True, z_above_c=True) for _ in range(2))]
        else:  # z >= c reads (1 + k) z^2 >= c0^2 + k (B - |q|^2)
            v, w = rng.uniform(0.0, 1.2), rng.uniform(0.2, 1.0)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            lo, hi = sorted((gas.c0_sq + k * (gas.bernoulli - q_sq)) / (1.0 + k)
                            for q_sq in ((w * v) ** 2, 0.0)) if k != -1.0 else (0.0, 9.0)
            z = np.sqrt(max(rng.uniform(lo, hi), 0.0))
            pair = [(a * np.cos(angle), a * np.sin(angle), z) for a in (-w * v, v)]
        pairs.append(pair)
    ends = np.moveaxis(np.array(pairs), 0, -1).reshape((2, 3) + shape)
    return tuple(ends[0]), tuple(ends[1])


SEGMENT_BAND = 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gamma=st.sampled_from([-1.0, 1.0, 1.4, 2.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_exact_segment_check_is_sound_against_a_dense_sweep(gamma, seed):
    rng = np.random.default_rng(seed)
    gas = random_gas_with_supersonic_radial(rng, gamma)
    minus, plus = _segment_pairs(rng, gas, (12, 20))
    with pointwise_pair(minus, plus) as (f_minus, f_plus):
        rep = sf.check_segment_conditions(gas, f_minus, f_plus)
    # no pair passes that a 2001-point sweep rejects beyond the band, and
    # none is reported under a later condition than the sweep's first ...
    swept, first, _ = segment_sweep(gas, minus, plus, 2001, band=SEGMENT_BAND)
    assert not (swept & rep.pass_mask).any()
    for v in rep.violations:
        if swept[v.i, v.j]:
            order = SEGMENT_CONDITIONS.index
            assert order(v.condition) <= order(first[v.i, v.j]), v
    # ... and each rejection is real: the reported condition fails at the
    # reported t, or lies within the band of its threshold
    for v in rep.violations:
        fails, _ = segment_failures(gas, [x[v.i, v.j] for x in minus],
                                    [x[v.i, v.j] for x in plus], v.t, band=-SEGMENT_BAND)
        assert fails[SEGMENT_CONDITIONS.index(v.condition)], v


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
