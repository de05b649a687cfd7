import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (SEGMENT_CONDITIONS, WIDE_PATCH, bernoulli_state, field_state,
                     fields_with_states, mean_values_at, random_admissible_state,
                     random_admissible_states, random_gas,
                     random_gas_with_supersonic_radial, reference_bernoulli,
                     segment_failures, segment_sweep)

import sphereflow as sf
from sphereflow import GasModel, ScalarField, SphericalGrid
from sphereflow.cli import _scalar_params
from sphereflow.ellipticity import _form_minima, field_readings
from sphereflow.gas import EXP_CAP, bernoulli_density


def closed_form_matrix(gas, q1, q2, z):
    """The paper's half-weight comparison matrix at one state, straight from
    the c^2 identity: the columns (dA1, dA2, -dB/2) of the flux Jacobian of
    A = rho q and B = 2 rho z, with rho and c^2 from bernoulli_state."""
    rho, c2 = (float(x[0, 0]) for x in bernoulli_state(gas, q1, q2, z))
    return rho / c2 * np.array([
        [c2 - q1 * q1, -q1 * q2, q1 * z],
        [-q1 * q2, c2 - q2 * q2, q2 * z],
        [-q1 * z, -q2 * z, z * z - c2],
    ])


def weak_form_matrix(gas, q1, q2, z):
    """The comparison matrix's symmetric part as the weak form reads it,
    from mean_values_at: [[a11, a12, 0], [a12, a22, 0], [0, 0, -d/2]]."""
    a11, a12, a22, d = mean_values_at(gas, q1, q2, z)
    return np.array([[a11, a12, 0.0], [a12, a22, 0.0], [0.0, 0.0, -0.5 * d]])


def _symmetric_part(H):
    return 0.5 * (H + H.T)


def form_minima(gas, q1, q2, z):
    """_form_minima at states (q1, q2, z) with rho and c^2 from bernoulli_state."""
    rho, c2 = bernoulli_state(gas, q1, q2, z)
    return _form_minima(q1, q2, z, c2, rho / c2)


def test_matrix_examples(gas_b4):
    # the weak form reads the matrix's symmetric part: the radial column
    # (q z) cancels from it
    H = closed_form_matrix(gas_b4, 0.0, 0.0, 2.0)
    np.testing.assert_allclose(H, np.diag([1.0, 1.0, 3.0]), atol=1e-14)
    np.testing.assert_allclose(weak_form_matrix(gas_b4, 0.0, 0.0, 2.0), H, atol=1e-14)

    H2 = closed_form_matrix(gas_b4, 0.5, 0.0, 2.0)
    np.testing.assert_allclose(
        H2,
        [[0.625, 0.0, 1.0], [0.0, 0.875, 0.0], [-1.0, 0.0, 3.125]],
        atol=1e-14)
    np.testing.assert_allclose(weak_form_matrix(gas_b4, 0.5, 0.0, 2.0),
                               np.diag([0.625, 0.875, 3.125]), atol=1e-14)

    # q = 0, z = 0: every off-diagonal entry carries a q or z factor
    for gas in (gas_b4, GasModel(-1.0, 1.0, -1.0), GasModel(1.0, 2.0, 1.0)):
        rho, c2 = (float(x[0, 0]) for x in bernoulli_state(gas, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(
            weak_form_matrix(gas, 0.0, 0.0, 0.0), np.diag([rho, rho, -c2 * rho / c2]),
            atol=1e-14)


def test_matrix_matches_closed_form():
    # the weak form's coefficients against the symmetric part of the
    # c^2 = rho^(gamma-1) closed form
    rng = np.random.default_rng(31)
    for gamma in (-1.0, 0.0, 1.0, 1.4, 2.0, 3.0):
        for _ in range(10):
            gas = random_gas(rng, gamma)
            state = random_admissible_states(rng, gas, (4, 5))
            a11, a12, a22, d = mean_values_at(gas, *state)
            for i, j in np.ndindex(4, 5):
                H = _symmetric_part(closed_form_matrix(gas, *(x[i, j] for x in state)))
                got = np.array([[a11[i, j], a12[i, j], 0.0], [a12[i, j], a22[i, j], 0.0],
                                [0.0, 0.0, -0.5 * d[i, j]]])
                np.testing.assert_allclose(got, H, rtol=1e-12, atol=1e-12)


def test_matrix_general_beta_is_flux_jacobian():
    # columns of H are (dA1, dA2, -dB/2) by (q1, q2, z): the flux Jacobian
    # at the weak comparison's beta = 1/2, with the density partials
    # -x rho/c^2; the weak form reads its symmetric part
    gas = GasModel(1.4, 1.2, 3.0)
    q1, q2, z = 0.3, -0.2, 1.1
    beta = 0.5
    rho, c2 = (float(x[0, 0]) for x in bernoulli_state(gas, q1, q2, z))
    dq1, dq2, dz = (-x * rho / c2 for x in (q1, q2, z))
    expected = np.array([
        [rho + q1 * dq1, q2 * dq1, -beta * 2.0 * z * dq1],
        [q1 * dq2, rho + q2 * dq2, -beta * 2.0 * z * dq2],
        [q1 * dz, q2 * dz, -beta * (2.0 * rho + 2.0 * z * dz)],
    ])
    np.testing.assert_allclose(closed_form_matrix(gas, q1, q2, z), expected, rtol=1e-14)
    np.testing.assert_allclose(weak_form_matrix(gas, q1, q2, z), _symmetric_part(expected),
                               rtol=1e-12, atol=1e-15)
    with pytest.raises(sf.VacuumError):
        mean_values_at(GasModel(2.0, 1.0, 4.0), 3.0, 0.0, 0.0)


def test_upper_block_matches_principal_matrix():
    # the weak form's (a11, a12, a22) is rho/c^2 times the principal matrix
    # [[c2 - q1^2, -q1 q2], [-q1 q2, c2 - q2^2]]
    rng = np.random.default_rng(37)
    for gamma in (-1.0, 1.0, 2.0):
        for _ in range(5):
            gas = random_gas(rng, gamma)
            q1, q2, z = state = random_admissible_states(rng, gas, (4, 5))
            rho, c2 = bernoulli_state(gas, *state)
            a11, a12, a22, _ = mean_values_at(gas, *state)
            scale = rho / c2
            for got, want in ((a11, c2 - q1 * q1), (a12, -q1 * q2), (a22, c2 - q2 * q2)):
                np.testing.assert_allclose(got, scale * want, rtol=1e-12, atol=1e-12)


def test_form_and_bound_examples(gas_b4):
    # _form_minima reads the least eigenvalues of the matrix's symmetric
    # part, over all unit vectors and over tangential ones: a lower bound
    # of the form at every xi
    H = closed_form_matrix(gas_b4, 0.0, 0.0, 2.0)
    xi = np.ones(3)
    assert xi @ H @ xi == pytest.approx(5.0, abs=1e-14)
    assert form_minima(gas_b4, 0.0, 0.0, 2.0) == pytest.approx((1.0, 1.0), abs=1e-14)

    H2 = closed_form_matrix(gas_b4, 0.5, 0.0, 2.0)
    assert xi @ H2 @ xi == pytest.approx(4.625, abs=1e-14)
    least, tan = form_minima(gas_b4, 0.5, 0.0, 2.0)
    assert (least, tan) == pytest.approx((0.625, 0.625), abs=1e-14)
    assert xi @ H2 @ xi >= least * (xi @ xi)

    zero = np.zeros(3)
    assert zero @ H2 @ zero == 0.0 and least * (zero @ zero) == 0.0


def test_schwartz_bound_random():
    rng = np.random.default_rng(41)
    for _ in range(500):
        gas = random_gas(rng, rng.choice([-1.0, 0.0, 1.0, 1.4, 2.0, 3.0]))
        q1, q2, z = state = random_admissible_states(rng, gas, (4, 5))
        least = form_minima(gas, *state)[0]
        for i, j in np.ndindex(4, 5):
            H = closed_form_matrix(gas, q1[i, j], q2[i, j], z[i, j])
            xi = rng.normal(size=3)
            form, bound = xi @ H @ xi, least[i, j] * (xi @ xi)
            assert form >= bound - 1e-12 * max(1.0, abs(form), abs(bound))


def test_form_positive_under_hypotheses():
    rng = np.random.default_rng(43)
    for _ in range(100):
        gas = random_gas_with_supersonic_radial(
            rng, rng.choice([-1.0, 1.0, 1.4, 2.0]))
        q1, q2, z = state = random_admissible_states(rng, gas, (4, 5), elliptic=True,
                                                     z_above_c=True)
        least, tan = form_minima(gas, *state)
        assert least.min() >= -1e-12 and tan.min() > 0.0
        for i, j in np.ndindex(4, 5):
            H = closed_form_matrix(gas, q1[i, j], q2[i, j], z[i, j])
            xi = rng.normal(size=3)
            tang = np.hypot(xi[0], xi[1])
            if tang == 0.0:
                continue
            xi[:2] /= tang  # |(xi1, xi2)| = 1
            assert xi @ H @ xi > 0.0


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
    q1, q2 = speed * np.cos(angle), speed * np.sin(angle)
    assume(reference_bernoulli(gas, speed * speed, z)[1] > 0.05)  # as in helpers
    sym = _symmetric_part(closed_form_matrix(gas, q1, q2, z))
    eig = np.linalg.eigvalsh(sym)
    form_min, tan = form_minima(gas, q1, q2, z)
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
    s = (t * m[i, j] + (1.0 - t) * p[i, j] for m, p in zip(minus, plus))
    eig = np.linalg.eigvalsh(_symmetric_part(closed_form_matrix(gas_b4, *s)))[0]
    assert abs(w["value"] - eig) <= 1e-12 * abs(eig)

    # t is where the form's sign-setting margin min(c^2 - |q|^2, z^2 - c^2)
    # is least at that node, and a dense sweep finds no smaller form value
    # anywhere than the worst one, up to how far the form moves with t
    ts = np.linspace(0.0, 1.0, 2001)
    u = np.array([t, *ts])
    q1, q2, z = (u * m[i, j] + (1.0 - u) * p[i, j] for m, p in zip(minus, plus))
    q_sq = q1 * q1 + q2 * q2
    c2 = reference_bernoulli(gas_b4, q_sq, z)[1]
    margins = np.minimum(c2 - q_sq, z * z - c2)
    assert margins[0] <= margins[1:].min() + 1e-12
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
    c2 = bernoulli_density(gas, np.array(gas.head(0.0, z)), False)[1]
    margin = gas.window[3] - c2 if end else c2 - gas.window[2]
    assert len(rep.violations) == 81 and margin < 0.0
    for v in rep.violations:
        assert (v.condition, v.t, v.value) == ("rho_positive", 0.0, margin)


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
    with fields_with_states(_uniform(minus), _uniform(plus)) as (f_minus, f_plus):
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
            pair = [random_admissible_state(rng, gas, elliptic=True, z_above_c=True)
                    for _ in range(2)]
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
    with fields_with_states(minus, plus) as (f_minus, f_plus):
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
    # field_readings' L^2 gives each node's eigenvalue ratio 1/(1 - L^2)
    # of the principal matrix [[c2 - q1^2, -q1 q2], [-q1 q2, c2 - q2^2]]
    _, c2, q1, q2 = state = sf.field_density(gas_b4, f)
    _, l2, _, _ = field_readings(f, state)
    assert cert.ratio_max == pytest.approx(1.0 / (1.0 - l2.max()), rel=1e-15)
    for i, j in np.argwhere(wide_grid_33.mask_array)[::37]:
        lam = np.linalg.eigvalsh([[c2[i, j] - q1[i, j] ** 2, -q1[i, j] * q2[i, j]],
                                  [-q1[i, j] * q2[i, j], c2[i, j] - q2[i, j] ** 2]])
        assert 1.0 / (1.0 - l2[i, j]) == pytest.approx(lam[1] / lam[0], rel=1e-12)
        assert 1.0 / (1.0 - l2[i, j]) <= 1.0 / eps + 1e-12


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
