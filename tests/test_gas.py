import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (bernoulli_state, excess, fd_density_partials, fd_hessian,
                     fields_with_states, mean_values_at, random_admissible_states, random_gas,
                     reference_bernoulli)

import sphereflow as sf
from sphereflow import FlowType, GasModel, ScalarField, SphericalGrid
from sphereflow.gas import bernoulli_density


def test_c0_sq_is_derived():
    assert GasModel(2.0, rho0=2.0).c0_sq == 2.0
    assert GasModel(1.0, rho0=2.0).c0_sq == 1.0
    assert GasModel(-1.0, rho0=2.0).c0_sq == 0.25


def test_model_invariants():
    with pytest.raises(ValueError):
        GasModel(-1.5)
    with pytest.raises(ValueError):
        GasModel(2.0, rho0=0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, args, kwargs, key", [
    (GasModel, (NAN,), {}, "gamma"),  # with rho0 = 1, 1.0 ** nan == 1.0
    (GasModel, (NAN, 2.0), {}, "gamma"),
    (GasModel, (INF,), {}, "gamma"),
    (GasModel, (1.0, NAN), {}, "rho0"),  # the isothermal c0_sq is 1.0
    (GasModel, (2.0, 1.0, NAN), {}, "bernoulli"),
    (GasModel, (2.0, 1.0, INF), {}, "bernoulli"),
])
def test_non_finite_parameters_are_refused(make, args, kwargs, key):
    with pytest.raises(sf.ConfigError, match=f"^{key} must be finite") as err:
        make(*args, **kwargs)
    assert err.value.key == key


def test_sound_speed_examples():
    # c^2 as bernoulli_density reads it at the head B - z^2 - |q|^2
    def c2(gas, q1, q2, z):
        return bernoulli_density(gas, np.array(gas.head(q1 * q1 + q2 * q2, z)), False)[1]

    gas = GasModel(2.0, 1.0, 4.0)
    assert c2(gas, 0.0, 0.0, 0.0) == pytest.approx(3.0, abs=1e-15)
    # isothermal branch is identically one
    assert c2(GasModel(1.0, 1.7, -3.0), 0.4, 0.1, 2.0) == 1.0
    chap = GasModel(-1.0, 1.0, 0.0)
    assert c2(chap, 0.6, 0.0, 1.0) == pytest.approx(2.36, abs=1e-14)


def test_density_examples():
    gas = GasModel(2.0, 1.0, 4.0)
    assert bernoulli_state(gas, 0.0, 0.0, 2.0)[0] == pytest.approx(1.0, abs=1e-15)
    chap = GasModel(-1.0, 1.0, 0.0)
    assert bernoulli_state(chap, 0.0, 0.0, 0.0)[0] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(sf.VacuumError):
        bernoulli_state(gas, 3.0, 0.0, 0.0)  # c^2 = -1.5


def test_isothermal_overflow_guard():
    gas = GasModel(1.0, 1.0, 4000.0)
    with pytest.raises(sf.GasOverflowError):
        bernoulli_state(gas, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("gas, z, message", [
    (GasModel(1.001, 1.0, 4000.0), 1.6, "density is not a finite double at node (0, 0): "
     "c^2 = 2.99872"),
    (GasModel(1.0, 1e306, 20.0), 1.0, "density is not a finite double at node (0, 0): c^2 = 1"),
], ids=["power", "isothermal"])
def test_a_density_that_is_not_a_finite_double_is_refused(gas, z, message):
    # (c^2)^1000 overflows past c^2 = 2.03, and rho0 exp(head/2) for a large
    # rho0 with the exponent inside its guard: the density was inf, with a
    # numpy RuntimeWarning.  A constant field has q = 0 at every node
    f = ScalarField.constant(SphericalGrid(1.0, 2.0, 0.0, 1.0, 3, 3), z)
    for call in (sf.field_density, sf.flow_residual):
        with pytest.raises(sf.GasOverflowError) as err:
            call(gas, f)
        assert str(err.value) == message


def _refusal(gas, head):
    """The error class that a state at head is refused with, from rho
    formed here: the isothermal guard and an infinite rho overflow, c^2 <= 0
    and a rho of 0.0 are vacuum."""
    with np.errstate(over="ignore"):
        if gas.gamma == 1.0:
            if abs(0.5 * head) > sf.gas.EXP_CAP:
                return sf.GasOverflowError
            rho = gas.rho0 * np.exp(np.array([0.5 * head]))[0]
        else:
            c2 = gas.c0_sq + 0.5 * (gas.gamma - 1.0) * head
            if not c2 > 0.0:
                return sf.VacuumError
            rho = (np.array([c2]) ** (1.0 / (gas.gamma - 1.0)))[0]
    return sf.VacuumError if rho == 0.0 else sf.GasOverflowError


@settings(derandomize=True, max_examples=300, deadline=None)
@given(gamma=st.sampled_from([-1.0, 0.0, 0.999, 1.0, 1.001, 1.4, 2.0, 3.0]),
       rho0=st.sampled_from([1.0, 0.5, 3.0, 1e-300, 1e300]),
       draws=st.lists(st.tuples(st.sampled_from([0, 1]),
                                st.just(0.0) | st.floats(-1e-3, 1e-3),
                                st.integers(-3, 3)), min_size=1, max_size=20))
def test_the_window_admits_what_density_admits(gamma, rho0, draws):
    # heads near both ends of the window (a relative offset, then a few
    # doubles), or far out where an end is the largest double: the mask is
    # the same with and without rho, and equals "rho finite and > 0" found
    # by forming rho; density raises exactly off it, with the class of the
    # side it falls on (as field_density refuses a node).  c^2 = 3 at
    # gamma = 1.001 overflowed, c^2 = 1e-3
    # underflowed, and at gamma = 0.999 c^2 = 0.3 overflowed, while the mask
    # without rho read True
    try:
        gas = GasModel(gamma, rho0)
    except sf.ConfigError:  # rho0^(gamma - 1) leaves the doubles
        assume(False)
    base, slope, lo, hi = gas.window
    heads = []
    for end, rel, ulps in draws:
        head = ((lo, hi)[end] - base) / slope
        head = math.copysign(1e300, head) if abs(head) > 1e300 else head * (1.0 + rel)
        for _ in range(abs(ulps)):
            head = math.nextafter(head, math.copysign(math.inf, ulps))
        heads.append(head)
    heads = np.array(heads)
    rho, _, ok = sf.gas.bernoulli_density(gas, heads)
    assert np.array_equal(sf.gas.bernoulli_density(gas, heads, False)[2], ok)
    ref_rho, _, ref_ok = reference_bernoulli(gas, gas.bernoulli - heads, 0.0)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(rho[ok], ref_rho[ok]) and np.isfinite(rho).all()
    for head, admitted, value in zip(heads, ok, rho):
        shifted = GasModel(gamma, rho0, float(head))  # with q = z = 0, head = B
        if admitted:
            assert bernoulli_state(shifted, 0.0, 0.0, 0.0)[0][0, 0] == value
        else:
            with pytest.raises(sf.InadmissibleStateError) as err:
                bernoulli_state(shifted, 0.0, 0.0, 0.0)
            assert type(err.value) is _refusal(gas, head)


def _from_partials(rho, q1, q2, z, partials):
    """(a11, a12, a22, d) of the flux Jacobian from rho and its partials:
    d(rho q_i)/d q_j = rho delta_ij + q_i d rho/d q_j, d = 2 d(rho z)/dz."""
    dq1, dq2, dz = partials
    return rho + q1 * dq1, q1 * dq2, rho + q2 * dq2, 2.0 * (rho + z * dz)


def test_density_partials_examples():
    # the weak form's coefficients carry the density partials -x rho/c^2:
    # at (0.5, 0, 2) rho = c^2 = 0.875, so d rho/d q1 = -0.5, d rho/d z = -2
    gas = GasModel(2.0, 1.0, 4.0)
    got = mean_values_at(gas, 0.5, 0.0, 2.0)
    assert got == pytest.approx(_from_partials(0.875, 0.5, 0.0, 2.0, (-0.5, 0.0, -2.0)),
                                abs=1e-14)
    assert mean_values_at(gas, 0.0, 0.0, 0.0) == pytest.approx((3.0, 0.0, 3.0, 6.0),
                                                                abs=1e-14)
    # finite-difference oracle, step 1e-6
    rho = bernoulli_state(gas, 0.0, 0.0, 2.0)[0]
    want = _from_partials(rho, 0.0, 0.0, 2.0, fd_density_partials(gas, 0.0, 0.0, 2.0))
    assert mean_values_at(gas, 0.0, 0.0, 2.0) == pytest.approx([w.item() for w in want],
                                                                abs=1e-6)


def _classify(gas, *states):
    """classify_field's (codes, L^2) at the states (q1, q2, z), as the nodes
    of one 3 x 3 field (the states repeat to fill it)."""
    arrays = tuple(np.resize(np.array(x, dtype=float), (3, 3)) for x in zip(*states))
    with fields_with_states(arrays) as (f,):
        codes, l2 = sf.classify_field(gas, f)
    return codes.ravel()[:len(states)].tolist(), l2.ravel()[:len(states)]


def test_pseudo_mach_examples():
    gas = GasModel(2.0, 1.0, 4.0)
    _, l2 = _classify(gas, (0.5, 0.0, 2.0), (0.0, 0.0, 1.0), (1.0, 0.0, 2.0))
    assert l2 == pytest.approx([2.0 / 7.0, 0.0, 2.0], rel=1e-14)
    assert l2[1] == 0.0
    # vacuum reads nan; past the isothermal exp() guard the state is
    # Vacuum, not L^2 = 0.25
    codes, l2 = _classify(gas, (3.0, 0.0, 0.0))
    assert codes == [FlowType.VACUUM] and np.isnan(l2[0])
    iso = GasModel(1.0, 1.0, 2000.0)
    codes, l2 = _classify(iso, (0.5, 0.0, 0.1))
    assert codes == [FlowType.VACUUM] and np.isnan(l2[0])
    with pytest.raises(sf.GasOverflowError):
        bernoulli_state(iso, 0.5, 0.0, 0.1)


def test_classify_examples():
    gas = GasModel(2.0, 1.0, 4.0)
    # the parabolic band absorbs roundoff around L^2 = 1
    # |q|^2 = 2/3 gives c^2 = 1 + 0.5(4 - 4 - 2/3) = 2/3, so L^2 = 1
    codes, _ = _classify(gas, (0.5, 0.0, 2.0), (1.0, 0.0, 2.0), (3.0, 0.0, 0.0),
                         (np.sqrt(2.0 / 3.0), 0.0, 2.0))
    assert codes == [FlowType.ELLIPTIC, FlowType.HYPERBOLIC, FlowType.VACUUM,
                     FlowType.PARABOLIC]


def test_the_parabolic_band_is_eps_type_wide():
    # the band's half-width is the constant EPS_TYPE, eps_type's old default
    assert sf.gas.EPS_TYPE == 1e-8
    gas = GasModel(2.0, 1.0, 4.0)
    for delta, kind in ((-2e-8, FlowType.ELLIPTIC), (-5e-9, FlowType.PARABOLIC),
                        (5e-9, FlowType.PARABOLIC), (2e-8, FlowType.HYPERBOLIC)):
        l2 = 1.0 + delta  # at z = 2, c^2 = 1 - |q|^2 / 2
        codes, got = _classify(gas, (np.sqrt(l2 / (1.0 + 0.5 * l2)), 0.0, 2.0))
        assert got[0] == pytest.approx(l2, abs=1e-14)
        assert codes == [kind]


def test_no_admissible_state_falls_between_the_band_and_its_sides():
    # on the isothermal gas c^2 = 1, so L^2 = |q|^2 exactly.  At L^2 =
    # fl(1 - EPS_TYPE), 1 - L^2 rounds above EPS_TYPE, so the state lies
    # outside the band and is elliptic; read as "below fl(1 - EPS_TYPE)" the
    # elliptic side missed it, and the state was classified vacuum
    iso = GasModel(1.0, 1.0, 4.0)
    edge = 1.0 - sf.gas.EPS_TYPE
    q1 = float(np.sqrt(edge))
    codes, l2 = _classify(iso, (q1, float(np.sqrt(edge - q1 * q1)), 1.0))
    assert l2[0] == edge and 1.0 - edge > sf.gas.EPS_TYPE
    assert codes == [FlowType.ELLIPTIC]


def test_classify_rotation_invariance():
    rng = np.random.default_rng(3)
    gas = GasModel(1.4, 1.0, 3.0)
    q1, q2, z = random_admissible_states(rng, gas, (10, 20))
    ang = rng.uniform(0, 2 * np.pi, q1.shape)
    c, sn = np.cos(ang), np.sin(ang)
    with fields_with_states((q1, q2, z), (c * q1 - sn * q2, sn * q1 + c * q2, z)) as fields:
        codes = [sf.classify_field(gas, f)[0] for f in fields]
    np.testing.assert_array_equal(*codes)


def test_convexity_hessian_examples():
    # Chaplygin: the excess is the constant B - c0^2, so its second
    # differences vanish exactly at dyadic states and steps, where every
    # operation is exact
    rng = np.random.default_rng(11)
    chap = GasModel(-1.0, 1.0, 4.0)
    for _ in range(5):
        H = fd_hessian(lambda x: excess(chap, x), rng.integers(-64, 64, 3) / 64.0, h=2.0 ** -6)
        assert np.array_equal(H, np.zeros((3, 3)))
    # finite differences of the full squared-speed excess at random points
    for gamma, expected in ((2.0, 3.0), (1.0, 2.0)):
        gas = GasModel(gamma, 1.0, 4.0)
        for _ in range(5):
            H = fd_hessian(lambda x: excess(gas, x), rng.normal(size=3))
            assert np.allclose(H, expected * np.eye(3), atol=1e-6)


def test_hessian_quadratic_form_closed_form():
    # the excess is quadratic with Hessian (gamma + 1) I, so its second
    # difference along xi with a unit step is (gamma + 1) |xi|^2 to roundoff
    rng = np.random.default_rng(5)
    for gamma in (-1.0, 0.0, 1.0, 1.4, 2.0, 3.0):
        gas = GasModel(gamma, 1.0, 1.0)
        for _ in range(20):
            x, xi = rng.normal(size=3), rng.normal(size=3)
            second = excess(gas, x + xi) - 2.0 * excess(gas, x) + excess(gas, x - xi)
            assert second == pytest.approx((gamma + 1.0) * xi @ xi, rel=1e-14, abs=1e-14)


def test_density_partials_match_finite_differences():
    # the weak form's coefficients against the flux Jacobian from finite
    # differences of rho, at 100 states of each of 10 random gases per gamma
    rng = np.random.default_rng(23)
    for gamma in (-1.0, 0.0, 1.0, 1.4, 2.0, 3.0):
        for _ in range(10):
            gas = random_gas(rng, gamma)
            state = random_admissible_states(rng, gas, (10, 10))
            got = mean_values_at(gas, *state)
            rho = bernoulli_state(gas, *state)[0]
            want = _from_partials(rho, *state, fd_density_partials(gas, *state))
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-5 * max(1.0, abs(w).max()))


def test_gas_ops_broadcast_over_arrays():
    gas = GasModel(2.0, 1.0, 4.0)
    rho, c2 = bernoulli_state(gas, np.array([0.0, 0.5]), np.zeros(2), np.full(2, 2.0))
    np.testing.assert_allclose(c2, [[1.0, 0.875]])
    np.testing.assert_allclose(rho, [[1.0, 0.875]])
    codes, _ = _classify(gas, (0.0, 0.0, 2.0), (0.5, 0.0, 2.0))
    assert codes == [FlowType.ELLIPTIC, FlowType.ELLIPTIC]
