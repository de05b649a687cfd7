import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (fd_density_partials, fd_hessian, random_admissible_state, random_gas,
                     reference_bernoulli)

import sphereflow as sf
from sphereflow import FlowState, FlowType, GasModel


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
    gas = GasModel(2.0, 1.0, 4.0)
    assert sf.sound_speed_sq(gas, FlowState(0.0, 0.0, 0.0)) == pytest.approx(3.0, abs=1e-15)
    # isothermal branch is identically one
    assert sf.sound_speed_sq(GasModel(1.0, 1.7, -3.0), FlowState(0.4, 0.1, 2.0)) == 1.0
    chap = GasModel(-1.0, 1.0, 0.0)
    assert sf.sound_speed_sq(chap, FlowState(0.6, 0.0, 1.0)) == pytest.approx(2.36, abs=1e-14)


def test_density_examples():
    gas = GasModel(2.0, 1.0, 4.0)
    assert sf.density(gas, FlowState(0.0, 0.0, 2.0)) == pytest.approx(1.0, abs=1e-15)
    chap = GasModel(-1.0, 1.0, 0.0)
    assert sf.density(chap, FlowState(0.0, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(sf.VacuumError):
        sf.density(gas, FlowState(3.0, 0.0, 0.0))  # c^2 = -1.5


def test_isothermal_overflow_guard():
    gas = GasModel(1.0, 1.0, 4000.0)
    with pytest.raises(sf.GasOverflowError):
        sf.density(gas, FlowState(0.0, 0.0, 0.0))


@pytest.mark.parametrize("gas, z, message", [
    (GasModel(1.001, 1.0, 4000.0), 1.6, "density is not a finite double: c^2 = 2.99872"),
    (GasModel(1.0, 1e306, 20.0), 1.0, "density is not a finite double: c^2 = 1"),
], ids=["power", "isothermal"])
def test_a_density_that_is_not_a_finite_double_is_refused(gas, z, message):
    # (c^2)^1000 overflows past c^2 = 2.03, and rho0 exp(head/2) for a large
    # rho0 with the exponent inside its guard: density returned inf, with a
    # numpy RuntimeWarning
    for call in (sf.density, sf.density_partials):
        with pytest.raises(sf.GasOverflowError) as err:
            call(gas, FlowState(0.0, 0.0, z))
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
    # side it falls on.  c^2 = 3 at gamma = 1.001 overflowed, c^2 = 1e-3
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
            assert sf.density(shifted, FlowState(0.0, 0.0, 0.0)) == value
        else:
            with pytest.raises(sf.InadmissibleStateError) as err:
                sf.density(shifted, FlowState(0.0, 0.0, 0.0))
            assert type(err.value) is _refusal(gas, head)


def test_density_partials_examples():
    gas = GasModel(2.0, 1.0, 4.0)
    got = sf.density_partials(gas, FlowState(0.5, 0.0, 2.0))
    assert got == pytest.approx((-0.5, 0.0, -2.0), abs=1e-14)
    got0 = sf.density_partials(gas, FlowState(0.0, 0.0, 0.0))
    assert got0 == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
    # finite-difference oracle, step 1e-6
    s = FlowState(0.0, 0.0, 2.0)
    assert sf.density_partials(gas, s) == pytest.approx(
        fd_density_partials(gas, s), abs=1e-6)


def test_pseudo_mach_examples():
    gas = GasModel(2.0, 1.0, 4.0)
    assert sf.pseudo_mach_sq(gas, FlowState(0.5, 0.0, 2.0)) == pytest.approx(2.0 / 7.0, rel=1e-14)
    assert sf.pseudo_mach_sq(gas, FlowState(0.0, 0.0, 1.0)) == 0.0
    assert sf.pseudo_mach_sq(gas, FlowState(1.0, 0.0, 2.0)) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(sf.VacuumError):
        sf.pseudo_mach_sq(gas, FlowState(3.0, 0.0, 0.0))
    # past the isothermal exp() guard the state is Vacuum, not L^2 = 0.25
    iso = GasModel(1.0, 1.0, 2000.0)
    assert sf.classify_state(iso, FlowState(0.5, 0.0, 0.1)) is FlowType.VACUUM
    with pytest.raises(sf.GasOverflowError):
        sf.pseudo_mach_sq(iso, FlowState(0.5, 0.0, 0.1))


def test_classify_examples():
    gas = GasModel(2.0, 1.0, 4.0)
    assert sf.classify_state(gas, FlowState(0.5, 0.0, 2.0)) is FlowType.ELLIPTIC
    assert sf.classify_state(gas, FlowState(1.0, 0.0, 2.0)) is FlowType.HYPERBOLIC
    assert sf.classify_state(gas, FlowState(3.0, 0.0, 0.0)) is FlowType.VACUUM
    # the parabolic band absorbs roundoff around L^2 = 1
    # |q|^2 = 2/3 gives c^2 = 1 + 0.5(4 - 4 - 2/3) = 2/3, so L^2 = 1
    s_sonic = FlowState(np.sqrt(2.0 / 3.0), 0.0, 2.0)
    assert sf.classify_state(gas, s_sonic) is FlowType.PARABOLIC


def test_the_parabolic_band_is_eps_type_wide():
    # the band's half-width is the constant EPS_TYPE, eps_type's old default
    assert sf.gas.EPS_TYPE == 1e-8
    gas = GasModel(2.0, 1.0, 4.0)
    for delta, kind in ((-2e-8, FlowType.ELLIPTIC), (-5e-9, FlowType.PARABOLIC),
                        (5e-9, FlowType.PARABOLIC), (2e-8, FlowType.HYPERBOLIC)):
        l2 = 1.0 + delta  # at z = 2, c^2 = 1 - |q|^2 / 2
        s = FlowState(np.sqrt(l2 / (1.0 + 0.5 * l2)), 0.0, 2.0)
        assert sf.pseudo_mach_sq(gas, s) == pytest.approx(l2, abs=1e-14)
        assert sf.classify_state(gas, s) is kind


def test_no_admissible_state_falls_between_the_band_and_its_sides():
    # on the isothermal gas c^2 = 1, so L^2 = |q|^2 exactly.  At L^2 =
    # fl(1 - EPS_TYPE), 1 - L^2 rounds above EPS_TYPE, so the state lies
    # outside the band and is elliptic; read as "below fl(1 - EPS_TYPE)" the
    # elliptic side missed it, and the state was classified vacuum
    iso = GasModel(1.0, 1.0, 4.0)
    edge = 1.0 - sf.gas.EPS_TYPE
    q1 = float(np.sqrt(edge))
    s = FlowState(q1, float(np.sqrt(edge - q1 * q1)), 1.0)
    assert sf.pseudo_mach_sq(iso, s) == edge and 1.0 - edge > sf.gas.EPS_TYPE
    assert sf.classify_state(iso, s) is FlowType.ELLIPTIC


def test_classify_state_refuses_an_array_state():
    gas = GasModel(2.0, 1.0, 4.0)
    s = FlowState(np.array([0.5, 1.0]), np.zeros(2), np.full(2, 2.0))
    with pytest.raises(ValueError, match="use classify_codes"):
        sf.classify_state(gas, s)
    np.testing.assert_array_equal(
        sf.classify_codes(gas, s),
        [int(FlowType.ELLIPTIC), int(FlowType.HYPERBOLIC)])


def test_classify_rotation_invariance():
    rng = np.random.default_rng(3)
    gas = GasModel(1.4, 1.0, 3.0)
    for _ in range(200):
        s = random_admissible_state(rng, gas)
        ang = rng.uniform(0, 2 * np.pi)
        c, sn = np.cos(ang), np.sin(ang)
        rot = FlowState(c * s.q1 - sn * s.q2, sn * s.q1 + c * s.q2, s.z)
        assert sf.classify_state(gas, s) is sf.classify_state(gas, rot)


def test_convexity_hessian_examples():
    # Chaplygin: the quadratic form (gamma+1)|xi|^2 vanishes identically
    assert np.array_equal(sf.convexity_hessian(GasModel(-1.0)), np.zeros((3, 3)))
    # finite differences of the full squared-speed excess at random points
    rng = np.random.default_rng(11)
    for gamma, expected in ((2.0, 3.0), (1.0, 2.0)):
        gas = GasModel(gamma, 1.0, 4.0)

        def excess(x):
            return sf.speed_sq_excess(gas, FlowState(x[0], x[1], x[2]))

        for _ in range(5):
            H = fd_hessian(excess, rng.normal(size=3))
            assert np.allclose(H, expected * np.eye(3), atol=1e-6)
        assert np.allclose(sf.convexity_hessian(gas), expected * np.eye(3))


def test_hessian_quadratic_form_closed_form():
    rng = np.random.default_rng(5)
    for gamma in (-1.0, 0.0, 1.0, 1.4, 2.0, 3.0):
        H = sf.convexity_hessian(GasModel(gamma, 1.0, 1.0))
        for _ in range(20):
            xi = rng.normal(size=3)
            assert xi @ H @ xi == pytest.approx((gamma + 1.0) * xi @ xi, rel=1e-14, abs=1e-14)


def test_gas_law_consistency():
    # rho^(gamma-1) == c^2 whenever both are defined (gamma != 1)
    rng = np.random.default_rng(17)
    for gamma in (-1.0, 0.0, 1.4, 2.0, 3.0):
        for _ in range(200):
            gas = random_gas(rng, gamma)
            s = random_admissible_state(rng, gas)
            rho = sf.density(gas, s)
            c2 = sf.sound_speed_sq(gas, s)
            assert rho ** (gamma - 1.0) == pytest.approx(c2, rel=1e-12)


def test_density_partials_match_finite_differences():
    rng = np.random.default_rng(23)
    for gamma in (-1.0, 0.0, 1.0, 1.4, 2.0, 3.0):
        for _ in range(1000):
            gas = random_gas(rng, gamma)
            s = random_admissible_state(rng, gas)
            got = sf.density_partials(gas, s)
            ref = fd_density_partials(gas, s)
            assert got == pytest.approx(ref, abs=1e-5)


def test_gamma_to_one_density_continuity():
    rng = np.random.default_rng(29)
    for _ in range(100):
        rho0 = rng.uniform(0.5, 2.0)
        bernoulli = rng.uniform(0.0, 4.0)
        s = FlowState(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                      rng.uniform(-1.5, 1.5))
        iso = sf.density(GasModel(1.0, rho0, bernoulli), s)
        for gamma in (1.0 - 1e-4, 1.0 + 1e-4):
            near = sf.density(GasModel(gamma, rho0, bernoulli), s)
            assert abs(near - iso) / iso < 1e-3


def test_gas_ops_broadcast_over_arrays():
    gas = GasModel(2.0, 1.0, 4.0)
    s = FlowState(np.array([0.0, 0.5]), np.array([0.0, 0.0]),
                  np.array([2.0, 2.0]))
    np.testing.assert_allclose(sf.sound_speed_sq(gas, s), [1.0, 0.875])
    np.testing.assert_allclose(sf.density(gas, s), [1.0, 0.875])
    codes = sf.classify_codes(gas, s)
    assert codes.tolist() == [int(FlowType.ELLIPTIC), int(FlowType.ELLIPTIC)]
