import numpy as np
import pytest

from helpers import fd_density_partials, fd_hessian, random_admissible_state, random_gas

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
    (sf.SphericalGrid, (1e-6, 1.0, 0.0, 1.0, 9, 9), {"sin_floor": NAN}, "sin_floor"),
])
def test_non_finite_parameters_are_refused(make, args, kwargs, key):
    with pytest.raises((sf.ConfigError, sf.GridError), match=f"^{key} must be finite") as err:
        make(*args, **kwargs)
    assert getattr(err.value, "key", key) == key


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
    assert sf.classify_state(gas, FlowState(0.5, 0.0, 2.0), 1e-10) is FlowType.ELLIPTIC
    assert sf.classify_state(gas, FlowState(1.0, 0.0, 2.0), 1e-10) is FlowType.HYPERBOLIC
    assert sf.classify_state(gas, FlowState(3.0, 0.0, 0.0), 1e-10) is FlowType.VACUUM
    # the parabolic band absorbs roundoff around L^2 = 1
    # |q|^2 = 2/3 gives c^2 = 1 + 0.5(4 - 4 - 2/3) = 2/3, so L^2 = 1
    s_sonic = FlowState(np.sqrt(2.0 / 3.0), 0.0, 2.0)
    assert sf.classify_state(gas, s_sonic, 1e-10) is FlowType.PARABOLIC
    with pytest.raises(ValueError):
        sf.classify_state(gas, FlowState(0.0, 0.0, 0.0), eps_type=0.0)


def test_classify_codes_refuses_a_nan_band():
    # with eps_type = NaN no band test holds, so every node read as vacuum
    gas = GasModel(gamma=2.0, rho0=1.0, bernoulli=4.0)
    s = FlowState(np.array([0.1, 0.5]), np.zeros(2), np.full(2, 1.6))
    with pytest.raises(sf.ConfigError, match="eps_type must be > 0") as err:
        sf.classify_codes(gas, s, float("nan"))
    assert err.value.key == "eps_type"


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
    codes = sf.classify_codes(gas, s, 1e-10)
    assert codes.tolist() == [int(FlowType.ELLIPTIC), int(FlowType.ELLIPTIC)]
