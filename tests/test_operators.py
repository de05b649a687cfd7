import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    PAIR_SCENARIOS,
    SMALL_PATCH,
    WIDE_PATCH,
    expanded_residual,
    outward_directions,
    bernoulli_state,
    fields_with_states,
    flux_laplacian,
    mean_values_at,
    padded_boundary_mask,
    per_node_derivative,
    principal_matrix,
    random_admissible_states,
    random_gas,
    stepped_node,
    thomas_preconditioner,
)

import sphereflow as sf
from sphereflow import GasModel, ScalarField, SphericalGrid
from sphereflow.ellipticity import field_readings
from sphereflow.gas import bernoulli_density
from sphereflow.operators import segment_algebra


def _grid(n=33, patch=WIDE_PATCH):
    return SphericalGrid(*patch, n, n)


def _node_near(grid, theta, phi):
    i = int(np.argmin(np.abs(grid.thetas - theta)))
    j = int(np.argmin(np.abs(grid.phis - phi)))
    return i, j


def test_gradient_examples():
    g = _grid(65)
    tol = 4.0 * g.h_theta ** 2
    f = ScalarField.from_function(g, lambda th, ph: np.cos(th))
    grad = sf.spherical_gradient(f)
    i, j = _node_near(g, np.pi / 2, np.pi / 4)
    assert grad.v_theta[i, j] == pytest.approx(-1.0, abs=tol)
    assert grad.v_phi[i, j] == pytest.approx(0.0, abs=tol)

    const = ScalarField.constant(g, 3.7)
    gc = sf.spherical_gradient(const)
    assert np.all(gc.v_theta == 0.0) and np.all(gc.v_phi == 0.0)

    f2 = ScalarField.from_function(g, lambda th, ph: np.sin(th) * np.sin(ph))
    g2 = sf.spherical_gradient(f2)
    i, j = _node_near(g, np.pi / 2, 0.0)
    assert g2.v_theta[i, j] == pytest.approx(0.0, abs=tol)
    assert g2.v_phi[i, j] == pytest.approx(1.0, abs=tol)


def test_divergence_examples():
    # the flux divergence of a gradient: constants have none, and the
    # degree-1 harmonics are eigenfunctions with eigenvalue -2
    g = _grid(65, patch=(np.pi / 6, 5 * np.pi / 6, 0.0, np.pi / 2))
    tol = 10.0 * g.h_theta ** 2

    assert np.abs(flux_laplacian(ScalarField.constant(g, 2.0))).max() <= 1e-13

    for fn in (lambda th, ph: np.cos(th), lambda th, ph: np.sin(th) * np.sin(ph)):
        f = ScalarField.from_function(g, fn)
        i, j = _node_near(g, np.pi / 3, np.pi / 4)
        assert flux_laplacian(f)[i, j] == pytest.approx(-2.0 * f.values[i, j], abs=tol)

    # cos(2 theta) is not one: Delta = -2 sin(2 theta) cot(theta) - 4 cos(2 theta)
    f = ScalarField.from_function(g, lambda th, ph: np.cos(2 * th))
    i, j = _node_near(g, np.pi / 3, np.pi / 4)
    th = g.thetas[i]
    expect = -2.0 * np.sin(2 * th) * np.cos(th) / np.sin(th) - 4.0 * np.cos(2 * th)
    assert flux_laplacian(f)[i, j] == pytest.approx(expect, abs=tol)


def test_operators_are_linear():
    g = _grid(17)
    rng = np.random.default_rng(2)
    f1 = ScalarField(g, rng.normal(size=g.shape))
    f2 = ScalarField(g, rng.normal(size=g.shape))
    a, b = 2.25, -1.5
    combo = ScalarField(g, a * f1.values + b * f2.values)
    gc = sf.spherical_gradient(combo)
    g1 = sf.spherical_gradient(f1)
    g2 = sf.spherical_gradient(f2)
    scale = np.abs(g1.v_theta).max() + np.abs(g2.v_theta).max()
    np.testing.assert_allclose(gc.v_theta, a * g1.v_theta + b * g2.v_theta,
                               rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(gc.v_phi, a * g1.v_phi + b * g2.v_phi,
                               rtol=0, atol=1e-13 * scale)

    dc = flux_laplacian(combo)
    d1 = flux_laplacian(f1)
    d2 = flux_laplacian(f2)
    dscale = np.abs(d1).max() + np.abs(d2).max()
    np.testing.assert_allclose(dc, a * d1 + b * d2, rtol=0,
                               atol=1e-13 * dscale)


def test_residual_zero_field(gas_b4, wide_grid_33):
    zero = ScalarField.constant(wide_grid_33, 0.0)
    for residual in (sf.flow_residual, expanded_residual):
        r = residual(gas_b4, zero)
        assert np.all(r.values == 0.0)


def test_residual_constant_field(gas_b4, wide_grid_33):
    # 2 rho f = 4 where the equation holds; flow_residual is 0.0 off the
    # interior, where f is data
    f = ScalarField.constant(wide_grid_33, 2.0)
    im = wide_grid_33.interior_mask
    for residual in (sf.flow_residual, expanded_residual):
        r = residual(gas_b4, f)
        np.testing.assert_allclose(r.values[im], 4.0, rtol=1e-14)
    assert np.all(sf.flow_residual(gas_b4, f).values[~im] == 0.0)


def test_residual_vacuum_reports_node(gas_b4, wide_grid_33):
    vals = np.full(wide_grid_33.shape, 2.0)
    vals[5, 7] = 2.6  # z^2 > B + 2 c0^2/(gamma-1) = 6
    with pytest.raises(sf.VacuumError) as err:
        sf.flow_residual(gas_b4, ScalarField(wide_grid_33, vals))
    assert err.value.node is not None


def test_residual_isothermal_overflow_reports_node(wide_grid_33):
    gas = GasModel(1.0, 1.0, 4.0)
    vals = np.full(wide_grid_33.shape, 1.0)
    vals[0, 0] = 40.0  # density exponent (B - z^2 - |q|^2)/2 < -700
    with pytest.raises(sf.GasOverflowError) as err:
        sf.flow_residual(gas, ScalarField(wide_grid_33, vals))
    assert err.value.node == (0, 0)
    assert "(0, 0)" in str(err.value)


def test_thin_mask_names_node():
    mask = np.zeros((9, 9), dtype=bool)
    mask[3:5, :] = True  # a strip two theta-nodes wide
    g = SphericalGrid(*WIDE_PATCH, 9, 9, mask=mask)
    with pytest.raises(sf.GridError, match="too thin") as err:
        sf.spherical_gradient(ScalarField.constant(g, 1.0))
    i, j = (int(k) for k in re.search(r"\((\d+), (\d+)\)", str(err.value)).groups())
    assert mask[i, j]


def test_residual_forms_agree_at_second_order(gas_b4):
    # gamma = 2 makes the expanded display identical to the flux form in
    # the continuum (rho = c^2), so the gap is pure discretization error.
    diffs = []
    for n in (33, 65, 129):
        g = _grid(n)
        f = ScalarField.from_function(g, lambda th, ph: 2 + 0.1 * np.cos(th))
        rd = sf.flow_residual(gas_b4, f)
        re = expanded_residual(gas_b4, f)
        diffs.append(np.abs(rd.values - re.values)[g.interior_mask].max())
    assert diffs[0] / diffs[1] >= 3.6
    assert diffs[1] / diffs[2] >= 3.6


def _jacobian_grid(kind, n=17):
    if kind == "periodic":
        return SphericalGrid(np.pi / 3, 2 * np.pi / 3, 0.0, 2 * np.pi, n, n - 1,
                             phi_periodic=True)
    mask = None
    if kind == "masked":
        mask = np.ones((n, n), dtype=bool)
        mask[:5, :5] = False  # corner notch
    return SphericalGrid(*SMALL_PATCH, n, n, mask=mask)


def test_segment_algebra_gives_the_states_of_phi_t(gas_b4):
    # head -> bernoulli_density, q+ + t dq and z+ + t dz are the state of
    # phi_t = t f- + (1-t) f+: exactly f+'s own state at t = 0, and within
    # rounding of field_density(phi_t) elsewhere (interpolated gradients,
    # not the gradient of phi_t)
    g = _jacobian_grid("masked")
    m = g.mask_array
    f_minus = ScalarField.from_function(
        g, lambda th, ph: 1.5 + 0.1 * np.cos(th) * np.sin(2 * ph))
    f_plus = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.05 * np.sin(3 * th))
    q1, q2, z, dq1, dq2, dz, h0, h1, h2 = segment_algebra(gas_b4, f_minus, f_plus)
    for t in (0.0, 0.3, 1.0):
        phi = ScalarField(g, t * f_minus.values + (1.0 - t) * f_plus.values)
        rho, c2, ok = bernoulli_density(gas_b4, h0 + t * (h1 + t * h2))
        assert ok[m].all()
        got = (np.where(m, rho, 0.0), c2, q1 + t * dq1, q2 + t * dq2, z + t * dz)
        want = (*sf.field_density(gas_b4, phi), phi.values)
        if t == 0.0:
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    # an inadmissible head is flagged, not raised
    vacuum = ScalarField.constant(g, 3.0)  # c^2 = 1 + (4 - 9)/2 < 0
    h0 = segment_algebra(gas_b4, f_minus, vacuum)[6]
    _, c2, ok = bernoulli_density(gas_b4, h0)
    assert not ok[m].any() and (c2[m] < 0.0).all()


def _interior_matrix(grid, apply, idx):
    """Dense matrix of a value-array map restricted to interior nodes."""
    cols = []
    for k in idx:
        e = np.zeros(grid.shape)
        e.flat[k] = 1.0
        cols.append(apply(e).ravel()[idx])
    return np.array(cols).T


@pytest.mark.parametrize("kind", ["plain", "masked", "periodic"])
@pytest.mark.parametrize("gamma", sorted(PAIR_SCENARIOS))
def test_flow_jacobian_matches_finite_differences(kind, gamma):
    data = PAIR_SCENARIOS[gamma]
    gas = GasModel(gamma, 1.0, data["bernoulli"])
    g = _jacobian_grid(kind)
    f = ScalarField.from_function(
        g, lambda th, ph: data["level"] + 0.05 * np.cos(2 * th)
        + 0.04 * np.sin(th) * np.sin(ph + 0.3))
    idx = np.flatnonzero(g.interior_mask.ravel())
    exact = _interior_matrix(g, sf.flow_jacobian(gas, f), idx)
    fd = _fd_interior_matrix(gas, f, idx)
    scale = np.linalg.norm(fd)
    assert np.linalg.norm(exact - fd) <= 1e-7 * scale


def _fd_interior_matrix(gas, f, idx, h=1e-6):
    """Central finite differences of flow_residual, column by column, on the
    interior nodes idx."""
    cols = []
    for k in idx:
        vp, vm = f.values.copy(), f.values.copy()
        vp.flat[k] += h
        vm.flat[k] -= h
        cols.append((sf.flow_residual(gas, ScalarField(f.grid, vp)).values
                     - sf.flow_residual(gas, ScalarField(f.grid, vm)).values
                     ).ravel()[idx] / (2.0 * h))
    return np.array(cols).T


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kind=st.sampled_from(["plain", "random", "notched", "holed"]),
       periodic=st.booleans(), gamma=st.sampled_from(sorted(PAIR_SCENARIOS)),
       n_theta=st.integers(6, 11), n_phi=st.integers(6, 11),
       seed=st.integers(0, 2 ** 32 - 1))
def test_flow_jacobian_columns_match_finite_differences(kind, periodic, gamma,
                                                        n_theta, n_phi, seed):
    # the face-sliced apply against the residual it differentiates, on
    # masks with notches and holes, across a periodic seam and on every
    # gas branch
    rng = np.random.default_rng(seed)
    g = _stencil_grid(kind, periodic, n_theta, n_phi, rng)
    idx = np.flatnonzero(g.interior_mask.ravel())
    try:
        g.stencils
    except sf.GridError:
        assume(False)
    assume(idx.size > 0)
    data = PAIR_SCENARIOS[gamma]
    gas = GasModel(gamma, 1.0, data["bernoulli"])
    a1, a2, phase = rng.uniform(-0.05, 0.05), rng.uniform(-0.04, 0.04), rng.uniform(0, 6)
    f = ScalarField.from_function(
        g, lambda th, ph: data["level"] + a1 * np.cos(2 * th)
        + a2 * np.sin(th) * np.sin(ph + phase))
    exact = _interior_matrix(g, sf.flow_jacobian(gas, f), idx)
    fd = _fd_interior_matrix(gas, f, idx)
    assert (np.abs(exact - fd).max(axis=0) <= 1e-7 * np.abs(fd).max(axis=0)).all()


@pytest.mark.parametrize("n_phi,periodic", [(21, False), (16, True), (15, True)],
                         ids=["plain", "periodic-even", "periodic-odd"])
def test_principal_preconditioner_inverts_theta_only_density(n_phi, periodic):
    # at a constant state z the Jacobian is rho (Delta_h + k), with
    # k = 2 (1 - z^2/c^2): the unit-density stencil shifted by k, separable
    # on a grid whose interior fills its box, so principal_preconditioner(g, k)
    # is its exact inverse up to the factor rho; with B = 10, z = 2 gives
    # c^2 = 4 and k = 0 exactly, and z = 2.5 gives k < 0
    span = (0.0, 2 * np.pi) if periodic else (0.0, np.pi / 4)
    g = SphericalGrid(np.pi / 3, 2 * np.pi / 3, *span, 17, n_phi,
                      phi_periodic=periodic)
    gas = GasModel(2.0, 1.0, 10.0)
    idx = np.flatnonzero(g.interior_mask.ravel())
    v = np.zeros(g.shape)
    v.flat[idx] = np.random.default_rng(7).normal(size=idx.size)
    for z, shift in ((2.0, "zero"), (2.5, "negative")):
        mean = ScalarField.constant(g, z)
        rho, c2, *_ = state = sf.field_density(gas, mean)
        k = 2.0 * (1.0 - z * z / c2.flat[idx[0]])
        assert (k == 0.0) if shift == "zero" else (k < 0.0)
        jacobian = sf.flow_jacobian(gas, mean, state=state)(v)
        back = sf.operators.principal_preconditioner(g, k)(jacobian.ravel()[idx])
        assert np.abs(back / rho.flat[idx[0]] - v.flat[idx]).max() \
            <= 1e-12 * np.abs(v.flat[idx]).max()


def _stencil_grid(kind, periodic, n_theta, n_phi, rng):
    mask = np.ones((n_theta, n_phi), dtype=bool)
    if kind == "random":  # a union of rectangles of 3 x 3 nodes or more, minus others
        mask[:] = False
        for keep in [True] * rng.integers(1, 4) + [False] * rng.integers(0, 3):
            i, j = rng.integers(0, n_theta - 2), rng.integers(0, n_phi - 2)
            mask[i:i + rng.integers(3, n_theta), j:j + rng.integers(3, n_phi)] = keep
    elif kind == "notched":
        mask[:rng.integers(1, n_theta // 2), :rng.integers(1, n_phi // 2)] = False
    elif kind == "holed":
        i, j = rng.integers(1, n_theta - 3), rng.integers(1, n_phi - 3)
        mask[i:i + rng.integers(1, 3), j:j + rng.integers(1, 3)] = False
    span = (0.0, 2 * np.pi) if periodic else (0.0, np.pi / 2)
    return SphericalGrid(np.pi / 3, 2 * np.pi / 3, *span, n_theta, n_phi,
                         mask=mask if mask.any() else None, phi_periodic=periodic)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from(["plain", "random", "notched", "holed"]),
       periodic=st.booleans(), n_theta=st.integers(5, 14),
       n_phi=st.integers(5, 14), seed=st.integers(0, 2 ** 32 - 1))
def test_derivative_matches_per_node_stencils(kind, periodic, n_theta, n_phi, seed):
    # slices for the central stencil, the table only at edge nodes: the
    # same bits as applying every node's stencil on its own, signed zeros
    # included
    rng = np.random.default_rng(seed)
    _assert_per_node_derivative(_stencil_grid(kind, periodic, n_theta, n_phi, rng), rng)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n_theta=st.integers(3, 10), n_phi=st.sampled_from([3, 4]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_derivative_matches_per_node_stencils_on_small_rings(n_theta, n_phi, seed):
    # on a phi-periodic ring of 3 or 4 nodes a 3-step run wraps onto the
    # node itself or onto its other neighbour
    rng = np.random.default_rng(seed)
    mask = np.zeros((n_theta, n_phi), dtype=bool)
    for j in np.flatnonzero(rng.random(n_phi) < 0.8):  # theta lines of 3 nodes or more
        lo = rng.integers(0, n_theta - 2)
        mask[lo:rng.integers(lo + 3, n_theta + 1), j] = True
    mask[:, 0] |= ~mask.any()
    g = SphericalGrid(np.pi / 3, 2 * np.pi / 3, 0.0, 2 * np.pi, n_theta, n_phi,
                      mask=mask, phi_periodic=True)
    _assert_per_node_derivative(g, rng)


def _assert_per_node_derivative(g, rng):
    vals = np.where(rng.random(g.shape) < 0.3, rng.choice([0.0, -0.0], g.shape),
                    rng.normal(size=g.shape))
    try:
        g.stencils
    except sf.GridError:
        with pytest.raises(sf.GridError):
            for axis in (0, 1):
                per_node_derivative(vals, g, axis, 1)
        return
    for axis in (0, 1):
        got = sf.operators._derivative(vals, g, axis)
        want = per_node_derivative(vals, g, axis, 1)
        assert np.array_equal(got, want)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(kind=st.sampled_from(["plain", "random", "notched", "holed"]),
       periodic=st.booleans(), n_theta=st.integers(5, 14),
       n_phi=st.integers(5, 14), seed=st.integers(0, 2 ** 32 - 1))
def test_neighbor_rule_matches_per_node_references(kind, periodic, n_theta,
                                                   n_phi, seed):
    rng = np.random.default_rng(seed)
    g = _stencil_grid(kind, periodic, n_theta, n_phi, rng)
    sides = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    want = np.zeros((4,) + g.shape, dtype=bool)
    for i, j in zip(*np.nonzero(g.mask_array)):
        for d in outward_directions(g, i, j):
            want[sides.index(d), i, j] = True
    assert np.array_equal(g.open_sides, want)
    bm = padded_boundary_mask(g)
    assert np.array_equal(g.boundary_mask, bm)
    assert sf.straight_edge_nodes(g) == [
        (int(i), int(j)) for i, j in np.argwhere(bm)
        if len(outward_directions(g, i, j)) == 1]
    # the face after node (i, j) along each axis is open exactly when both
    # its nodes are masked; the phi faces' last column is the seam face,
    # which joins two nodes only on a periodic grid
    theta, phi = g.open_faces
    assert theta.shape == (n_theta - 1, n_phi) and phi.shape == g.shape
    for axis, faces in enumerate(g.open_faces):
        for i, j in np.ndindex(faces.shape):
            k = stepped_node(g, i, j, *((1, 0) if axis == 0 else (0, 1)))
            if k is None:
                assert axis == 1 and j == n_phi - 1 and not periodic
            assert faces[i, j] == (k is not None and g.mask_array[i, j] and g.mask_array[k])


def _split_mask(n, gap):
    mask = np.ones((n, n), dtype=bool)
    mask[n // 2:n // 2 + gap, :] = False
    return mask


@pytest.mark.parametrize("kind", ["plain", "masked", "split", "periodic-even",
                                  "periodic-odd"])
@pytest.mark.parametrize("n", [17, 65])
def test_principal_preconditioner_matches_thomas(kind, n):
    # unshifted and shifted by the k < 0 of a constant state; split: the
    # empty row has rho_row = 0 inside the interior's box
    mask = None
    if kind == "masked":
        mask = np.ones((n, n), dtype=bool)
        mask[:n // 3, :n // 4] = False
    elif kind == "split":
        mask = _split_mask(n, 1)
    if kind.startswith("periodic"):
        g = SphericalGrid(np.pi / 3, 2 * np.pi / 3, 0.0, 2 * np.pi, n,
                          n - (kind == "periodic-even"), phi_periodic=True)
    else:
        g = SphericalGrid(*WIDE_PATCH, n, n, mask=mask)
    x = np.random.default_rng(n).normal(size=int(g.interior_mask.sum()))
    for k in (0.0, -0.98):
        want = thomas_preconditioner(g, k)(x)
        got = sf.operators.principal_preconditioner(g, k)(x)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_principal_preconditioner_across_three_empty_rows():
    # the middle empty row has no theta coupling at all, which the Thomas
    # sweep divides by
    g = SphericalGrid(*WIDE_PATCH, 17, 17, mask=_split_mask(17, 3))
    x = np.random.default_rng(3).normal(size=int(g.interior_mask.sum()))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isfinite(thomas_preconditioner(g, 0.0)(x)).all()
    assert np.isfinite(sf.operators.principal_preconditioner(g, 0.0)(x)).all()


def test_operators_keep_no_grid_alive(gas_b4):
    # per-grid tables live on the grid, not in a module-level cache
    g = SphericalGrid(*WIDE_PATCH, 17, 17)
    f = ScalarField.from_function(g, lambda th, ph: 2 + 0.1 * np.cos(th))
    sf.flow_residual(gas_b4, f)
    apply = sf.flow_jacobian(gas_b4, f)
    precondition = sf.operators.principal_preconditioner(g, -1.0)
    apply(f.values)
    precondition(np.ones(int(g.interior_mask.sum())))
    ref = weakref.ref(g)
    del g, f, apply, precondition
    gc.collect()
    assert ref() is None


def _weak_form_principal(gas, q1, q2, z):
    """The principal matrix as the weak form reads it: mean_values_at's
    (a11, a12, a22) times c^2/rho."""
    rho, c2 = (float(x[0, 0]) for x in bernoulli_state(gas, q1, q2, z))
    a11, a12, a22, _ = mean_values_at(gas, q1, q2, z)
    return c2 / rho * np.array([[a11, a12], [a12, a22]])


def _certify_state(gas, q1, q2, z):
    """certify_uniform_ellipticity of a field whose every node carries the state."""
    with fields_with_states(tuple(np.full((3, 3), x) for x in (q1, q2, z))) as (f,):
        return sf.certify_uniform_ellipticity(gas, f)


def _refusal(read, *args):
    """(class, message) of the error read(*args) raises, without the
    segment parameter t that a segment reader adds."""
    with pytest.raises(sf.InadmissibleStateError) as err:
        read(*args)
    t = "" if err.value.t is None else f", t={err.value.t}"
    return type(err.value), str(err.value).replace(t, "")


def test_principal_matrix_examples(gas_b4):
    iso = _weak_form_principal(GasModel(2.0, 1.0, 0.0), 0.0, 0.0, 0.0)
    np.testing.assert_allclose(iso, np.eye(3 - 1), atol=1e-15)

    m = _weak_form_principal(gas_b4, 0.5, 0.0, 2.0)
    np.testing.assert_allclose(m, [[0.625, 0.0], [0.0, 0.875]], atol=1e-15)

    h = _weak_form_principal(gas_b4, 1.0, 0.0, 2.0)
    np.testing.assert_allclose(h, [[-0.5, 0.0], [0.0, 0.5]], atol=1e-15)


def test_eigenvalue_ratio_examples(gas_b4):
    # the certificate's ratio_max is 1/(1 - L^2), the principal matrix's
    # eigenvalue ratio; a field that is not elliptic has none
    assert _certify_state(gas_b4, 0.0, 0.0, 1.0).ratio_max == 1.0
    lam = np.linalg.eigvalsh(_weak_form_principal(gas_b4, 0.5, 0.0, 2.0))
    ratio = _certify_state(gas_b4, 0.5, 0.0, 2.0).ratio_max
    assert ratio == pytest.approx(lam[1] / lam[0], rel=1e-12)
    assert ratio == pytest.approx(1.4, rel=1e-12)
    assert _certify_state(gas_b4, 1.0, 0.0, 2.0).ratio_max is None


@pytest.mark.parametrize("params, z, error", [
    ((2.0, 1.0, 4.0), 3.0, sf.VacuumError),
    ((1.001, 1.0, 4000.0), 1.6, sf.GasOverflowError),
], ids=["vacuum", "overflow"])
def test_principal_matrix_refuses_what_density_refuses(params, z, error):
    # c^2 = -1.5 at the first state, and rho overflows at c^2 = 2.99872 at
    # the second: a reader of c^2 alone would return diag(c^2)
    gas = GasModel(*params)
    want = _refusal(bernoulli_state, gas, 0.0, 0.0, z)
    assert want[0] is error
    for read in (mean_values_at, _certify_state):
        assert _refusal(read, gas, 0.0, 0.0, z) == want


def test_eigenvalue_ratio_refuses_a_vacuum_state(gas_b4):
    # c^2 = 3 - z^2/2 - |q|^2/2 = -1 here, so L^2 is undefined, not large
    with pytest.raises(sf.VacuumError, match=r"c\^2 = -1 <= 0"):
        _certify_state(gas_b4, 0.0, 0.0, np.sqrt(8.0))
    # past the isothermal exp() guard, where classify_field reads Vacuum,
    # c^2 = 1 would give the ratio 4/3
    iso = GasModel(1.0, 1.0, 2000.0)
    with pytest.raises(sf.GasOverflowError, match="exponent exceeds"):
        _certify_state(iso, 0.5, 0.0, 0.1)


def test_eigenvalue_ratio_identity_random():
    # field_readings' 1/(1 - L^2) against brute-force eigenvalues
    rng = np.random.default_rng(41)
    for gamma in (-1.0, 0.0, 1.0, 1.4, 2.0, 3.0):
        for _ in range(5):
            gas = random_gas(rng, gamma)
            q1, q2, z = state = random_admissible_states(rng, gas, (4, 5), elliptic=True)
            with fields_with_states(state) as (f,):
                field = sf.field_density(gas, f)
                _, l2, _, _ = field_readings(f, field)
            c2 = field[1]
            for i, j in np.ndindex(4, 5):
                lam = np.linalg.eigvalsh(principal_matrix(c2[i, j], q1[i, j], q2[i, j]))
                assert 1.0 / (1.0 - l2[i, j]) == pytest.approx(lam[1] / lam[0], rel=1e-12)


def test_principal_form_two_sided_bound():
    # (c^2 - |q|^2)|tau|^2 <= tau' A tau <= c^2 |tau|^2 for the weak form's
    # principal matrix at every state bernoulli_density admits; it refuses
    # the others, as field_density does
    rng = np.random.default_rng(43)
    refused = 0
    for _ in range(500):
        gas = random_gas(rng, rng.choice([-1.0, 0.0, 1.0, 1.4, 2.0, 3.0]))
        q1, q2, z = (rng.uniform(-a, a, (4, 5)) for a in (1.5, 1.5, 2.0))
        _, _, ok = bernoulli_density(gas, gas.head(q1 * q1 + q2 * q2, z))
        for i, j in np.argwhere(~ok)[:1]:
            state = (gas, q1[i, j], q2[i, j], z[i, j])
            assert _refusal(mean_values_at, *state) == _refusal(bernoulli_state, *state)
        refused += int((~ok).sum())
        if not ok.any():
            continue
        q1, q2, z = (np.resize(x[ok], (3, max(3, int(ok.sum())))) for x in (q1, q2, z))
        rho, c2 = bernoulli_state(gas, q1, q2, z)
        a11, a12, a22, _ = mean_values_at(gas, q1, q2, z)
        tau = rng.normal(size=(2,) + q1.shape)
        form = c2 / rho * (a11 * tau[0] ** 2 + 2.0 * a12 * tau[0] * tau[1] + a22 * tau[1] ** 2)
        tt = (tau * tau).sum(axis=0)
        low = (c2 - q1 * q1 - q2 * q2) * tt
        assert np.all(form <= c2 * tt + 1e-12 * np.maximum(1.0, np.abs(c2 * tt)))
        assert np.all(form >= low - 1e-12 * np.maximum(1.0, np.abs(low)))
    assert 0 < refused < 5000


def test_periodic_phi_wrap():
    g = SphericalGrid(1.0, 2.0, 0.0, 2 * np.pi, 17, 64, phi_periodic=True)
    f = ScalarField.from_function(g, lambda th, ph: np.sin(ph))
    grad = sf.spherical_gradient(f)
    expect = np.cos(g.phi_mesh) / np.sin(g.theta_mesh)
    # the seam columns wrap, so the error is uniformly second order
    assert np.abs(grad.v_phi - expect).max() < 5e-3
    # only the theta edges are patch boundary on a periodic grid
    b = g.boundary_mask
    assert b[0].all() and b[-1].all()
    assert not b[1:-1].any()


def test_classify_field_paints_types(gas_b4):
    # f = 2 + (theta - pi/2): q1 = 1, elliptic below z = sqrt(3), hyperbolic
    # above (the node states include q = (1, 0), z = 2 which has L^2 = 2)
    g = SphericalGrid(np.pi / 2 - 0.32, np.pi / 2 + 0.12, 0.0, 0.2, 23, 11)
    f = ScalarField.from_function(g, lambda th, ph: 2.0 + (th - np.pi / 2))
    tm = sf.classify_field(gas_b4, f)
    letters = set(tm.letters().ravel().tolist())
    assert "H" in letters and "E" in letters
    counts = tm.counts()
    assert sum(counts.values()) == 23 * 11


def test_gauss_legendre_rule_is_shared_and_read_only():
    # one 8-point rule for the weak form's coefficients and segment_jacobian:
    # the leggauss nodes and weights mapped to [0, 1], bit for bit
    x, w = np.polynomial.legendre.leggauss(8)
    t, wt = sf.operators.gauss_legendre()
    np.testing.assert_array_equal(t, 0.5 * (x + 1.0))
    np.testing.assert_array_equal(wt, 0.5 * w)
    assert sf.operators.gauss_legendre()[0] is t
    with pytest.raises(ValueError):
        t[0] = 0.0


@settings(derandomize=True, max_examples=120, deadline=None)
@given(kind=st.sampled_from(["plain", "random", "notched", "holed"]),
       periodic=st.booleans(), gamma=st.sampled_from(sorted(PAIR_SCENARIOS)),
       n_theta=st.integers(5, 20), n_phi=st.integers(5, 20),
       seed=st.integers(0, 2 ** 32 - 1))
def test_residual_is_zero_off_the_interior(kind, periodic, gamma, n_theta, n_phi, seed):
    # the equation holds at interior nodes only: flow_residual writes 0.0
    # at every other node, and a given state changes no bit of it
    rng = np.random.default_rng(seed)
    g = _stencil_grid(kind, periodic, n_theta, n_phi, rng)
    try:
        g.stencils
    except sf.GridError:
        assume(False)
    data = PAIR_SCENARIOS[gamma]
    gas = GasModel(gamma, 1.0, data["bernoulli"])
    a1, a2, phase = rng.uniform(-0.05, 0.05), rng.uniform(-0.04, 0.04), rng.uniform(0, 6)
    f = ScalarField(g, data["level"] + a1 * np.cos(2 * g.theta_mesh)
                    + a2 * np.sin(g.theta_mesh) * np.sin(g.phi_mesh + phase)
                    + 1e-3 * rng.normal(size=g.shape))
    got = sf.flow_residual(gas, f).values
    assert np.all(got[~g.interior_mask].view(np.int64) == 0)
    given_state = sf.flow_residual(gas, f, state=sf.field_density(gas, f)).values
    assert np.array_equal(got.view(np.int64), given_state.view(np.int64))
