import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bfs_interior_labels

import sphereflow as sf
from sphereflow.errors import GridError


def test_grid_node_layout():
    g = sf.SphericalGrid(np.pi / 3, 2 * np.pi / 3, 0.0, np.pi / 2, 5, 9)
    assert g.thetas[0] == pytest.approx(np.pi / 3)
    assert g.thetas[-1] == pytest.approx(2 * np.pi / 3)
    assert g.phis[-1] == pytest.approx(np.pi / 2)
    assert g.h_theta == pytest.approx((np.pi / 3) / 4)


def test_grid_validation():
    # each refusal names the key to mend, before any array is made
    for args, kwargs, key, message in (
        ((0.0, 1.0, 0.0, 1.0, 5, 5), {}, "theta_min", "need 0 < theta_min"),  # the pole
        ((1e-4, 1.0, 0.0, 1.0, 5, 5), {}, "theta_min", "pole proximity"),  # under the sin floor
        ((1.0, np.pi - 1e-4, 0.0, 1.0, 5, 5), {}, "theta_max", "pole proximity"),
        ((1.0, 1.0, 0.0, 1.0, 5, 5), {}, "theta_max", "need theta_min < theta_max"),
        ((1.0, 4.0, 0.0, 1.0, 5, 5), {}, "theta_max", "need theta_min < theta_max"),
        ((1.0, 2.0, 0.0, 1.0, 2, 5), {}, "n_theta", "grid too small"),
        ((1.0, 2.0, 0.0, 1.0, 5, 5), {"phi_periodic": True}, "phi_periodic", "2[*]pi, got 1.0"),
        ((1.0, 2.0, 0.0, 1.0, 2 ** 63, 5), {}, "n_theta", "grid too large"),  # past numpy's
        ((1.0, 2.0, 0.0, 1.0, 5, 2 ** 61), {}, "n_phi", "grid too large"),    # index range
    ):
        with pytest.raises(sf.ConfigError, match=message) as err:
            sf.SphericalGrid(*args, **kwargs)
        assert err.value.key == key


def test_the_pole_floor_is_a_constant():
    # sin(theta) >= SIN_FLOOR at both edges, sin_floor's old default
    assert sf.grid.SIN_FLOOR == 1e-3
    edge = np.arcsin(1e-3)
    for scale, refused in ((1.0 + 1e-9, False), (1.0 - 1e-9, True)):
        for bounds in ((edge * scale, 1.0), (2.0, np.pi - edge * scale)):
            if refused:
                with pytest.raises(sf.ConfigError, match="< floor 1.000e-03$"):
                    sf.SphericalGrid(*bounds, 0.0, 1.0, 5, 5)
            else:
                sf.SphericalGrid(*bounds, 0.0, 1.0, 5, 5)


def test_the_spacing_floor_is_a_constant():
    # h_phi min sin(theta) >= SPACING_FLOOR, refused by the key that sets
    # the far end of phi's span
    assert sf.grid.SPACING_FLOOR == 1e-50
    lo = np.sin(1.0)
    for scale, refused in ((1.0 + 1e-9, False), (1.0 - 1e-9, True)):
        phi_max = 4.0 * 1e-50 / lo * scale  # 5 nodes, h_phi = phi_max / 4
        if refused:
            with pytest.raises(sf.ConfigError, match="grid spacing") as err:
                sf.SphericalGrid(1.0, 2.0, 0.0, phi_max, 5, 5)
            assert err.value.key == "phi_max"
        else:
            sf.SphericalGrid(1.0, 2.0, 0.0, phi_max, 5, 5)


def test_periodic_grid_drops_duplicate_node():
    g = sf.SphericalGrid(1.0, 2.0, 0.0, 2 * np.pi, 5, 8, phi_periodic=True)
    assert g.h_phi == pytest.approx(2 * np.pi / 8)
    assert g.phis[-1] < 2 * np.pi


def test_boundary_and_interior_full_patch():
    g = sf.SphericalGrid(1.0, 2.0, 0.0, 1.0, 5, 4)
    b = g.boundary_mask
    assert b[0].all() and b[-1].all() and b[:, 0].all() and b[:, -1].all()
    assert not b[1:-1, 1:-1].any()
    assert np.array_equal(g.interior_mask, ~b & g.mask_array)


def test_boundary_with_mask_hole():
    mask = np.ones((7, 7), dtype=bool)
    mask[3, 3] = False
    g = sf.SphericalGrid(1.0, 2.0, 0.0, 1.0, 7, 7, mask=mask)
    b = g.boundary_mask
    # neighbors of the hole become boundary nodes
    assert b[2, 3] and b[4, 3] and b[3, 2] and b[3, 4]
    assert not g.interior_mask[3, 3]


def test_field_shape_check():
    g = sf.SphericalGrid(1.0, 2.0, 0.0, 1.0, 5, 4)
    with pytest.raises(GridError):
        sf.ScalarField(g, np.zeros((4, 5)))
    f = sf.ScalarField.constant(g, 2.5)
    assert f.values.shape == (5, 4)
    assert np.all(f.values == 2.5)


def test_stencil_table_holds_edge_nodes_only():
    n = 129
    g = sf.SphericalGrid(np.pi / 3, 2 * np.pi / 3, 0.0, np.pi / 2, n, n)
    for nodes, idx, w1 in g.stencils:
        assert nodes.size <= 4 * n
        assert idx.shape == w1.shape == (3, nodes.size)


def test_grid_refuses_bad_phi_span_and_masks():
    with pytest.raises(sf.ConfigError, match="phi_min < phi_max") as err:
        sf.SphericalGrid(1.0, 2.0, 1.0, 1.0, 5, 5)
    assert err.value.key == "phi_max"
    with pytest.raises(GridError, match=r"mask shape \(4, 5\) != grid shape \(5, 5\)"):
        sf.SphericalGrid(1.0, 2.0, 0.0, 1.0, 5, 5, mask=np.ones((4, 5), dtype=bool))
    with pytest.raises(GridError, match="mask selects no nodes"):
        sf.SphericalGrid(1.0, 2.0, 0.0, 1.0, 5, 5, mask=np.zeros((5, 5), dtype=bool))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(periodic=st.booleans(), n_theta=st.integers(3, 12),
       n_phi=st.integers(3, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_every_mask_has_boundary_nodes(periodic, n_theta, n_phi, seed):
    # the masked nodes of the lowest masked theta row have no -theta
    # neighbour, so a grid (whose mask is never empty) always has boundary
    # nodes for a Dirichlet datum
    rng = np.random.default_rng(seed)
    mask = rng.random((n_theta, n_phi)) < rng.uniform(0.05, 1.0)
    mask[rng.integers(n_theta), rng.integers(n_phi)] = True
    span = (0.0, 2 * np.pi) if periodic else (0.0, 1.0)
    g = sf.SphericalGrid(1.0, 2.0, *span, n_theta, n_phi, mask=mask,
                         phi_periodic=periodic)
    low = np.flatnonzero(mask.any(axis=1))[0]
    assert g.closed_sides[1][low][mask[low]].all()
    assert g.boundary_mask[low][mask[low]].all()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(periodic=st.booleans(), n_theta=st.integers(3, 14),
       n_phi=st.integers(3, 14), seed=st.integers(0, 2 ** 32 - 1))
def test_interior_labels_match_a_breadth_first_search(periodic, n_theta, n_phi, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((n_theta, n_phi)) < rng.uniform(0.4, 1.0)
    mask[rng.integers(n_theta), rng.integers(n_phi)] = True
    span = (0.0, 2 * np.pi) if periodic else (0.0, 1.0)
    g = sf.SphericalGrid(1.0, 2.0, *span, n_theta, n_phi, mask=mask,
                         phi_periodic=periodic)
    assert np.array_equal(g.interior_labels, bfs_interior_labels(g))


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n_theta, n_phi", [(3, 3), (9, 14), (17, 17)])
def test_unmasked_interior_is_one_component(periodic, n_theta, n_phi):
    # an unmasked patch or ring is labelled from its interior mask alone
    span = (0.0, 2 * np.pi) if periodic else (0.0, 1.0)
    g = sf.SphericalGrid(1.0, 2.0, *span, n_theta, n_phi, phi_periodic=periodic)
    labels = g.interior_labels
    assert labels.dtype == np.intp and labels.max() == 1
    assert np.array_equal(labels, bfs_interior_labels(g))


def test_periodic_ring_cut_twice_has_two_arcs():
    # one cut leaves a single band closed through phi = 0 = 2*pi; a second
    # cut splits it into two arcs, the second of them across the seam
    mask = np.ones((9, 24), dtype=bool)
    mask[:, 5:7] = False
    g = sf.SphericalGrid(np.pi / 3, 2 * np.pi / 3, 0.0, 2 * np.pi, 9, 24,
                         mask=mask, phi_periodic=True)
    assert g.interior_labels.max() == 1
    mask[:, 15:17] = False
    g = sf.SphericalGrid(np.pi / 3, 2 * np.pi / 3, 0.0, 2 * np.pi, 9, 24,
                         mask=mask, phi_periodic=True)
    labels = g.interior_labels
    assert labels.max() == 2
    assert np.all(labels[1:-1, 1:4] == 1) and np.all(labels[1:-1, 18:23] == 1)
    assert np.all(labels[1:-1, 8:14] == 2)
    assert np.all(labels[~g.interior_mask] == 0)
