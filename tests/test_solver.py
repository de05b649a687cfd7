import logging
import warnings

import numpy as np
import pytest

from helpers import SMALL_PATCH, WIDE_PATCH, observed_orders

import sphereflow as sf
from sphereflow import (
    BVProblem,
    GasModel,
    ScalarField,
    SphericalGrid,
    linear_solve,
)


def test_linear_solve_identity():
    calls = []

    def op(x):
        calls.append(1)
        return x

    rhs = np.array([3.0, -1.0, 2.5])
    x, matvecs, outcome = linear_solve(op, rhs, tol=1e-12, max_iter=50)
    np.testing.assert_allclose(x, rhs, rtol=1e-12)
    assert outcome == "converged"
    assert matvecs == len(calls) <= 3  # one residual, one Krylov step, one verify


def test_linear_solve_diagonal():
    n = 50
    d = np.arange(1.0, n + 1.0)

    def op(x):
        return d * x

    x, _, outcome = linear_solve(op, np.ones(n), tol=1e-12, max_iter=500,
                                 precondition=lambda v: v / d)
    np.testing.assert_allclose(x, 1.0 / d, rtol=1e-10)
    assert outcome == "converged"


def test_linear_solve_singular_operator():
    # zero row: no solution, the solve must say it failed
    def op(x):
        out = 2.0 * x
        out[0] = 0.0
        return out

    _, _, outcome = linear_solve(op, np.ones(8), tol=1e-12, max_iter=200)
    assert outcome in ("max_iter", "breakdown")


def test_singular_operator_keeps_a_finite_best_iterate():
    # the Krylov space of the zero-row operator stops growing after two
    # matvecs, with b[0] out of reach: the failed solve returns a
    # least-squares iterate, which matches b off row 0, with residual 1
    def op(x):
        out = 2.0 * x
        out[0] = 0.0
        return out

    b = np.ones(8)
    best, _, outcome = linear_solve(op, b, tol=1e-12, max_iter=200)
    assert outcome in ("max_iter", "breakdown")
    assert np.all(np.isfinite(best))
    np.testing.assert_allclose(b - op(best), np.eye(8)[0], atol=1e-12)
    assert np.linalg.norm(b - op(best)) == pytest.approx(1.0, rel=1e-9)


def test_zero_operator_breaks_down_after_one_matvec():
    # the zero start takes r = b without a matvec; the first Krylov matvec
    # gives a zero Hessenberg column, so the space cannot grow and the
    # zero start is the best iterate; a non-finite matvec or right-hand
    # side breaks down the same way
    b = np.arange(1.0, 9.0)
    for op, rhs in ((np.zeros_like, b), (lambda x: np.nan * x, b),
                    (lambda x: 2.0 * x, np.where(b > 7.0, np.nan, b))):
        calls = []

        def counted(x):
            calls.append(x.copy())
            return op(x)

        x, matvecs, outcome = linear_solve(counted, rhs, tol=1e-12, max_iter=50)
        assert outcome == "breakdown"
        assert matvecs == len(calls) == 1
        assert np.array_equal(x, np.zeros(b.size))


def test_linear_solve_zero_rhs():
    x, matvecs, outcome = linear_solve(lambda v: 3.0 * v, np.zeros(5),
                                       tol=1e-12, max_iter=10)
    assert np.all(x == 0.0)
    assert (matvecs, outcome) == (0, "converged")


def test_restarted_gmres_gives_up_on_a_stalled_cycle():
    # on the cyclic shift, the Krylov space of e_0 shifted 50 times is
    # orthogonal to e_0, so GMRES(50) makes no progress at all: the first
    # cycle keeps the whole residual and the solve returns its best
    # iterate, zero, instead of restarting until max_iter
    n = sf.solver.GMRES_RESTART + 10
    calls = []

    def shift(x):
        calls.append(1)
        return np.roll(x, 1)

    x, matvecs, outcome = linear_solve(shift, np.eye(n)[0], tol=1e-12,
                                       max_iter=1000)
    assert outcome == "max_iter"
    assert len(calls) == matvecs == sf.solver.GMRES_RESTART
    assert np.all(x == 0.0)


@pytest.mark.parametrize("max_iter", [0, 1, 50, 51, 52, 101, 157])
def test_linear_solve_applies_op_at_most_max_iter_times(max_iter):
    # restarts take a matvec for their true residual, counted against
    # max_iter like the Krylov steps; each cycle here cuts the residual
    # enough that only max_iter stops the solve
    d = np.linspace(1.0, 1e3, 300)
    calls = []

    def op(x):
        calls.append(1)
        return d * x

    _, matvecs, outcome = linear_solve(op, np.ones(d.size), tol=1e-15,
                                       max_iter=max_iter)
    assert outcome == "max_iter"
    assert max_iter - 1 <= len(calls) == matvecs <= max_iter


def test_solve_options_validation(gas_b4, wide_grid_33):
    prob = BVProblem(gas=gas_b4, grid=wide_grid_33,
                     boundary=ScalarField.constant(wide_grid_33, 2.0),
                     source=ScalarField.constant(wide_grid_33, 4.0))
    with pytest.raises(ValueError):
        sf.solve_dirichlet(prob, newton_tol=1e-15)
    with pytest.raises(ValueError):
        sf.solve_dirichlet(prob, max_newton=0)
    with pytest.raises(sf.ConfigError) as err:
        sf.solve_dirichlet(prob, newton_tol=float("nan"))
    assert err.value.key == "newton_tol"


def test_constant_solve(gas_b4, wide_grid_33):
    prob = BVProblem(gas=gas_b4, grid=wide_grid_33,
                     boundary=ScalarField.constant(wide_grid_33, 2.0),
                     source=ScalarField.constant(wide_grid_33, 4.0))
    phi, rep = sf.solve_dirichlet(prob)
    assert rep.converged
    assert rep.iterations <= 2
    assert np.abs(phi.values - 2.0).max() <= 1e-12
    # boundary nodes carry the datum bit-exactly
    bm = wide_grid_33.boundary_mask
    assert np.all(phi.values[bm] == 2.0)
    assert rep.final_certificate.passed


def test_manufactured_constant(gas_b4, wide_grid_33):
    exact = ScalarField.constant(wide_grid_33, 2.0)
    prob = sf.manufactured_problem(gas_b4, wide_grid_33, exact)
    im = wide_grid_33.interior_mask
    np.testing.assert_allclose(prob.source.values[im], 4.0, rtol=1e-14)
    assert np.all(prob.source.values[~im] == 0.0)  # the equation holds on the interior only
    phi, rep = sf.solve_dirichlet(prob)
    assert np.abs(phi.values - 2.0).max() <= 1e-12


def test_manufactured_smooth_discrete_exactness(gas_b4, wide_grid_33):
    exact = ScalarField.from_function(wide_grid_33,
                                      lambda th, ph: 2 + 0.1 * np.cos(th))
    prob = sf.manufactured_problem(gas_b4, wide_grid_33, exact)
    phi, rep = sf.solve_dirichlet(prob, newton_tol=1e-12)
    assert rep.converged
    assert np.abs(phi.values - exact.values).max() <= 1e-10


def test_manufactured_random_fields_recovered(wide_grid_33):
    # on every gamma branch: the pair_suite gases, at their levels but 2 at gamma = 2
    newton_tol = 1e-11
    for gamma, bernoulli, level in ((-1.0, 2.0, 1.5), (1.0, 4.0, 1.25),
                                    (1.4, 4.0, 1.4), (2.0, 4.0, 2.0)):
        gas = sf.GasModel(gamma, 1.0, bernoulli)
        rng = np.random.default_rng(4)
        for _ in range(3):
            a1, a2 = rng.uniform(-0.05, 0.05, size=2)
            exact = ScalarField.from_function(
                wide_grid_33,
                lambda th, ph: level + a1 * np.cos(th) + a2 * np.sin(th) * np.sin(ph))
            prob = sf.manufactured_problem(gas, wide_grid_33, exact)
            phi, rep = sf.solve_dirichlet(prob, newton_tol=newton_tol)
            assert np.abs(phi.values - exact.values).max() <= 100 * newton_tol, gamma


def test_manufactured_rejects_supersonic(gas_b4):
    g = SphericalGrid(np.pi / 2 - 0.12, np.pi / 2 + 0.12, 0.0, 0.2, 11, 5)
    f = ScalarField.from_function(g, lambda th, ph: 2.0 + (th - np.pi / 2))
    # every node is hyperbolic; the refusal names the node of max L^2 (the
    # last row, the first of it in flat order), not the first hyperbolic one
    with pytest.raises(sf.InadmissibleFieldError,
                       match=r"not elliptic at node \(10, 0\): L\^2 = 3\.956$"):
        sf.manufactured_problem(gas_b4, g, f)


def test_manufactured_rejects_vacuum(gas_b4, wide_grid_33):
    f = ScalarField.constant(wide_grid_33, 2.6)  # beyond sqrt(6)
    with pytest.raises(sf.InadmissibleFieldError):
        sf.manufactured_problem(gas_b4, wide_grid_33, f)


def test_problem_fields_must_live_on_the_grid(gas_b4, wide_grid_33):
    zero = ScalarField.constant(wide_grid_33, 0.0)
    other = ScalarField.constant(SphericalGrid(*WIDE_PATCH, 17, 17), 1.6)
    with pytest.raises(sf.GridError, match="do not live on the grid"):
        BVProblem(gas=gas_b4, grid=wide_grid_33, boundary=other, source=zero)
    with pytest.raises(sf.GridError, match="f_exact does not live"):
        sf.manufactured_problem(gas_b4, wide_grid_33, other)


@pytest.mark.parametrize("which, node, match", [
    ("boundary", (0, 3), r"boundary datum not finite at boundary node \(0, 3\)"),
    ("source", (8, 8), r"source not finite at interior node \(8, 8\)"),
], ids=["boundary", "source"])
def test_nan_boundary_datum_is_refused(gas_b4, wide_grid_33, which, node, match):
    fields = {"boundary": ScalarField.constant(wide_grid_33, 1.6),
              "source": ScalarField.constant(wide_grid_33, 0.0)}
    fields[which].values[node] = np.nan
    with pytest.raises(sf.GridError, match=match):
        BVProblem(gas=gas_b4, grid=wide_grid_33, **fields)


def test_mask_without_interior_nodes_is_refused(gas_b4):
    mask = np.zeros((9, 9), dtype=bool)
    mask[3:5, :] = True  # two theta rows: every node is on the boundary
    g = SphericalGrid(*WIDE_PATCH, 9, 9, mask=mask)
    prob = BVProblem(gas=gas_b4, grid=g, boundary=ScalarField.constant(g, 1.6),
                     source=ScalarField.constant(g, 0.0))
    with pytest.raises(sf.GridError, match="no interior nodes"):
        sf.solve_dirichlet(prob)


def _freestream_case(kind, a, n):
    """(grid, exact) of the uniform stream f = U . omega, |U| = 1.8, an exact
    solution with source 0 for the gas (2, 1, 4), whose Mach cone has a
    half-angle of 40.7 degrees: on the phi-periodic polar band
    [a, 0.6] x 8 nodes with U along the pole, on the band [0.2, 0.55] x
    (n - 1) nodes at incidence a, or on the geodesic disc of radius a
    about U = (pi/2, pi/4) in the box of half-width 1.05 a."""
    if kind == "polar":
        g = SphericalGrid(a, 0.6, 0.0, 2 * np.pi, n, 8, phi_periodic=True)
        return g, ScalarField(g, 1.8 * np.cos(g.theta_mesh))
    if kind == "incidence":
        g = SphericalGrid(0.2, 0.55, 0.0, 2 * np.pi, n, n - 1, phi_periodic=True)
        th, ph = g.theta_mesh, g.phi_mesh
        return g, ScalarField(g, 1.8 * (np.cos(a) * np.cos(th)
                                        + np.sin(a) * np.sin(th) * np.cos(ph)))
    w = 1.05 * a
    box = (np.pi / 2 - w, np.pi / 2 + w, np.pi / 4 - w, np.pi / 4 + w)
    plain = SphericalGrid(*box, n, n)
    cos_d = np.sin(plain.theta_mesh) * np.cos(plain.phi_mesh - np.pi / 4)  # cos of the arc to U
    g = SphericalGrid(*box, n, n, mask=cos_d >= np.cos(a))
    return g, ScalarField(g, 1.8 * cos_d)


@pytest.mark.parametrize("kind, a, bound", [
    ("polar", 0.2, 3e-6), ("polar", 0.3, 1e-6), ("polar", 0.4, 2e-7),
    ("incidence", 0.05, 2e-5), ("incidence", 0.1, 5e-5),
    ("disc", np.radians(39.0), 1e-4),
], ids=["polar-0.2", "polar-0.3", "polar-0.4", "incidence-0.05", "incidence-0.1",
        "disc-39"])
def test_freestream_inside_the_mach_cone(gas_b4, kind, a, bound):
    # the paper's delta-wing setting: a harmonic (Laplace-Beltrami) start is
    # hyperbolic on these bands, where Newton stagnated or reached a
    # spurious branch whose certificate fails, and inadmissible on the disc
    # (vacuum at node (5, 5)); the start at the constant mean state converges
    # on the elliptic branch in at most 5 steps, at second order
    errors = []
    for n in (17, 33) if kind != "disc" else (33,):
        g, exact = _freestream_case(kind, a, n)
        phi, rep = sf.solve_dirichlet(BVProblem(gas=gas_b4, grid=g, boundary=exact,
                                                source=ScalarField.constant(g, 0.0)))
        assert rep.converged and rep.iterations <= 5 and rep.final_certificate.passed
        errors.append(np.abs(phi.values - exact.values)[g.mask_array].max())
    assert errors[-1] <= bound
    assert min(observed_orders(errors), default=2.0) >= 1.9


def test_vacuum_boundary_data(wide_grid_33):
    gas = GasModel(2.0, 1.0, -10.0)
    prob = BVProblem(gas=gas, grid=wide_grid_33,
                     boundary=ScalarField.constant(wide_grid_33, 0.1),
                     source=ScalarField.constant(wide_grid_33, 0.0))
    # the start's own error, not a NonConvergenceError of the line search
    with pytest.raises(sf.VacuumError) as err:
        sf.solve_dirichlet(prob)
    assert type(err.value) is sf.VacuumError and err.value.node == (0, 0)
    assert str(err.value) == "initial iterate: vacuum at node (0, 0): c^2 = -4.005 <= 0"


def test_nonconvergence_payload(gas_b4):
    # boundary level too close to the vacuum ceiling: the homogeneous
    # solution runs supersonic and Newton must fail loudly
    g = SphericalGrid(*WIDE_PATCH, 17, 17)
    prob = BVProblem(gas=gas_b4, grid=g,
                     boundary=ScalarField.constant(g, 2.0),
                     source=ScalarField.constant(g, 0.0))
    with pytest.raises(sf.NonConvergenceError) as err:
        sf.solve_dirichlet(prob, max_newton=12)
    assert err.value.field is not None
    assert err.value.report is not None
    assert not err.value.report.converged


def test_newton_cap_attaches_field_and_report(gas_b4):
    g = SphericalGrid(*SMALL_PATCH, 17, 17)
    bnd = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.1 * np.cos(th))
    prob = BVProblem(gas=gas_b4, grid=g, boundary=bnd,
                     source=ScalarField.constant(g, 0.0))
    with pytest.raises(sf.NonConvergenceError) as err:
        sf.solve_dirichlet(prob, max_newton=1)
    report = err.value.report
    assert not report.converged and report.iterations == 1
    _assert_views_follow_the_steps(report)
    assert report.residual_history[1] < report.residual_history[0]
    np.testing.assert_array_equal(err.value.field.values[g.boundary_mask],
                                  bnd.values[g.boundary_mask])


def _assert_views_follow_the_steps(report):
    # iterations and residual_history are read from the NewtonStep records
    assert len(report.steps) == report.iterations == report.to_dict()["iterations"]
    assert len(report.residual_history) == len(report.steps) + 1
    assert report.residual_history == [report.initial_residual] + [
        step.residual for step in report.steps]


def test_report_views_match_its_json(gas_b4):
    # the two views a benchmark tracer reads agree with report.json
    g = SphericalGrid(*SMALL_PATCH, 17, 17)
    bnd = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.1 * np.cos(th))
    _, rep = sf.solve_dirichlet(BVProblem(gas=gas_b4, grid=g, boundary=bnd,
                                          source=ScalarField.constant(g, 0.0)))
    d = rep.to_dict()
    assert rep.converged and rep.iterations == d["iterations"] > 0
    assert rep.residual_history == d["residuals"]
    _assert_views_follow_the_steps(rep)
    assert [s.forcing for s in rep.steps] == d["forcing"]
    assert [s.inner_matvecs for s in rep.steps] == d["inner_matvecs"]
    assert [s.inner_outcome for s in rep.steps] == d["inner_outcome"]
    assert [s.step_length for s in rep.steps] == d["step_length"]


def test_residual_history_monotone(gas_b4):
    g = SphericalGrid(*SMALL_PATCH, 33, 33)
    bnd = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.05 * np.cos(th))
    prob = BVProblem(gas=gas_b4, grid=g, boundary=bnd,
                     source=ScalarField.constant(g, 0.0))
    phi, rep = sf.solve_dirichlet(prob)
    hist = rep.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert rep.converged and hist[-1] <= 1e-10


@pytest.mark.parametrize("n", [17, 33, 65])
def test_readme_scenario_converges_quadratically(gas_b4, n):
    # Newton on the exact Jacobian: a step count flat in n and residuals
    # that square once they are small
    g = SphericalGrid(*SMALL_PATCH, n, n)
    bnd = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.1 * np.cos(th))
    prob = BVProblem(gas=gas_b4, grid=g, boundary=bnd,
                     source=ScalarField.constant(g, 0.0))
    _, rep = sf.solve_dirichlet(prob)
    assert rep.converged and rep.iterations <= 6
    hist = rep.residual_history
    for r_old, r_new in zip(hist, hist[1:]):
        if r_new > 1e-9:
            assert r_new <= 10.0 * r_old ** 2


def _counting_inner_solves(monkeypatch):
    """Matvec count of every inner solve, in call order."""
    counts = []
    inner = sf.solver.linear_solve

    def counted(op, *args, **kwargs):
        counts.append(0)

        def matvec(x):
            counts[-1] += 1
            return op(x)

        return inner(matvec, *args, **kwargs)

    monkeypatch.setattr(sf.solver, "linear_solve", counted)
    return counts


def _notched_grid(n):
    mask = np.ones((n, n), dtype=bool)
    mask[:n // 4, :n // 4] = False  # corner notch
    return SphericalGrid(*SMALL_PATCH, n, n, mask=mask)


def _periodic_band():
    return SphericalGrid(np.pi / 3, 2 * np.pi / 3, 0.0, 2 * np.pi, 48, 64,
                         phi_periodic=True)


@pytest.mark.parametrize("n", [17, 33, 65])
def test_inner_solve_is_mesh_independent(gas_b4, monkeypatch, n):
    # the separable principal-part preconditioner keeps every inner solve
    # (the start and each Newton step) at a matvec count flat in n
    counts = _counting_inner_solves(monkeypatch)
    g = SphericalGrid(*SMALL_PATCH, n, n)
    bnd = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.1 * np.cos(th))
    _, rep = sf.solve_dirichlet(BVProblem(gas=gas_b4, grid=g, boundary=bnd,
                                          source=ScalarField.constant(g, 0.0)))
    assert rep.converged and len(counts) == rep.iterations + 1
    assert max(counts) <= 40
    assert counts[0] == 1  # exact inverse of the start's operator


@pytest.mark.parametrize("grid", [_notched_grid(65), _periodic_band()],
                         ids=["notched", "periodic"])
def test_inner_solve_bound_on_masked_and_periodic_grids(gas_b4, monkeypatch, grid):
    counts = _counting_inner_solves(monkeypatch)
    exact = ScalarField.from_function(
        grid, lambda th, ph: 1.55 + 0.05 * np.cos(2 * th)
        + 0.04 * np.sin(th) * np.sin(ph + 0.3))
    phi, rep = sf.solve_dirichlet(sf.manufactured_problem(gas_b4, grid, exact))
    assert rep.converged and len(counts) == rep.iterations + 1
    assert max(counts) <= 40
    assert np.abs(phi.values - exact.values).max() <= 1e-10


def test_newton_steps_logged_at_debug(gas_b4, caplog):
    g = SphericalGrid(*SMALL_PATCH, 17, 17)
    bnd = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.1 * np.cos(th))
    with caplog.at_level(logging.DEBUG, logger="sphereflow"):
        _, rep = sf.solve_dirichlet(BVProblem(gas=gas_b4, grid=g, boundary=bnd,
                                              source=ScalarField.constant(g, 0.0)))
    steps = [r for r in caplog.records if r.name.startswith("sphereflow")
             and r.levelno == logging.DEBUG]
    assert len(steps) == rep.iterations
    for k, (record, res) in enumerate(zip(steps, rep.residual_history[1:]), 1):
        msg = record.getMessage()
        assert msg.startswith(f"newton step {k}: residual {res:.3e}, lambda ")
        assert msg.endswith(" inner matvecs")


def test_solve_with_mask(gas_b4):
    mask = np.ones((21, 21), dtype=bool)
    mask[:6, :6] = False  # notch one corner
    g = SphericalGrid(*WIDE_PATCH, 21, 21, mask=mask)
    prob = BVProblem(gas=gas_b4, grid=g,
                     boundary=ScalarField.constant(g, 2.0),
                     source=ScalarField.constant(g, 4.0))
    phi, rep = sf.solve_dirichlet(prob)
    assert rep.converged
    assert np.abs(phi.values[g.mask_array] - 2.0).max() <= 1e-11


def test_disconnected_interior_warns(gas_b4):
    mask = np.ones((11, 11), dtype=bool)
    mask[5, :] = False  # split the patch into two bands
    g = SphericalGrid(*WIDE_PATCH, 11, 11, mask=mask)
    with pytest.warns(UserWarning):
        BVProblem(gas=gas_b4, grid=g,
                  boundary=ScalarField.constant(g, 2.0),
                  source=ScalarField.constant(g, 4.0))


def test_interior_joined_across_seam_does_not_warn(gas_b4):
    mask = np.ones((9, 12), dtype=bool)
    mask[:, 5:7] = False  # one band, closed up through phi = 0 = 2*pi
    g = SphericalGrid(np.pi / 3, 2 * np.pi / 3, 0.0, 2 * np.pi, 9, 12,
                      mask=mask, phi_periodic=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        BVProblem(gas=gas_b4, grid=g,
                  boundary=ScalarField.constant(g, 2.0),
                  source=ScalarField.constant(g, 4.0))


def test_report_to_dict(gas_b4, wide_grid_33):
    prob = BVProblem(gas=gas_b4, grid=wide_grid_33,
                     boundary=ScalarField.constant(wide_grid_33, 2.0),
                     source=ScalarField.constant(wide_grid_33, 4.0))
    phi, rep = sf.solve_dirichlet(prob)
    d = rep.to_dict()
    assert set(d) == {"converged", "iterations", "residuals", "certificate",
                      "forcing", "inner_matvecs", "inner_outcome",
                      "step_length", "stop_reason"}
    assert d["converged"] is True and d["stop_reason"] == "newton_tol"
    assert d["inner_outcome"] == ["converged"] * d["iterations"]
    assert d["step_length"] == [1.0] * d["iterations"]
    assert d["certificate"]["pass"] is True


def _readme_problem(gas, n):
    g = SphericalGrid(*SMALL_PATCH, n, n)
    bnd = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.1 * np.cos(th))
    return BVProblem(gas=gas, grid=g, boundary=bnd,
                     source=ScalarField.constant(g, 0.0))


@pytest.mark.parametrize("n", [193, 257])
def test_readme_scenario_stops_at_the_roundoff_floor(gas_b4, n):
    # newton_tol = 1e-10 lies below what double precision resolves at these
    # n: the solve stops where its steps stall at the residual's floor
    _, rep = sf.solve_dirichlet(_readme_problem(gas_b4, n))
    assert rep.converged and rep.iterations <= 7
    assert rep.stop_reason in ("newton_tol", "roundoff_floor")
    assert rep.residual_history[-1] <= 1e-9


@pytest.mark.parametrize("n", [33, 65, 129])
def test_inner_solve_total_is_flat_in_n(gas_b4, monkeypatch, n):
    # Eisenstat-Walker forcing: early inner solves stop at a loose tolerance,
    # so the whole solve, its start included, stays cheap
    counts = _counting_inner_solves(monkeypatch)
    _, rep = sf.solve_dirichlet(_readme_problem(gas_b4, n))
    assert rep.converged and rep.stop_reason == "newton_tol"
    assert sum(counts) <= 60
    assert [s.inner_matvecs for s in rep.steps] == counts[1:]
    assert rep.steps[0].forcing == sf.solver.FORCING_MAX
    assert all(1e-12 <= s.forcing <= 0.5 for s in rep.steps)


def test_stagnation_names_the_worst_node(gas_b4, monkeypatch):
    n = 65
    mask = np.ones((n, n), dtype=bool)
    mask[:16, :16] = False
    g = SphericalGrid(*SMALL_PATCH, n, n, mask=mask)
    bnd = ScalarField.from_function(
        g, lambda th, ph: 1.6 + 0.1 * np.cos(th) + 0.02 * np.sin(th) * np.sin(ph))
    prob = BVProblem(gas=gas_b4, grid=g, boundary=bnd,
                     source=ScalarField.constant(g, 0.0))
    searched = []  # the interior residual each line search starts from
    search = sf.solver._line_search

    def spied(phi, delta, idx, r, *rest):
        searched.append(np.linalg.norm(r))
        return search(phi, delta, idx, r, *rest)

    monkeypatch.setattr(sf.solver, "_line_search", spied)
    with pytest.raises(sf.NonConvergenceError, match="stagnated") as err:
        sf.solve_dirichlet(prob)
    report = err.value.report
    assert not report.converged and report.iterations <= 15
    assert len(report.residual_history) == report.iterations + 1
    assert err.value.field is not None
    r = np.where(g.interior_mask,
                 np.abs(sf.flow_residual(gas_b4, err.value.field).values), 0.0)
    i, j = np.unravel_index(np.argmax(r), r.shape)
    assert str(err.value).endswith(f"max at node ({i}, {j})")
    # the attached field is the last accepted iterate: every accepted step
    # lowered ||r||_2, from the start's on, though not its sup norm
    r_last = sf.flow_residual(gas_b4, err.value.field).values[g.interior_mask]
    assert len(searched) == report.iterations
    assert searched == sorted(searched, reverse=True)
    assert np.linalg.norm(r_last) < searched[-1]


def test_preconditioner_is_built_once_per_solve(gas_b4, monkeypatch):
    # one build, for the start's shift min(k, 0) with k = 2 (1 - z^2/c^2) at
    # the mean datum z, serves the start and every Newton step, whatever the
    # step count; both modules are watched, so a build moved back into
    # flow_jacobian is counted too
    builds = []
    build = sf.operators.principal_preconditioner

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(sf.operators, "principal_preconditioner", counted)
    monkeypatch.setattr(sf.solver, "principal_preconditioner", counted)
    prob = _readme_problem(gas_b4, 33)
    _, rep = sf.solve_dirichlet(prob)
    assert rep.converged and rep.iterations >= 5
    z = float(np.mean(prob.boundary.values[prob.grid.boundary_mask]))
    c2 = sf.gas.bernoulli_density(gas_b4, np.array(gas_b4.head(0.0, z)), False)[1]
    k = 2.0 * (1.0 - z * z / c2)
    assert k < 0.0 and builds == [(prob.grid, k)]


def _spied_jacobian(grid, seen):
    """flow_jacobian on grid at the constant state z = 2 of the gas
    (2, 1, 10), where c^2 = 4 and k = 2 (1 - z^2/c^2) = 0, so its apply is
    rho Delta_h; records whether each argument is zero off the interior."""
    jacobian = sf.flow_jacobian(GasModel(2.0, 1.0, 10.0), ScalarField.constant(grid, 2.0))

    def apply_full(v):
        seen.append(not np.any(v[~grid.interior_mask]))
        return jacobian(v)
    return apply_full


def test_interior_solve_is_exact_with_the_unshifted_preconditioner():
    # the grid's unshifted preconditioner inverts the Jacobian at a
    # constant state with k = 0 on a plain patch: its Dirichlet problem
    # takes at most 3 matvecs, each applied to zeros off the interior
    g = SphericalGrid(*SMALL_PATCH, 33, 33)
    im, seen = g.interior_mask, []
    datum = np.where(im, 0.0, 1.6 + 0.1 * np.cos(g.theta_mesh) * np.sin(3 * g.phi_mesh))
    reference = _spied_jacobian(g, [])
    rhs = -reference(datum)[im]
    x, matvecs, outcome = sf.interior_solve(g, _spied_jacobian(g, seen), rhs, 1e-12, 50,
                                            sf.operators.principal_preconditioner(g, 0.0))
    assert outcome == "converged" and 1 <= matvecs <= 3 and len(seen) == matvecs
    assert all(seen)
    full = datum.copy()
    full[im] = x
    residual = reference(full)[im]
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)


def test_interior_solve_gives_its_best_iterate_at_max_iter():
    # one matvec cannot reach the target on a notched grid, where the
    # preconditioner is not exact: the outcome says so and x is finite
    g, seen = _notched_grid(33), []
    rhs = np.ones(int(g.interior_mask.sum()))
    x, matvecs, outcome = sf.interior_solve(g, _spied_jacobian(g, seen), rhs, 1e-12, 1,
                                            sf.operators.principal_preconditioner(g, 0.0))
    assert (outcome, matvecs, seen) == ("max_iter", 1, [True])
    assert x.shape == rhs.shape and np.all(np.isfinite(x)) and np.any(x)


@pytest.mark.parametrize("max_iter", [7, 5000])
@pytest.mark.parametrize("holed", [False, True], ids=["plain", "holed"])
def test_interior_solve_counts_every_apply_full_call(gas_b4, holed, max_iter):
    # the returned matvecs is linear_solve's own count: it must equal the
    # apply_full calls, whether the solve converges or stops at max_iter
    if holed:
        g = _holed_problem(gas_b4, 33, 2)[0].grid
    else:
        g = SphericalGrid(*WIDE_PATCH, 33, 33)
    jacobian = sf.flow_jacobian(gas_b4, ScalarField.from_function(
        g, lambda th, ph: 2 + 0.1 * np.cos(th) + 0.03 * np.sin(th) * np.cos(2 * ph)))
    calls = []

    def apply_full(v):
        calls.append(1)
        return jacobian(v)

    rhs = np.ones(int(g.interior_mask.sum()))
    _, matvecs, outcome = sf.interior_solve(g, apply_full, rhs, 1e-12, max_iter,
                                            sf.operators.principal_preconditioner(g, 0.0))
    assert outcome == ("max_iter" if max_iter == 7 else "converged")
    assert matvecs == len(calls) > 1


def test_flow_state_is_evaluated_once_per_iterate(gas_b4, monkeypatch):
    # one field_density per residual evaluation, and one for the start's
    # constant state: the accepted iterate's state also feeds its Jacobian
    # and its roundoff floor, and the preconditioner needs none
    calls = []
    density = sf.operators.field_density

    def counted(*args):
        calls.append(args)
        return density(*args)

    monkeypatch.setattr(sf.operators, "field_density", counted)
    monkeypatch.setattr(sf.solver, "field_density", counted)
    _, rep = sf.solve_dirichlet(_readme_problem(gas_b4, 33))
    assert rep.converged and rep.iterations >= 5
    assert all(s.step_length == 1.0 for s in rep.steps)  # one residual a step
    assert len(calls) == len(rep.residual_history) + 1
    # the public Jacobian still evaluates the state itself
    sf.flow_jacobian(gas_b4, ScalarField.constant(_readme_problem(gas_b4, 9).grid, 1.6))
    assert len(calls) == len(rep.residual_history) + 2


@pytest.mark.parametrize("n, empty_rows", [
    pytest.param(33, 0, id="33"),
    pytest.param(65, 0, id="65"),
    *(pytest.param(33, k, id=f"33-split{k}") for k in (1, 2, 3)),
])
def test_reused_preconditioner_keeps_the_inner_total(gas_b4, n, empty_rows):
    # the unit-density preconditioner, built once, serves every step: 20
    # and 22 inner matvecs in all at n = 33 and 65, and 28-35 on the 33^2
    # patch split in two by 1-3 empty theta rows from row 16
    prob = _readme_problem(gas_b4, n)
    if empty_rows:
        mask = np.ones((n, n), dtype=bool)
        mask[n // 2:n // 2 + empty_rows] = False
        g = SphericalGrid(*SMALL_PATCH, n, n, mask=mask)
        with pytest.warns(UserWarning, match="disconnected"):
            prob = BVProblem(gas=gas_b4, grid=g, boundary=ScalarField(
                g, prob.boundary.values), source=ScalarField.constant(g, 0.0))
    _, rep = sf.solve_dirichlet(prob)
    assert rep.converged and rep.iterations <= 6
    assert sum(s.inner_matvecs for s in rep.steps) <= 40
    assert all(s.inner_outcome == "converged" for s in rep.steps)


def test_roundoff_floor_stop_takes_one_residual(gas_b4, monkeypatch):
    # newton_tol = 1e-14 lies below the floor at 33^2: the full step that
    # fails to lower the residual there ends the line search at once,
    # instead of MAX_DAMPING more halvings
    evals = []
    search = sf.solver._line_search

    def counted(phi, delta, idx, res, interior_residual, *rest):
        evals.append(0)

        def residual(f):
            evals[-1] += 1
            return interior_residual(f)

        return search(phi, delta, idx, res, residual, *rest)

    monkeypatch.setattr(sf.solver, "_line_search", counted)
    _, rep = sf.solve_dirichlet(_readme_problem(gas_b4, 33), newton_tol=1e-14)
    assert rep.converged and rep.stop_reason == "roundoff_floor"
    assert rep.residual_history[-1] > 1e-14
    assert evals[-1] <= 2


def test_failed_inner_solve_is_recorded(gas_b4, caplog, monkeypatch):
    # a LIN_MAX_ITER too small for the forcing term: Newton goes on with
    # the best iterate, and the report and DEBUG lines say which steps did
    monkeypatch.setattr(sf.solver, "LIN_MAX_ITER", 2)
    with caplog.at_level(logging.DEBUG, logger="sphereflow"):
        _, rep = sf.solve_dirichlet(_readme_problem(gas_b4, 17))
    assert rep.converged
    outcomes = [s.inner_outcome for s in rep.steps]
    assert "max_iter" in outcomes
    assert set(outcomes) <= {"converged", "max_iter"}
    assert rep.to_dict()["inner_outcome"] == outcomes
    steps = [r.getMessage() for r in caplog.records
             if r.name == "sphereflow.solver" and r.levelno == logging.DEBUG]
    assert len(steps) == rep.iterations
    assert all(f"inner solve {outcome}," in msg
               for outcome, msg in zip(outcomes, steps))


def test_start_goes_on_from_its_best_iterate(gas_b4, monkeypatch):
    # a LIN_MAX_ITER too small for the start's inner solve on a notched
    # grid, where its preconditioner is not exact: the start keeps its best
    # iterate, as a Newton step does, and Newton goes on from it; at one
    # matvec that iterate is inadmissible, and the solve names the node
    mask = np.ones((33, 33), dtype=bool)
    mask[:8, :8] = False
    g = SphericalGrid(*SMALL_PATCH, 33, 33, mask=mask)
    bnd = ScalarField.from_function(g, lambda th, ph: 1.6 + 0.1 * np.cos(th))
    prob = BVProblem(gas=gas_b4, grid=g, boundary=bnd,
                     source=ScalarField.constant(g, 0.0))
    outcomes, inner = [], sf.solver.interior_solve

    def spied(*args):
        x, matvecs, outcome = inner(*args)
        outcomes.append(outcome)
        return x, matvecs, outcome

    monkeypatch.setattr(sf.solver, "interior_solve", spied)
    monkeypatch.setattr(sf.solver, "LIN_MAX_ITER", 2)
    _, rep = sf.solve_dirichlet(prob)
    assert rep.converged and outcomes[0] == "max_iter"
    monkeypatch.setattr(sf.solver, "LIN_MAX_ITER", 1)
    with pytest.raises(sf.VacuumError) as err:
        sf.solve_dirichlet(prob)
    assert type(err.value) is sf.VacuumError and err.value.node == (5, 8)
    assert str(err.value) == "initial iterate: vacuum at node (5, 8): c^2 = -0.00934809 <= 0"


def test_linear_solve_never_applies_op_to_zeros(gas_b4, monkeypatch):
    # a zero start takes r = b without a matvec, in the unit tests' solves
    # and in every inner solve of a Newton solve
    zero_calls = []

    def spied(op):
        def matvec(x):
            zero_calls.append(not np.any(x))
            return op(x)
        return matvec

    d = np.linspace(1.0, 4.0, 12)
    linear_solve(spied(lambda v: d * v), np.ones(12), tol=1e-12, max_iter=50)
    inner = sf.solver.linear_solve
    monkeypatch.setattr(sf.solver, "linear_solve",
                        lambda op, *args, **kw: inner(spied(op), *args, **kw))
    _, rep = sf.solve_dirichlet(_readme_problem(gas_b4, 17))
    assert rep.converged and len(zero_calls) > 2 * rep.iterations
    assert not any(zero_calls)


def test_tolerance_of_one_returns_zeros_without_a_matvec():
    # the zero start meets a relative tolerance >= 1 at once, and its
    # residual is the right-hand side: the zero iterate is returned with
    # no matvec at all
    seen = []

    def op(x):
        seen.append(x.copy())
        return 2.0 * x

    for tol in (1.0, 3.0):
        x, matvecs, outcome = linear_solve(op, np.arange(1.0, 6.0), tol=tol,
                                           max_iter=10)
        assert np.array_equal(x, np.zeros(5))
        assert (matvecs, outcome) == (0, "converged")
    assert seen == []


def test_flow_states_are_not_evaluated_again_for_the_certificate(gas_b4, monkeypatch):
    # the final certificate reads the converged iterate's state, and a
    # manufactured problem's source reads the state of its exact field
    calls, residuals = [], []
    density, residual = sf.operators.field_density, sf.operators.flow_residual

    def counted(*args):
        calls.append(args)
        return density(*args)

    def counted_residual(*args, **kwargs):
        residuals.append(args)
        return residual(*args, **kwargs)

    for module in (sf.operators, sf.solver, sf.ellipticity):
        monkeypatch.setattr(module, "field_density", counted)
    monkeypatch.setattr(sf.solver, "flow_residual", counted_residual)
    _, rep = sf.solve_dirichlet(_readme_problem(gas_b4, 33))
    assert rep.converged and rep.final_certificate.passed
    assert len(calls) == len(residuals) >= len(rep.residual_history)
    g = SphericalGrid(*WIDE_PATCH, 17, 17)
    calls.clear()
    sf.manufactured_problem(gas_b4, g, ScalarField.from_function(
        g, lambda th, ph: 2.0 + 0.1 * np.cos(th)))
    assert len(calls) == 1


def _holed_problem(gas, n, d):
    """The wide patch with a centred square hole of side 2 floor(k/2) nodes,
    k = floor((n - 1)/d), and the manufactured source of a nearly linear
    exact field (interior max L^2 = 0.014)."""
    h, c = (n - 1) // d // 2, n // 2
    mask = np.ones((n, n), dtype=bool)
    mask[c - h:c + h, c - h:c + h] = False
    g = SphericalGrid(*WIDE_PATCH, n, n, mask=mask)
    exact = ScalarField.from_function(
        g, lambda th, ph: 2 + 0.1 * np.cos(th) + 0.03 * np.sin(th) * np.cos(2 * ph))
    return sf.manufactured_problem(gas, g, exact), exact


@pytest.mark.parametrize("n, d", [(129, 2), (193, 3)])
def test_holed_wide_patch_converges(gas_b4, n, d):
    # steps accepted on the sup norm of the residual stalled here: an inner
    # solve to a relative 2-norm eta need not lower the sup norm at any
    # step length, while it always lowers the 2-norm the line search uses
    prob, exact = _holed_problem(gas_b4, n, d)
    phi, rep = sf.solve_dirichlet(prob)
    assert rep.converged and rep.stop_reason == "newton_tol"
    assert rep.iterations <= 7
    assert np.abs(phi.values - exact.values).max() <= 1e-10


def _true_residual_ratios(monkeypatch):
    """||b - op(x)|| / (tol ||b||) of every converged inner solve."""
    ratios = []
    inner = sf.solver.linear_solve

    def checked(op, rhs, tol, *args, **kwargs):
        x, matvecs, outcome = inner(op, rhs, tol, *args, **kwargs)
        if outcome == "converged":
            ratios.append(np.linalg.norm(rhs - op(x)) / (tol * np.linalg.norm(rhs)))
        return x, matvecs, outcome

    monkeypatch.setattr(sf.solver, "linear_solve", checked)
    return ratios


@pytest.mark.parametrize("case", ["33", "65", "97", "129", "holed-129"])
def test_inner_solves_meet_their_target_without_a_check(gas_b4, monkeypatch, case):
    # GMRES returns on its least-squares residual, with no verification
    # matvec: that residual must be the true one of the returned iterate
    ratios = _true_residual_ratios(monkeypatch)
    if case.startswith("holed"):
        prob = _holed_problem(gas_b4, 129, 2)[0]
    else:
        prob = _readme_problem(gas_b4, int(case))
    _, rep = sf.solve_dirichlet(prob)
    assert rep.converged and len(ratios) == rep.iterations + 1
    assert max(ratios) <= 1.0 + 1e-9


def test_line_search_exits_name_their_cause(gas_b4, monkeypatch):
    # the 65^2 corner-notched problem that stagnates with the default
    # damping: one halving finds no admissible iterate, and after a first
    # step at lambda = 1/8, four find admissible ones, none of which lowers
    # the residual; both end in a NonConvergenceError
    n = 65
    mask = np.ones((n, n), dtype=bool)
    mask[:16, :16] = False
    g = SphericalGrid(*SMALL_PATCH, n, n, mask=mask)
    bnd = ScalarField.from_function(
        g, lambda th, ph: 1.6 + 0.1 * np.cos(th) + 0.02 * np.sin(th) * np.sin(ph))
    prob = BVProblem(gas=gas_b4, grid=g, boundary=bnd,
                     source=ScalarField.constant(g, 0.0))
    monkeypatch.setattr(sf.solver, "MAX_DAMPING", 1)
    with pytest.raises(sf.NonConvergenceError, match=r"line search found no admissible "
                       r"iterate \(vacuum at node \(15, 16\): c\^2 = ") as err:
        sf.solve_dirichlet(prob)
    refusal = err.value.__cause__  # the smallest step's own error
    assert type(refusal) is sf.VacuumError and refusal.node == (15, 16)
    assert err.value.report.iterations == 0
    monkeypatch.setattr(sf.solver, "MAX_DAMPING", 4)
    with pytest.raises(sf.NonConvergenceError,
                       match="line search stalled at .* above its roundoff floor") as err:
        sf.solve_dirichlet(prob)
    report = err.value.report
    assert not report.converged and report.iterations == 1
    _assert_views_follow_the_steps(report)


def test_forcing_safeguard_keeps_a_loose_term_loose(gas_b4, monkeypatch):
    # Kelley's safeguard: after a forcing term above 1/3, the next may not
    # drop below FORCING_MAX however much the residual fell
    assert sf.solver._forcing([1.0, 1e-3], [0.5], 1e-10) == sf.solver.FORCING_MAX
    assert sf.solver._forcing([1.0, 1e-3], [0.3], 1e-10) == pytest.approx(9e-7)
    # LIN_TOL = 0.5 floors every term there, so each step after the first
    # reaches the safeguard; Newton still converges, on one matvec a step
    monkeypatch.setattr(sf.solver, "LIN_TOL", 0.5)
    _, rep = sf.solve_dirichlet(_readme_problem(gas_b4, 17))
    assert rep.converged and rep.iterations > 1
    assert all(s.forcing == 0.5 for s in rep.steps)
