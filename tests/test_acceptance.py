"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
execute.  Every tolerance is pinned here, not configurable.  Criteria 1-4
read the paper's algebra through the array readers the CLI runs; where a
criterion needs the paper's matrices as a reference, they are written out
in it.
"""

import numpy as np

from helpers import (
    WIDE_PATCH,
    bernoulli_state,
    excess,
    expanded_residual,
    fd_hessian,
    fields_with_states,
    flux_laplacian,
    mean_values_at,
    observed_orders,
    principal_matrix,
    random_admissible_states,
    random_gas,
    random_gas_with_supersonic_radial,
    reference_bernoulli,
)

import sphereflow as sf
from sphereflow import (
    BVProblem,
    Dichotomy,
    GasModel,
    ScalarField,
    SphericalGrid,
)
from sphereflow.ellipticity import _form_minima, field_readings

GAMMAS = (-1.0, 0.0, 1.0, 1.4, 2.0, 3.0)


def check(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_eigenvalue_ratio_identity():
    # the certificate's ratio_max and field_readings' L^2 of fields whose
    # nodes carry 1000 elliptic states (20 per gas), against the eigenvalues
    # of the paper's principal matrix with c^2 from the reference gas law
    rng = np.random.default_rng(101)
    worst = 0.0
    for count in range(50):
        gas = random_gas(rng, GAMMAS[count % len(GAMMAS)])
        q1, q2, z = state = random_admissible_states(rng, gas, (4, 5), elliptic=True)
        with fields_with_states(state) as (f,):
            cert = sf.certify_uniform_ellipticity(gas, f)
            _, l2, _, _ = field_readings(f, sf.field_density(gas, f))
        c2 = reference_bernoulli(gas, q1 * q1 + q2 * q2, z)[1]
        brute = np.array([np.divide(*np.linalg.eigvalsh(principal_matrix(
            c2[i, j], q1[i, j], q2[i, j]))[::-1]) for i, j in np.ndindex(4, 5)])
        analytic = 1.0 / (1.0 - l2.ravel())
        worst = max(worst, np.abs((brute - analytic) / analytic).max(),
                    abs(cert.ratio_max - brute.max()) / brute.max())
    check(1, worst <= 1e-12,
          f"1000 elliptic states, worst relative error {worst:.2e}")


def test_criterion_2_convexity_hessian():
    rng = np.random.default_rng(102)
    worst = 0.0
    for gamma in GAMMAS:
        gas = GasModel(gamma, 1.0, 4.0)
        for _ in range(5):
            H = fd_hessian(lambda x: excess(gas, x), rng.normal(size=3))
            worst = max(worst, np.abs(H - (gamma + 1.0) * np.eye(3)).max())
    # at dyadic states and steps every operation is exact, so the Chaplygin
    # excess, the constant B - c0^2, has second differences of exactly zero
    chap = GasModel(-1.0, 1.0, 4.0)
    exact_zero = all(np.array_equal(fd_hessian(lambda x: excess(chap, x),
                                               rng.integers(-64, 64, 3) / 64.0, h=2.0 ** -6),
                                    np.zeros((3, 3))) for _ in range(5))
    check(2, worst <= 1e-6 and exact_zero,
          f"FD Hessian error {worst:.2e}; Chaplygin Hessian exactly zero: "
          f"{exact_zero}")


def comparison_matrix(gas, q1, q2, z):
    """The paper's comparison matrix at one state: the flux Jacobian of
    A = rho q and B = 2 rho z with its last column weighted by -1/2, in its
    c^2 = rho^(gamma-1) closed form."""
    rho, c2 = (float(x[0, 0]) for x in bernoulli_state(gas, q1, q2, z))
    return rho / c2 * np.array([[c2 - q1 * q1, -q1 * q2, q1 * z],
                                [-q1 * q2, c2 - q2 * q2, q2 * z],
                                [-q1 * z, -q2 * z, z * z - c2]])


def test_criterion_3_matrix_bound_and_positivity():
    # _form_minima, the segment check's witness, bounds the form of the
    # paper's matrix below at every state and is >= 0 under the hypotheses,
    # where the form is > 0 on unit tangential vectors; the weak form that
    # compare evaluates reads the matrix's symmetric part (at f- = f+)
    rng = np.random.default_rng(103)
    worst_slack = np.inf
    worst_weak = 0.0
    for _ in range(500):
        gas = random_gas(rng, GAMMAS[rng.integers(len(GAMMAS))])
        q1, q2, z = state = random_admissible_states(rng, gas, (4, 5))
        rho, c2 = bernoulli_state(gas, *state)
        least = _form_minima(q1, q2, z, c2, rho / c2)[0]
        a11, a12, a22, d = mean_values_at(gas, *state)
        for i, j in np.ndindex(4, 5):
            H = comparison_matrix(gas, q1[i, j], q2[i, j], z[i, j])
            xi = rng.normal(size=3)
            form, bound = xi @ H @ xi, least[i, j] * (xi @ xi)
            scale = max(1.0, abs(form), abs(bound))
            worst_slack = min(worst_slack, (form - bound) / scale)
            weak = np.array([[a11[i, j], a12[i, j], 0.0], [a12[i, j], a22[i, j], 0.0],
                             [0.0, 0.0, -0.5 * d[i, j]]])
            worst_weak = max(worst_weak, np.abs(weak - 0.5 * (H + H.T)).max()
                             / np.abs(H).max())
    bound_ok = worst_slack >= -1e-12 and worst_weak <= 1e-12

    min_bound = np.inf
    min_form = np.inf
    for _ in range(100):
        gamma = (-1.0, 1.0, 1.4, 2.0)[rng.integers(4)]
        gas = random_gas_with_supersonic_radial(rng, gamma)
        q1, q2, z = state = random_admissible_states(rng, gas, (4, 5), elliptic=True,
                                                     z_above_c=True)
        rho, c2 = bernoulli_state(gas, *state)
        min_bound = min(min_bound, _form_minima(q1, q2, z, c2, rho / c2)[0].min())
        for i, j in np.ndindex(4, 5):
            H = comparison_matrix(gas, q1[i, j], q2[i, j], z[i, j])
            xi = rng.normal(size=3)
            tang = np.hypot(xi[0], xi[1])
            if tang == 0.0:
                continue
            xi[:2] /= tang
            min_form = min(min_form, xi @ H @ xi)
    hyp_ok = min_bound >= 0.0 and min_form > 0.0
    check(3, bound_ok and hyp_ok,
          f"worst Schwartz slack {worst_slack:.2e}; weak form against the "
          f"matrix {worst_weak:.2e}; under hypotheses min bound {min_bound:.2e}, "
          f"min form {min_form:.2e}")


def test_criterion_4_gas_law_and_continuity():
    # bernoulli_density's rho and c^2 at 300 states per gamma (30 per gas)
    rng = np.random.default_rng(104)
    worst_rel = 0.0
    for gamma in GAMMAS:
        if gamma == 1.0:
            continue
        for _ in range(10):
            gas = random_gas(rng, gamma)
            rho, c2 = bernoulli_state(gas, *random_admissible_states(rng, gas, (5, 6)))
            worst_rel = max(worst_rel, (np.abs(rho ** (gamma - 1.0) - c2) / np.abs(c2)).max())
    law_ok = worst_rel <= 1e-12

    worst_cont = 0.0
    for _ in range(100):
        rho0 = rng.uniform(0.5, 2.0)
        bern = rng.uniform(0.0, 4.0)
        state = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1.5, 1.5))
        iso = bernoulli_state(GasModel(1.0, rho0, bern), *state)[0][0, 0]
        for gamma in (1.0 - 1e-4, 1.0 + 1e-4):
            near = bernoulli_state(GasModel(gamma, rho0, bern), *state)[0][0, 0]
            worst_cont = max(worst_cont, abs(near - iso) / iso)
    cont_ok = worst_cont < 1e-3
    check(4, law_ok and cont_ok,
          f"rho^(g-1)=c^2 worst rel {worst_rel:.2e}; gamma->1 continuity "
          f"worst rel {worst_cont:.2e}")


def test_criterion_5_operator_convergence():
    gas = GasModel(2.0, 1.0, 4.0)
    eig_errors = []
    form_diffs = []
    for n in (33, 65, 129):
        g = SphericalGrid(*WIDE_PATCH, n, n)
        f = ScalarField.from_function(g, lambda th, ph: np.cos(th))
        eig_errors.append(
            np.abs(flux_laplacian(f) + 2 * np.cos(g.theta_mesh))[g.interior_mask].max())
        f2 = ScalarField.from_function(g, lambda th, ph: 2 + 0.1 * np.cos(th))
        rd = sf.flow_residual(gas, f2)
        re = expanded_residual(gas, f2)
        form_diffs.append(np.abs(rd.values - re.values)[g.interior_mask].max())
    orders = observed_orders(eig_errors)
    ratios = [form_diffs[0] / form_diffs[1], form_diffs[1] / form_diffs[2]]
    ok = min(orders) >= 1.9 and min(ratios) >= 3.6
    check(5, ok, f"eigenfunction orders {orders[0]:.2f}/{orders[1]:.2f}; "
                 f"form-difference ratios {ratios[0]:.2f}/{ratios[1]:.2f}")


def _analytic_source_values(grid):
    # N(2 + 0.1 cos(theta)) for gamma = 2, c0^2 = 1, B = 4 (where rho = c^2):
    # div(rho D f) = -0.1 (rho' sin + 2 rho cos)/sin * sin ... evaluated
    # analytically on the nodes.
    th = grid.theta_mesh
    z = 2 + 0.1 * np.cos(th)
    qsq = 0.01 * np.sin(th) ** 2
    c2 = 1 + 0.5 * (4 - z * z - qsq)
    drho = 0.1 * z * np.sin(th) - 0.01 * np.sin(th) * np.cos(th)
    return -0.1 * (drho * np.sin(th) + 2.0 * c2 * np.cos(th)) + 2.0 * c2 * z


def test_criterion_6_manufactured_solution():
    gas = GasModel(2.0, 1.0, 4.0)
    build = SphericalGrid(*WIDE_PATCH, 33, 33)
    exact33 = ScalarField.from_function(build,
                                        lambda th, ph: 2 + 0.1 * np.cos(th))
    prob = sf.manufactured_problem(gas, build, exact33)
    phi, rep = sf.solve_dirichlet(prob, newton_tol=1e-12)
    discrete_err = np.abs(phi.values - exact33.values).max()
    iters = [rep.iterations]

    errors = []
    for n in (33, 65, 129):
        g = SphericalGrid(*WIDE_PATCH, n, n)
        exact = ScalarField.from_function(g, lambda th, ph: 2 + 0.1 * np.cos(th))
        src = ScalarField(g, _analytic_source_values(g))
        p = BVProblem(gas=gas, grid=g, boundary=exact, source=src)
        sol, r = sf.solve_dirichlet(p)
        iters.append(r.iterations)
        errors.append(np.abs(sol.values - exact.values)[g.interior_mask].max())
    orders = observed_orders(errors)
    ok = (discrete_err <= 1e-10 and min(orders) >= 1.9 and max(iters) <= 8)
    check(6, ok, f"discrete-exact err {discrete_err:.2e}; analytic orders "
                 f"{orders[0]:.2f}/{orders[1]:.2f}; Newton iters {iters}")


def test_criterion_7_weak_comparison(pair_suite):
    worst_gap = np.inf
    all_hyp = True
    for sc in pair_suite:
        all_hyp = all_hyp and sc.report.applicable
        worst_gap = min(worst_gap, sc.report.interior_min_gap)
    ok = all_hyp and worst_gap >= -1e-8
    check(7, ok, f"20 randomized pairs; hypotheses all pass: {all_hyp}; "
                 f"worst interior min gap {worst_gap:.3e}")


def test_criterion_8_weak_form_sign(pair_suite):
    worst = np.inf
    for sc in pair_suite:
        worst = min(worst, sc.report.hypotheses["weak_form_nonnegative"].value)
    check(8, worst >= -1e-10,
          f"weak-form integrand min over all nodes/scenarios {worst:.3e}")


def test_criterion_9_hopf_lemma(pair_suite):
    worst = np.inf
    mid = 16
    midpoints = [(0, mid), (32, mid), (mid, 0), (mid, 32)]
    for sc in pair_suite:
        report = sf.verify_weak_comparison(sc.gas, sc.f_minus_touch, sc.f_plus)
        out = sf.hopf_indicator(report, midpoints)
        worst = min(worst, min(h.derivative for h in out))
    check(9, worst > 1e-6,
          f"edge-midpoint normal derivative of (f- - f+), min {worst:.3e}")


def test_criterion_10_strong_dichotomy(pair_suite):
    verdicts = set()
    for sc in pair_suite:
        verdicts.add(sf.strong_comparison_check(sc.report))
    strict_ok = verdicts == {Dichotomy.STRICT}

    sc0 = pair_suite[0]
    rep_same = sf.verify_weak_comparison(sc0.gas, sc0.f_plus, sc0.f_plus)
    identical_ok = sf.strong_comparison_check(rep_same) is Dichotomy.IDENTICAL

    # constructed interior-touching fixture: ordered fields equal at one
    # interior node, hypotheses forced green to probe the detector
    gas = GasModel(2.0, 1.0, 4.0)
    g = SphericalGrid(*WIDE_PATCH, 17, 17)
    ic, jc = 8, 8
    bump = 0.05 * ((g.theta_mesh - g.thetas[ic]) ** 2
                   + (g.phi_mesh - g.phis[jc]) ** 2)
    rep_anom = sf.verify_weak_comparison(
        gas, ScalarField.constant(g, 2.0), ScalarField(g, 2.0 + bump))
    for h in rep_anom.hypotheses.values():
        h.passed = True
    anom = sf.strong_comparison_check(rep_anom)
    anom_ok = anom is Dichotomy.ANOMALOUS and rep_anom.min_gap_node == (ic, jc)

    check(10, strict_ok and identical_ok and anom_ok,
          f"suite dichotomies {sorted(v.value for v in verdicts)}; identical "
          f"fields -> Identical: {identical_ok}; anomalous fixture at node "
          f"{rep_anom.min_gap_node}: {anom_ok}")


def test_criterion_11_linearization_consistency():
    gas = GasModel(2.0, 1.0, 4.0)
    g = SphericalGrid(*WIDE_PATCH, 65, 65)
    phi = ScalarField.from_function(g, lambda th, ph: 2 + 0.1 * np.cos(th))
    h = ScalarField.from_function(
        g, lambda th, ph: 0.05 * (np.sin(th) * np.sin(ph) + np.cos(th)))
    lin = sf.segment_jacobian(gas, phi, phi)(h.values)
    eps = 1e-6
    r0 = sf.flow_residual(gas, phi).values
    r1 = sf.flow_residual(gas, ScalarField(g, phi.values + eps * h.values)).values
    fd = (r1 - r0) / eps
    sup = float(np.abs(lin - fd)[g.interior_mask].max())
    check(11, sup <= 1e-4,
          f"linearized vs FD Frechet derivative, sup diff {sup:.3e}")
