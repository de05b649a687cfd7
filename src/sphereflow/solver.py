"""Dirichlet boundary-value solver for the potential-flow equation.

Damped Newton iteration on the conservative discretization, so discrete
solutions inherit the divergence structure the comparison checks rely on.
The Jacobian is the exact derivative of the discrete flux residual
(operators.flow_jacobian), applied matrix-free, so convergence is
quadratic near the solution.  Each iterate's flow state (field_density)
is evaluated once, with its residual, and feeds its Jacobian and roundoff
floor.  The start is the Newton step from the constant mean datum, so
flow_jacobian is the one linear operator; one principal_preconditioner per
solve, built for the start's, serves every interior_solve: the start's and
each Newton step's GMRES, which runs only to the Eisenstat-Walker forcing
term.  A failed inner solve is an outcome, not an error, and Newton goes on
from its best iterate.  GMRES starts from zero, whose residual costs no
matvec, and interior_solve reuses one interior-embedding array.  The line
search halves the step until the residual's 2-norm, the norm GMRES
minimizes, decreases sufficiently and the iterate stays admissible
(rho > 0 on the mask); vacuum is a hard wall.  newton_tol, the forcing
ratio, the stall and stagnation tests and the reports use the sup norm.
The iteration stops at newton_tol, or where a step stalls at the
residual's roundoff floor; it raises NonConvergenceError on the Newton
cap, on stagnation and when the line search stalls above that floor or
finds no admissible iterate.  Each accepted step is one NewtonStep record
of the SolveReport and one DEBUG line.  newton_tol and max_newton are
solve_dirichlet's only settings; the rest are the constants below.
"""

import logging
import math
import warnings
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .ellipticity import EllipticityCertificate, certify_uniform_ellipticity, field_readings
from .errors import (
    ConfigError,
    GridError,
    InadmissibleFieldError,
    InadmissibleStateError,
    NonConvergenceError,
)
from .gas import GasModel
from .grid import ScalarField, SphericalGrid
from .operators import (
    field_density,
    flow_jacobian,
    flow_residual,
    principal_preconditioner,
    residual_roundoff,
)

log = logging.getLogger(__name__)

# Eisenstat-Walker choice 2 forcing (SIAM J. Sci. Comput. 17 (1996) 16-32)
# with the safeguards of Kelley, Iterative Methods for Linear and Nonlinear
# Equations (SIAM 1995), ch. 6: eta_0 = FORCING_MAX.
FORCING_GAMMA = 0.9
FORCING_ALPHA = 2.0
FORCING_MAX = 0.1
# Units of roundoff in the residual's floor (operators.residual_roundoff).
ROUNDOFF_ULPS = 4.0
# A step that keeps more than STALL_RATIO of the residual has stalled: at
# the roundoff floor the solve ends there.  STAGNATION_STEPS steps that
# together keep more than STALL_RATIO of it end the solve with an error; a
# GMRES restart cycle of linear_solve that keeps that much ends it with
# outcome "max_iter".
STALL_RATIO = 0.9
STAGNATION_STEPS = 5
# Sufficient decrease of the line search's 2-norm test (Eisenstat & Walker,
# SIAM J. Optim. 4 (1994) 393-422): an inexact Newton step solved to
# forcing eta is a descent direction for ||r||_2.
DECREASE = 1e-4
# Krylov vectors linear_solve's GMRES keeps before it restarts, and the
# part of ||op(z)|| below which a new Hessenberg entry counts as zero.
GMRES_RESTART = 50
KRYLOV_FLOOR = 1e-12
# Basis vectors allocated at first, doubled as they fill: a freed full
# basis would raise the C heap's trim threshold, and so resident memory.
KRYLOV_ROWS = 8
# Halvings the line search tries after the full step; the floor of the
# forcing term, which is also the start's relative tolerance; and the matvec
# cap of every inner solve.
MAX_DAMPING = 30
LIN_TOL = 1e-12
LIN_MAX_ITER = 5000


@dataclass
class NewtonStep:
    """One accepted Newton step: its iterate's sup-norm residual, its inner
    solve's forcing term, matvecs and outcome, and its line-search lambda."""

    residual: float
    forcing: float
    inner_matvecs: int
    inner_outcome: str
    step_length: float


@dataclass
class SolveReport:
    """Outcome of solve_dirichlet: the initial sup-norm residual, one NewtonStep per
    accepted step, and stop_reason "newton_tol" or "roundoff_floor" once converged."""

    converged: bool
    initial_residual: float
    steps: list[NewtonStep] = field(default_factory=list)
    final_certificate: EllipticityCertificate | None = None
    stop_reason: str | None = None

    @property
    def iterations(self):
        return len(self.steps)

    @property
    def residual_history(self):
        return [self.initial_residual] + [s.residual for s in self.steps]

    def to_dict(self):
        cert = self.final_certificate
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residuals": [float(r) for r in self.residual_history],
            "forcing": [float(s.forcing) for s in self.steps],
            "inner_matvecs": [s.inner_matvecs for s in self.steps],
            "inner_outcome": [s.inner_outcome for s in self.steps],
            "step_length": [float(s.step_length) for s in self.steps],
            "stop_reason": self.stop_reason,
            "certificate": cert.to_dict() if cert is not None else None,
        }


@dataclass
class BVProblem:
    """Dirichlet problem: flow operator = source on the masked interior, with
    the datum finite on the boundary and the source on the interior."""

    gas: GasModel
    grid: SphericalGrid
    boundary: ScalarField
    source: ScalarField

    def __post_init__(self):
        if not self.grid.same_geometry(self.boundary.grid) \
                or not self.grid.same_geometry(self.source.grid):
            raise GridError("boundary/source fields do not live on the grid")
        for name, part, where, nodes in (
                ("boundary datum", self.boundary, "boundary", self.grid.boundary_mask),
                ("source", self.source, "interior", self.grid.interior_mask)):
            bad = np.argwhere(nodes & ~np.isfinite(part.values))
            if bad.size:
                raise GridError(f"{name} not finite at {where} node {tuple(bad[0].tolist())}")
        if self.grid.interior_labels.max() > 1:
            warnings.warn("interior of the mask is disconnected",
                          stacklevel=2)


def linear_solve(op, rhs, tol, max_iter, precondition=None):
    """Matrix-free restarted GMRES for op(x) = rhs, right-preconditioned by
    precondition (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7 (1986) 856-869).

    Classical Gram-Schmidt with one reorthogonalization pass builds the
    basis and Givens rotations the least-squares residual, which is that of
    the iterate; the preconditioned vectors are kept for the update.  Runs
    from zero (no matvec) until that residual is <= tol * ||rhs||; each
    restart takes one matvec for its true residual.  Returns (x, matvecs,
    outcome): the best iterate, the number of op calls, and "converged",
    "max_iter" when the next restart would pass max_iter matvecs, restarts
    included, or a restart cycle keeps more than STALL_RATIO of the
    residual it started from, or "breakdown" when the Krylov space stops
    growing first (a zero Hessenberg column or a non-finite value).  Never
    raises on a failed solve.  Deterministic.
    """
    b = np.asarray(rhs, dtype=float).ravel()
    precondition = precondition or (lambda v: v)
    target = tol * float(np.linalg.norm(b))
    m = min(GMRES_RESTART, max_iter)
    basis = np.empty((min(m, KRYLOV_ROWS) + 1, b.size))
    x, r, used = np.zeros_like(b), b, 0
    while not (beta := float(np.linalg.norm(r))) <= target:  # nan goes in
        np.divide(r, beta, out=basis[0])
        kept, cols, rot, g = [], [], [], [beta]
        for k in range(min(m, max_iter - used)):
            if k + 1 == len(basis):  # double the basis, up to m + 1 vectors
                basis = np.concatenate([basis, np.empty((min(k, m - k), b.size))])
            kept.append(precondition(basis[k]))
            w = op(kept[k])
            used += 1
            v, w_next = basis[:k + 1], basis[k + 1]
            h = v @ w
            np.subtract(w, h @ v, out=w_next)
            h2 = v @ w_next
            w_next -= h2 @ v
            h += h2
            h_next = math.sqrt(w_next @ w_next)
            floor = KRYLOV_FLOOR * math.sqrt(h @ h + h_next * h_next)  # ||w||
            if h_next <= floor:  # w lies in the basis: invariant
                h_next = 0.0
            col = h.tolist()
            for i, (c, s) in enumerate(rot):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            diag = math.hypot(col[k], h_next)
            if not diag > floor:  # a zero (or non-finite) rotated column
                break
            rot.append((col[k] / diag, h_next / diag))
            col[k] = diag
            cols.append(col)
            g[k:] = rot[k][0] * g[k], -rot[k][1] * g[k]
            if abs(g[-1]) <= target:
                break
            w_next /= h_next
        y = g[:len(cols)]
        for j in reversed(range(len(cols))):  # back substitution in R y = g
            y[j] /= cols[j][j]
            for i in range(j):
                y[i] -= cols[j][i] * y[j]
            x += y[j] * kept[j]
        res = abs(g[-1])
        if res <= target:
            break
        if len(cols) < len(kept):  # the last column was zero or not finite
            return x, used, "breakdown"
        if res > STALL_RATIO * beta or used + 1 >= max_iter:
            return x, used, "max_iter"
        r = b - op(x)
        used += 1
    return x, used, "converged"


def interior_solve(grid: SphericalGrid, apply_full, rhs, tol, max_iter, precondition):
    """(x, matvecs, outcome) of linear_solve for apply_full(v) = rhs on the
    interior values of grid (flat order), with v zero at the other nodes.

    apply_full maps value arrays to value arrays; every matvec hands it one
    reused array, which it must neither keep nor write.  precondition acts
    on interior values (the solver's principal_preconditioner).  A failed
    solve is no error: x is its best iterate, with outcome "max_iter" or
    "breakdown"."""
    idx = np.flatnonzero(grid.interior_mask)
    full = np.zeros(grid.shape)

    def matvec(x):
        full.ravel()[idx] = x
        return apply_full(full).ravel()[idx]

    return linear_solve(matvec, rhs, tol, max_iter, precondition)


def _start(problem, idx, interior_residual):
    """(initial iterate, preconditioner): z + delta on the interior, the
    datum elsewhere, with z the datum's mean on the boundary, F0 = z and
    J delta = s - N(F0) - J(datum - z on the boundary), J = flow_jacobian at
    F0 = rho (Delta_h + k), k = 2 (1 - z^2/c^2), preconditioned for min(k, 0).
    A function, so that F0's Jacobian is freed before the Newton steps."""
    grid, datum = problem.grid, problem.boundary.values
    z = float(np.mean(datum[grid.boundary_mask]))
    r, state = interior_residual(mean := ScalarField.constant(grid, z))
    k = 2.0 * (1.0 - z * z / state[1].flat[idx[0]])
    precondition = principal_preconditioner(grid, min(k, 0.0))
    jacobian = flow_jacobian(problem.gas, mean, state=state)
    lift = jacobian(np.where(grid.boundary_mask, datum - z, 0.0)).flat[idx]
    start = np.where(grid.interior_mask, z, datum)
    start.flat[idx] += interior_solve(grid, jacobian, -r - lift, LIN_TOL, LIN_MAX_ITER,
                                      precondition)[0]
    return ScalarField(grid, start), precondition


def _line_search(phi, delta, idx, r, interior_residual, floor, eta):
    """First of lambda = 1, 1/2, ... whose iterate is admissible and meets
    ||r(phi + lambda delta)||_2 <= (1 - DECREASE (1 - eta) lambda) ||r||_2,
    with r the interior residual at phi: (iterate, its (residual, state),
    its sup-norm residual, lambda), or None when none does.  When no trial
    iterate is admissible, re-raises the smallest step's refusal."""
    res, norm = float(np.max(np.abs(r))), float(np.linalg.norm(r))
    evaluated = None
    for k in range(MAX_DAMPING + 1):
        lam = 0.5 ** k
        vals = phi.values.ravel().copy()
        vals[idx] += lam * delta
        cand = ScalarField(phi.grid, vals.reshape(phi.values.shape))
        try:
            evaluated = interior_residual(cand)
        except InadmissibleStateError:
            if evaluated is None and k == MAX_DAMPING:
                raise
            continue
        if np.linalg.norm(evaluated[0]) <= (1.0 - DECREASE * (1.0 - eta) * lam) * norm:
            return cand, evaluated, float(np.max(np.abs(evaluated[0]))), lam
        if k == 0 and res <= floor():  # no shorter step resolves a drop
            return None
    return None


def _forcing(history, forcing, newton_tol):
    """Eisenstat-Walker choice 2 forcing term of the next inner solve.

    The ratio is taken of the sup-norm Newton residuals in history and is
    used as GMRES's relative 2-norm tolerance, which makes every step a
    descent direction for the line search's 2-norm.  Kelley's safeguard:
    after a term above 1/3, the next is not below FORCING_MAX.
    """
    res = history[-1]
    if not forcing:
        eta = FORCING_MAX
    else:
        eta = FORCING_GAMMA * (res / history[-2]) ** FORCING_ALPHA
        safeguard = FORCING_GAMMA * forcing[-1] ** FORCING_ALPHA
        if safeguard > 0.1:
            eta = max(eta, safeguard)
    return max(min(eta, FORCING_MAX), 0.5 * newton_tol / res, LIN_TOL)


def solve_dirichlet(problem: BVProblem, *, newton_tol: float = 1e-10,
                    max_newton: int = 50):
    """Solve the Dirichlet problem; returns (field, SolveReport).

    newton_tol (>= 1e-14) bounds the interior residual's sup norm and
    max_newton caps the Newton steps; a bad value of either raises
    ConfigError, naming it, before any work.  The initial guess is the
    Newton step from the constant mean boundary datum (_start); where that
    state or the guess is inadmissible, its error is raised with
    "initial iterate: " in front.  Boundary nodes carry the datum
    bit-exactly.  The returned report embeds an ellipticity certificate of
    the solution, at certify_uniform_ellipticity's default eps.
    Raises NonConvergenceError, carrying the last iterate and the report
    and naming the node of its max |residual|, on the Newton cap, on
    stagnation, when the line search stalls above the residual's roundoff
    floor and when it finds no admissible iterate (quoting the smallest
    step's refusal).
    """
    if not newton_tol >= 1e-14:  # nan too
        raise ConfigError("newton_tol must be >= 1e-14", "newton_tol")
    if not max_newton > 0:
        raise ConfigError("max_newton must be positive", "max_newton")
    gas, grid = problem.gas, problem.grid
    idx = np.flatnonzero(grid.interior_mask.ravel())
    if idx.size == 0:
        raise GridError("no interior nodes to solve for")
    source_int = problem.source.values.ravel()[idx]

    def interior_residual(f):  # with f's flow state, its one field_density
        state = field_density(gas, f)
        return flow_residual(gas, f, state=state).values.flat[idx] - source_int, state

    def roundoff_floor(f, state):
        return ROUNDOFF_ULPS * float(residual_roundoff(f, state[0]).flat[idx].max())

    try:
        phi, precondition = _start(problem, idx, interior_residual)
        r, state = interior_residual(phi)
    except InadmissibleStateError as err:  # vacuum, underflow or overflow, as raised
        raise type(err)(f"initial iterate: {err}", node=err.node, t=err.t) from err
    res = float(np.max(np.abs(r)))
    report = SolveReport(False, res)

    def failure(message):  # at the last iterate phi, whose residual is r
        i, j = divmod(int(idx[np.argmax(np.abs(r))]), grid.n_phi)
        return NonConvergenceError(f"{message}, max at node ({i}, {j})", phi, report)

    while res > newton_tol:
        if report.iterations >= max_newton:
            raise failure(f"Newton cap {max_newton} reached, residual {res:.3e}")
        if (report.iterations >= STAGNATION_STEPS
                and res > STALL_RATIO * report.residual_history[-1 - STAGNATION_STEPS]):
            raise failure(f"Newton stagnated: {STAGNATION_STEPS} steps cut the residual "
                          f"only to {res:.3e}")
        eta = _forcing(report.residual_history, [s.forcing for s in report.steps],
                       newton_tol)
        delta, matvecs, outcome = interior_solve(  # J delta = -r, J at phi
            grid, flow_jacobian(gas, phi, state=state), -r, eta, LIN_MAX_ITER,
            precondition)

        floor = cache(partial(roundoff_floor, phi, state))
        try:
            step = _line_search(phi, delta, idx, r, interior_residual, floor, eta)
        except InadmissibleStateError as err:
            raise failure(f"line search found no admissible iterate ({err}); "
                          f"residual {res:.3e}") from err
        if step is None:
            if res > floor():
                raise failure(f"line search stalled at residual {res:.3e}, above "
                              f"its roundoff floor {floor():.3e}")
            report.stop_reason = "roundoff_floor"
            break
        previous, (phi, (r, state), res, lam) = res, step
        report.steps.append(NewtonStep(res, eta, matvecs, outcome, lam))
        log.debug("newton step %d: residual %.3e, lambda %g, eta %.2e, inner solve %s, "
                  "%d inner matvecs", report.iterations, res, lam, eta, outcome, matvecs)
        if (res > max(newton_tol, STALL_RATIO * previous)
                and res <= roundoff_floor(phi, state)):
            report.stop_reason = "roundoff_floor"
            break

    report.converged, report.stop_reason = True, report.stop_reason or "newton_tol"
    report.final_certificate = certify_uniform_ellipticity(gas, phi, state=state)
    return phi, report


def manufactured_problem(gas: GasModel, grid: SphericalGrid,
                         f_exact: ScalarField) -> BVProblem:
    """Build the problem whose exact discrete solution is f_exact.

    The source is the discrete flow residual of f_exact (same stencil the
    solver zeroes) and the boundary datum is its trace, so solving the
    problem on the same grid must reproduce f_exact to solver tolerance.
    Raises InadmissibleFieldError where f_exact is inadmissible, or where
    its max L^2 (field_readings) is >= 1, naming that node.
    """
    if not grid.same_geometry(f_exact.grid):
        raise GridError("f_exact does not live on the given grid")
    try:
        state = field_density(gas, f_exact)
    except InadmissibleStateError as err:
        raise InadmissibleFieldError(
            f"exact field is inadmissible: {err}") from err
    *_, (l2, node) = field_readings(f_exact, state)
    if l2 >= 1.0:
        raise InadmissibleFieldError(f"exact field is not elliptic at node {node}: "
                                     f"L^2 = {l2:.4g}")
    return BVProblem(gas=gas, grid=grid, boundary=f_exact.copy(),
                     source=flow_residual(gas, f_exact, state=state))
