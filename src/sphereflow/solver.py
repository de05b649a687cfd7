"""Dirichlet boundary-value solver for the potential-flow equation.

Damped Newton iteration on the conservative discretization, so discrete
solutions inherit the divergence structure the comparison checks rely on.
The Jacobian is the exact derivative of the discrete flux residual
(operators.flow_jacobian), applied matrix-free, so convergence is
quadratic near the solution.  Inner solves are BiCGSTAB preconditioned by
operators.principal_preconditioner, a fast-diagonalization inverse of the
frozen-density principal part.  The line search halves the step until
the residual sup-norm decreases and the iterate stays admissible (rho > 0
everywhere on the mask); vacuum is a hard wall.  Steps are logged at DEBUG.
"""

import logging
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ellipticity import EllipticityCertificate, certify_uniform_ellipticity
from .errors import (
    BreakdownError,
    ConfigError,
    GridError,
    InadmissibleFieldError,
    InadmissibleStateError,
    LinearSolveError,
    MaxIterError,
    NonConvergenceError,
    VacuumEncounteredError,
)
from .gas import GasModel
from .grid import ScalarField, SphericalGrid
from .operators import (
    field_density,
    flow_jacobian,
    flow_residual,
    laplace_beltrami,
    principal_preconditioner,
)

log = logging.getLogger(__name__)


@dataclass
class SolveOptions:
    newton_tol: float = 1e-10
    max_newton: int = 50
    max_damping: int = 30
    lin_tol: float = 1e-12
    lin_max_iter: int = 5000
    cert_eps: float = 1e-8

    def __post_init__(self):
        if self.newton_tol < 1e-14:
            raise ConfigError("newton_tol must be >= 1e-14", "newton_tol")
        for name in ("newton_tol", "max_newton", "max_damping", "lin_tol",
                     "lin_max_iter", "cert_eps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive", name)


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual_history: list
    final_certificate: EllipticityCertificate | None = None

    def to_dict(self):
        cert = self.final_certificate
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residuals": [float(r) for r in self.residual_history],
            "certificate": cert.to_dict() if cert is not None else None,
        }


def _interior_connected(grid: SphericalGrid) -> bool:
    """Whether the interior nodes form one 4-connected set (phi wraps).

    Flood fill from the first interior node: each round spreads the reached
    set along whole theta-runs and phi-runs of interior nodes, then across
    the periodic seam, so a round costs a few array passes and the rounds
    needed grow with the number of turns a path takes, not its length.
    """
    im = grid.interior_mask

    def run_labels(a):
        starts = a.copy()
        starts[:, 1:] &= ~a[:, :-1]
        return np.cumsum(starts).reshape(a.shape) * a

    along_phi, along_theta = run_labels(im), run_labels(im.T).T
    reached = np.zeros_like(im)
    reached[np.unravel_index(np.argmax(im), im.shape)] = True
    while True:
        grown = reached
        for labels in (along_theta, along_phi):
            hit = np.zeros(labels.max() + 1, dtype=bool)
            hit[labels[grown]] = True
            hit[0] = False
            grown = hit[labels]
        if grid.phi_periodic:
            seam = im[:, 0] & im[:, -1] & (grown[:, 0] | grown[:, -1])
            grown[seam, 0] = grown[seam, -1] = True
        if np.array_equal(grown, reached):
            return bool(np.array_equal(reached, im))
        reached = grown


@dataclass
class BVProblem:
    """Dirichlet problem: flow operator = source on the masked interior."""

    gas: GasModel
    grid: SphericalGrid
    boundary: ScalarField
    source: ScalarField

    def __post_init__(self):
        if not self.grid.same_geometry(self.boundary.grid) \
                or not self.grid.same_geometry(self.source.grid):
            raise GridError("boundary/source fields do not live on the grid")
        bm = self.grid.boundary_mask
        if not bm.any():
            raise GridError("grid has no discrete boundary nodes")
        if not np.all(np.isfinite(self.boundary.values[bm])):
            raise GridError("boundary datum not finite on the boundary")
        if not _interior_connected(self.grid):
            warnings.warn("interior of the mask is disconnected",
                          stacklevel=2)


class _Breakdown(Exception):
    def __init__(self, best):
        super().__init__("Krylov recurrence breakdown")
        self.best = best


def _bicgstab_core(op, b, x0, precondition, target, iter_cap):
    """One BiCGSTAB run; returns (x, iterations)."""
    x = x0.copy()
    r = b - op(x)
    if np.linalg.norm(r) <= target:
        return x, 0
    rhat = r.copy()
    rho_old = 1.0
    alpha = 1.0
    omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    tiny = 1e-290
    for k in range(1, iter_cap + 1):
        rho = float(rhat @ r)
        if not np.isfinite(rho) or abs(rho) < tiny:
            raise _Breakdown(x)
        if k == 1:
            p = r.copy()
        else:
            if abs(omega) < tiny:
                raise _Breakdown(x)
            beta = (rho / rho_old) * (alpha / omega)
            p = r + beta * (p - omega * v)
        phat = precondition(p)
        v = op(phat)
        denom = float(rhat @ v)
        if not np.isfinite(denom) or abs(denom) < tiny:
            raise _Breakdown(x)
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= target:
            return x + alpha * phat, k
        shat = precondition(s)
        t = op(shat)
        tt = float(t @ t)
        if not np.isfinite(tt) or tt < tiny:
            raise _Breakdown(x)
        omega = float(t @ s) / tt
        x = x + alpha * phat + omega * shat
        r = s - omega * t
        if np.linalg.norm(r) <= target:
            return x, k
        rho_old = rho
    return x, iter_cap


def linear_solve(op, rhs, tol, max_iter, precondition=None):
    """Matrix-free BiCGSTAB for op(x) = rhs, right-preconditioned by precondition.

    Runs to relative residual <= tol or MaxIterError.  Recursive-residual
    exits are re-verified against the true residual (warm restarts absorb
    drift).  A recurrence breakdown restarts once from a deterministically
    perturbed guess, then raises BreakdownError.  Deterministic for
    identical inputs.
    """
    b = np.asarray(rhs, dtype=float).ravel()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    precondition = precondition or (lambda x: x)
    target = tol * bnorm

    def run(x_start):
        x = x_start
        used = 0
        while True:
            x, it = _bicgstab_core(op, b, x, precondition, target, max_iter - used)
            used += it
            res = float(np.linalg.norm(b - op(x)))
            if res <= target * (1.0 + 1e-9):
                return x
            if used >= max_iter:
                raise MaxIterError(
                    f"linear solve: {used} iterations, residual {res:.3e} "
                    f"above target {target:.3e}",
                    best=x, residual=res, iterations=used,
                )

    try:
        return run(np.zeros_like(b))
    except _Breakdown as first:
        perturbed = first.best + (1e-8 * bnorm) * np.cos(
            np.arange(b.size, dtype=float))
        try:
            return run(perturbed)
        except _Breakdown as second:
            raise BreakdownError(
                "Krylov recurrence broke down twice (original and perturbed "
                "restart)", best=second.best,
            ) from None


def _on_interior(apply_full, grid, idx):
    """apply_full on interior values; .calls[0] counts its uses (a shared list,
    so matvec never refers to itself and is freed without the cycle gc)."""
    calls = [0]

    def matvec(x):
        calls[0] += 1
        full = np.zeros(grid.shape).ravel()
        full[idx] = x
        return apply_full(full.reshape(grid.shape)).ravel()[idx]

    matvec.calls = calls
    return matvec


def _harmonic_extension(grid, idx, boundary_vals, tol, max_iter):
    """Laplace-Beltrami solution on the interior nodes idx, datum elsewhere."""
    apply_full = partial(laplace_beltrami, grid)
    out = np.where(grid.interior_mask, 0.0, boundary_vals)
    out.flat[idx] = linear_solve(_on_interior(apply_full, grid, idx),
                                 -apply_full(out).ravel()[idx], tol, max_iter,
                                 principal_preconditioner(grid, 1.0))
    return out


def _newton_direction(gas, phi, r, idx, opts):
    """(delta, inner matvecs) for J delta = -r, J the exact Jacobian at phi, or
    the failed inner solve's best iterate; frees J before the next step."""
    jac, precondition = flow_jacobian(gas, phi)
    matvec = _on_interior(jac, phi.grid, idx)
    try:
        delta = linear_solve(matvec, -r, opts.lin_tol, opts.lin_max_iter, precondition)
    except LinearSolveError as err:
        if err.best is None:
            raise
        delta = err.best
    return delta, matvec.calls[0]


def _line_search(grid, phi, delta, idx, res, interior_residual, max_damping):
    lam = 1.0
    all_vacuum = True
    for _ in range(max_damping + 1):
        vals = phi.values.ravel().copy()
        vals[idx] += lam * delta
        cand = ScalarField(grid, vals.reshape(grid.shape))
        try:
            r_new = interior_residual(cand)
        except InadmissibleStateError:
            lam *= 0.5
            continue
        all_vacuum = False
        res_new = float(np.max(np.abs(r_new)))
        if np.isfinite(res_new) and res_new < res:
            return cand, r_new, res_new, lam, all_vacuum
        lam *= 0.5
    return None, None, None, lam, all_vacuum


def solve_dirichlet(problem: BVProblem, opts: SolveOptions | None = None):
    """Solve the Dirichlet problem; returns (field, SolveReport).

    The initial guess is the harmonic (Laplace-Beltrami) extension of the
    boundary datum.  Boundary nodes carry the datum bit-exactly.  The
    returned report embeds an ellipticity certificate of the solution.
    """
    if opts is None:
        opts = SolveOptions()
    gas, grid = problem.gas, problem.grid
    idx = np.flatnonzero(grid.interior_mask.ravel())
    if idx.size == 0:
        raise GridError("no interior nodes to solve for")
    source_int = problem.source.values.ravel()[idx]

    phi = ScalarField(grid, _harmonic_extension(
        grid, idx, problem.boundary.values, opts.lin_tol, opts.lin_max_iter))

    def interior_residual(f):
        return flow_residual(gas, f).values.ravel()[idx] - source_int

    try:
        r = interior_residual(phi)
    except InadmissibleStateError as err:
        raise VacuumEncounteredError(
            f"initial iterate already inadmissible at node {err.node}",
            node=err.node) from err
    res = float(np.max(np.abs(r)))
    history = [res]
    iterations = 0

    while res > opts.newton_tol:
        if iterations >= opts.max_newton:
            report = SolveReport(False, iterations, history)
            raise NonConvergenceError(
                f"Newton cap {opts.max_newton} reached, residual {res:.3e}",
                field=phi, report=report,
            )
        try:
            delta, matvecs = _newton_direction(gas, phi, r, idx, opts)
        except LinearSolveError as err:
            report = SolveReport(False, iterations, history)
            raise NonConvergenceError(
                "inner linear solve failed with no usable direction",
                field=phi, report=report,
            ) from err

        cand, r_new, res_new, lam, all_vacuum = _line_search(
            grid, phi, delta, idx, res, interior_residual, opts.max_damping)
        if cand is None:
            if all_vacuum:
                raise VacuumEncounteredError(
                    "damping exhausted without an admissible iterate")
            report = SolveReport(False, iterations, history)
            raise NonConvergenceError(
                f"line search stalled at residual {res:.3e}",
                field=phi, report=report,
            )
        phi, r, res = cand, r_new, res_new
        history.append(res)
        iterations += 1
        log.debug("newton step %d: residual %.3e, lambda %g, %d inner matvecs",
                  iterations, res, lam, matvecs)

    cert = certify_uniform_ellipticity(gas, phi, opts.cert_eps)
    return phi, SolveReport(True, iterations, history, cert)


def manufactured_problem(gas: GasModel, grid: SphericalGrid,
                         f_exact: ScalarField) -> BVProblem:
    """Build the problem whose exact discrete solution is f_exact.

    The source is the discrete flow residual of f_exact (same stencil the
    solver zeroes) and the boundary datum is its trace, so solving the
    problem on the same grid must reproduce f_exact to solver tolerance.
    """
    if not grid.same_geometry(f_exact.grid):
        raise GridError("f_exact does not live on the given grid")
    try:
        _, c2, q1, q2 = field_density(gas, f_exact)
    except InadmissibleStateError as err:
        raise InadmissibleFieldError(
            f"exact field is inadmissible: {err}") from err
    m = grid.mask_array
    l2 = (q1 * q1 + q2 * q2) / np.where(m, c2, 1.0)
    if np.any(m & (l2 >= 1.0)):
        i, j = np.argwhere(m & (l2 >= 1.0))[0]
        raise InadmissibleFieldError(
            f"exact field is not elliptic at node ({i}, {j}): "
            f"L^2 = {l2[i, j]:.4g}"
        )
    source = flow_residual(gas, f_exact)
    return BVProblem(gas=gas, grid=grid, boundary=f_exact.copy(),
                     source=source)
