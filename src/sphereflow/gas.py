"""Equation of state: the Bernoulli density and sound speed of node arrays.

The gas satisfies p'(rho) = rho^(gamma-1) with gamma >= -1, which covers
polytropic gases (gamma > 1), the isothermal gas (gamma = 1, where the
sound speed is identically 1) and the Chaplygin gas (gamma = -1).  A flow
state on the unit sphere is the triple (q1, q2, z): the two tangential
velocity components and the radial component z, which enter the gas law
through the Bernoulli head B - z^2 - |q|^2 alone.  Everything here acts
elementwise on node arrays of heads, c^2 and L^2.
"""

import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cache

import numpy as np

from .errors import ConfigError, GasOverflowError, VacuumError

# |exponent| bound for the isothermal density exp(); keeps exp() inside
# double-precision range.
EXP_CAP = 700.0

EPS_TYPE = 1e-8


def _density(gamma, rho0, w):
    """rho at the window variable w: rho0 exp(w) at gamma = 1, else w^(1/(gamma-1))."""
    return rho0 * np.exp(w) if gamma == 1.0 else w ** (1.0 / (gamma - 1.0))


@cache
def _window(gamma, rho0):
    """[lo, hi]: the doubles w at which rho is a finite double > 0 and
    c^2 = w > 0, or |w| <= EXP_CAP at gamma = 1 (the one case rho0 enters).
    Each end is bisected on the bits of the doubles from w = 1 (w = 0 at
    gamma = 1), where rho is finite and > 0, with the kernel's power or exp()."""
    def admitted(w):
        with np.errstate(over="ignore"):
            return ((abs(w) <= EXP_CAP if gamma == 1.0 else w > 0.0)
                    and 0.0 < _density(gamma, rho0, np.array([w]))[0] < math.inf)

    def edge(inside, far):  # the last admitted double from inside to far
        if admitted(far):
            return far
        a, b = (int(np.float64(w).view(np.int64)) for w in (inside, far))
        while abs(b - a) > 1:
            m = (a + b) // 2
            a, b = (m, b) if admitted(float(np.int64(m).view(np.float64))) else (a, m)
        return float(np.int64(a).view(np.float64))

    if gamma == 1.0:
        return edge(-0.0, -EXP_CAP), edge(0.0, EXP_CAP)
    return edge(1.0, 0.0), edge(1.0, math.inf)


@dataclass(frozen=True)
class GasModel:
    """Gas law parameters: ratio gamma, reference density and Bernoulli constant.

    The squared sound speed at the reference density, ``c0_sq``, is always
    derived as rho0^(gamma-1) (exactly 1 for gamma = 1); storing it freely
    would let bernoulli_density's rho and c^2 disagree.  ``window`` is
    (base, slope, lo, hi): w = base + slope head, c^2 or (gamma = 1) head/2,
    is admissible on [lo, hi] (_window).
    """

    gamma: float
    rho0: float = 1.0
    bernoulli: float = 0.0
    c0_sq: float = field(init=False)
    window: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("gamma", "rho0", "bernoulli"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}", name)
        if self.gamma < -1.0:
            raise ConfigError(f"gamma must be >= -1, got {self.gamma}", "gamma")
        if self.rho0 <= 0.0:
            raise ConfigError(f"rho0 must be > 0, got {self.rho0}", "rho0")
        try:
            c0 = 1.0 if self.gamma == 1.0 else float(self.rho0) ** (self.gamma - 1.0)
        except OverflowError:
            c0 = math.inf
        base, slope = (0.0, 0.5) if self.gamma == 1.0 else (c0, 0.5 * (self.gamma - 1.0))
        lo, hi = _window(self.gamma, self.rho0 if self.gamma == 1.0 else 1.0)
        if not lo <= base <= hi:
            raise ConfigError(f"rho0^(gamma - 1) gives no density that is a finite double "
                              f"> 0 for rho0 = {self.rho0}, gamma = {self.gamma}", "rho0")
        object.__setattr__(self, "c0_sq", c0)
        object.__setattr__(self, "window", (base, slope, lo, hi))

    def head(self, q_sq, z):
        """The Bernoulli head B - z^2 - |q|^2 that bernoulli_density reads."""
        return self.bernoulli - z * z - q_sq


class FlowType(IntEnum):
    ELLIPTIC = 0
    PARABOLIC = 1
    HYPERBOLIC = 2
    VACUUM = 3

    @property
    def letter(self):
        return "EPHV"[int(self)]


def bernoulli_density(gas: GasModel, head, with_rho=True):
    """(rho, c^2, admissible) at the Bernoulli head gas.head(|q|^2, z), elementwise.

    gamma != 1: rho = (c^2)^(1/(gamma-1)).  gamma = 1: rho = rho0 * exp(head/2),
    the pointwise limit of the power law, with c^2 identically 1.  A state is
    admissible where w (c^2, or head/2) lies in the gas's window: where rho
    is a finite double > 0 and c^2 > 0 (|head/2| <= EXP_CAP at gamma = 1),
    with or without rho.  Rejected entries carry a finite placeholder;
    without with_rho, rho is None.
    """
    base, slope, lo, hi = gas.window
    w = base + slope * head
    ok = (lo <= w) & (w <= hi)
    c2 = np.ones_like(w) if gas.gamma == 1.0 else w
    if not with_rho:
        return None, c2, ok
    return _density(gas.gamma, gas.rho0, np.where(ok, w, base)), c2, ok


def window_margins(gas: GasModel, h0, h1, h2):
    """w - lo and hi - w along the head h0 + h1 t + h2 t^2, each as its
    coefficients of 1, t and t^2 (w is affine in the head): a state is
    admissible where both are >= 0."""
    base, slope, lo, hi = gas.window
    w = base + slope * h0
    return (w - lo, slope * h1, slope * h2), (hi - w, -slope * h1, -slope * h2)


def require_admissible(gas: GasModel, head, ok, where, t=None):
    """Raise at the first node of the node array where that
    bernoulli_density(gas, head) rejected, by the side of the window its w
    lies on: VacuumError where c^2 <= 0 or rho underflows to 0.0,
    GasOverflowError where rho is not a finite double or (gamma = 1)
    |head/2| exceeds EXP_CAP.  Both carry the node index and the segment
    parameter t.
    """
    bad = where & ~ok
    if not bad.any():
        return
    node = tuple(int(k) for k in np.argwhere(bad)[0])
    at = f" at node {node}" + ("" if t is None else f", t={t}")
    head = float(head[node])
    base, slope, lo, hi = gas.window
    w, c2 = base + slope * head, bernoulli_density(gas, head, False)[1]
    if gas.gamma == 1.0 and abs(w) > EXP_CAP:
        message = f"isothermal density exponent exceeds +/-{EXP_CAP:g}{at}"
    elif not c2 > 0.0:
        raise VacuumError(f"vacuum{at}: c^2 = {c2:.6g} <= 0", node=node, t=t)
    elif (w < lo) if gas.gamma >= 1.0 else (w > hi):  # rho grows with w for gamma >= 1
        raise VacuumError(f"density underflows to 0{at}: c^2 = {c2:.6g}", node=node, t=t)
    else:
        message = f"density is not a finite double{at}: c^2 = {c2:.6g}"
    raise GasOverflowError(message, node=node, t=t)


def mach_sq(q_sq, c2, ok):
    """The one L^2 formula, |q|^2 / c^2 where ok and inf elsewhere, with ok
    and c^2 bernoulli_density's, or a field_density state's c^2 on its mask."""
    return np.where(ok, q_sq / np.where(ok, c2, 1.0), np.inf)


def mach_codes(l2, ok):
    """FlowType codes of mach_sq's L^2: vacuum where not ok, parabolic within EPS_TYPE of 1."""
    codes = np.where(l2 < 1.0, FlowType.ELLIPTIC, FlowType.HYPERBOLIC).astype(np.int8)
    codes[np.abs(l2 - 1.0) <= EPS_TYPE] = FlowType.PARABOLIC
    codes[np.logical_not(ok)] = FlowType.VACUUM
    return codes
