"""Equation of state and pointwise thermodynamic algebra.

The gas satisfies p'(rho) = rho^(gamma-1) with gamma >= -1, which covers
polytropic gases (gamma > 1), the isothermal gas (gamma = 1, where the
sound speed is identically 1) and the Chaplygin gas (gamma = -1).  A flow
state on the unit sphere is the triple (q1, q2, z): the two tangential
velocity components and the radial component z.  Everything here is a pure
function of the state; array-valued states broadcast elementwise.
"""

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import ConfigError, GasOverflowError, VacuumError

# |exponent| bound for the isothermal density exp(); keeps exp() inside
# double-precision range.
EXP_CAP = 700.0

EPS_TYPE = 1e-8


@dataclass(frozen=True)
class GasModel:
    """Gas law parameters: ratio gamma, reference density and Bernoulli constant.

    The squared sound speed at the reference density, ``c0_sq``, is always
    derived as rho0^(gamma-1) (exactly 1 for gamma = 1); storing it freely
    would let density() and sound_speed_sq() disagree.
    """

    gamma: float
    rho0: float = 1.0
    bernoulli: float = 0.0
    c0_sq: float = field(init=False)

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
        if not math.isfinite(c0):
            raise ConfigError(f"rho0^(gamma - 1) is not a finite double for "
                              f"rho0 = {self.rho0}, gamma = {self.gamma}", "rho0")
        object.__setattr__(self, "c0_sq", c0)

    def head(self, q_sq, z):
        """The Bernoulli head B - z^2 - |q|^2 that bernoulli_density reads."""
        return self.bernoulli - z * z - q_sq


@dataclass(frozen=True)
class FlowState:
    """Pointwise (or elementwise array) velocity triple (q1, q2, z)."""

    q1: float
    q2: float
    z: float

    def speed_sq(self):
        """Tangential speed squared |q|^2."""
        return self.q1 * self.q1 + self.q2 * self.q2


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

    gamma != 1: rho = (c^2)^(1/(gamma-1)), admissible where c^2 > 0.
    gamma  = 1: rho = rho0 * exp(head/2), the pointwise limit of the power
    law, admissible where the exponent stays within +/-EXP_CAP; c^2 is
    identically 1.  A rho that overflows to inf is inadmissible too; other
    rejected entries carry a finite placeholder.  Without with_rho, rho is None.
    """
    if gas.gamma == 1.0:
        arg = 0.5 * head
        ok, c2 = np.abs(arg) <= EXP_CAP, np.ones_like(arg)
    else:
        c2 = gas.c0_sq + 0.5 * (gas.gamma - 1.0) * head
        ok = c2 > 0.0
    if not with_rho:
        return None, c2, ok
    with np.errstate(over="ignore"):
        rho = (gas.rho0 * np.exp(np.where(ok, arg, 0.0)) if gas.gamma == 1.0
               else np.where(ok, c2, 1.0) ** (1.0 / (gas.gamma - 1.0)))
    return rho, c2, ok & np.isfinite(rho)


def sound_speed_sq(gas: GasModel, s: FlowState):
    """Squared sound speed c^2 = c0^2 + (gamma-1)/2 (B - z^2 - |q|^2), the
    c^2 of bernoulli_density (identically 1 for gamma = 1).  May return
    nonpositive values; callers decide whether that is vacuum.
    """
    return bernoulli_density(gas, gas.head(s.speed_sq(), s.z), False)[1]


def require_admissible(gas: GasModel, head, ok, where=True, t=None):
    """Raise at the first node of `where` that bernoulli_density(gas, head)
    rejected: VacuumError for c^2 <= 0, else GasOverflowError (the isothermal
    exp() guard, or a density that is not a finite double).  Both carry the
    node index (None for pointwise states) and the segment parameter t.
    """
    bad = np.logical_and(where, np.logical_not(ok))
    if not np.any(bad):
        return
    node = tuple(int(k) for k in np.argwhere(bad)[0]) or None
    at = f" at node {node}" if node else ""
    if t is not None:
        at += f", t={t}"
    head = float(np.asarray(head)[node or ()])
    c2 = bernoulli_density(gas, head, False)[1]
    if gas.gamma == 1.0 and abs(0.5 * head) > EXP_CAP:
        message = f"isothermal density exponent exceeds +/-{EXP_CAP:g}{at}"
    elif c2 > 0.0:
        message = f"density is not a finite double{at}: c^2 = {c2:.6g}"
    else:
        raise VacuumError(f"vacuum{at}: c^2 = {c2:.6g} <= 0", node=node, t=t)
    raise GasOverflowError(message, node=node, t=t)


def density(gas: GasModel, s: FlowState):
    """Density from the Bernoulli relation (see bernoulli_density).

    Raises VacuumError if c^2 <= 0, and GasOverflowError past the
    isothermal exp() guard or where the density is not a finite double.
    """
    rho, _, ok = bernoulli_density(gas, head := gas.head(s.speed_sq(), s.z))
    require_admissible(gas, head, ok)
    return rho


def density_partials(gas: GasModel, s: FlowState):
    """(d rho/d q1, d rho/d q2, d rho/d z) at the state.

    Each partial is -x / rho^(gamma-2); rho^(gamma-2) is evaluated as
    c^2/rho, which is exact under c^2 = rho^(gamma-1) and also covers
    gamma = 1 (where the partials are -x * rho).
    """
    rho, c2, ok = bernoulli_density(gas, head := gas.head(s.speed_sq(), s.z))
    require_admissible(gas, head, ok)
    scale = rho / c2
    return (-s.q1 * scale, -s.q2 * scale, -s.z * scale)


def pseudo_mach_sq(gas: GasModel, s: FlowState):
    """Tangential pseudo-Mach number squared, L^2 = |q|^2 / c^2.

    Raises like density() where c^2 or the isothermal exponent is rejected.
    """
    q_sq = s.speed_sq()
    _, c2, ok = bernoulli_density(gas, head := gas.head(q_sq, s.z), False)
    require_admissible(gas, head, ok)
    return q_sq / c2


def classify_codes(gas: GasModel, s: FlowState):
    """classify_state over arrays (band EPS_TYPE); returns FlowType integer codes.

    Vacuum is a classification here, not an error: it marks nodes where
    c^2 <= 0 or (gamma = 1) the density exponent is out of range.
    """
    q_sq = np.asarray(s.speed_sq(), dtype=float)
    codes = np.full(q_sq.shape, int(FlowType.VACUUM), dtype=np.int8)
    _, c2, ok = bernoulli_density(gas, gas.head(q_sq, s.z), False)
    with np.errstate(divide="ignore", invalid="ignore"):
        l2 = np.where(ok, q_sq / np.where(ok, c2, 1.0), np.inf)
    codes[ok & (np.abs(l2 - 1.0) <= EPS_TYPE)] = int(FlowType.PARABOLIC)
    codes[ok & (l2 > 1.0 + EPS_TYPE)] = int(FlowType.HYPERBOLIC)
    codes[ok & (l2 < 1.0 - EPS_TYPE)] = int(FlowType.ELLIPTIC)
    return codes


def classify_state(gas: GasModel, s: FlowState):
    """Classify a single state as Elliptic/Parabolic/Hyperbolic/Vacuum.

    A band of half-width EPS_TYPE around L^2 = 1 counts as parabolic; it
    exists only to absorb roundoff (analytically the parabolic set has
    measure zero).
    """
    codes = np.asarray(classify_codes(gas, s))
    if codes.size != 1:
        raise ValueError("classify_state expects a pointwise state; "
                         "use classify_codes for array states")
    return FlowType(int(codes.reshape(-1)[0]))


def speed_sq_excess(gas: GasModel, s: FlowState):
    """Full squared speed minus squared sound speed: |q|^2 + z^2 - c^2.

    This is the quantity whose segment convexity transfers ellipticity
    from the endpoints of [phi-, phi+] to the whole segment; its Hessian
    in (q1, q2, z) is the constant matrix returned by convexity_hessian.
    """
    return s.speed_sq() + s.z * s.z - sound_speed_sq(gas, s)


def convexity_hessian(gas: GasModel):
    """Constant Hessian of speed_sq_excess: (gamma+1) * I (3x3).

    Nonnegative for every admissible gamma >= -1, and exactly zero for the
    Chaplygin gas gamma = -1.
    """
    return (gas.gamma + 1.0) * np.eye(3)
