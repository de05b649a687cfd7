"""Exception hierarchy shared by all sphereflow modules."""


class SphereflowError(Exception):
    """Base class for every error raised by this package."""


class InadmissibleStateError(SphereflowError):
    """Base class for states where the Bernoulli density is undefined.

    ``node`` is the (i, j) grid index of the first offending node.  ``t`` is
    the segment parameter when the offending state lies on a convex
    combination of two fields.
    """

    def __init__(self, message, node=None, t=None):
        super().__init__(message)
        self.node = node
        self.t = t


class VacuumError(InadmissibleStateError):
    """No density > 0: c^2 dropped to <= 0, or rho underflows to 0.0."""


class GasOverflowError(InadmissibleStateError):
    """Density overflows the doubles, or the isothermal exponent passes its
    guard, or a solve's start is too dense for the solver's arithmetic."""


class GridError(SphereflowError):
    """Invalid grid data: a mask or field that does not fit, or a thin mask.
    Bad bounds and sizes are ConfigErrors naming their key."""


class GridMismatchError(GridError):
    """Two fields that must share a grid do not."""


class NonConvergenceError(SphereflowError):
    """Newton stopped short of newton_tol: on its cap, on stagnation, on a
    line-search stall above the roundoff floor, or with no admissible
    iterate on the line search; the message names the node of max |residual|.

    ``field`` is the last accepted iterate, which has the smallest ||r||_2
    of the solve (every accepted step lowers it) but not always the smallest
    sup-norm residual; ``report`` is the SolveReport so far.
    """

    def __init__(self, message, field, report):
        super().__init__(message)
        self.field = field
        self.report = report


class InadmissibleFieldError(SphereflowError):
    """A prescribed exact solution violates rho > 0 or L^2 < 1."""


class CornerNodeError(SphereflowError):
    """Boundary node sits on a mask corner; no straight edge normal exists."""


class NonTouchingNodeError(SphereflowError):
    """Boundary node where the two fields do not touch within tolerance."""


class ExpressionParseError(SphereflowError):
    """Scenario expression failed to parse; ``position`` is the offset."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ExpressionDomainError(SphereflowError):
    """Expression evaluation produced a non-finite value at some node."""


class ConfigError(SphereflowError, ValueError):
    """Malformed or out-of-range config entry or argument; ``key`` names it."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
