"""Exception hierarchy shared by all sphereflow modules."""


class SphereflowError(Exception):
    """Base class for every error raised by this package."""


class InadmissibleStateError(SphereflowError):
    """Base class for states where the Bernoulli density is undefined.

    ``node`` is the (i, j) grid index of the first offending node when the
    error arises from a field sweep, None for pointwise calls.  ``t`` is the
    segment parameter when the offending state lies on a convex combination
    of two fields.
    """

    def __init__(self, message, node=None, t=None):
        super().__init__(message)
        self.node = node
        self.t = t


class VacuumError(InadmissibleStateError):
    """Density is undefined: the sound-speed base c^2 dropped to <= 0."""


class GasOverflowError(InadmissibleStateError):
    """Density is not a finite double: isothermal exponent past its guard, or overflow."""


class NotEllipticError(SphereflowError):
    """Operation requires a strictly elliptic state (L^2 < 1, c^2 > 0)."""


class GridError(SphereflowError):
    """Invalid grid: too small, pole inclusion, bad bounds, or thin mask."""


class GridMismatchError(GridError):
    """Two fields that must share a grid do not."""


class NonConvergenceError(SphereflowError):
    """Newton stopped short of newton_tol: on its cap, on stagnation or on a
    line-search stall above the roundoff floor.

    ``field`` is the last accepted iterate, which has the smallest ||r||_2
    of the solve (every accepted step lowers it) but not always the smallest
    sup-norm residual; ``report`` is the SolveReport so far.
    """

    def __init__(self, message, field=None, report=None):
        super().__init__(message)
        self.field = field
        self.report = report


class VacuumEncounteredError(VacuumError):
    """Damping exhausted without an admissible (rho > 0) iterate."""


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
