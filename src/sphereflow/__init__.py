"""Steady conical potential flow on the unit sphere.

The Bernoulli gas law on node arrays, mask-aware spherical finite
differences and flux operators, a damped Newton Dirichlet solver,
uniform-ellipticity certificates, and executable checks of the weak/strong
comparison principles and the Hopf boundary indicator for elliptic
solutions.
"""

__version__ = "0.1.0"

from .comparison import (
    ComparisonReport,
    Dichotomy,
    HopfResult,
    HypothesisResult,
    hopf_indicator,
    straight_edge_nodes,
    strong_comparison_check,
    verify_weak_comparison,
    weak_form_field,
)
from .ellipticity import (
    EllipticityCertificate,
    SegmentCheckReport,
    certify_uniform_ellipticity,
    check_segment_conditions,
)
from .errors import (
    ConfigError,
    CornerNodeError,
    ExpressionDomainError,
    ExpressionParseError,
    GasOverflowError,
    GridError,
    GridMismatchError,
    InadmissibleFieldError,
    InadmissibleStateError,
    NonConvergenceError,
    NonTouchingNodeError,
    SphereflowError,
    VacuumError,
)
from .expressions import evaluate_expression
from .gas import FlowType, GasModel
from .grid import ScalarField, SphericalGrid
from .operators import (
    classify_field,
    field_density,
    flow_jacobian,
    flow_residual,
    segment_jacobian,
    spherical_gradient,
)
from .solver import (
    BVProblem,
    SolveReport,
    interior_solve,
    linear_solve,
    manufactured_problem,
    solve_dirichlet,
)
