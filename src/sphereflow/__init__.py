"""Steady conical potential flow on the unit sphere.

Pointwise gas algebra, mask-aware spherical finite differences, a damped
Newton Dirichlet solver, uniform-ellipticity certificates, and executable
checks of the weak/strong comparison principles and the Hopf boundary
indicator for elliptic solutions.
"""

__version__ = "0.1.0"

from .comparison import (
    CoefficientFields,
    ComparisonReport,
    Dichotomy,
    HopfResult,
    HypothesisResult,
    hopf_indicator,
    mean_value_coefficients,
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
    comparison_matrix,
    quadratic_form_and_bound,
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
    NotEllipticError,
    SphereflowError,
    VacuumError,
)
from .expressions import evaluate_expression
from .gas import (
    FlowState,
    FlowType,
    GasModel,
    classify_codes,
    classify_state,
    convexity_hessian,
    density,
    density_partials,
    pseudo_mach_sq,
    sound_speed_sq,
    speed_sq_excess,
)
from .grid import ScalarField, SphericalGrid, VectorField
from .operators import (
    TypeMap,
    classify_field,
    eigenvalue_ratio,
    field_density,
    flow_jacobian,
    flow_residual,
    principal_matrix,
    segment_jacobian,
    spherical_divergence,
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
