"""Numerical laboratory for fourth-order singular equations of Lichnerowicz
type with a constant-coefficient Paneitz-Branson principal part.

The pieces compose in layers: geometry (coefficients, grid, fields), the
spectral operator, spectral diagnostics (eigenpair, Sobolev constant, a
proof of inverse positivity), nonlinear solvers (monotone bracket
iteration, semi-implicit flow, minimax search), and computable existence / non-existence certificates
with the threshold-coupling bracket.
"""

from .errors import (
    BracketError,
    CertificateError,
    CoercivityError,
    ConfigError,
    ConvergenceError,
    FieldFileError,
    GridMismatchError,
    MountainPassGeometryError,
    PaneitzLabError,
    SolverError,
)
from .geometry import (
    GeometryParams,
    ScalarField,
    SpectralGrid,
    derive_coefficients,
    field_to_csv,
    gradient_squared,
    load_field,
    save_field,
)
from .operator import PaneitzOperator, build_operator
from .spectral_analysis import (
    EigenPair,
    PositivityReport,
    energy_norm,
    invariant_sign,
    positivity_check,
    principal_eigenpair,
    rayleigh_quotient,
    sobolev_constant,
)
from .problems import (
    ABSORPTION,
    SOURCE,
    Bracket,
    ProblemSpec,
    SolverReport,
    energy,
    residual_sup,
)
from .monotone import (
    epsilon_continuation,
    find_sub_super,
    monotone_solve,
    verify_bracket,
)
from .flow import FlowSample, parabolic_flow
from .mountain_pass import mountain_pass_solve, second_solution_attempt
from .conditions import (
    ConditionReport,
    LambdaStarResult,
    check_existence_cond,
    check_existence_ineq,
    check_nonexistence,
    ineq_denominator,
    lambda_star_bisect,
    lambda_star_bracket,
    tangent_slope_root,
)

__version__ = "0.1.0"
