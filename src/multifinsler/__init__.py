"""Numerical multimetric Finsler geometry.

A family of Riemannian metrics on a shared coordinate patch defines the norm
F = sum_mu sqrt(y' a_mu(x) y).  This package evaluates and cross-verifies the
geometry built on it: fundamental and Cartan tensors, spray and nonlinear /
Chern connections, the 2D invariants, closed-form Holmes-Thompson and
Busemann-Hausdorff measures, and geodesics.
"""

from .config import ConfigError, SamplingPolicy, SpaceConfig, load_config
from .connection import (
    ConnectionState,
    chern_connection,
    connection_state,
    landsberg_berwald,
    nonlinear_connection_fd,
    variational_spray,
)
from .dim2 import (
    Frame2D,
    cartan_structure_residuals,
    frame_from_state,
    gauss_curvature,
    invariant_I_oracle,
    invariants_JK,
)
from .expr import (
    EvalDomainError,
    ExprError,
    ParseError,
    ScalarExpr,
    UnknownIdentifierError,
    differentiate,
    parse_expression,
)
from .finsler import (
    FinslerState,
    MultiMetricSpace,
    NonFiniteSampleError,
    SlitViolationError,
    fd_fundamental_tensor,
    finsler_norm,
    finsler_state,
    riemannian_detect,
)
from .geodesic import GeodesicPath, action_of_path, integrate_geodesic
from .measure import (
    DegeneratePairError,
    EllipticPair,
    MeasureReport,
    busemann_hausdorff,
    busemann_hausdorff_bimetric,
    busemann_hausdorff_quadrature,
    complete_elliptic_e,
    complete_elliptic_k,
    holmes_thompson,
    holmes_thompson_circle_oracle,
    holmes_thompson_disc_oracle,
    indicatrix_reduction_check,
    lambda_pair,
)
from .riemann import (
    MetricField,
    NotPositiveDefiniteError,
    christoffels_and_spray,
    symmetric_polynomials,
)
from .suites import run_suite

__version__ = "0.1.0"
