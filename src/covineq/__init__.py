"""Numerical toolkit for one-dimensional isoperimetry and functional inequalities.

Computes the Cheeger isoperimetric constant of a 1-D probability measure,
evaluates covariances through the distribution-function kernel, implements
the conditional-average transform with its generalized Hardy bounds, and
certifies covariance / Poincare / Orlicz / moment inequalities with
tightness ratios.
"""

from .certificates import (
    InequalityCertificate,
    certify,
    to_csv,
    to_json,
)
from .config import RunConfig, load_config, parse_config, parse_measure_spec
from .errors import (
    ComputationError,
    ConfigError,
    CovineqError,
    DivergentNormError,
    DomainError,
    ExpressionError,
    HypothesisViolatedError,
    IngestionError,
    IntegrationError,
    UnsupportedMeasureError,
)
from .functions import parse_expression, piecewise_linear
from .inequalities import (
    BestConstantEstimate,
    YoungFunction,
    check_brascamp_lieb,
    check_cheeger,
    check_cov_final,
    check_cov_l1_linf,
    check_cov_lp_lq,
    check_cov_lp_lq_T,
    check_cov_variant,
    check_logconcave_moments,
    check_lp_poincare,
    check_mean_median_sandwich,
    check_moment_comparison,
    check_moment_growth,
    check_orlicz,
    check_psi1_bound,
    cp_sequence,
    estimate_best_constant,
    orlicz_norm,
    sharpness_sweep,
    young_power,
    young_psi1,
)
from .isoperimetry import (
    IsoperimetricProfile,
    isoperimetric_constant,
    isoperimetric_ratio,
    isoperimetric_value,
)
from .kernel import (
    covariance_direct,
    covariance_kernel,
    hardy_certificate,
    kernel_eval,
    t_norm,
    t_transform,
    tail_identity_left,
    tail_identity_right,
)
from .measures import (
    Measure,
    beta,
    exponential,
    from_scipy,
    gaussian,
    ingest_tabulated,
    laplace,
    load_tabulated,
    logistic,
    uniform,
)
from .numerics import DEFAULT_PASS_TOL, NumericContext, numeric_context
from .runner import RunResult, run

__version__ = "0.1.0"
