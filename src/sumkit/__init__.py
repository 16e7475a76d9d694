"""Numerical toolkit for summability methods on finite-dimensional spaces.

Capabilities: matrix / sequence-to-function / kernel summation engines with
certified truncation, three-valued regularity diagnostics in matrix and
kernel form, inclusion and transfer experiments between methods, and
Taylor-series summability in coefficient-normed spaces of power series.
"""

__version__ = "0.1.0"

from .vspace import (
    DEFAULT_SPACE,
    SCALAR,
    LinearFunctional,
    SpaceDescriptor,
    VectorValue,
    basis_vector,
    coordinate_functionals,
    scalar_value,
    as_scalar,
    zero,
)
from .domains import (
    CONVERGED,
    DIVERGED,
    INCONCLUSIVE,
    NAT,
    UNIT_INTERVAL,
    HALF_LINE,
    CompactWindow,
    ConvergenceEstimate,
    DiscreteNat,
    HalfOpenInterval,
    estimate_limit_at_infinity,
    exhaustion,
    parameter_grid,
)
from .integrate import (
    QuadratureConfig,
    QuadratureError,
    QuadratureResult,
    StepFunction,
    StepPiece,
    adaptive_quadrature,
    operator_commutation_check,
    step_integral,
    weak_integral_check,
)
from .methods import (
    FunctionSource,
    KernelSpec,
    MatrixSpec,
    NonSummableError,
    SeqToFuncSpec,
    SequenceSource,
    abel_method,
    as_kernel,
    cesaro_method,
    combine_sources,
    identity_method,
    logarithmic_method,
    scalar_function,
    scalar_sequence,
    scaled_method,
    series_summation_method,
    summability_limit,
    transform_at,
    vector_sequence,
)
from .regularity import (
    INCONCLUSIVE_OVERALL,
    NOT_REGULAR,
    REGULAR_EVIDENCE,
    GroupNormValue,
    KernelRegularityReport,
    MatrixRegularityReport,
    check_kernel_st,
    check_matrix_st,
    group_norm_scalar_row,
)
from .inclusion import (
    CaseResult,
    InclusionReport,
    OperatorFamily,
    TransferReport,
    default_scalar_battery,
    inclusion_experiment,
    transfer_experiment,
    truncation_family,
    weak_inclusion_experiment,
)
from .holo import (
    SeriesSpace,
    TaylorConvergenceReport,
    TaylorFunction,
    abel_dilate,
    series_norm,
    dilate_dual_deviation,
    geometric_taylor,
    log_mean_multiplier,
    log_taylor_mean,
    monomial_taylor,
    partial_sum,
    power_taylor,
    taylor_from_coefficients,
    taylor_sub,
    taylor_summability_experiment,
)
