"""SSP Runge-Kutta and integrating-factor time-integration toolkit."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    NegativeGap,
    NonFinite,
    NotFound,
    SingularTransform,
    SspError,
    UnknownMethod,
)
from .tableau import (
    ButcherTableau,
    CanonicalShuOsher,
    OrderReport,
    ShuOsherForm,
    abscissas_nondecreasing,
    butcher_to_canonical_shu_osher,
    canonical_form,
    order_residuals,
    parse_coefficient,
    shu_osher_to_butcher,
)
from .ssp_radius import (
    RadiusResult,
    is_absolutely_monotonic,
    observed_l2_cfl,
    ssp_radius,
    stability_polynomial,
)
from .methods import (
    FAMILY_CLASSIC,
    FAMILY_PLUS,
    CertificateReport,
    MethodRecord,
    generate_second_order,
    get,
    list_methods,
    method_names,
    verify_certificate,
)
from .expm import Circulant, ExpCache, build_cache, expm, quantize_gap
from .integrators import (
    SemiDiscretization,
    StepPlan,
    ifrk_step,
    integrate,
    make_plan,
    rk_step,
)
from .spatial import (
    Grid1D,
    make_problem,
    upwind_matrix,
    upwind_operator,
    weno5_burgers_rhs,
)
from .analysis import (
    ObservedCoefficient,
    SweepRecord,
    TvTrace,
    convergence_slope,
    ifrk_builder,
    ifrk_general_builder,
    lambda_sweep,
    max_tv_rise,
    observed_tvd_lambda,
    rk_builder,
    sweep_transition,
    total_variation,
    tv_trace,
)
from .optimizer import OptimizationSpec, optimize

__all__ = [name for name in dir() if not name.startswith("_")]
