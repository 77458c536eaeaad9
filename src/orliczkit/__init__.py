"""Numerics for Orlicz-space interpolation on finite discrete measures."""

from .constants import (
    bergh_constant,
    conjugate_exponent,
    interp_constant_concave_h,
    interp_constant_linear,
    interp_constant_subadditive,
    sparr_gamma,
)
from .kfunc import k_lp_linf_grid, l_functional_grid, l_star_grid
from .liveset import NonConvergenceError
from .measure import (
    DiscreteMeasureSpace,
    SampleBatch,
    SampleFunction,
    uniform_space,
)
from .operators import (
    CertifiedOperator,
    averaging_operator,
    contractive_matrix,
    discrete_maximal,
    identity_operator,
    max_of,
    multiplier,
)
from .orlicz import (
    DomainOverflowError,
    ExponentCouple,
    OrliczFunction,
    amemiya_norm,
    build_from_generator,
    build_from_h,
    check_convexity,
    luxemburg_norm,
    modular,
    norm_start,
    power_phi,
)
from .quasiconcave import (
    PeetreRepresentation,
    PiecewiseLinearConcave,
    concave_majorant,
    max_one_rho,
    min_one_rho,
    peetre_decompose,
    power_log_rho,
    power_rho,
)
from .verify import (
    ScenarioRejected,
    generate_inputs,
    run_scenario,
    verify_k_contraction,
    verify_modular_lp_linf,
    verify_modular_lp_lq,
    verify_norm_interpolation,
    verify_sparr_batch,
)

__version__ = "0.1.0"
