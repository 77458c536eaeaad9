"""Numerics for Orlicz-space interpolation on finite discrete measures."""

from .constants import (
    SparrConstant,
    bergh_constant,
    conjugate_exponent,
    gamma_bounds_check,
    interp_constant_concave_h,
    interp_constant_linear,
    interp_constant_subadditive,
    sparr_gamma,
    sparr_gamma_oracle,
)
from .kfunc import (
    KEvaluation,
    brute_force_k,
    k_lp_linf,
    k_lp_linf_grid,
    kree_bounds,
    l_functional,
    l_functional_grid,
    l_star_functional,
    l_star_grid,
)
from .measure import (
    DiscreteMeasureSpace,
    SampleBatch,
    SampleFunction,
    StepFunction,
    hardy_majorizes,
    lp_integral,
    rearrangement,
    step_to_sample,
    sup_norm,
    uniform_space,
)
from .operators import (
    CertifiedOperator,
    averaging_operator,
    contractive_matrix,
    discrete_maximal,
    estimate_norm,
    identity_operator,
    max_of,
    multiplier,
)
from .orlicz import (
    DomainOverflowError,
    ExponentCouple,
    NonConvergenceError,
    OrliczFunction,
    amemiya_norm,
    build_from_generator,
    build_from_h,
    check_convexity,
    check_delta2,
    luxemburg_norm,
    modular,
    power_phi,
    surjectivity_report,
)
from .quasiconcave import (
    PeetreRepresentation,
    PiecewiseLinearConcave,
    QuasiConcaveFn,
    concave_majorant,
    is_quasiconcave,
    max_one_rho,
    min_one_rho,
    peetre_decompose,
    phi_expansion,
    power_log_rho,
    power_rho,
    reconstruct,
    rho_star,
)
from .verify import (
    ScenarioRejected,
    VerificationReport,
    Violation,
    chain_diagnostics,
    generate_inputs,
    run_scenario,
    verify_k_contraction,
    verify_modular_lp_linf,
    verify_modular_lp_lq,
    verify_norm_interpolation,
    verify_sparr_batch,
    verify_sparr_implication,
)

__version__ = "0.1.0"
