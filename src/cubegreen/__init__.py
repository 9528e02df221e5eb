"""Green functions on the unit cube, extremal dependence directions, and
rank-based independence testing utilities."""

from .families import (
    MonotoneFamily,
    all_nonempty_family,
    empty_family,
    enumerate_monotone_families,
    family_for_known_margins,
    family_from_json,
    format_subset,
    full_mask,
    is_monotone,
    mask_from_coords,
    parse_subset,
    upward_closure,
)
from .kernel import GreenKernel, compute_coefficients, green_kernel
from .measures import (
    Measure,
    anti_diagonal,
    diagonal,
    integrate_against,
    integrate_once,
    lambda_value,
    lebesgue,
    measure_from_json,
    point_masses,
    scaled,
    weighted_sum,
)
from .extremal import (
    DependenceFunction,
    DegenerateMeasureError,
    EigenEstimate,
    ExtremalSolution,
    GapReport,
    SpearmanSlope,
    bahadur_slope_B1,
    efficiency_coefficient,
    fisher_info,
    footrule_optimal_direction,
    gini_optimal_direction,
    minimal_norm_squared,
    mixed_derivative,
    optimality_gap,
    pillow_direction,
    pitman_slope_bhat,
    pitman_slope_spearman,
    principal_eigenvalue,
    solve,
    spearman_optimal_direction,
    trace_bound,
)
from .rankstats import (
    empirical_process_W,
    footrule,
    gini_coefficient,
    load_csv,
    ranks,
    spearman_rho,
    stat_B,
    stat_Bhat,
    tied_down_process,
    to_copula_scale,
)
from .montecarlo import (
    CovarianceReport,
    NullDistribution,
    SimConfig,
    null_distribution,
    sample_gaussian_field,
    simulate_null_covariance,
    simulate_tied_down_covariance,
    substream,
)

__version__ = "0.1.0"
