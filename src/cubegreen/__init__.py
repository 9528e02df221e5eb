"""Green functions on the unit cube, extremal dependence directions, and
rank-based independence testing utilities.

The namespace is lazy (PEP 562): `import cubegreen` imports no submodule,
and each public name below is imported from its submodule on first
access, then kept here.  `from cubegreen import solve`, `cubegreen.solve`
and `from cubegreen import *` give the same objects as the submodules.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_SUBMODULE = {name: module for module, names in {
    "families": """MonotoneFamily all_nonempty_family empty_family
        enumerate_monotone_families family_for_known_margins family_from_json
        format_subset full_mask is_monotone mask_from_coords parse_subset
        upward_closure""",
    "kernel": "GreenKernel compute_coefficients green_kernel",
    "measures": """Measure anti_diagonal diagonal integrate_against integrate_once
        lambda_value lebesgue measure_from_json point_masses scaled weighted_sum""",
    "extremal": """DependenceFunction DegenerateMeasureError EigenEstimate
        ExtremalSolution GapReport SpearmanSlope bahadur_slope_B1
        efficiency_coefficient fisher_info footrule_optimal_direction
        gini_optimal_direction minimal_norm_squared mixed_derivative optimality_gap
        pillow_direction pitman_slope_bhat pitman_slope_spearman
        principal_eigenvalue solve spearman_optimal_direction trace_bound""",
    "rankstats": """empirical_process_W footrule gini_coefficient load_csv ranks
        spearman_rho stat_B stat_Bhat tied_down_process to_copula_scale""",
    "montecarlo": """CovarianceReport NullDistribution SimConfig null_distribution
        sample_gaussian_field simulate_null_covariance
        simulate_tied_down_covariance substream""",
}.items() for name in names.split()}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
