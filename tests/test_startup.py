"""Start-up loads only what a command runs.

Every CLI call is a fresh process, so what `import cubegreen.cli` loads
is paid on every call: the parser must not load the extremal solver, the
measures or the thread pool, and `import cubegreen` loads no submodule.
The package namespace is lazy and keeps its public names.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubegreen

SRC = Path(__file__).resolve().parents[1] / "src"

# the public names of the package, by the submodule that defines each
PUBLIC = {
    "families": """MonotoneFamily all_nonempty_family empty_family enumerate_monotone_families
        family_for_known_margins family_from_json format_subset full_mask is_monotone
        mask_from_coords parse_subset upward_closure""",
    "kernel": "GreenKernel compute_coefficients green_kernel",
    "measures": """Measure anti_diagonal diagonal integrate_against integrate_once lambda_value
        lebesgue measure_from_json point_masses scaled weighted_sum""",
    "extremal": """DependenceFunction DegenerateMeasureError EigenEstimate ExtremalSolution
        GapReport SpearmanSlope bahadur_slope_B1 efficiency_coefficient fisher_info
        footrule_optimal_direction gini_optimal_direction minimal_norm_squared
        mixed_derivative optimality_gap pillow_direction pitman_slope_bhat
        pitman_slope_spearman principal_eigenvalue solve spearman_optimal_direction
        trace_bound""",
    "rankstats": """empirical_process_W footrule gini_coefficient load_csv ranks spearman_rho
        stat_B stat_Bhat tied_down_process to_copula_scale""",
    "montecarlo": """CovarianceReport NullDistribution SimConfig null_distribution
        sample_gaussian_field simulate_null_covariance simulate_tied_down_covariance
        substream""",
}
NAMES = [(name, module) for module, names in PUBLIC.items() for name in names.split()]


def _fresh(code: str) -> set[str]:
    """The words `code` writes to stdout, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return set(subprocess.run([sys.executable, "-B", "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.split())


def _loaded(code: str) -> set[str]:
    """The modules in sys.modules after `code` runs in a fresh interpreter."""
    return _fresh(code + "\nimport sys; sys.stdout.write(' '.join(sys.modules))")


def test_parser_loads_no_solver_and_no_thread_pool():
    loaded = _loaded("import cubegreen.cli; cubegreen.cli.build_parser()")
    assert "cubegreen.cli" in loaded
    assert {"cubegreen.extremal", "cubegreen.measures", "concurrent.futures"} & loaded == set()


def test_package_import_loads_no_submodule():
    loaded = _loaded("import cubegreen; cubegreen.__version__")
    assert "cubegreen" in loaded
    assert {m for m in loaded if m.startswith("cubegreen.")} == set()


def test_public_names_unchanged():
    assert len(NAMES) == 65
    assert sorted(cubegreen.__all__) == sorted(name for name, _ in NAMES)


@pytest.mark.parametrize("name, module", NAMES)
def test_name_is_its_module_object(name, module):
    assert getattr(cubegreen, name) is getattr(
        importlib.import_module(f"cubegreen.{module}"), name)


def test_dir_and_star_import_list_every_name():
    # before any name is imported, too
    listed = _fresh("import cubegreen; print(*dir(cubegreen))")
    assert {name for name, _ in NAMES} | {"__version__"} <= listed
    assert {name for name, _ in NAMES} <= set(dir(cubegreen))
    namespace = {}
    exec("from cubegreen import *", namespace)
    assert {name for name, _ in NAMES} <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'cubegreen' has no attribute 'nope'"):
        cubegreen.nope
    assert not hasattr(cubegreen, "ConvergenceError")  # public in extremal only
    with pytest.raises(ImportError):
        exec("from cubegreen import nope", {})
