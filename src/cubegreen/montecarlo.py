"""Seeded simulation harness for the limiting-covariance claims.

Every replication draws its uniforms from a counter-based Philox stream
keyed by (seed, replication index), the stream `substream` returns.
Replications run in fixed-size blocks: one Philox generator per block
has its key set to [r, seed] and its counter and buffer zeroed for each
replication r, and the block's (B, n, m) sample goes through the batch
forms of `rankstats` in one call, B and B-hat at p >= 2 included.  The
blocks are the slices of `quadrature.blocks`, the one block budget; a
p >= 2 statistic splits its block again into lattice chunks of the same
budget.  Up to MAX_THREADS worker threads take whole blocks, and blocks
are merged in block order, so results are bit-identical whether
replications run serially or across any number of threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .families import all_nonempty_family, family_for_known_margins, full_mask
from .kernel import GreenKernel, green_kernel
from .quadrature import blocks
from . import rankstats

_MASK64 = (1 << 64) - 1
MAX_THREADS = 64
_BASE_RIDGE = 1e-12


def check_grid_size(points: int) -> None:
    """Refuse a grid whose G x G kernel and covariance matrices would hold
    more than rankstats._CELL_CAP entries, before anything is built."""
    if points * points > rankstats._CELL_CAP:
        raise ValueError(f"a grid of {points} points needs {points}^2 kernel entries, above "
                         f"the cap of {rankstats._CELL_CAP}; reduce grid_n or m")


def check_field_size(count: int, points: int) -> None:
    """Refuse `count` field draws on a grid of `points` points before anything
    is drawn: fewer than one draw, or more than rankstats._CELL_CAP values."""
    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    if count * points > rankstats._CELL_CAP:
        raise ValueError(f"--count {count} draws of {points} points need {count * points} "
                         f"values, above the cap of {rankstats._CELL_CAP}; reduce --count "
                         f"or grid_n")


@dataclass(frozen=True)
class SimConfig:
    seed: int
    n: int
    replications: int
    m: int
    grid: tuple[tuple[float, ...], ...] = ()
    V: int | None = None
    threads: int = 1

    def __post_init__(self):
        if self.replications < 100:
            raise ValueError("at least 100 replications are required")
        if self.n < 1:
            raise ValueError("sample size must be positive")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(f"threads must be between 1 and {MAX_THREADS}")
        check_grid_size(len(self.grid))
        if self.grid:
            g = np.asarray(self.grid, dtype=float)
            if g.ndim != 2 or g.shape[1] != self.m:
                raise ValueError("grid must be a list of m-dimensional points")
            if np.any(g <= 0.0) or np.any(g >= 1.0):
                raise ValueError("grid points must be strictly interior")
            if len({tuple(p) for p in self.grid}) != len(self.grid):
                raise ValueError("grid points must be distinct")
        if self.V is not None and self.V & ~full_mask(self.m):
            raise ValueError("V is not a subset of the coordinate set")

    def grid_array(self) -> np.ndarray:
        return np.asarray(self.grid, dtype=float)


@dataclass(frozen=True)
class CovarianceReport:
    empirical: np.ndarray
    theoretical: np.ndarray
    standard_errors: np.ndarray
    max_abs_dev: float
    max_dev_in_se: float


@dataclass(frozen=True)
class NullDistribution:
    mean: float
    variance: float
    variance_se: float
    quantiles: dict[float, float]


def substream(seed: int, replication: int) -> np.random.Generator:
    """Independent generator for one replication, derived from (seed, r)."""
    key = ((seed & _MASK64) << 64) | (replication & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniform_block(seed: int, lo: int, hi: int, n: int, m: int) -> np.ndarray:
    """The (hi - lo, n, m) uniforms of replications lo..hi-1: row r - lo is
    substream(seed, r).random((n, m)), drawn by one reset generator."""
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    state["state"]["counter"][:] = 0
    state["buffer"][:] = 0
    state["buffer_pos"] = len(state["buffer"])  # empty
    state["has_uint32"] = state["uinteger"] = 0
    key = state["state"]["key"]
    key[1] = seed & _MASK64
    out = np.empty((hi - lo, n, m))
    for r in range(lo, hi):
        key[0] = r & _MASK64
        bitgen.state = state
        gen.random(out=out[r - lo])
    return out


def _replication_values(cfg: SimConfig, fn, cells: int = 0) -> np.ndarray:
    """fn of the uniform sample of every replication, in index order.

    fn maps a (B, n, m) block to B rows of values.  Its largest temporary
    is taken to be B·n·max(m, G) floats, G the number of grid points.
    Threads whose lattices of `cells` cells per dataset together pass
    rankstats._CELL_CAP are refused before the pool starts.
    """
    slices = blocks(cfg.replications, 8 * cfg.n * max(cfg.m, len(cfg.grid)))
    workers = min(cfg.threads, len(slices))
    if cells <= rankstats._CELL_CAP < workers * cells:
        raise ValueError(f"--threads {cfg.threads} builds {workers} lattices of {cells} "
                         f"cells at once, above the cap of {rankstats._CELL_CAP}; reduce "
                         f"--threads")

    def run(block: slice) -> np.ndarray:
        return fn(_uniform_block(cfg.seed, block.start, block.stop, cfg.n, cfg.m))

    if workers == 1:
        return np.concatenate([run(b) for b in slices])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(run, slices)))


def _covariance_report(values: np.ndarray, theoretical: np.ndarray) -> CovarianceReport:
    R, G = values.shape
    centered = values - values.mean(axis=0)
    empirical = centered.T @ centered / (R - 1)
    # standard errors of the products v_g v_h, a block of grid rows at a
    # time: each entry is the same reduction over R as on the whole
    # R x G x G array of products
    se = np.empty((G, G))
    for rows in blocks(G, 8 * R * G):
        prods = values[:, rows, None] * values[:, None, :]
        se[rows] = prods.std(axis=0, ddof=1) / np.sqrt(R)
    dev = np.abs(empirical - theoretical)
    return CovarianceReport(
        empirical=empirical,
        theoretical=theoretical,
        standard_errors=se,
        max_abs_dev=float(dev.max()),
        max_dev_in_se=float((dev / se).max()),
    )


def simulate_null_covariance(cfg: SimConfig) -> CovarianceReport:
    """Empirical covariance of the known-margins process on the grid versus
    the Green kernel of the matching family."""
    if cfg.V is None:
        raise ValueError("config must specify V")
    if not cfg.grid:
        raise ValueError("config must include a grid")
    grid = cfg.grid_array()
    kern = green_kernel(family_for_known_margins(cfg.V, cfg.m))
    theo = kern.cross(grid, grid)
    vals = _replication_values(cfg, lambda X: rankstats.batch_process_W(X, grid, cfg.V))
    return _covariance_report(vals, theo)


def simulate_tied_down_covariance(cfg: SimConfig) -> CovarianceReport:
    """Empirical covariance of the tied-down process versus the pillow kernel."""
    if not cfg.grid:
        raise ValueError("config must include a grid")
    grid = cfg.grid_array()
    kern = green_kernel(all_nonempty_family(cfg.m))
    theo = kern.cross(grid, grid)
    vals = _replication_values(cfg, lambda X: rankstats.batch_tied_down(X, grid))
    return _covariance_report(vals, theo)


def sample_gaussian_field(kernel: GreenKernel, grid, count: int, seed: int) -> np.ndarray:
    """Draw centered Gaussian vectors with the kernel's Gram covariance.

    A ridge of `_BASE_RIDGE` times the mean diagonal is added before
    Cholesky; it escalates tenfold up to three times on failure.  The grid
    size and the count are checked before anything is built or drawn.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    check_grid_size(len(grid))
    check_field_size(count, len(grid))
    G = kernel.cross(grid, grid)
    ridge = _BASE_RIDGE * np.trace(G) / len(G)
    L = None
    for attempt in range(3):
        try:
            L = np.linalg.cholesky(G + ridge * 10 ** attempt * np.eye(len(G)))
            break
        except np.linalg.LinAlgError:
            continue
    if L is None:
        raise np.linalg.LinAlgError("Cholesky failed after ridge escalation")
    z = substream(seed, 0).standard_normal((count, len(G)))
    return z @ L.T


def null_distribution(cfg: SimConfig, statistic: str, p: int = 1,
                      grid_n: int | None = None,
                      scale_sqrt_n: bool = False) -> NullDistribution:
    """Monte Carlo null moments and upper quantiles of a statistic named by
    `rankstats.STATISTICS`; an unknown name raises ValueError."""
    V = cfg.V if cfg.V is not None else 0

    def stat(X: np.ndarray) -> np.ndarray:
        v = rankstats.batch_statistic(statistic, X, V, p, grid_n)
        return np.sqrt(cfg.n) * v if scale_sqrt_n else v

    cells = rankstats.lattice_cells(statistic, cfg.n, cfg.m, V, p, grid_n)
    vals = _replication_values(cfg, stat, cells)
    R = len(vals)
    var = float(vals.var(ddof=1))
    centered = vals - vals.mean()
    m4 = float(np.mean(centered ** 4))
    var_se = float(np.sqrt(max(m4 - var * var, 0.0) / R))
    qs = {q: float(np.quantile(vals, q)) for q in (0.9, 0.95, 0.99)}
    return NullDistribution(
        mean=float(vals.mean()),
        variance=var,
        variance_se=var_se,
        quantiles=qs,
    )
