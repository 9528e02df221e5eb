"""Seeded simulation harness for the limiting-covariance claims.

Every simulation reads one counter-based Philox stream, the stream of
`substream(seed, 0)`.  A Philox block is one counter value and gives four
64-bit outputs, one per uniform; replication r of an n x m sample owns
K = ceil(n·m/4) blocks, the counters r·K+1 … (r+1)·K, and reads its n·m
uniforms from them in order.  So a replication's uniforms depend on
(seed, r, n, m) alone, and replication 0 is the first n·m uniforms of
the stream.  Replications run in fixed-size blocks: one generator per
block is advanced to the block's first counter and draws the whole block
in one call, and the (B, n, m) sample goes through the batch forms of
`rankstats` in one call, B and B-hat at p >= 2 included.  The blocks are
the slices of `quadrature.blocks`, the one block budget; a p >= 2
statistic splits its block again into lattice chunks of the same budget.
Up to MAX_THREADS worker threads take whole blocks, and blocks are
merged in block order, so results are bit-identical whether replications
run serially or across any number of threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .families import all_nonempty_family, check_subset, family_for_known_margins
from .kernel import GreenKernel, green_kernel
from .quadrature import _node_count, blocks, count_text, tensor_points
from . import rankstats

MAX_THREADS = 64
_BASE_RIDGE = 1e-12


def check_grid_size(points: int) -> None:
    """Refuse, before it is built, a grid whose G x G matrices pass `rankstats.check_cap`."""
    rankstats.check_cap(points * points, f"a grid of {count_text(points)} points needs "
                        f"{count_text(points)}^2 kernel entries", "grid_n or m")


def check_field_size(count: int, points: int) -> None:
    """Refuse `count` field draws on a grid of `points` points before anything
    is drawn: fewer than one draw, or more values than `rankstats.check_cap` allows."""
    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    rankstats.check_cap(count * points, f"--count {count} draws of {points} points need "
                        f"{count_text(count * points)} values", "--count or grid_n")


def interior_lattice(m: int, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The interior lattice of grid_n nodes (k+1)/(grid_n+1) on each of m
    axes: the (m, grid_n) nodes per axis and the (grid_n^m, m) points, the
    last axis varying fastest.  A lattice too large for its kernel
    matrices is refused before it is built."""
    check_grid_size(grid_n ** m)
    axis = (np.arange(grid_n) + 1.0) / (grid_n + 1.0)
    return np.tile(axis, (m, 1)), tensor_points(axis, m)


@dataclass(frozen=True)
class SimConfig:
    """A simulation: `grid_n` nodes per axis of the interior lattice on
    which `cov` and `tiedcov` compare covariances (None for `nulldist`)."""
    seed: int
    n: int
    replications: int
    m: int
    grid_n: int | None = None
    V: int | None = None
    threads: int = 1

    def __post_init__(self):
        if self.replications < 100:
            raise ValueError("at least 100 replications are required")
        if self.n < 1:
            raise ValueError("sample size must be positive")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(f"threads must be between 1 and {MAX_THREADS}")
        if self.grid_n is not None:
            check_grid_size(_node_count(self.grid_n, "grid_n") ** self.m)
        if self.V is not None:
            check_subset(self.V, self.m)
        check_seed(self.seed, "seed")


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


def check_seed(seed: int, name: str) -> int:
    """The seed as an int, refused outside [0, 2^64), where the 64 bits it
    takes of a Philox key would alias it to another."""
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"{name} must be in [0, 2^64), got {seed}")
    return seed


def substream(seed: int, replication: int) -> np.random.Generator:
    """The Philox generator keyed by (seed, replication), at counter 0.

    Keys of distinct (seed, replication) pairs, each in [0, 2^64), give
    independent streams; one outside that range is refused.  The
    simulators read the stream of replication 0 only: `field` draws from
    its start, and replication r of a sample reads its counters
    r·K+1 … (r+1)·K (see `_uniform_block`)."""
    key = check_seed(seed, "seed") << 64 | check_seed(replication, "replication")
    return np.random.Generator(np.random.Philox(key=key))


def _uniform_block(seed: int, lo: int, hi: int, n: int, m: int) -> np.ndarray:
    """The (hi - lo, n, m) uniforms of replications lo..hi-1 in one draw.

    Replication r reads the outputs of counters r·K+1 … (r+1)·K of the
    stream of substream(seed, 0), K = ceil(n·m/4), and keeps the first
    n·m of its 4K uniforms, so replication 0 is
    substream(seed, 0).random((n, m))."""
    K = -(-n * m // 4)
    gen = substream(seed, 0)
    gen.bit_generator.advance(lo * K)
    return gen.random((hi - lo, 4 * K))[:, :n * m].reshape(hi - lo, n, m)


def _replication_values(cfg: SimConfig, fn, cells: int = 0, width: int = 0) -> np.ndarray:
    """fn of the uniform sample of every replication, in index order.

    fn maps a (B, n, m) block to B rows of values.  Its largest temporary
    is taken to be B·n·max(m, width) floats.  A replication whose
    n·max(m, width) values, or threads whose lattices of `cells` cells per
    dataset (each within the cap) together, pass the cap of
    `rankstats.check_cap` are refused before anything is drawn.
    """
    each = cfg.n * max(cfg.m, width)
    rankstats.check_cap(each, f"--n {cfg.n} observations need {count_text(each)} values "
                        f"per replication", "--n")
    slices = blocks(cfg.replications, 8 * each)
    workers = min(cfg.threads, len(slices))
    rankstats.check_cap(workers * cells, f"--threads {cfg.threads} builds {workers} lattices "
                        f"of {count_text(cells)} cells at once", "--threads")

    def run(block: slice) -> np.ndarray:
        return fn(_uniform_block(cfg.seed, block.start, block.stop, cfg.n, cfg.m))

    if workers == 1:
        return np.concatenate([run(b) for b in slices])
    from concurrent.futures import ThreadPoolExecutor  # loaded only by a threaded run

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
    if not np.all(se > 0.0):
        raise ValueError(f"max_dev_in_se is undefined: {int(np.sum(se == 0.0))} of the "
                         f"{G * G} standard errors are zero (a product of process values "
                         f"is the same in every replication, as at n = 1 with no margin "
                         f"known)")
    dev = np.abs(empirical - theoretical)
    return CovarianceReport(
        empirical=empirical,
        theoretical=theoretical,
        standard_errors=se,
        max_abs_dev=float(dev.max()),
        max_dev_in_se=float((dev / se).max()),
    )


def _simulate_covariance(cfg: SimConfig, family, points: np.ndarray, process,
                         width: int) -> CovarianceReport:
    """Empirical covariance at the lattice points of process, a (B, n, m)
    block of samples to its (B, G) values there, versus the Green kernel
    of the family; process's largest temporary is `width` floats per
    observation.  The R x G values are all kept: past the cap of
    `rankstats.check_cap` the run is refused before anything is drawn."""
    values = cfg.replications * len(points)
    rankstats.check_cap(values, f"--R {cfg.replications} replications on {len(points)} "
                        f"grid points keep {count_text(values)} process values", "--R or grid_n")
    theo = green_kernel(family).cross(points, points)
    return _covariance_report(_replication_values(cfg, process, width=width), theo)


def _lattice(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    if cfg.grid_n is None:
        raise ValueError("config must include grid_n, the lattice nodes per axis")
    return interior_lattice(cfg.m, cfg.grid_n)


def simulate_null_covariance(cfg: SimConfig) -> CovarianceReport:
    """Empirical covariance of the known-margins process on the lattice
    versus the Green kernel of the matching family; the process is
    counted point by point, from (B, G, n) comparisons."""
    if cfg.V is None:
        raise ValueError("config must specify V")
    _, points = _lattice(cfg)
    return _simulate_covariance(cfg, family_for_known_margins(cfg.V, cfg.m), points,
                                lambda X: rankstats.batch_process_W(X, points, cfg.V),
                                len(points))


def simulate_tied_down_covariance(cfg: SimConfig) -> CovarianceReport:
    """Empirical covariance of the tied-down process on the lattice versus
    the pillow kernel; the process is built from per-axis factors, whose
    Kronecker product over m - 1 axes is the largest temporary."""
    axes, points = _lattice(cfg)
    g = cfg.grid_n
    return _simulate_covariance(cfg, all_nonempty_family(cfg.m), points,
                                lambda X: rankstats.batch_tied_down(X, axes),
                                g ** (cfg.m - 1) + g)


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
    rankstats.check_cap(cfg.replications, f"--R {cfg.replications} replications keep "
                        f"{cfg.replications} statistic values", "--R")
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
