"""Seeded simulation harness for the limiting-covariance claims.

A `SimConfig` is the sample alone, what every simulation draws.  Each
simulator takes the other options it reads and checks each once, before
anything is drawn: `simulate_null_covariance` the known margins V and
the lattice's grid_n, `simulate_tied_down_covariance` the grid_n alone,
and `null_distribution` the statistic, its p and grid_n, and V.  The two
covariance simulators, the only code that builds G x G kernel matrices,
refuse them past the cap (`check_grid_size`), and their standard errors
come from two G x G Gram matrices, of the values and of their squares.

`sample_gaussian_field(kernel, grid_n, count, seed)` draws the limit
field exactly, with no ridge and no G x G matrix: the kernel's diagram
operator applied to (g + 1)^m normals per draw (`field_factors`), so
the lattice is bounded only by the value cap.

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

from .families import _check_dim, all_nonempty_family, check_subset, family_for_known_margins
from .kernel import GreenKernel, green_kernel
from .quadrature import _node_count, blocks, count_text, tensor_points
from . import rankstats

MAX_THREADS = 64


def check_grid_size(points: int) -> None:
    """Refuse, before it is built, a grid whose G x G matrices pass `rankstats.check_cap`."""
    rankstats.check_cap(points * points, f"a grid of {count_text(points)} points needs "
                        f"{count_text(points)}^2 kernel entries", "grid_n or m")


def check_field_size(count: int, g: int, m: int) -> None:
    """Refuse `count` field draws on the interior lattice of g nodes per axis
    in m dimensions before anything is drawn: fewer than one draw, or more
    values (count·g^m) or normals per draw ((g+1)^m) than
    `rankstats.check_cap` allows."""
    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    points, normals = g ** m, (g + 1) ** m
    rankstats.check_cap(count * points, f"--count {count} draws of {count_text(points)} points "
                        f"need {count_text(count * points)} values", "--count or grid_n")
    rankstats.check_cap(normals, f"a draw on {g} nodes per axis at m = {m} reads "
                        f"{count_text(normals)} normals", "--grid-n or --m")


def interior_lattice(m: int, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The interior lattice of grid_n nodes (k+1)/(grid_n+1) on each of m
    axes: the (m, grid_n) nodes per axis and the (grid_n^m, m) points, the
    last axis varying fastest.  It is the one check of a lattice's
    grid_n: an integer >= 1, a bool refused, and a lattice whose
    coordinates pass `rankstats.check_cap` refused before it is built."""
    grid_n = _node_count(grid_n, "grid_n")
    rankstats.check_cap(m * grid_n ** m, f"a lattice of {count_text(grid_n ** m)} points in "
                        f"{m} dimensions needs {count_text(m * grid_n ** m)} coordinates",
                        "grid_n or m")
    axis = (np.arange(grid_n) + 1.0) / (grid_n + 1.0)
    return np.tile(axis, (m, 1)), tensor_points(axis, m)


@dataclass(frozen=True)
class SimConfig:
    """The sample of a simulation, all that every simulator draws:
    `replications` (at least 100) samples of n >= 1 observations in m
    dimensions (an integer from MIN_DIM to MAX_DIM) from `seed`, on 1 to
    MAX_THREADS worker `threads`."""
    seed: int
    n: int
    replications: int
    m: int
    threads: int = 1

    def __post_init__(self):
        if self.replications < 100:
            raise ValueError(f"--R must be at least 100, got {self.replications}")
        if self.n < 1:
            raise ValueError(f"--n must be at least 1, got {self.n}")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(f"--threads must be between 1 and {MAX_THREADS}, got {self.threads}")
        # within their ranges, the counts must also be integers, bools refused
        for name in ("n", "replications", "threads"):
            _node_count(getattr(self, name), name)
        _check_dim(self.m)
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

    fn maps a (B, n, m) block to B rows of values.  `width` is the floats
    per observation of its largest temporary: g^(m-1) + g for a process
    on a lattice of g nodes per axis (its factors' Kronecker product over
    m - 1 axes, and the last axis's factors), 0 for a statistic, whose
    lattice is counted in `cells`.  A block holds as many replications as
    keep B·n·max(m, width) floats within the block budget.  A replication
    whose n·max(m, width) values, or threads whose lattices of `cells`
    cells per dataset (each within the cap) together, pass the cap of
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
    # standard errors of the products v_g v_h, whose sums over R are S1 and
    # whose sums of squares are S2, so no R x G x G array of them is built
    S1, S2 = (v.T @ v for v in (values, values * values))
    se = np.sqrt((S2 - S1 * S1 / R) / ((R - 1) * R))
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


def _simulate_covariance(cfg: SimConfig, family, grid_n: int, process) -> CovarianceReport:
    """Empirical covariance of process on the interior lattice of grid_n
    nodes per axis versus the Green kernel of the family; process maps a
    (B, n, m) block of samples and the lattice's per-axis nodes to the
    (B, G) values there (`rankstats.batch_tied_down` or
    `batch_process_W`).  Its largest temporaries are the Kronecker product
    of m - 1 axes' factors and the last axis's, g^(m-1) + g floats per
    observation.  The R x G values are all kept: past the cap of
    `rankstats.check_cap` the run is refused before anything is drawn."""
    axes, points = interior_lattice(cfg.m, grid_n)
    check_grid_size(len(points))
    values = cfg.replications * len(points)
    rankstats.check_cap(values, f"--R {cfg.replications} replications on {len(points)} "
                        f"grid points keep {count_text(values)} process values", "--R or grid_n")
    theo = green_kernel(family).cross(points, points)
    g = axes.shape[1]
    return _covariance_report(_replication_values(cfg, lambda X: process(X, axes),
                                                  width=g ** (cfg.m - 1) + g), theo)


def simulate_null_covariance(cfg: SimConfig, V: int, grid_n: int) -> CovarianceReport:
    """Empirical covariance of the process with the margins in V known, on
    the interior lattice of grid_n nodes per axis, versus the Green kernel
    of the matching family (`family_for_known_margins`, which checks V
    first); the process is built as the tied-down process is, from
    per-axis indicators (`rankstats.batch_process_W`)."""
    return _simulate_covariance(cfg, family_for_known_margins(V, cfg.m), grid_n,
                                lambda X, axes: rankstats.batch_process_W(X, axes, V))


def simulate_tied_down_covariance(cfg: SimConfig, grid_n: int) -> CovarianceReport:
    """Empirical covariance of the tied-down process on the interior
    lattice of grid_n nodes per axis versus the pillow kernel."""
    return _simulate_covariance(cfg, all_nonempty_family(cfg.m), grid_n,
                                rankstats.batch_tied_down)


def field_factors(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The square roots of the diagram's factors min, x xi and gap on the
    g axis nodes t, as `GreenKernel.kron_matvec` takes them: the
    g x (g + 1) matrices that map g + 1 standard normals z to B(t),
    t B(1) and B(t) - t B(1), for B = L z Brownian motion at t and 1.  L is
    lower triangular with entries sqrt(t_k - t_{k-1}).  Each times its own
    transpose is its factor, and the last two are uncorrelated: t B(1) and
    B(t) - t B(1) are independent."""
    g = len(t)
    L = np.tril(np.broadcast_to(np.sqrt(np.diff(t, prepend=0.0, append=1.0)), (g + 1, g + 1)))
    mins, ks = L[:g], np.outer(t, L[g])
    return mins, ks, mins - ks


def sample_gaussian_field(kernel: GreenKernel, grid_n: int, count: int, seed: int) -> np.ndarray:
    """`count` draws of the centred Gaussian field whose covariance is the
    kernel, on the interior lattice of grid_n nodes per axis: a
    (count, grid_n^m) array in `tensor_rule` order.

    A draw is the diagram operator `kernel.kron_matvec` with the factors
    of `field_factors` applied to (g + 1)^m standard normals.  Its
    covariance is the kernel exactly: each path of the diagram gives its
    term, and two distinct paths part at a node where one takes t B(1)
    and the other B(t) - t B(1), which are uncorrelated (the split of the
    Brownian pillow; Deheuvels 1981).  No g^m x g^m matrix is built.
    Draw r reads the r-th (g + 1)^m normals of substream(seed, 0), and
    draws run in blocks within the one block budget; the values do not
    depend on the block size, but at grid_n = 1 a block of one draw takes
    numpy's dot product for its last 1 x 2 by 2 x 1 product, which may
    round its last bit differently.  grid_n and the count are checked
    before anything is drawn (`check_field_size`).
    """
    t = interior_lattice(kernel.m, grid_n)[0][0]
    check_field_size(count, len(t), kernel.m)
    factors = field_factors(t)
    normals = (len(t) + 1) ** kernel.m
    width = 1 + max(map(len, kernel.levels))  # the normals and one level's nodes
    gen = substream(seed, 0)
    return np.concatenate([
        kernel.kron_matvec(*factors, gen.standard_normal((b.stop - b.start, normals)).T).T
        for b in blocks(count, 8 * width * normals)])


def null_distribution(cfg: SimConfig, statistic: str, p: int = 1,
                      grid_n: int | None = None, scale_sqrt_n: bool = False, *,
                      V: int = 0) -> NullDistribution:
    """Monte Carlo null moments and upper quantiles of a statistic named by
    `rankstats.STATISTICS`, given the options of `rankstats.statistic`: p,
    grid_n (None for the statistic's default) and the known margins V, a
    subset of M that only B reads.  V, the name, p, grid_n and the
    statistic's lattice are checked before anything is drawn; an unknown
    name raises ValueError."""
    check_subset(V, cfg.m)

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
    levels = (0.9, 0.95, 0.99)
    qs = dict(zip(levels, np.quantile(vals, levels).tolist()))
    return NullDistribution(
        mean=float(vals.mean()),
        variance=var,
        variance_se=var_se,
        quantiles=qs,
    )
