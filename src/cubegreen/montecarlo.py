"""Seeded simulation harness for the limiting-covariance claims.

Every replication draws its uniforms from a counter-based Philox stream
keyed by (seed, replication index), so results are bit-identical whether
replications run serially or across any number of worker threads; merging
always happens in replication order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .families import all_nonempty_family, family_for_known_margins, full_mask
from .kernel import GreenKernel, green_kernel
from . import rankstats

_MASK64 = (1 << 64) - 1


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
    config: SimConfig = field(repr=False, default=None)


@dataclass(frozen=True)
class NullDistribution:
    statistic: str
    mean: float
    variance: float
    variance_se: float
    quantiles: dict[float, float]
    config: SimConfig = field(repr=False, default=None)


def substream(seed: int, replication: int) -> np.random.Generator:
    """Independent generator for one replication, derived from (seed, r)."""
    key = ((seed & _MASK64) << 64) | (replication & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _replication_values(cfg: SimConfig, fn) -> np.ndarray:
    """Evaluate fn(uniform sample) for every replication, in index order."""
    first = fn(substream(cfg.seed, 0).random((cfg.n, cfg.m)))
    out = np.empty((cfg.replications,) + np.shape(first))
    out[0] = first

    def run(r: int) -> None:
        out[r] = fn(substream(cfg.seed, r).random((cfg.n, cfg.m)))

    if cfg.threads <= 1:
        for r in range(1, cfg.replications):
            run(r)
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            list(pool.map(run, range(1, cfg.replications)))
    return out


def _covariance_report(values: np.ndarray, theoretical: np.ndarray,
                       cfg: SimConfig) -> CovarianceReport:
    R = values.shape[0]
    centered = values - values.mean(axis=0)
    empirical = centered.T @ centered / (R - 1)
    prods = values[:, :, None] * values[:, None, :]
    se = prods.std(axis=0, ddof=1) / np.sqrt(R)
    dev = np.abs(empirical - theoretical)
    return CovarianceReport(
        empirical=empirical,
        theoretical=theoretical,
        standard_errors=se,
        max_abs_dev=float(dev.max()),
        max_dev_in_se=float((dev / se).max()),
        config=cfg,
    )


def _process_values_W(X: np.ndarray, grid: np.ndarray, V: int) -> np.ndarray:
    n, m = X.shape
    ind = X[:, None, :] <= grid[None, :, :]
    Fn = ind.all(axis=2).mean(axis=0)
    marg = ind.mean(axis=0)  # (G, m) marginal ecdfs at the grid coordinates
    prod = np.ones(len(grid))
    for j in range(m):
        prod *= grid[:, j] if V >> j & 1 else marg[:, j]
    return np.sqrt(n) * (Fn - prod)


def _process_values_tied(X: np.ndarray, grid: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    terms = (X[:, None, :] <= grid[None, :, :]).astype(float) - grid[None, :, :]
    return terms.prod(axis=2).sum(axis=0) / np.sqrt(n)


def simulate_null_covariance(cfg: SimConfig) -> CovarianceReport:
    """Empirical covariance of the known-margins process on the grid versus
    the Green kernel of the matching family."""
    if cfg.V is None:
        raise ValueError("config must specify V")
    if not cfg.grid:
        raise ValueError("config must include a grid")
    grid = cfg.grid_array()
    kern = green_kernel(family_for_known_margins(cfg.V, cfg.m))
    theo = kern.gram_matrix(grid)
    vals = _replication_values(cfg, lambda X: _process_values_W(X, grid, cfg.V))
    return _covariance_report(vals, theo, cfg)


def simulate_tied_down_covariance(cfg: SimConfig) -> CovarianceReport:
    """Empirical covariance of the tied-down process versus the pillow kernel."""
    if not cfg.grid:
        raise ValueError("config must include a grid")
    grid = cfg.grid_array()
    kern = green_kernel(all_nonempty_family(cfg.m))
    theo = kern.gram_matrix(grid)
    vals = _replication_values(cfg, lambda X: _process_values_tied(X, grid))
    return _covariance_report(vals, theo, cfg)


def sample_gaussian_field(kernel: GreenKernel, grid, count: int, seed: int,
                          base_ridge: float = 1e-12) -> np.ndarray:
    """Draw centered Gaussian vectors with the kernel's Gram covariance.

    A relative ridge is added before Cholesky; it escalates tenfold up to
    three times on failure.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    G = kernel.gram_matrix(grid)
    ridge = base_ridge * np.trace(G) / len(G)
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

    def stat(X: np.ndarray) -> float:
        v = rankstats.statistic(statistic, X, V, p, grid_n)
        return np.sqrt(cfg.n) * v if scale_sqrt_n else v

    vals = _replication_values(cfg, stat)
    R = len(vals)
    var = float(vals.var(ddof=1))
    centered = vals - vals.mean()
    m4 = float(np.mean(centered ** 4))
    var_se = float(np.sqrt(max(m4 - var * var, 0.0) / R))
    qs = {q: float(np.quantile(vals, q)) for q in (0.9, 0.95, 0.99)}
    return NullDistribution(
        statistic=statistic,
        mean=float(vals.mean()),
        variance=var,
        variance_se=var_se,
        quantiles=qs,
        config=cfg,
    )
