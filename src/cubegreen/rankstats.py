"""Rank-based independence statistics and empirical processes on I^m.

The absolutely continuous model is assumed throughout: ties within a
column are a hard error, never resolved by midranks.  Statistics that
presuppose uniform margins (the integral statistics with known margins)
expect data already on the copula scale; `to_copula_scale` performs the
explicit rank transform R/(n+1) when asked.

Every p = 1 statistic, the ranks and both empirical processes have one
batch implementation over a (B, n, m) stack of datasets, which returns
one value per dataset (`batch_ranks`, `batch_statistic`,
`batch_process_W`, `batch_tied_down`).  The functions of one (n, m)
dataset are those forms applied to X[None], so a value does not depend
on the batch it is computed in.

B and B-hat at p >= 2 are sums over a lattice of midpoint-grid nodes and
empirical product atoms.  Every lattice value comes from one cumulative
histogram (`_cumcounts`): one bincount and a cumulative sum per axis, in
O(n·m·log g + cells).  A lattice above _CELL_CAP cells is refused with
ValueError before anything is allocated.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .families import full_mask
from .quadrature import midpoint_grid

_DEFAULT_GRID = {2: 64, 3: 24}
# lattice cells of a p >= 2 integral statistic: 256 MB per float64 array
_CELL_CAP = 1 << 25


def as_dataset(data) -> np.ndarray:
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("dataset must be an n x m array with m >= 2")
    return X


def as_batch(data) -> np.ndarray:
    """A (B, n, m) stack of B datasets of n observations in m >= 2 columns."""
    X = np.asarray(data, dtype=float)
    if X.ndim != 3 or X.shape[2] < 2:
        raise ValueError("batch must be a B x n x m array with m >= 2")
    return X


def batch_ranks(data) -> np.ndarray:
    """Column-wise ranks of every dataset of a (B, n, m) batch, as (B, n, m).

    One argsort along the observations of all B·m columns.  Ties and NaN
    are refused for the first dataset that has either, with the message
    `ranks` gives for that dataset alone.
    """
    X = as_batch(data)
    B, n, m = X.shape
    # every column made contiguous as a row; ties are refused below, so
    # the order among equal values never matters
    Xt = np.ascontiguousarray(X.transpose(0, 2, 1))
    order = np.argsort(Xt, axis=2)
    batch, cols = np.arange(B)[:, None, None], np.arange(m)[:, None]
    S = Xt[batch, cols, order]
    nan = np.isnan(S[:, :, -1:]).any(axis=2)  # argsort puts NaN last
    tied = (S[:, :, 1:] == S[:, :, :-1]).any(axis=2)
    if nan.any() or tied.any():
        b = int(np.argmax((nan | tied).any(axis=1)))
        if nan[b].any():
            raise ValueError("dataset contains NaN")
        raise ValueError(f"ties detected in column {int(np.argmax(tied[b])) + 1}")
    R = np.empty((B, n, m), dtype=np.int64)
    R.transpose(0, 2, 1)[batch, cols, order] = np.arange(1, n + 1)
    return R


def ranks(data) -> np.ndarray:
    """Column-wise ranks R[i, j] = #{k : X[k, j] <= X[i, j]} (1-based)."""
    return batch_ranks(as_dataset(data)[None])[0]


def to_copula_scale(data) -> np.ndarray:
    """Rank-PIT transform R/(n+1); an explicit, caller-requested step."""
    R = ranks(data)
    return R / (R.shape[0] + 1.0)


def _check_unit_cube(X: np.ndarray) -> None:
    if not np.all((X >= 0.0) & (X <= 1.0)):  # NaN fails too
        raise ValueError("data must lie in the unit cube for this statistic")


def _check_V(V: int, m: int) -> None:
    if V & ~full_mask(m):
        raise ValueError("V is not a subset of the coordinate set")


def batch_process_W(X: np.ndarray, grid: np.ndarray, V: int) -> np.ndarray:
    """The known-margins empirical process at every point of a (G, m) grid,
    for every dataset of a (B, n, m) batch in the unit cube, as (B, G).

    The ECDFs are exact counts, built one axis at a time from (B, G, n)
    comparisons, each column of observations contiguous.
    """
    n, m = X.shape[1:]
    Xt = np.ascontiguousarray(X.transpose(0, 2, 1))
    joint = None
    prod = np.ones((X.shape[0], len(grid)))
    for j in range(m):
        below = Xt[:, None, j, :] <= grid[:, j, None]
        joint = below if joint is None else joint & below
        prod *= grid[:, j] if V >> j & 1 else np.count_nonzero(below, axis=2) / n
    return np.sqrt(n) * (np.count_nonzero(joint, axis=2) / n - prod)


def batch_tied_down(X: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The tied-down process at every point of a (G, m) grid, for every
    dataset of a (B, n, m) batch in the unit cube, as (B, G).

    The factors 1{X_ij <= x_j} - x_j are multiplied in axis order and the
    products summed in observation order.
    """
    n, m = X.shape[1:]
    terms = (X[:, :, None, 0] <= grid[:, 0]) - grid[:, 0]
    for j in range(1, m):
        terms *= (X[:, :, None, j] <= grid[:, j]) - grid[:, j]
    return terms.sum(axis=1) / np.sqrt(n)


def _one_point(data, x) -> tuple[np.ndarray, np.ndarray]:
    """A validated dataset as a batch of one, and x as a one-point grid."""
    X = as_dataset(data)
    _check_unit_cube(X)
    x = np.asarray(x, dtype=float)
    if x.shape != (X.shape[1],):
        raise ValueError("evaluation point dimension mismatch")
    return X[None], x[None]


def empirical_process_W(data, V: int, x) -> float:
    """sqrt(n) (F_n(x) - prod_{j in V} x_j * prod_{j not in V} F_{j,n}(x_j))."""
    X, grid = _one_point(data, x)
    _check_V(V, X.shape[2])
    return float(batch_process_W(X, grid, V)[0, 0])


def tied_down_process(data, x) -> float:
    """n^{-1/2} sum_i prod_j (1{X_ij <= x_j} - x_j)."""
    return float(batch_tied_down(*_one_point(data, x))[0, 0])


def tied_down_process_subtraction(data, x) -> float:
    """Alternate form: sqrt(n) (F_n minus alternating face corrections)."""
    X = as_dataset(data)
    _check_unit_cube(X)
    n, m = X.shape
    x = np.asarray(x, dtype=float)

    def F_n(z):
        return float(np.mean(np.all(X <= z, axis=1)))

    total = F_n(x)
    for u in range(1, 1 << m):
        k = u.bit_count()
        xf = x.copy()
        xu = 1.0
        for j in range(m):
            if u >> j & 1:
                xu *= x[j]
                xf[j] = 1.0
        total -= (-1.0) ** (k - 1) * xu * F_n(xf)
    return float(np.sqrt(n) * total)


def _split_V(V: int, m: int):
    in_v = [j for j in range(m) if V >> j & 1]
    out_v = [j for j in range(m) if not V >> j & 1]
    return in_v, out_v


def _grid_size(grid_n: int | None, m: int) -> int:
    """Midpoint nodes per axis: the default for m when grid_n is None."""
    if grid_n is None:
        return _DEFAULT_GRID.get(m, 12)
    if grid_n < 1:
        raise ValueError("grid_n must be a positive integer")
    return int(grid_n)


def _check_cells(shape: tuple[int, ...]) -> None:
    """Refuse a lattice above _CELL_CAP cells before anything is allocated."""
    cells = math.prod(shape)
    if cells > _CELL_CAP:
        raise ValueError(f"the statistic needs a lattice of {cells} cells, above the "
                         f"cap of {_CELL_CAP}; reduce grid_n, n or m, or choose larger V")


def _cumcounts(idx: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """C[k] = #{i : idx[i, a] <= k[a] on every axis a}, as float64.

    idx is an (n, d) array of lattice coordinates within `shape`, which
    `_check_cells` has passed: one bincount of the flattened coordinates,
    then an in-place cumulative sum along each axis.
    """
    flat = np.ravel_multi_index(tuple(idx.T), shape)
    C = np.bincount(flat, minlength=math.prod(shape)).astype(float).reshape(shape)
    for a in range(len(shape)):
        np.cumsum(C, axis=a, out=C)
    return C


def stat_B(data, V: int, p: int = 1, grid_n: int | None = None) -> float:
    """Integral statistic with the margins in V known (uniform convention).

    p = 1 is evaluated exactly: the Lebesgue part integrates in closed form
    and the empirical product measure factorizes through the column ranks.
    p >= 2 combines a midpoint grid over the V-axes (O(1/grid_n) bias) with
    the exact empirical sum over the complementary product atoms.  F_n on
    that (grid, atom) lattice is one cumulative histogram: the V-axes are
    binned at the grid midpoints, the other axes indexed by rank.  Cost
    O(n·m·log g + cells) for g^|V| · n^(m-|V|) cells; above _CELL_CAP
    cells it raises ValueError before allocating.
    """
    X = as_dataset(data)
    if p == 1:
        return _single("B", X, V, p, grid_n)
    g = _check_integral(X, V, p, grid_n)
    n, m = X.shape
    in_v, out_v = _split_V(V, m)
    R = ranks(X)
    l, k = len(in_v), len(out_v)
    shape = tuple(g if j in in_v else n for j in range(m))
    _check_cells(shape)
    # lattice coordinates: the midpoint bin on a V-axis (1{X <= c_k} =
    # 1{b <= k}), rank - 1 elsewhere (1{X <= X_(a)} = 1{R <= a+1})
    idx = R - 1
    if in_v:
        c = midpoint_grid(1, g)[0].ravel()
        idx[:, in_v] = np.searchsorted(c, X[:, in_v], side="left")
        # b = g: above every midpoint, so counted at no node
        idx = idx[(idx[:, in_v] < g).all(axis=1)]
    # the reference product per axis: x_j on a V-axis, F_{j,n}(X_(a)) = (a+1)/n
    ref = [c if j in in_v else np.arange(1, n + 1) / n for j in range(m)]
    D = _cumcounts(idx, shape) / n
    D -= reduce(np.multiply.outer, ref)
    D **= p
    return float(D.sum()) / (n ** k * g ** l)


def _tied_down_grid(X: np.ndarray, g: int) -> np.ndarray:
    """sqrt(n) times the tied-down process at every midpoint-grid node,
    sum_i prod_j (1{X_ij <= c_kj} - c_kj), on the g^m lattice.

    C is the cumulative histogram on (g+1)^m, where index g on an axis
    counts every observation, so a slice at g is the histogram of a face.
    T[..k..] -= c_k T[..g..] along each axis in turn expands the product
    over every face at once (inclusion-exclusion, O(m·(g+1)^m)).
    """
    m = X.shape[1]
    shape = (g + 1,) * m
    _check_cells(shape)
    c = midpoint_grid(1, g)[0].ravel()
    # 1{X_ij <= c_k} = 1{b_ij <= k}; b = g for no midpoint
    T = _cumcounts(np.searchsorted(c, X, side="left"), shape)
    cs = c.reshape((g,) + (1,) * (m - 1))
    for a in range(m):
        Ta = np.moveaxis(T, a, 0)
        Ta[:g] -= cs * Ta[g]
    return T[(slice(0, g),) * m]


def stat_Bhat(data, p: int = 1, grid_n: int | None = None) -> float:
    """Tied-down integral statistic.

    p = 1 has the exact closed form n^{-1} sum_i prod_j (1/2 - X_ij);
    p >= 2 sums the tied-down process over a midpoint tensor grid, all
    g^m nodes from one cumulative histogram (`_tied_down_grid`).  Cost
    O(n·m·log g + cells) for (g+1)^m cells; above _CELL_CAP cells it
    raises ValueError before allocating.
    """
    X = as_dataset(data)
    if p == 1:
        return _single("Bhat", X, 0, p, grid_n)
    g = _check_integral(X, 0, p, grid_n)
    n, m = X.shape
    T = _tied_down_grid(X, g) / n
    T **= p
    return float(T.sum()) / g ** m


def _check_integral(X: np.ndarray, V: int, p: int, grid_n: int | None) -> int:
    """Validate the arguments of B or B-hat on (..., n, m) data; returns the
    midpoint nodes per axis, checked even at p = 1, which reads none."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    _check_unit_cube(X)
    m = X.shape[-1]
    _check_V(V, m)
    return _grid_size(grid_n, m)


def _batch_B1(X: np.ndarray, V: int) -> np.ndarray:
    """B at p = 1, exactly: the Lebesgue part integrates in closed form and
    the sum over product atoms factorizes, #(t: X_tj >= X_ij) = n - R_ij + 1."""
    n, m = X.shape[1:]
    in_v, out_v = _split_V(V, m)
    R = batch_ranks(X)
    term1 = np.ones(X.shape[:2])
    for j in in_v:
        term1 *= 1.0 - X[:, :, j]
    for j in out_v:
        term1 *= (n - R[:, :, j] + 1.0) / n
    t2 = 0.5 ** len(in_v) * ((n + 1.0) / (2.0 * n)) ** len(out_v)
    return term1.mean(axis=1) - t2


def _check_two(n: int) -> None:
    if n < 2:
        raise ValueError("need at least two observations")


def _batch_rho(X: np.ndarray) -> np.ndarray:
    n, m = X.shape[1:]
    _check_two(n)
    R = batch_ranks(X)
    c_m = float(np.mean(np.arange(1, n + 1, dtype=float) ** m) - ((n + 1.0) / 2.0) ** m)
    s = np.prod(n + 1.0 - R, axis=2).mean(axis=1) - ((n + 1.0) / 2.0) ** m
    return s / c_m


def _bivariate_ranks(X: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    if X.shape[2] != 2:
        raise ValueError(f"the {what} is defined for m = 2")
    R = batch_ranks(X)
    return R[:, :, 0], R[:, :, 1]


def _batch_gini(X: np.ndarray) -> np.ndarray:
    n = X.shape[1]
    R1, R2 = _bivariate_ranks(X, "Gini coefficient")
    _check_two(n)  # d_n = 0 at n = 1
    d_n = float(n * n if n % 2 == 0 else n * n - 1)
    s = np.abs(n + 1 - R1 - R2) - np.abs(R1 - R2)
    return 2.0 / d_n * s.sum(axis=1)


def _batch_footrule(X: np.ndarray) -> np.ndarray:
    R1, R2 = _bivariate_ranks(X, "footrule")
    return np.abs(R1 - R2).sum(axis=1).astype(float)


def batch_statistic(name: str, data, V: int = 0, p: int = 1,
                    grid_n: int | None = None) -> np.ndarray:
    """`statistic` of every dataset of a (B, n, m) batch, as a (B,) array.

    B and B-hat at p >= 2 are evaluated dataset by dataset; every p = 1
    statistic on the whole batch at once.
    """
    X = as_batch(data)
    if name in ("B", "Bhat") and p != 1:
        return np.array([statistic(name, x, V, p, grid_n) for x in X], dtype=float)
    if name == "B":
        _check_integral(X, V, p, grid_n)
        return _batch_B1(X, V)
    if name == "Bhat":
        _check_integral(X, 0, p, grid_n)
        # the exact closed form n^{-1} sum_i prod_j (1/2 - X_ij)
        return np.prod(0.5 - X, axis=2).mean(axis=1)
    if name == "rho":
        return _batch_rho(X)
    if name == "gini":
        return _batch_gini(X)
    if name == "footrule":
        return _batch_footrule(X)
    raise ValueError(f"unknown statistic {name!r}; choose from {STATISTICS}")


def _single(name: str, X: np.ndarray, V: int = 0, p: int = 1,
            grid_n: int | None = None) -> float:
    """The batch form of a statistic applied to one (n, m) dataset."""
    return float(batch_statistic(name, X[None], V, p, grid_n)[0])


def spearman_rho(data) -> float:
    """Multivariate Spearman rank correlation."""
    return _single("rho", as_dataset(data))


def gini_coefficient(data) -> float:
    """Gini rank association coefficient (bivariate only)."""
    return _single("gini", as_dataset(data))


def footrule(data) -> int:
    """Spearman footrule: total rank displacement (bivariate only)."""
    return int(_single("footrule", as_dataset(data)))


STATISTICS = ("B", "Bhat", "rho", "gini", "footrule")


def statistic(name: str, X, V: int, p: int, grid_n: int | None) -> float:
    """The statistic of one (n, m) dataset named by one of STATISTICS;
    `batch_statistic` is the same for a (B, n, m) batch.

    V is read by B only, p and grid_n by B and Bhat only.
    """
    if name == "B":
        return stat_B(X, V, p, grid_n)
    if name == "Bhat":
        return stat_Bhat(X, p, grid_n)
    if name == "rho":
        return spearman_rho(X)
    if name == "gini":
        return gini_coefficient(X)
    if name == "footrule":
        return float(footrule(X))
    raise ValueError(f"unknown statistic {name!r}; choose from {STATISTICS}")


def load_csv(path) -> np.ndarray:
    """Load an n x m dataset from CSV; a non-numeric first row is a header."""
    with open(path) as fh:
        first = fh.readline()
    skip = 0
    try:
        [float(tok) for tok in first.strip().split(",") if tok]
    except ValueError:
        skip = 1
    X = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return as_dataset(X)
