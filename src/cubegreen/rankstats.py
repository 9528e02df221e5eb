"""Rank-based independence statistics and empirical processes on I^m.

The absolutely continuous model is assumed throughout: ties within a
column are a hard error, never resolved by midranks.  Statistics that
presuppose uniform margins (the integral statistics with known margins)
expect data already on the copula scale; `to_copula_scale` performs the
explicit rank transform R/(n+1) when asked.

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


def ranks(data) -> np.ndarray:
    """Column-wise ranks R[i, j] = #{k : X[k, j] <= X[i, j]} (1-based)."""
    X = as_dataset(data)
    n, m = X.shape
    # one argsort of all columns, each made contiguous as a row; ties are
    # refused below, so the order among equal values never matters
    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(Xt, axis=1)
    rows = np.arange(m)[:, None]
    S = Xt[rows, order]
    if np.isnan(S[:, -1:]).any():  # argsort puts NaN last
        raise ValueError("dataset contains NaN")
    tied = (S[:, 1:] == S[:, :-1]).any(axis=1)
    if tied.any():
        raise ValueError(f"ties detected in column {int(np.argmax(tied)) + 1}")
    R = np.empty((n, m), dtype=np.int64)
    R.T[rows, order] = np.arange(1, n + 1)
    return R


def to_copula_scale(data) -> np.ndarray:
    """Rank-PIT transform R/(n+1); an explicit, caller-requested step."""
    R = ranks(data)
    return R / (R.shape[0] + 1.0)


def _check_unit_cube(X: np.ndarray) -> None:
    if not np.all((X >= 0.0) & (X <= 1.0)):  # NaN fails too
        raise ValueError("data must lie in the unit cube for this statistic")


def joint_ecdf(X: np.ndarray, x: np.ndarray) -> float:
    return float(np.mean(np.all(X <= x, axis=1)))


def marginal_ecdf(X: np.ndarray, j: int, t: float) -> float:
    return float(np.mean(X[:, j] <= t))


def empirical_process_W(data, V: int, x) -> float:
    """sqrt(n) (F_n(x) - prod_{j in V} x_j * prod_{j not in V} F_{j,n}(x_j))."""
    X = as_dataset(data)
    _check_unit_cube(X)
    n, m = X.shape
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise ValueError("evaluation point dimension mismatch")
    if V & ~full_mask(m):
        raise ValueError("V is not a subset of the coordinate set")
    prod = 1.0
    for j in range(m):
        prod *= x[j] if V >> j & 1 else marginal_ecdf(X, j, x[j])
    return float(np.sqrt(n) * (joint_ecdf(X, x) - prod))


def tied_down_process(data, x) -> float:
    """n^{-1/2} sum_i prod_j (1{X_ij <= x_j} - x_j)."""
    X = as_dataset(data)
    _check_unit_cube(X)
    n, m = X.shape
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise ValueError("evaluation point dimension mismatch")
    terms = (X <= x).astype(float) - x
    return float(terms.prod(axis=1).sum() / np.sqrt(n))


def tied_down_process_subtraction(data, x) -> float:
    """Alternate form: sqrt(n) (F_n minus alternating face corrections)."""
    X = as_dataset(data)
    _check_unit_cube(X)
    n, m = X.shape
    x = np.asarray(x, dtype=float)
    total = joint_ecdf(X, x)
    for u in range(1, 1 << m):
        k = u.bit_count()
        xf = x.copy()
        xu = 1.0
        for j in range(m):
            if u >> j & 1:
                xu *= x[j]
                xf[j] = 1.0
        total -= (-1.0) ** (k - 1) * xu * joint_ecdf(X, xf)
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
    if p < 1:
        raise ValueError("p must be a positive integer")
    X = as_dataset(data)
    _check_unit_cube(X)
    n, m = X.shape
    if V & ~full_mask(m):
        raise ValueError("V is not a subset of the coordinate set")
    g = _grid_size(grid_n, m)
    in_v, out_v = _split_V(V, m)
    R = ranks(X)
    if p == 1:
        # sum over product atoms factorizes: #(t: X_tj >= X_ij) = n - R_ij + 1
        term1 = np.ones(n)
        for j in in_v:
            term1 *= 1.0 - X[:, j]
        for j in out_v:
            term1 *= (n - R[:, j] + 1.0) / n
        t1 = float(term1.mean())
        t2 = 0.5 ** len(in_v) * ((n + 1.0) / (2.0 * n)) ** len(out_v)
        return t1 - t2

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
    if p < 1:
        raise ValueError("p must be a positive integer")
    X = as_dataset(data)
    _check_unit_cube(X)
    n, m = X.shape
    g = _grid_size(grid_n, m)
    if p == 1:
        return float(np.prod(0.5 - X, axis=1).mean())
    T = _tied_down_grid(X, g) / n
    T **= p
    return float(T.sum()) / g ** m


def spearman_rho(data) -> float:
    """Multivariate Spearman rank correlation."""
    X = as_dataset(data)
    n, m = X.shape
    if n < 2:
        raise ValueError("need at least two observations")
    R = ranks(X)
    c_m = float(np.mean(np.arange(1, n + 1, dtype=float) ** m) - ((n + 1.0) / 2.0) ** m)
    s = float(np.prod(n + 1.0 - R, axis=1).mean() - ((n + 1.0) / 2.0) ** m)
    return s / c_m


def gini_coefficient(data) -> float:
    """Gini rank association coefficient (bivariate only)."""
    X = as_dataset(data)
    n, m = X.shape
    if m != 2:
        raise ValueError("the Gini coefficient is defined for m = 2")
    R = ranks(X)
    d_n = float(n * n if n % 2 == 0 else n * n - 1)
    s = np.abs(n + 1 - R[:, 0] - R[:, 1]) - np.abs(R[:, 0] - R[:, 1])
    return float(2.0 / d_n * s.sum())


def footrule(data) -> int:
    """Spearman footrule: total rank displacement (bivariate only)."""
    X = as_dataset(data)
    if X.shape[1] != 2:
        raise ValueError("the footrule is defined for m = 2")
    R = ranks(X)
    return int(np.abs(R[:, 0] - R[:, 1]).sum())


STATISTICS = ("B", "Bhat", "rho", "gini", "footrule")


def statistic(name: str, X, V: int, p: int, grid_n: int | None) -> float:
    """The statistic of the data named by one of STATISTICS.

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
