"""Rank-based independence statistics and empirical processes on I^m.

The absolutely continuous model is assumed throughout: ties within a
column are a hard error, never resolved by midranks.  Statistics that
presuppose uniform margins (the integral statistics with known margins)
expect data already on the copula scale; `to_copula_scale` performs the
explicit rank transform R/(n+1) when asked.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .families import full_mask
from .quadrature import midpoint_grid

_DEFAULT_GRID = {2: 64, 3: 24}
_ATOM_CAP = 200_000


def as_dataset(data) -> np.ndarray:
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("dataset must be an n x m array with m >= 2")
    return X


def ranks(data) -> np.ndarray:
    """Column-wise ranks R[i, j] = #{k : X[k, j] <= X[i, j]} (1-based)."""
    X = as_dataset(data)
    n, m = X.shape
    R = np.empty((n, m), dtype=np.int64)
    for j in range(m):
        col = X[:, j]
        if np.unique(col).size != n:
            raise ValueError(f"ties detected in column {j + 1}")
        order = np.argsort(col, kind="stable")
        R[order, j] = np.arange(1, n + 1)
    return R


def to_copula_scale(data) -> np.ndarray:
    """Rank-PIT transform R/(n+1); an explicit, caller-requested step."""
    R = ranks(data)
    return R / (R.shape[0] + 1.0)


def _check_unit_cube(X: np.ndarray) -> None:
    if np.any(X < 0.0) or np.any(X > 1.0):
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


def stat_B(data, V: int, p: int = 1, grid_n: int | None = None) -> float:
    """Integral statistic with the margins in V known (uniform convention).

    p = 1 is evaluated exactly: the Lebesgue part integrates in closed form
    and the empirical product measure factorizes through the column ranks.
    p >= 2 combines a midpoint grid over the V-axes (O(1/grid_n) bias) with
    the exact empirical sum over the complementary product atoms.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    X = as_dataset(data)
    _check_unit_cube(X)
    n, m = X.shape
    if V & ~full_mask(m):
        raise ValueError("V is not a subset of the coordinate set")
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

    g = grid_n or _DEFAULT_GRID.get(m, 12)
    l, k = len(in_v), len(out_v)
    if n ** k > _ATOM_CAP:
        raise ValueError("too many empirical product atoms; reduce n or choose larger V")
    if l:
        grid_pts, cellw = midpoint_grid(l, g)
    else:
        grid_pts, cellw = np.zeros((1, 0)), 1.0
    # indicator of the V-part per (observation, grid point)
    ind_v = np.ones((n, len(grid_pts)))
    for a, j in enumerate(in_v):
        ind_v *= (X[:, j][:, None] <= grid_pts[:, a][None, :])
    prod_xv = grid_pts.prod(axis=1) if l else np.ones(1)
    cols = [np.sort(X[:, j]) for j in out_v]
    total = 0.0
    atom_w = n ** (-k) if k else 1.0
    for atom in product(*[range(n) for _ in out_v]):
        ind_rows = np.ones(n)
        f_marg = 1.0
        for a, j in enumerate(out_v):
            y = cols[a][atom[a]]
            ind_rows *= X[:, j] <= y
            f_marg *= (atom[a] + 1.0) / n
        Fn = ind_rows @ ind_v / n
        integrand = (Fn - prod_xv * f_marg) ** p
        total += atom_w * float(integrand.sum()) * cellw
    return total


def stat_Bhat(data, p: int = 1, grid_n: int | None = None) -> float:
    """Tied-down integral statistic.

    p = 1 has the exact closed form n^{-1} sum_i prod_j (1/2 - X_ij);
    p >= 2 uses a midpoint tensor grid of the tied-down process.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    X = as_dataset(data)
    _check_unit_cube(X)
    n, m = X.shape
    if p == 1:
        return float(np.prod(0.5 - X, axis=1).mean())
    g = grid_n or _DEFAULT_GRID.get(m, 12)
    pts, cellw = midpoint_grid(m, g)
    total = 0.0
    for x in pts:
        val = float(np.prod((X <= x).astype(float) - x, axis=1).mean())
        total += val ** p
    return total * cellw


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
