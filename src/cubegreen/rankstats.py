"""Rank-based independence statistics and empirical processes on I^m.

The absolutely continuous model is assumed throughout: ties within a
column are a hard error, never resolved by midranks.  Statistics that
presuppose uniform margins (the integral statistics with known margins)
expect data already on the copula scale; `to_copula_scale` performs the
explicit rank transform R/(n+1) when asked.

Every statistic, p >= 2 included, the ranks and both empirical
processes have one batch implementation over a (B, n, m) stack of
datasets, which returns one value per dataset (`batch_ranks`,
`batch_statistic`, `batch_process_W`, `batch_tied_down`).  The functions
of one (n, m) dataset are those forms applied to X[None], so a value does
not depend on the batch it is computed in.

B and B-hat at p >= 2 are sums over a lattice of midpoint-grid nodes and
empirical product atoms.  Every lattice value comes from one cumulative
histogram (`_cumcounts`) per dataset, built for a chunk of datasets at a
time: one bincount with each dataset offset by its own lattice, then a
cumulative sum per axis, in O(n·m·log g + cells) per dataset.  A chunk
holds as many datasets as keep its lattice within the one block budget
(`quadrature.blocks`).  A lattice above _CELL_CAP cells is refused
with ValueError before anything is allocated, by `check_cap`, which the
simulators' arrays share.  `REGISTRY` is the one table of statistics.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from .families import check_subset
from .kernel import check_unit_cube
from .quadrature import _node_count, blocks, count_text, midpoint_grid

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
    """Column-wise ranks of every dataset of a (B, n, m) batch, as the
    (B, n, m) view of a C-ordered (B, m, n) array: each column's ranks are
    contiguous, and no transposed copy is made.

    One argsort of the B·m columns made rows, and one flat index of their
    sorted order: a take of the sorted values, which the tie and NaN
    checks read, and a scatter of 1..n.  Ties and NaN are refused for the
    first dataset that has either, with the message `ranks` gives for that
    dataset alone.
    """
    X = as_batch(data)
    B, n, m = X.shape
    # ties are refused below, so the order among equal values never matters
    rows = np.ascontiguousarray(X.transpose(0, 2, 1)).reshape(-1)
    flat = np.argsort(rows.reshape(B * m, n), axis=1)
    flat += np.arange(0, B * m * n, n)[:, None]
    flat = flat.reshape(-1)
    S = rows.take(flat).reshape(B, m, n)
    nan = np.isnan(S[:, :, -1])  # argsort puts NaN last
    tied = (S[:, :, 1:] == S[:, :, :-1]).any(axis=2)
    if nan.any() or tied.any():
        b = int(np.argmax((nan | tied).any(axis=1)))
        if nan[b].any():
            raise ValueError("dataset contains NaN")
        raise ValueError(f"ties detected in column {int(np.argmax(tied[b])) + 1}")
    R = np.empty((B, m, n), dtype=np.int64)
    R.reshape(-1)[flat] = np.tile(np.arange(1, n + 1), B * m)
    return R.transpose(0, 2, 1)


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


def batch_tied_down(X: np.ndarray, axes) -> np.ndarray:
    """The tied-down process at every point of the tensor lattice of the
    per-axis nodes `axes` (m ascending 1-D arrays), for every dataset of a
    (B, n, m) batch in the unit cube, as (B, G) in lattice order, the last
    axis fastest.

    The factors 1{X_ij <= c} - c of axis j are a (B, n, g_j) array, built
    when they are used: their row-wise Kronecker product over the first
    m - 1 axes is contracted with the last axis's factors over the
    observations in one batched matmul, O(n·G) per dataset.
    """
    n, m = X.shape[1:]

    def factors(j: int) -> np.ndarray:
        return (X[:, :, j, None] <= axes[j]) - axes[j]

    K = factors(0)
    for j in range(1, m - 1):
        K = (K[:, :, :, None] * factors(j)[:, :, None, :]).reshape(len(X), n, -1)
    T = np.matmul(K.transpose(0, 2, 1), factors(m - 1))
    return T.reshape(len(X), -1) / np.sqrt(n)


def _one_point(data, x) -> tuple[np.ndarray, np.ndarray]:
    """A validated dataset as a batch of one, and x, a point of the cube
    (`check_unit_cube`), as a one-point grid."""
    X = as_dataset(data)
    _check_unit_cube(X)
    x = np.asarray(x, dtype=float)
    if x.shape != (X.shape[1],):
        raise ValueError("evaluation point dimension mismatch")
    return X[None], check_unit_cube(x)[None]


def empirical_process_W(data, V: int, x) -> float:
    """sqrt(n) (F_n(x) - prod_{j in V} x_j * prod_{j not in V} F_{j,n}(x_j))."""
    X, grid = _one_point(data, x)
    check_subset(V, X.shape[2])
    return float(batch_process_W(X, grid, V)[0, 0])


def tied_down_process(data, x) -> float:
    """n^{-1/2} sum_i prod_j (1{X_ij <= x_j} - x_j): `batch_tied_down` on
    the one-node lattice ([x_1], ..., [x_m])."""
    X, point = _one_point(data, x)
    return float(batch_tied_down(X, point.T)[0, 0])


def _split_V(V: int, m: int):
    in_v = [j for j in range(m) if V >> j & 1]
    out_v = [j for j in range(m) if not V >> j & 1]
    return in_v, out_v


def check_cap(count: int, what: str, remedy: str) -> None:
    """Refuse `count` cells, entries or values above _CELL_CAP: "<what>, above
    the cap of <_CELL_CAP>; reduce <remedy>"."""
    if count > _CELL_CAP:
        raise ValueError(f"{what}, above the cap of {_CELL_CAP}; reduce {remedy}")


def _check_cells(cells: int) -> None:
    check_cap(cells, f"the statistic needs a lattice of {count_text(cells)} cells",
              "grid_n, n or m, or choose larger V")


def lattice_cells(name: str, n: int, m: int, V: int, p: int, grid_n: int | None) -> int:
    """Cells of the lattice that the statistic builds for one dataset of n
    points in m dimensions: those reading grid_n (B, B-hat) at p >= 2 build
    one, the others none (0).  Checks the name, p, grid_n and the lattice
    against the cap as it does."""
    g = _check_args(p, grid_n, m)
    if "grid_n" not in _lookup(name).options or p == 1:
        return 0
    known = V.bit_count()
    cells = (g + 1) ** m if name == "Bhat" else g ** known * n ** (m - known)
    _check_cells(cells)
    return cells


def _cumcounts(idx: np.ndarray, shape: tuple[int, ...],
               drop: np.ndarray | None = None) -> np.ndarray:
    """C[..., k] = #{i : idx[..., i, a] <= k[a] on every axis a}, as float64.

    idx is a (..., n, d) array of lattice coordinates within `shape`, which
    `_check_cells` has passed, except in the rows where the (..., n) mask
    `drop` is true: those are counted at no node.  One bincount covers
    every leading index: the flattened coordinates offset by the index
    times the cells, the dropped rows in one overflow bin after the last
    lattice.  Then an in-place cumulative sum along each lattice axis.
    """
    lead = idx.shape[:-2]
    cells, count = math.prod(shape), math.prod(lead)
    coords = tuple(idx[..., a] for a in range(len(shape)))
    flat = np.ravel_multi_index(coords, shape, mode="clip").reshape(count, -1)
    if count > 1:
        flat += np.arange(0, count * cells, cells)[:, None]
    if drop is not None:
        flat[drop.reshape(count, -1)] = count * cells
    C = np.bincount(flat.ravel(), minlength=count * cells + 1)[:-1]
    C = C.astype(float).reshape(lead + shape)
    for a in range(len(lead), C.ndim):
        np.cumsum(C, axis=a, out=C)
    return C


def _chunk_sums(count: int, cells: int, lattice) -> np.ndarray:
    """The sum over its lattice of each of `count` datasets, as a (count,) array.

    lattice maps a slice of the datasets to their (b, ...) lattices, built
    on `cells` float64 each, in slices from `quadrature.blocks`; each
    dataset's lattice is summed alone, so a sum does not depend on the
    slice it is computed in.
    """
    sums = np.empty(count)
    for chunk in blocks(count, 8 * cells):
        L = lattice(chunk)
        sums[chunk] = L.reshape(len(L), -1).sum(axis=1)
    return sums


def stat_B(data, V: int, p: int = 1, grid_n: int | None = None) -> float:
    """Integral statistic with the margins in V known (uniform convention).

    p = 1 is evaluated exactly: the Lebesgue part integrates in closed form
    and the empirical product measure factorizes through the column ranks.
    p >= 2 combines a midpoint grid over the V-axes (O(1/grid_n) bias) with
    the exact empirical sum over the complementary product atoms.  Cost
    O(n·m·log g + cells) for g^|V| · n^(m-|V|) cells; above _CELL_CAP
    cells it raises ValueError before allocating.  Both are the batch form
    of `batch_statistic` applied to X[None].
    """
    return _single("B", as_dataset(data), V, p, grid_n)


def _batch_Bp(X: np.ndarray, V: int, p: int, g: int) -> np.ndarray:
    """B at p >= 2 of every dataset of a (B, n, m) batch.

    F_n on the (grid, atom) lattice is one cumulative histogram per
    dataset: the V-axes are binned at the grid midpoints, the other axes
    indexed by rank.
    """
    n, m = X.shape[1:]
    in_v, out_v = _split_V(V, m)
    shape = tuple(g if V >> j & 1 else n for j in range(m))
    _check_cells(math.prod(shape))
    # lattice coordinates: the midpoint bin on a V-axis (1{X <= c_k} =
    # 1{b <= k}; b = g is above every midpoint, the overflow bin), rank - 1
    # elsewhere (1{X <= X_(a)} = 1{R <= a+1})
    idx = batch_ranks(X) - 1
    # the reference product per axis: x_j on a V-axis, F_{j,n}(X_(a)) = (a+1)/n
    ref = [np.arange(1, n + 1) / n] * m
    drop = None
    if in_v:
        c = midpoint_grid(1, g)[0].ravel()
        bins = np.searchsorted(c, X[:, :, in_v], side="left")
        idx[:, :, in_v] = bins
        drop = (bins == g).any(axis=2)
        ref = [c if V >> j & 1 else r for j, r in enumerate(ref)]
    prod = reduce(np.multiply.outer, ref)

    def lattice(chunk: slice) -> np.ndarray:
        D = _cumcounts(idx[chunk], shape, None if drop is None else drop[chunk])
        D /= n
        D -= prod
        D **= p
        return D

    return _chunk_sums(len(X), math.prod(shape), lattice) / (n ** len(out_v) * g ** len(in_v))


def _tied_down_grid(X: np.ndarray, g: int) -> np.ndarray:
    """sqrt(n) times the tied-down process at every midpoint-grid node,
    sum_i prod_j (1{X_ij <= c_kj} - c_kj), on the g^m lattice of every
    dataset of (..., n, m) data, as (..., g, ..., g).

    C is the cumulative histogram on (g+1)^m, where index g on an axis
    counts every observation, so a slice at g is the histogram of a face.
    T[..k..] -= c_k T[..g..] along each axis in turn expands the product
    over every face at once (inclusion-exclusion, O(m·(g+1)^m)).
    """
    lead, m = X.ndim - 2, X.shape[-1]
    shape = (g + 1,) * m
    _check_cells(math.prod(shape))
    c = midpoint_grid(1, g)[0].ravel()
    # 1{X_ij <= c_k} = 1{b_ij <= k}; b = g for no midpoint
    T = _cumcounts(np.searchsorted(c, X, side="left"), shape)
    cs = c.reshape((g,) + (1,) * (lead + m - 1))
    for a in range(m):
        Ta = np.moveaxis(T, lead + a, 0)
        Ta[:g] -= cs * Ta[g]
    return T[(Ellipsis,) + (slice(0, g),) * m]


def stat_Bhat(data, p: int = 1, grid_n: int | None = None) -> float:
    """Tied-down integral statistic.

    p = 1 has the exact closed form n^{-1} sum_i prod_j (1/2 - X_ij);
    p >= 2 sums the tied-down process over a midpoint tensor grid, all
    g^m nodes from one cumulative histogram (`_tied_down_grid`).  Cost
    O(n·m·log g + cells) for (g+1)^m cells; above _CELL_CAP cells it
    raises ValueError before allocating.  Both are the batch form of
    `batch_statistic` applied to X[None].
    """
    return _single("Bhat", as_dataset(data), 0, p, grid_n)


def _batch_Bhatp(X: np.ndarray, p: int, g: int) -> np.ndarray:
    """B-hat at p >= 2 of every dataset of a (B, n, m) batch."""
    n, m = X.shape[1:]

    def lattice(chunk: slice) -> np.ndarray:
        T = _tied_down_grid(X[chunk], g) / n
        T **= p
        return T

    return _chunk_sums(len(X), (g + 1) ** m, lattice) / g ** m


def _check_args(p: int, grid_n: int | None, m: int) -> int:
    """Check p (an integer >= 1, not a bool) and grid_n, which every statistic
    takes, read or not; returns grid_n, or the default midpoints per axis."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError("p must be a positive integer")
    return _DEFAULT_GRID.get(m, 12) if grid_n is None else _node_count(grid_n, "grid_n")


def _batch_B(X: np.ndarray, V: int, p: int, g: int) -> np.ndarray:
    """B of a (B, n, m) batch; at p = 1 exactly: the Lebesgue part integrates in
    closed form, the product atoms factorize, #(t: X_tj >= X_ij) = n - R_ij + 1."""
    _check_unit_cube(X)
    check_subset(V, X.shape[2])
    if p != 1:
        return _batch_Bp(X, V, p, g)
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


def _batch_Bhat(X: np.ndarray, V: int, p: int, g: int) -> np.ndarray:
    """B-hat of a (B, n, m) batch; at p = 1 exactly n^{-1} sum_i prod_j (1/2 - X_ij)."""
    _check_unit_cube(X)
    if p != 1:
        return _batch_Bhatp(X, p, g)
    return np.prod(0.5 - X, axis=2).mean(axis=1)


def _check_two(n: int) -> None:
    if n < 2:
        raise ValueError("need at least two observations")


def _batch_rho(X: np.ndarray, *_) -> np.ndarray:
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


def _batch_gini(X: np.ndarray, *_) -> np.ndarray:
    n = X.shape[1]
    R1, R2 = _bivariate_ranks(X, "Gini coefficient")
    _check_two(n)  # d_n = 0 at n = 1
    d_n = float(n * n if n % 2 == 0 else n * n - 1)
    s = np.abs(n + 1 - R1 - R2) - np.abs(R1 - R2)
    return 2.0 / d_n * s.sum(axis=1)


def _batch_footrule(X: np.ndarray, *_) -> np.ndarray:
    R1, R2 = _bivariate_ranks(X, "footrule")
    return np.abs(R1 - R2).sum(axis=1).astype(float)


class Statistic(NamedTuple):
    """`batch(X, V, p, g)` of a (B, n, m) batch, g midpoints per axis; the
    name of the function of one dataset here, called as single(X, *options);
    the options of V, p and grid_n that it reads, in that function's order."""
    batch: Callable[[np.ndarray, int, int, int], np.ndarray]
    single: str
    options: tuple[str, ...]


REGISTRY = {
    "B": Statistic(_batch_B, "stat_B", ("V", "p", "grid_n")),
    "Bhat": Statistic(_batch_Bhat, "stat_Bhat", ("p", "grid_n")),
    "rho": Statistic(_batch_rho, "spearman_rho", ()),
    "gini": Statistic(_batch_gini, "gini_coefficient", ()),
    "footrule": Statistic(_batch_footrule, "footrule", ()),
}
STATISTICS = tuple(REGISTRY)


def _lookup(name: str) -> Statistic:
    if name not in STATISTICS:
        raise ValueError(f"unknown statistic {name!r}; choose from {STATISTICS}")
    return REGISTRY[name]


def batch_statistic(name: str, data, V: int = 0, p: int = 1,
                    grid_n: int | None = None) -> np.ndarray:
    """`statistic` of every dataset of a (B, n, m) batch, as a (B,) array.

    Every statistic checks p and grid_n and runs on the whole batch at
    once; B and B-hat at p >= 2 in lattice chunks from `quadrature.blocks`.
    """
    X = as_batch(data)
    g = _check_args(p, grid_n, X.shape[-1])
    return _lookup(name).batch(X, V, p, g)


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


def statistic(name: str, X, V: int, p: int, grid_n: int | None) -> float:
    """The statistic of one (n, m) dataset named by one of STATISTICS: its
    function of one dataset, looked up when called, given the options it
    reads; `batch_statistic` is the same for a (B, n, m) batch.  Every
    statistic checks p and grid_n."""
    X = as_dataset(X)
    _check_args(p, grid_n, X.shape[1])
    stat = _lookup(name)
    given = {"V": V, "p": p, "grid_n": grid_n}
    return float(globals()[stat.single](X, *(given[o] for o in stat.options)))


def load_csv(path) -> np.ndarray:
    """Load an n x m dataset from CSV.

    The file is read as UTF-8, a leading byte-order mark dropped.  A `#`
    starts a comment, as in np.loadtxt.  A line with nothing but
    whitespace once its comment is stripped is blank, wherever it is, and
    the first line that is not blank is a header when it is not all
    numbers.  A file with no data row after that is refused with
    ValueError before numpy reads it.  numpy parses the path; a
    whitespace-only line makes it fail, and the lines are then read again
    from the handle the header was sniffed on."""
    with open(path, encoding="utf-8-sig") as fh:
        rows = ((i, row) for i, line in enumerate(fh)
                if (row := line.split("#", 1)[0].strip()))
        i, first = next(rows, (0, None))
        skip = 0
        try:
            [float(tok) for tok in (first or "").split(",") if tok]
        except ValueError:  # a header
            skip = i + 1
            first = next(rows, (0, None))[1]
        if first is None:
            raise ValueError(f"the input {str(path)!r} has no data rows")
        try:
            # by path, numpy parses in chunks; a handle it iterates line by
            # line, which is slower from a few hundred rows on
            X = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2, encoding="utf-8-sig")
        except ValueError:
            # np.loadtxt skips empty lines but refuses whitespace-only ones:
            # read again with every blank line emptied (an error of the data stays)
            fh.seek(0)
            lines = [line if line.split("#", 1)[0].strip() else "" for line in fh]
            X = np.loadtxt(lines, delimiter=",", skiprows=skip, ndmin=2)
    return as_dataset(X)
