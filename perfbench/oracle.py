"""Independent references for every job class.

Nothing here calls into cubegreen except `tied_down_process`, which the
B-hat (p = 2) reference sums over the grid as a second code path.  Kernels
are evaluated in the all-positive form

    G(x, xi) = sum_{W not in F} prod_{j in W} x_j xi_j prod_{j not in W} (min_j - x_j xi_j),

which has no cancellation, so it is a reference for the signed-coefficient
form the program evaluates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from statistics import NormalDist

import numpy as np


# ---------------------------------------------------------------------------
# families (bitmask sets, bit j-1 = coordinate j)
# ---------------------------------------------------------------------------

def mask(coords) -> int:
    return sum(1 << (int(c) - 1) for c in coords)


def coords(u: int) -> list[int]:
    return [j + 1 for j in range(u.bit_length()) if u >> j & 1]


def closure(gens, m: int) -> frozenset[int]:
    """Upward closure of nonempty generator masks."""
    top = (1 << m) - 1
    return frozenset(u for u in range(1, top + 1) if any(u & g == g for g in gens))


def members(fam: dict, m: int) -> frozenset[int]:
    """Member masks of a family spec {"kind": pillow|sheet|km|closure}."""
    top = (1 << m) - 1
    kind = fam["kind"]
    if kind == "pillow":
        return frozenset(range(1, top + 1))
    if kind == "sheet":
        return frozenset()
    if kind == "km":
        V = mask(fam["V"])
        return frozenset([top] + [top & ~(1 << j) for j in range(m) if not V >> j & 1])
    return closure([mask(g) for g in fam["gens"]], m)


def complement(F: frozenset[int], m: int) -> list[int]:
    return [w for w in range(1 << m) if w not in F]


def mobius_coefficients(F: frozenset[int], m: int) -> dict[int, int]:
    """a_U = sum_{W subset of U} (-1)^{|U - W|} 1_F(W), for U in F."""
    f = np.zeros(1 << m, dtype=np.int64)
    f[list(F)] = 1
    idx = np.arange(1 << m)
    for j in range(m):
        hi = idx[(idx >> j) & 1 == 1]
        f[hi] -= f[hi ^ (1 << j)]
    return {u: int(f[u]) for u in F}


def count_monotone(m: int) -> int:
    """Upward-closed families of nonempty subsets: Dedekind(m) - 1."""
    return {2: 5, 3: 19, 4: 167, 5: 7580}[m]


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def kernel(F: frozenset[int], m: int, A, B) -> np.ndarray:
    """All-positive kernel matrix G(A[i], B[j])."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    ks = A[:, None, :] * B[None, :, :]
    br = np.minimum(A[:, None, :], B[None, :, :]) - ks
    out = np.zeros((len(A), len(B)))
    for w in complement(F, m):
        sel = np.array([w >> j & 1 for j in range(m)], dtype=bool)
        out += np.where(sel, ks, br).prod(axis=2)
    return out


def kernel_value(F: frozenset[int], m: int, x, xi) -> float:
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    ks = x * xi
    br = np.minimum(x, xi) - ks
    comp = complement(F, m)
    bits = np.array([[w >> j & 1 for j in range(m)] for w in comp], dtype=bool)
    return math.fsum(np.where(bits, ks, br).prod(axis=1))


def signed_condition(F: frozenset[int], m: int, x, xi) -> float:
    """Sum of |terms| over |value| for the signed-coefficient form
    prod min - sum_U a_U prod_U x xi prod_rest min.  A faithful float
    evaluation of that form is off by at most a small multiple of
    eps times this number."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    mins = np.minimum(x, xi)
    ks = x * xi
    total = float(np.prod(mins))
    for u, a in mobius_coefficients(F, m).items():
        sel = np.array([u >> j & 1 for j in range(m)], dtype=bool)
        total += abs(a) * float(np.prod(np.where(sel, ks, mins)))
    return total / abs(kernel_value(F, m, x, xi))


# ---------------------------------------------------------------------------
# measures: component lists [(kind, weight, points, point_weights)]
# ---------------------------------------------------------------------------

def components(spec, m: int, weight: float = 1.0) -> list[tuple]:
    if isinstance(spec, dict) and spec["variant"] not in ("points", "sum"):
        spec = spec["variant"]
    if isinstance(spec, str):
        if spec == "diagonal+antidiagonal":
            return [("diagonal", weight, None, None), ("antidiagonal", weight, None, None)]
        return [(spec, weight, None, None)]
    if spec["variant"] == "points":
        return [("points", weight, np.asarray(spec["points"], dtype=float),
                 np.asarray(spec["weights"], dtype=float))]
    out = []
    for part in spec["parts"]:
        out.extend(components(part["measure"], m, weight * part["weight"]))
    return out


def _gauss(a: float, b: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return a + (b - a) * (x + 1.0) / 2.0, w * (b - a) / 2.0


def _segments(breaks, n: int):
    pts = sorted({0.0, 1.0, *(float(t) for t in breaks if 0.0 < t < 1.0)})
    xs, ws = zip(*(_gauss(a, b, n) for a, b in zip(pts[:-1], pts[1:])))
    return np.concatenate(xs), np.concatenate(ws)


def _line(kind: str, ts: np.ndarray, m: int) -> np.ndarray:
    if kind == "diagonal":
        return np.repeat(ts[:, None], m, axis=1)
    return np.column_stack([1.0 - ts, ts])


def _line_breaks(kind: str, x: np.ndarray):
    return list(x) if kind == "diagonal" else [1.0 - x[0], x[1]]


def once(F, m: int, comps, x) -> float:
    """Integral of G(x, .) against the measure."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for kind, w, pts, pw in comps:
        if kind == "lebesgue":
            # int x xi dxi = x/2, int (min - x xi) dxi = x(1-x)/2
            ks, br = x / 2.0, x * (1.0 - x) / 2.0
            val = 0.0
            for u in complement(F, m):
                sel = np.array([u >> j & 1 for j in range(m)], dtype=bool)
                val += float(np.prod(np.where(sel, ks, br)))
        elif kind == "points":
            val = float(kernel(F, m, x, pts)[0] @ pw)
        else:
            ts, ws = _segments(_line_breaks(kind, x), m + 2)
            val = float(kernel(F, m, x, _line(kind, ts, m))[0] @ ws)
        total += w * val
    return total


def _lambda_pair(F, m: int, ca, cb) -> float:
    ka, kb = ca[0], cb[0]
    if ka == kb == "lebesgue":
        return float(lambda_lebesgue(F, m))
    if ka == kb == "diagonal":
        # 2 int_{s<t} s^m t^w (1-t)^{m-w} = 2 (m+w+1)! (m-w)! / ((m+1) (2m+2)!)
        f = math.factorial
        return float(sum(Fraction(2 * f(m + w + 1) * f(m - w), (m + 1) * f(2 * m + 2))
                         for w in (u.bit_count() for u in complement(F, m))))
    if kb == "points":
        ca, cb = cb, ca
    if ca[0] == "points":
        return sum(pw * once(F, m, [(cb[0], 1.0, cb[2], cb[3])], p)
                   for p, pw in zip(ca[2], ca[3]))
    if ca[0] == "lebesgue":
        ca, cb = cb, ca
    # a line outside: its parameter integral of the inner once-integral is
    # piecewise polynomial with breaks only at t = 1/2
    ts, ws = _segments([0.5], 24)
    inner = [(cb[0], 1.0, cb[2], cb[3])]
    return float(sum(w * once(F, m, inner, p) for p, w in zip(_line(ca[0], ts, m), ws)))


def lam(F, m: int, comps) -> float:
    """Double integral of the kernel against the measure."""
    return sum(ca[1] * cb[1] * _lambda_pair(F, m, ca, cb) for ca in comps for cb in comps)


def lambda_lebesgue(F, m: int) -> Fraction:
    return sum((Fraction(1, 4) ** u.bit_count() * Fraction(1, 12) ** (m - u.bit_count())
                for u in complement(F, m)), Fraction(0))


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def principal_1d(bridge: bool, n: int = 400) -> float:
    """Dense eigensolve of the 1-D kernel on a fine Gauss grid: Brownian
    bridge (min - x xi, exact 1/pi^2) or motion (min, exact 4/pi^2)."""
    x, w = _gauss(0.0, 1.0, n)
    K = np.minimum.outer(x, x)
    if bridge:
        K = K - np.outer(x, x)
    s = np.sqrt(w)
    return float(np.linalg.eigvalsh(K * np.outer(s, s)).max())


def _tensor(m: int, n: int):
    x, w = _gauss(0.0, 1.0, n)
    pts = np.stack([g.ravel() for g in np.meshgrid(*([x] * m), indexing="ij")], axis=-1)
    wts = np.prod(np.stack([g.ravel() for g in np.meshgrid(*([w] * m), indexing="ij")],
                           axis=-1), axis=1)
    return pts, wts


@lru_cache(maxsize=None)
def nystrom_dense(F: frozenset[int], m: int, n: int) -> float:
    """Largest eigenvalue of the symmetrized Nystrom matrix, dense solve."""
    pts, wts = _tensor(m, n)
    s = np.sqrt(wts)
    return float(np.linalg.eigvalsh(kernel(F, m, pts, pts) * np.outer(s, s)).max())


def trace(F: frozenset[int], m: int, n: int) -> float:
    pts, wts = _tensor(m, n)
    diag = np.array([kernel_value(F, m, p, p) for p in pts])
    return math.fsum(diag * wts)


# ---------------------------------------------------------------------------
# rank statistics
# ---------------------------------------------------------------------------

def ranks(X: np.ndarray) -> np.ndarray:
    """1-based column ranks by double argsort; columns must be tie-free."""
    return np.argsort(np.argsort(X, axis=0, kind="mergesort"), axis=0) + 1


def stat_B1(X: np.ndarray, V: int) -> tuple[float, float]:
    """B at p = 1 and the size of its terms.  Integrating F_n - prod
    against Lebesgue on the V-axes and the empirical marginals elsewhere
    gives, per observation, prod_V (1 - X_ij) prod_rest #{t: X_tj >= X_ij}/n."""
    n, m = X.shape
    term = np.ones(n)
    for j in range(m):
        if V >> j & 1:
            term *= 1.0 - X[:, j]
        else:
            col = np.sort(X[:, j])
            term *= (n - np.searchsorted(col, X[:, j], side="left")) / n
    k = m - V.bit_count()
    t1 = math.fsum(term) / n
    t2 = 0.5 ** V.bit_count() * ((n + 1.0) / (2.0 * n)) ** k
    return t1 - t2, max(abs(t1), abs(t2))


def stat_Bhat1(X: np.ndarray) -> tuple[float, float]:
    prods = np.prod(0.5 - X, axis=1)
    return math.fsum(prods) / len(X), math.fsum(np.abs(prods)) / len(X)


def _midpoints(d: int, g: int) -> np.ndarray:
    x = (np.arange(g) + 0.5) / g
    if d == 0:
        return np.zeros((1, 0))
    return np.stack([a.ravel() for a in np.meshgrid(*([x] * d), indexing="ij")], axis=-1)


def stat_Bhat2(X: np.ndarray, g: int) -> tuple[float, float]:
    """Grid sum of the squared tied-down process (the program's
    `tied_down_process`, a code path separate from `stat_Bhat`)."""
    from cubegreen.rankstats import tied_down_process
    n, m = X.shape
    vals = [tied_down_process(X, x) ** 2 / n for x in _midpoints(m, g)]
    total = math.fsum(vals) / g ** m
    return total, total


def stat_B2(X: np.ndarray, V: int, g: int) -> tuple[float, float]:
    """B at p = 2: midpoint grid over the V-axes, exact sum over the
    empirical product atoms of the other axes.  F_n at every (grid point,
    atom) comes from a cumulative histogram over the rank lattice."""
    n, m = X.shape
    inv = [j for j in range(m) if V >> j & 1]
    outv = [j for j in range(m) if not V >> j & 1]
    k = len(outv)
    R = ranks(X) - 1
    grid = _midpoints(len(inv), g)
    cellw = float(g) ** -len(inv) if inv else 1.0
    fmarg = np.ones((n,) * k)
    for a in range(k):
        shape = [1] * k
        shape[a] = n
        fmarg = fmarg * ((np.arange(n) + 1.0) / n).reshape(shape)
    terms = []
    for x in grid:
        rows = np.all(X[:, inv] <= x, axis=1) if inv else np.ones(n, dtype=bool)
        H = np.zeros((n,) * k)
        np.add.at(H, tuple(R[rows][:, j] for j in outv), 1.0)
        for a in range(k):
            H = np.cumsum(H, axis=a)
        prod_x = float(np.prod(x)) if inv else 1.0
        terms.append(float(((H / n - prod_x * fmarg) ** 2).sum()))
    total = math.fsum(terms) * cellw * float(n) ** -k
    return total, total


def spearman_rho(R: np.ndarray) -> float:
    n, m = R.shape
    s = Fraction(sum(math.prod(int(n + 1 - r) for r in row) for row in R), n) \
        - Fraction(n + 1, 2) ** m
    c = Fraction(sum(k ** m for k in range(1, n + 1)), n) - Fraction(n + 1, 2) ** m
    return float(s / c)


def gini(R: np.ndarray) -> float:
    n = len(R)
    d = n * n if n % 2 == 0 else n * n - 1
    s = sum(abs(n + 1 - int(a) - int(b)) - abs(int(a) - int(b)) for a, b in R)
    return float(Fraction(2 * s, d))


def footrule(R: np.ndarray) -> int:
    return int(sum(abs(int(a) - int(b)) for a, b in R))


def null_mean(stat: str, n: int) -> float:
    """Exact null mean of the unscaled statistic at finite n."""
    return float(Fraction(n * n - 1, 3)) if stat == "footrule" else 0.0


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def bonferroni_z(entries: int, level: float = 1e-4) -> float:
    """Two-sided normal threshold for the largest of `entries` deviations
    at family-wise false-alarm rate `level`."""
    return NormalDist().inv_cdf(1.0 - level / (2.0 * entries))


def interior_grid(m: int, per_axis: int) -> np.ndarray:
    axis = (np.arange(per_axis) + 1.0) / (per_axis + 1.0)
    return np.stack([a.ravel() for a in np.meshgrid(*([axis] * m), indexing="ij")], axis=-1)
