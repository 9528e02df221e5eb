"""Green / covariance kernels on the unit cube indexed by a monotone family.

With k_j = x_j xi_j and the per-axis gap g_j = min(x_j, xi_j) - k_j =
min(x_j, xi_j) (1 - max(x_j, xi_j)) >= 0, the kernel of a monotone family
F is the sum over the subsets W outside F

    G(x, xi) = sum_{W not in F} prod_{j in W} k_j prod_{j not in W} g_j,

the paper's subset recurrence read as Moebius inversion of the indicator
of F on the Boolean lattice (Rota 1964).  G vanishes whenever any x_j = 0
and on every face x_U = 1 with U in F; it is the covariance function of
the matching limiting Gaussian field (Brownian sheet, pillow and tucked
sheet arise as special cases).  The sum is evaluated as the reduced
ordered decision diagram of F's complement table (Bryant 1986; see
`_diagram`): a sum of products of nonnegative factors for every family,
with the gap computed as min (1 - max), so nothing cancels near the faces
x_j = 1.  The pillow (all nonempty subsets) is a chain of m gap nodes,
the sheet (empty family) the product of the mins.

`GreenKernel.values(X, Y)`, G at the pairs of two broadcast (..., m)
arrays, is the one evaluator; `evaluate`, `cross` and `diagonal` call it,
`cross` on row blocks within the one block budget (`quadrature.blocks`).
Every diagram term is a product over axes, so on a tensor grid with the
same n nodes on each axis `GreenKernel.kron_matvec` applies the kernel
matrix, a sum of Kronecker products of three n x n matrices (gap, x xi
and min), to a vector without forming it.

The signed integer coefficients a_U of the equivalent expansion
prod min - sum_{U in F} a_U prod_{j not in U} min_j prod_{j in U} k_j are
the Moebius transform of the indicator of F.  No numeric path reads them:
they serve only the `coeffs` command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .families import MonotoneFamily, format_subset
from .quadrature import blocks


def compute_coefficients(family: MonotoneFamily) -> dict[int, int]:
    """Integer coefficients a_U for the members U, in member order.

    a_U = sum over subsets W of U of (-1)^{|U - W|} 1_F(W), the Moebius
    transform of the family's indicator, computed exactly in O(m 2^m).
    They satisfy a_U = 1 - sum of a_V over proper subsets V of U inside
    the family.  |a_U| <= 2^m, so int64 arithmetic is exact.
    """
    members = list(family.members)
    f = family.table.astype(np.int64)
    for j in range(family.m):
        # view index (high bits, bit j, low bits): subtract the subset without j
        v = f.reshape(-1, 2, 1 << j)
        v[:, 1, :] -= v[:, 0, :]
    return dict(zip(members, f[members].tolist()))


# the factor of a diagram term: the gap, x xi, or their sum min(x, xi)
_GAP, _K, _MIN = 0, 1, 2

Diagram = tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


def _diagram(comp: bytes, m: int) -> Diagram:
    """The reduced ordered decision diagram, root on the last axis, of a
    table over 2^m subsets given as 2^m bytes of 0 and 1.

    Level j holds the nodes on axis j: the distinct nonzero subtables over
    bits 0..j, memoized by their bytes, each a tuple of (factor, child)
    terms, child indexing level j - 1 (at j = 0, the leaf).  Equal halves
    without and with bit j give (_MIN, half), as g_j + k_j = min_j, so an
    all-ones subtable is a product of mins; others give (_GAP, low half)
    and (_K, high half), an all-zero half dropped.
    """
    levels = []
    subs = [comp]
    for j in range(m - 1, -1, -1):
        half = 1 << j
        index: dict[bytes, int] = {}
        level = []
        for sub in subs:
            low, high = sub[:half], sub[half:]
            parts = ((_MIN, low),) if low == high else ((_GAP, low), (_K, high))
            level.append(tuple([(f, index.setdefault(s, len(index)))
                                for f, s in parts if 1 in s]))
        levels.append(tuple(level))
        subs = list(index)  # the next level's subtables, in index order
    return tuple(reversed(levels))


def _pair_factors(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """min(x, y), x y and the gap min(x, y) (1 - max(x, y)) of two arrays
    broadcast against each other, each a new array in C order, so that a
    product along the leading axis runs over contiguous memory."""
    mins = np.minimum(X, Y, order="C")
    gaps = np.maximum(X, Y, order="C")
    np.subtract(1.0, gaps, out=gaps)
    gaps *= mins
    return mins, np.multiply(X, Y, order="C"), gaps


def _axis_first(P: np.ndarray, d: int) -> np.ndarray:
    # (..., m) -> an (m, ...) view with d - 1 trailing axes, ready to broadcast
    P = P.reshape((1,) * (d - P.ndim) + P.shape)
    return P.transpose(d - 1, *range(d - 1))


@dataclass(frozen=True)
class GreenKernel:
    """A monotone family together with its kernel's decision diagram:
    `levels[j]` holds the nodes on axis j (see `_diagram`), the last
    level the root alone."""

    family: MonotoneFamily
    levels: Diagram = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comp = (~self.family.table).tobytes()
        object.__setattr__(self, "levels", _diagram(comp, self.family.m))

    @property
    def m(self) -> int:
        return self.family.m

    @cached_property
    def coefficients(self) -> dict[int, int]:
        """Signed integer coefficients a_U (see `compute_coefficients`)."""
        return compute_coefficients(self.family)

    def complement_sizes(self) -> list[int]:
        """counts[w] = number of subsets W not in the family with |W| = w.

        Integrals of a term that are symmetric in the axes depend only on
        |W|, so these counts fix the closed-form lambda values.
        """
        sizes = np.bitwise_count(np.flatnonzero(~self.family.table))
        return np.bincount(sizes, minlength=self.m + 1).tolist()

    def sum_terms(self, mins: np.ndarray, ks: np.ndarray, gaps: np.ndarray) -> np.ndarray:
        """The kernel from per-axis factors of shape (m, n, ...): mins[j],
        ks[j] and gaps[j] stand for min(x_j, xi_j), x_j xi_j and the gap,
        or for integrals of them, since every term is a product over axes.
        Returns an array of shape mins.shape[1:]."""
        factors = (gaps, ks, mins)
        # a level-0 node is one term on the leaf: its factor itself
        below = [factors[f][0] for ((f, _),) in self.levels[0]]
        for j, level in enumerate(self.levels[1:], 1):
            here = []
            for (f, c), *rest in level:
                acc = factors[f][j] * below[c]
                for f, c in rest:
                    acc += factors[f][j] * below[c]
                here.append(acc)
            below = here
        return below[0]

    def kron_matvec(self, mins: np.ndarray, ks: np.ndarray, gaps: np.ndarray,
                    v: np.ndarray) -> np.ndarray:
        """The kernel matrix on an n**m tensor grid applied to v, matrix-free.

        mins, ks and gaps are the n x n matrices min(x, xi), x xi and the
        gap on one axis's nodes (symmetrically scaled, if need be); in
        `tensor_rule` order, each diagram term is the Kronecker product of
        one of them per axis.  Level j's inputs have axis j leading, and
        each term's product contracts it and moves it last: O(n**(m+1))
        per term, and no matrix larger than n x n.
        """
        n = len(mins)
        mats = (gaps.T, ks.T, mins.T)
        below = [v]
        for level in self.levels:
            here = []
            for (f, c), *rest in level:
                acc = below[c].reshape(n, -1).T @ mats[f]
                for f, c in rest:
                    acc += below[c].reshape(n, -1).T @ mats[f]
                here.append(acc)
            below = here
        return below[0].reshape(-1)

    def _check_points(self, P) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        if P.shape[-1:] != (self.m,):
            raise ValueError(f"points have shape {P.shape}, expected (..., {self.m})")
        return P

    def values(self, X, Y) -> np.ndarray:
        """G at the pairs of two (..., m) arrays broadcast against each
        other; returns their broadcast shape without the last axis."""
        X, Y = self._check_points(X), self._check_points(Y)
        d = max(X.ndim, Y.ndim)
        Xt, Yt = _axis_first(X, d), _axis_first(Y, d)
        return self.sum_terms(*_pair_factors(Xt, Yt))

    def evaluate(self, x, xi) -> float:
        """Kernel value G(x, xi)."""
        return float(self.values(x, xi))

    def cross(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Kernel values for all pairs: result[i, j] = G(A[i], B[j])."""
        A = np.atleast_2d(self._check_points(A))
        B = np.atleast_2d(self._check_points(B))
        out = np.empty((len(A), len(B)))
        for rows in blocks(len(A), 8 * len(B) * self.m):
            out[rows] = self.values(A[rows, None], B)
        return out

    def diagonal(self, points) -> np.ndarray:
        """Kernel values G(p, p) for each row p of an (N, m) array."""
        P = np.atleast_2d(self._check_points(points))
        return self.values(P, P)

    def coefficients_by_name(self) -> dict[str, int]:
        return {format_subset(u): a for u, a in self.coefficients.items()}


def green_kernel(family: MonotoneFamily) -> GreenKernel:
    """Construct the kernel for a monotone family."""
    return GreenKernel(family)
