"""Green / covariance kernels on the unit cube indexed by a monotone family.

With k_j = x_j xi_j and the per-axis gap g_j = min(x_j, xi_j) - k_j >= 0,
the kernel of a monotone family F is the all-positive sum

    G(x, xi) = sum_{W not in F} prod_{j in W} k_j prod_{j not in W} g_j
             = prod_j min(x_j, xi_j) - sum_{W in F} (same terms),

the second line following from prod_j min_j = prod_j (k_j + g_j) expanded
over all subsets W.  This is the paper's subset recurrence read as Moebius
inversion of the indicator of F on the Boolean lattice (Rota 1964).  Each
kernel evaluates whichever side has fewer terms, so the pillow (all
nonempty subsets) is the single term prod g_j and the sheet (empty family)
is prod min_j.  G vanishes whenever any x_j = 0 and on every face x_U = 1
with U in F; it is the covariance function of the matching limiting
Gaussian field (Brownian sheet, pillow and tucked sheet arise as special
cases).

Every term is a product over axes, so on a tensor grid with the same n
nodes on each axis the kernel matrix is a sum of Kronecker products of
three n x n matrices (min, x xi and their difference), and
`GreenKernel.kron_matvec` applies it to a vector without forming it.

The signed integer coefficients a_U of the equivalent expansion
prod min - sum_{U in F} a_U prod_{j not in U} min_j prod_{j in U} k_j are
the Moebius transform of the indicator of F.  No numeric path reads them:
they serve only the `coeffs` command and the JSON form of a kernel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .families import (
    MonotoneFamily,
    coords_from_mask,
    family_from_json,
    format_subset,
    mask_from_coords,
)

# row-block size for cross-kernel matrices, keeps temporaries ~tens of MB
_BLOCK_ELEMS = 4_000_000


def compute_coefficients(family: MonotoneFamily) -> dict[int, int]:
    """Integer coefficients a_U for the members U, in member order.

    a_U = sum over subsets W of U of (-1)^{|U - W|} 1_F(W), the Moebius
    transform of the family's indicator, computed exactly in O(m 2^m).
    They satisfy a_U = 1 - sum of a_V over proper subsets V of U inside
    the family.  |a_U| <= 2^m, so int64 arithmetic is exact.
    """
    m = family.m
    members = list(family.members)
    f = np.zeros(1 << m, dtype=np.int64)
    f[members] = 1
    for j in range(m):
        # view index (high bits, bit j, low bits): subtract the subset without j
        v = f.reshape(-1, 2, 1 << j)
        v[:, 1, :] -= v[:, 0, :]
    return dict(zip(members, f[members].tolist()))


def _product(factors, out=None) -> np.ndarray:
    out = np.multiply(factors[0], factors[1], out=out)
    for f in factors[2:]:
        np.multiply(out, f, out=out)
    return out


@dataclass(frozen=True)
class GreenKernel:
    """A monotone family together with its kernel's term list.

    `positive` says which side of the Moebius identity is evaluated:
    True sums the terms W not in the family; False subtracts the member
    terms from prod min.  `terms` holds one row per term, True on the
    axes j in W (factor x_j xi_j), False elsewhere (factor min - x xi).
    """

    family: MonotoneFamily
    positive: bool = field(init=False, repr=False, compare=False)
    terms: tuple[tuple[bool, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fam = self.family
        n_all = 1 << fam.m
        # the complement always holds the empty set; ties go to it
        positive = n_all - len(fam) <= len(fam) + 1
        masks = [w for w in range(n_all) if w not in fam] if positive else fam.members
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "terms", tuple(
            tuple(bool(w >> j & 1) for j in range(fam.m)) for w in masks))

    @property
    def m(self) -> int:
        return self.family.m

    @cached_property
    def coefficients(self) -> dict[int, int]:
        """Signed integer coefficients a_U (see `compute_coefficients`)."""
        return compute_coefficients(self.family)

    def vanishing_faces(self) -> list[int]:
        """Masks U such that the kernel is zero whenever x_U = 1."""
        return list(self.family.members)

    def complement_sizes(self) -> list[int]:
        """counts[w] = number of subsets W not in the family with |W| = w.

        Integrals of a term that are symmetric in the axes depend only on
        |W|, so these counts fix the closed-form lambda values.
        """
        counts = [comb(self.m, w) for w in range(self.m + 1)]
        for u in self.family.members:
            counts[u.bit_count()] -= 1
        return counts

    def sum_terms(self, mins: np.ndarray, ks: np.ndarray,
                  gaps: np.ndarray | None = None) -> np.ndarray:
        """The kernel's term sum from per-axis factors of shape (m, n, ...).

        mins[j], ks[j] and gaps[j] stand for min(x_j, xi_j), x_j xi_j and
        their difference (or for integrals of them, since every term is a
        product over axes).  Without gaps, they are computed in place and
        mins is overwritten.  Returns an array of shape mins.shape[1:].
        """
        total = None if self.positive else np.prod(mins, axis=0)
        if not self.terms:
            return total
        if gaps is None:
            gaps = np.subtract(mins, ks, out=mins)
        buf = None
        for sel in self.terms:
            buf = _product([k if s else g for s, k, g in zip(sel, ks, gaps)], out=buf)
            if total is None:
                total, buf = buf, None
            elif self.positive:
                total += buf
            else:
                total -= buf
        return total

    def kron_matvec(self, mins: np.ndarray, ks: np.ndarray, gaps: np.ndarray,
                    v: np.ndarray) -> np.ndarray:
        """The kernel matrix on an n**m tensor grid applied to v, matrix-free.

        mins, ks and gaps are the n x n matrices min(x, xi), x xi and their
        difference on one axis's nodes (symmetrically scaled, if need be).
        On the tensor grid, in `tensor_rule` order, each term is the
        Kronecker product of one of them per axis, so the kernel matrix is
        the sum of the terms (or the product of mins minus them).  Each
        Kronecker product is applied axis by axis to v reshaped to (n,)*m:
        O(T m n**(m+1)) time, and no matrix larger than n x n.
        """
        n = len(mins)

        def apply(mats) -> np.ndarray:
            x = v
            for a in mats:
                # contract the leading axis and move it last: after m axes
                # the order is back to the start
                x = x.reshape(n, -1).T @ a.T
            return x.reshape(-1)

        total = None if self.positive else apply([mins] * self.m)
        for sel in self.terms:
            t = apply([ks if s else gaps for s in sel])
            if total is None:
                total = t
            elif self.positive:
                total += t
            else:
                total -= t
        return total

    def _check_points(self, P) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        if P.ndim != 2 or P.shape[1] != self.m:
            raise ValueError("point dimension does not match kernel dimension")
        return P

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.m,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.m},)")
        return x

    def evaluate(self, x, xi) -> float:
        """Kernel value G(x, xi)."""
        x = self._check_point(x)
        xi = self._check_point(xi)
        return float(self.cross(x[None, :], xi[None, :])[0, 0])

    def cross(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Kernel values for all pairs: result[i, j] = G(A[i], B[j])."""
        At = self._check_points(A).T[:, :, None]
        Bt = self._check_points(B).T[:, None, :]
        na, nb = At.shape[1], Bt.shape[2]
        out = np.empty((na, nb))
        step = max(1, _BLOCK_ELEMS // max(1, nb * self.m))
        for lo in range(0, na, step):
            rows = At[:, lo:lo + step]
            # the (m, rows, nb) factor arrays live only inside sum_terms
            out[lo:lo + step] = self.sum_terms(np.minimum(rows, Bt), rows * Bt)
        return out

    def diagonal(self, points) -> np.ndarray:
        """Kernel values G(p, p) for each row p of an (N, m) array."""
        Pt = self._check_points(points).T.copy()  # C order, and ours to overwrite
        return self.sum_terms(Pt, Pt * Pt)

    def gram_matrix(self, points) -> np.ndarray:
        """Symmetric matrix of kernel values over a list of points."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        G = self.cross(P, P)
        # identical arithmetic order for (i,j) and (j,i) makes this exact
        return G

    def to_json(self) -> str:
        obj = {
            "m": self.m,
            "family": self.family.to_coord_lists(),
            "coefficients": [
                {"set": list(coords_from_mask(u)), "a": self.coefficients[u]}
                for u in self.family.members
            ],
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "GreenKernel":
        obj = json.loads(text)
        family = family_from_json(obj["family"], int(obj["m"]))
        kern = green_kernel(family)
        for entry in obj.get("coefficients", []):
            u = mask_from_coords(entry["set"], family.m)
            if kern.coefficients.get(u) != entry["a"]:
                raise ValueError(
                    f"coefficient for {format_subset(u)} inconsistent with the family"
                )
        return kern

    def coefficients_by_name(self) -> dict[str, int]:
        return {format_subset(u): a for u, a in self.coefficients.items()}


def green_kernel(family: MonotoneFamily) -> GreenKernel:
    """Construct the kernel for a monotone family."""
    return GreenKernel(family)
