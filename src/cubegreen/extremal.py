"""Extremal-problem solver and asymptotic-efficiency indices.

The minimum-norm problem over the cube with right-face boundary conditions
indexed by a monotone family has the solution

    Omega(x) = (1/lam) * integral of G(x, xi) d mu(xi),

with lam the double kernel integral; 1/lam is both the minimal squared
norm and the local efficiency coefficient of the matching rank test.
This module also computes Bahadur slopes, Pitman slopes (multivariate
Spearman statistic and the tied-down one-degree statistic), Fisher
information of a dependence direction, the efficiency-bound gap, and the
principal eigenvalue of the kernel's integral operator by the Nystrom
method, with a power iteration that applies the kernel matrix through its
per-axis Kronecker factors instead of forming it.  Every cube integral of
a dependence direction goes through `quadrature.block_integral` (or
`cube_integral`, the same integrator over single points) with its one
default node table and evaluation budget, as does `trace_bound`, the
integral of the kernel's diagonal; every call of a dependence function
goes through `quadrature.point_values`.  The face corrections
of the tied-down slope are integrated over their free axes only, embedded
into the cube a block of nodes at a time.  Finite-difference Fisher
information builds the 2^m-point stencil of a whole block of nodes as one
array; `mixed_derivative` is the same stencil at one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable

import numpy as np

from .families import MonotoneFamily, family_for_known_margins, subsets_of_size
from .kernel import GreenKernel, _pair_factors, green_kernel
from .measures import Measure, integrate_against, integrate_once, lambda_value, lebesgue
from .quadrature import (
    _node_count,
    block_integral,
    cube_integral,
    nodes_per_axis,
    point_values,
    unit_rule,
)

_MIN_LAMBDA = 1e-14
_NYSTROM_CAP = 20_000


class DegenerateMeasureError(ValueError):
    """The measure is concentrated where the kernel vanishes."""


class ConvergenceError(RuntimeError):
    """A power iteration did not converge within its iteration limit."""


@dataclass(frozen=True)
class ExtremalSolution:
    """Solution of the constrained minimum-norm problem."""

    kernel: GreenKernel
    measure: Measure
    lam: float
    method: str = "auto"

    def omega(self, x) -> float:
        """The normalized minimizer at a point."""
        return integrate_once(self.kernel, self.measure, x, self.method) / self.lam


@dataclass(frozen=True)
class DependenceFunction:
    """A dependence direction: its evaluator fn at a point of the cube, and
    optionally its closed-form m-fold mixed derivative, density, which
    bypasses finite differences in Fisher-information computations.  A
    restriction of fn to a face x_U = 1 is fn with x_U pinned to 1.
    """

    fn: Callable[[np.ndarray], float]
    density: Callable[[np.ndarray], float] | None = None


@dataclass(frozen=True)
class SpearmanSlope:
    mu_prime0: float
    sigma0: float
    slope_sq: float


@dataclass(frozen=True)
class GapReport:
    index: float
    fisher: float
    gap: float


@dataclass(frozen=True)
class EigenEstimate:
    value: float
    error: float
    coarse: float
    fine: float
    coarse_iterations: int
    fine_iterations: int


def solve(family: MonotoneFamily, measure: Measure, method: str = "auto") -> ExtremalSolution:
    """Solve the extremal problem for the family and measure."""
    kern = green_kernel(family)
    lam = lambda_value(kern, measure, method)
    if lam <= _MIN_LAMBDA:
        raise DegenerateMeasureError(
            f"lambda = {lam:g} is not positive; measure sits where the kernel vanishes"
        )
    return ExtremalSolution(kern, measure, lam, method)


def minimal_norm_squared(sol: ExtremalSolution) -> float:
    """Minimal squared norm of the problem, equal to 1/lam."""
    return 1.0 / sol.lam


def efficiency_coefficient(family: MonotoneFamily, measure: Measure,
                           method: str = "auto") -> float:
    """Leading coefficient of the local Bahadur slope: 1/lam."""
    return 1.0 / solve(family, measure, method).lam


@lru_cache(maxsize=None)
def _stencil(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign table (2^m, m) of the nested central differences, rows in
    `itertools.product` order, and the product of each row."""
    signs = np.array(list(product((-1.0, 1.0), repeat=m))).reshape(-1, m)
    prods = np.prod(signs, axis=1)
    signs.flags.writeable = False
    prods.flags.writeable = False
    return signs, prods


def _check_stencil_room(X: np.ndarray, h: float) -> None:
    if np.any(X < h) or np.any(X > 1.0 - h):
        raise ValueError("point too close to the boundary for the difference stencil")


def _stencil_derivatives(f, X: np.ndarray, h: float) -> np.ndarray:
    """Mixed-derivative estimates at the rows of X, (B, m) -> (B,).

    f is called at every stencil point of every row, row by row and in
    sign-table order; each row's signed values are summed in that order."""
    B, m = X.shape
    signs, prods = _stencil(m)
    F = point_values(f, (X[:, None, :] + h * signs).reshape(-1, m)).reshape(B, -1)
    total = 0.0
    for k in range(len(prods)):
        total += prods[k] * F[:, k]
    return total / (2.0 * h) ** m


def mixed_derivative(f, x, h: float = 1e-3) -> float:
    """m-fold mixed partial derivative by nested central differences.

    Accuracy O(h^2) for smooth f.  Every stencil point stays inside the
    cube provided each coordinate is at distance >= h from the boundary.
    """
    x = np.asarray(x, dtype=float)
    _check_stencil_room(x, h)
    return _stencil_derivatives(f, x[None, :], h)[0]


def _vanishing_integral(fn, m: int, nodes: int | None, tol: float = 1e-6) -> float:
    """Cube integral of fn, which must vanish on the faces x_U = 1: the node
    count is checked, then each face with |U| = m-1 is probed at interior
    values of its free axis, and then fn is integrated."""
    n = nodes_per_axis(m, nodes)
    probes = np.linspace(0.1, 0.9, 9)
    X = np.ones((m, len(probes), m))
    axes = np.arange(m)
    X[axes, :, axes] = probes
    bad = np.flatnonzero(np.abs(point_values(fn, X.reshape(-1, m))) > tol)
    if bad.size:
        raise ValueError(
            f"dependence function does not vanish on the face opposite axis "
            f"{bad[0] // len(probes) + 1}"
        )
    return cube_integral(fn, m, n)


def bahadur_slope_B1(V: int, m: int, dep: DependenceFunction,
                     nodes: int | None = None) -> float:
    """Small-theta coefficient of the Bahadur slope of the first-order statistic.

    Equals (1/lam) * (integral of the dependence function)^2 with lam taken
    for the known-margins family of V under Lebesgue measure.
    """
    lam = lambda_value(green_kernel(family_for_known_margins(V, m)), lebesgue(m), method="closed")
    integral = _vanishing_integral(dep.fn, m, nodes)
    return integral * integral / lam


def pitman_slope_spearman(m: int, dep: DependenceFunction,
                          nodes: int | None = None) -> SpearmanSlope:
    """Pitman drift, null standard deviation and squared slope of the
    multivariate Spearman statistic."""
    if m < 2:
        raise ValueError("m must be at least 2")
    integral = _vanishing_integral(dep.fn, m, nodes)
    denom = 2.0 ** m - m - 1.0
    mu_prime = 2.0 ** m * (m + 1.0) / denom * integral
    sigma_sq = (m + 1.0) ** 2 * ((4.0 / 3.0) ** m - m / 3.0 - 1.0) / denom ** 2
    sigma0 = float(np.sqrt(sigma_sq))
    return SpearmanSlope(mu_prime, sigma0, (mu_prime / sigma0) ** 2)


def pitman_slope_bhat(m: int, dep: DependenceFunction,
                      nodes: int | None = None) -> float:
    """Squared Pitman slope of the tied-down first-order statistic.

    12^m times the squared integral of the dependence function f corrected
    by its restrictions to the faces x_U = 1 of codimension <= m-2, each f
    with the coordinates in U pinned to 1.  A correction x_U * f(x with
    x_U = 1) factorizes: the x_U factor integrates to 2^-|U|, so each
    restriction is integrated over its m - |U| free axes only, with the
    same nodes per axis; a block of free-axis nodes is embedded into a
    ones array once.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    n = nodes_per_axis(m, nodes)
    face_masks = [u for k in range(1, m - 1) for u in subsets_of_size(m, k)]

    def restriction(u: int):
        free = [j for j in range(m) if not u >> j & 1]

        def g(Y: np.ndarray) -> np.ndarray:
            X = np.ones((len(Y), m))
            X[:, free] = Y
            return point_values(dep.fn, X)

        return g

    integral = cube_integral(dep.fn, m, n)
    for u in face_masks:
        k = u.bit_count()
        integral -= (-1.0) ** (k - 1) * 0.5 ** k * block_integral(restriction(u), m - k, n)
    return 12.0 ** m * integral * integral


def fisher_info(dep: DependenceFunction, m: int | None = None, h: float = 1e-3,
                nodes: int = 16, delta: float | None = None) -> float:
    """Fisher information at independence: integral of the squared density.

    With a closed-form density the integral is a plain tensor quadrature.
    Otherwise the density is estimated by nested central differences on a
    cube shrunk by delta, and the result is Richardson-extrapolated through
    the shrinks delta, 2*delta, 3*delta toward the full cube (the boundary
    strip contributes a smooth O(delta) term).  The stencils of a block of
    nodes are evaluated as one array.  The third shrink has width
    1 - 6*delta, so delta must lie in [0, 1/6), and h must be positive.

    The default of 16 nodes per axis holds at every m, so the evaluation
    budget `quadrature.MAX_EVALUATIONS` refuses it from m = 6 on with a
    density (16^m points) and from m = 5 on with finite differences (16^m
    nodes of 2^m stencil points each); pass a smaller `nodes` there.
    """
    if m is None:
        raise ValueError("m is required")
    if dep.density is not None:
        return cube_integral(lambda p: dep.density(p) ** 2, m, nodes)
    if not h > 0.0:
        raise ValueError(f"difference step h must be positive, got {h!r}")
    d = delta if delta is not None else max(0.006, 2.0 * m * h)
    if not 0.0 <= d < 1.0 / 6.0:
        raise ValueError(f"shrink delta must lie in [0, 1/6), got {d!r}")
    n = nodes_per_axis(m, nodes, 2 ** m)

    def shrunk_integral(dd: float) -> float:
        def g(P: np.ndarray) -> np.ndarray:
            X = dd + (1.0 - 2.0 * dd) * P
            _check_stencil_room(X, h)
            # float_power squares with C pow, as the scalar ** 2 of a single
            # estimate does; x * x differs from it in the last bit at times
            return np.float_power(_stencil_derivatives(dep.fn, X, h), 2)

        total = block_integral(g, m, n, 2 ** m)
        if not np.isfinite(total):
            raise ValueError("non-finite derivative estimates")
        return total * (1.0 - 2.0 * dd) ** m

    i1 = shrunk_integral(d)
    i2 = shrunk_integral(2.0 * d)
    i3 = shrunk_integral(3.0 * d)
    return 3.0 * i1 - 3.0 * i2 + i3


def optimality_gap(family: MonotoneFamily, measure: Measure, dep: DependenceFunction,
                   **fisher_kwargs) -> GapReport:
    """Efficiency index, Fisher information and their gap (bound slack)."""
    coeff = efficiency_coefficient(family, measure)
    integral = integrate_against(measure, dep.fn)
    index = coeff * integral * integral
    fisher = fisher_info(dep, m=family.m, **fisher_kwargs)
    return GapReport(index=index, fisher=fisher, gap=fisher - index)


def _nystrom_principal(kernel: GreenKernel, n: int, tol: float = 1e-12,
                       max_iter: int = 100_000) -> tuple[float, int]:
    """Principal eigenvalue of the symmetrized Nystrom matrix on the tensor
    Gauss grid with n nodes per axis, by power iteration from the all-ones
    vector; returns (eigenvalue, iterations).

    The matrix S K S, with K the kernel on the n**m nodes and S = diag of
    the square-rooted weights, is never formed: both K and S factor by
    axis, so `GreenKernel.kron_matvec` applies it from three scaled n x n
    matrices in O(D n**(m+1)) per iteration for a diagram of D node terms.
    """
    x, w = unit_rule(n)
    s = np.sqrt(w)
    scale = np.outer(s, s)
    mins, ks, gaps = (a * scale for a in _pair_factors(x[:, None], x[None, :]))
    v = np.ones(n ** kernel.m)
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for it in range(1, max_iter + 1):
        u = kernel.kron_matvec(mins, ks, gaps, v)
        lam = float(np.linalg.norm(u))
        if lam == 0.0:
            return 0.0, it
        v = u / lam
        if abs(lam - lam_prev) <= tol * max(1.0, lam):
            return lam, it
        lam_prev = lam
    raise ConvergenceError("power iteration did not converge")


def principal_eigenvalue(kernel: GreenKernel, grid_n: int) -> EigenEstimate:
    """Principal eigenvalue of the kernel's integral operator.

    Nystrom discretization on tensor Gauss-Legendre grids at grid_n and
    grid_n // 2 points per axis, Richardson-extrapolated assuming
    second-order convergence.  The reported error is the (conservative)
    difference between the two grids.  Each grid's power iteration is
    matrix-free (see `_nystrom_principal`): O(D n**(m+1)) time per
    iteration, three n x n matrices and a few vectors of n**m, so no
    N x N matrix is built.
    Raises ConvergenceError if a power iteration does not converge.
    """
    if grid_n < 8:
        raise ValueError("grid_n must be at least 8")
    if grid_n ** kernel.m > _NYSTROM_CAP:
        raise ValueError(
            f"grid_n**m = {grid_n ** kernel.m} exceeds the Nystrom cap {_NYSTROM_CAP}"
        )
    coarse, coarse_it = _nystrom_principal(kernel, max(4, grid_n // 2))
    fine, fine_it = _nystrom_principal(kernel, grid_n)
    value = fine + (fine - coarse) / 3.0
    return EigenEstimate(value=value, error=abs(fine - coarse),
                         coarse=coarse, fine=fine,
                         coarse_iterations=coarse_it, fine_iterations=fine_it)


def trace_bound(kernel: GreenKernel, grid_n: int) -> float:
    """Quadrature trace of the operator (of G(x, x), grid_n nodes per axis,
    required), an upper bound for the principal eigenvalue."""
    return block_integral(kernel.diagonal, kernel.m, _node_count(grid_n, "grid_n"))


# closed-form reference fixtures -------------------------------------------

def spearman_optimal_direction(m: int, normalize: bool = False) -> DependenceFunction:
    """The polynomial dependence direction optimal for the Spearman test.

    C * prod x_j * (prod (2 - x_j) + sum x_j - (m+1)), with its closed-form
    mixed derivative.  With normalize=True, C is chosen so the cube
    integral equals 1.
    """
    C = 1.0
    if normalize:
        kern = green_kernel(family_for_known_margins(0, m))
        lam = lambda_value(kern, lebesgue(m), method="closed")
        # the raw polynomial is 2^m times the Lebesgue once-integral of the
        # kernel, so its cube integral is 2^m * lam
        C = 1.0 / (2.0 ** m * lam)

    def fn(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return C * float(np.prod(x) * (np.prod(2.0 - x) + np.sum(x) - (m + 1)))

    def density(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return C * float(np.prod(2.0 - 2.0 * x) + 2.0 * np.sum(x) - (m + 1))

    return DependenceFunction(fn=fn, density=density)


def footrule_optimal_direction() -> DependenceFunction:
    """Optimal dependence direction for the footrule statistic (m = 2),
    proportional to the diagonal once-integral of the kernel."""

    def fn(x: np.ndarray) -> float:
        x1, x2 = float(x[0]), float(x[1])
        return (abs(x1 - x2) ** 3 - (x1 + x2) ** 3
                + 2.0 * x1 * x2 * (x1 * x1 + x2 * x2 + 2.0)) / 12.0

    return DependenceFunction(fn=fn)


def gini_optimal_direction() -> DependenceFunction:
    """Optimal dependence direction for the Gini rank statistic (m = 2).

    Derived by integrating the kernel along both diagonals; note the
    positive sign on the second cube and the constant -1.
    """

    def fn(x: np.ndarray) -> float:
        x1, x2 = float(x[0]), float(x[1])
        return (abs(x1 - x2) ** 3 + abs(x1 + x2 - 1.0) ** 3
                - 3.0 * (x1 * x1 + x2 * x2) + 3.0 * (x1 + x2) - 1.0) / 12.0

    return DependenceFunction(fn=fn)


def pillow_direction(m: int) -> DependenceFunction:
    """prod x_j (1 - x_j): a valid, generally non-optimal direction."""

    def fn(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.prod(x * (1.0 - x)))

    def density(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.prod(1.0 - 2.0 * x))

    return DependenceFunction(fn=fn, density=density)
