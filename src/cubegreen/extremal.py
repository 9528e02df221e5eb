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
method.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .families import MonotoneFamily, family_for_known_margins, full_mask, subsets_of_size
from .kernel import GreenKernel, green_kernel
from .measures import Measure, integrate_against, integrate_once, lambda_value, lebesgue
from .quadrature import tensor_rule, unit_rule

_MIN_LAMBDA = 1e-14
_NYSTROM_CAP = 20_000


class DegenerateMeasureError(ValueError):
    """The measure is concentrated where the kernel vanishes."""


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
    """A dependence direction: evaluator plus optional extras.

    faces maps a subset mask U to the restriction with x_U pinned to 1
    (the callable still receives the full m-vector).  density, when given,
    is the closed-form m-fold mixed derivative and bypasses finite
    differences in Fisher-information computations.
    """

    fn: Callable[[np.ndarray], float]
    faces: dict[int, Callable[[np.ndarray], float]] | None = None
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
    grid_n: int


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


def mixed_derivative(f, x, h: float = 1e-3) -> float:
    """m-fold mixed partial derivative by nested central differences.

    Accuracy O(h^2) for smooth f.  Every stencil point stays inside the
    cube provided each coordinate is at distance >= h from the boundary.
    """
    x = np.asarray(x, dtype=float)
    m = len(x)
    if np.any(x < h) or np.any(x > 1.0 - h):
        raise ValueError("point too close to the boundary for the difference stencil")
    total = 0.0
    for signs in product((-1.0, 1.0), repeat=m):
        s = np.asarray(signs)
        total += np.prod(s) * f(x + h * s)
    return total / (2.0 * h) ** m


def _cube_integral(f, m: int, nodes: int | None = None) -> float:
    n = nodes or _default_nodes(m)
    pts, wts = tensor_rule(m, n)
    vals = np.array([f(p) for p in pts])
    return float(vals @ wts)


def _default_nodes(m: int) -> int:
    return {2: 24, 3: 16, 4: 12, 5: 8, 6: 6}.get(m, 5)


def _check_face_vanishing(fn, m: int, tol: float = 1e-6) -> None:
    # probe each face x_U = 1, |U| = m-1, at interior values of the free axis
    probes = np.linspace(0.1, 0.9, 9)
    for free in range(m):
        for t in probes:
            x = np.ones(m)
            x[free] = t
            if abs(fn(x)) > tol:
                raise ValueError(
                    f"dependence function does not vanish on the face opposite axis {free + 1}"
                )


def bahadur_slope_B1(V: int, m: int, dep: DependenceFunction,
                     nodes: int | None = None) -> float:
    """Small-theta coefficient of the Bahadur slope of the first-order statistic.

    Equals (1/lam) * (integral of the dependence function)^2 with lam taken
    for the known-margins family of V under Lebesgue measure.
    """
    _check_face_vanishing(dep.fn, m)
    fam = family_for_known_margins(V, m)
    lam = lambda_value(green_kernel(fam), lebesgue(m), method="closed")
    integral = _cube_integral(dep.fn, m, nodes)
    return integral * integral / lam


def pitman_slope_spearman(m: int, dep: DependenceFunction,
                          nodes: int | None = None) -> SpearmanSlope:
    """Pitman drift, null standard deviation and squared slope of the
    multivariate Spearman statistic."""
    if m < 2:
        raise ValueError("m must be at least 2")
    _check_face_vanishing(dep.fn, m)
    integral = _cube_integral(dep.fn, m, nodes)
    denom = 2.0 ** m - m - 1.0
    mu_prime = 2.0 ** m * (m + 1.0) / denom * integral
    sigma_sq = (m + 1.0) ** 2 * ((4.0 / 3.0) ** m - m / 3.0 - 1.0) / denom ** 2
    sigma0 = float(np.sqrt(sigma_sq))
    return SpearmanSlope(mu_prime, sigma0, (mu_prime / sigma0) ** 2)


def pitman_slope_bhat(m: int, dep: DependenceFunction,
                      nodes: int | None = None) -> float:
    """Squared Pitman slope of the tied-down first-order statistic.

    12^m times the squared integral of the dependence function corrected
    by its face restrictions of codimension <= m-2.  When no face map is
    supplied the restrictions are obtained by pinning coordinates of the
    main evaluator to 1.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    face_masks = [u for k in range(1, m - 1) for u in subsets_of_size(m, k)]
    if dep.faces is not None:
        missing = [u for u in face_masks if u not in dep.faces]
        if missing:
            raise ValueError(f"missing face evaluators for masks {missing}")

    def face_value(u: int, x: np.ndarray) -> float:
        xf = x.copy()
        for j in range(m):
            if u >> j & 1:
                xf[j] = 1.0
        if dep.faces is not None:
            return dep.faces[u](xf)
        return dep.fn(xf)

    def corrected(x: np.ndarray) -> float:
        val = dep.fn(x)
        for u in face_masks:
            k = u.bit_count()
            xu = np.prod([x[j] for j in range(m) if u >> j & 1])
            val -= (-1.0) ** (k - 1) * xu * face_value(u, x)
        return val

    integral = _cube_integral(corrected, m, nodes)
    return 12.0 ** m * integral * integral


def fisher_info(dep: DependenceFunction, m: int | None = None, h: float = 1e-3,
                nodes: int = 16, delta: float | None = None) -> float:
    """Fisher information at independence: integral of the squared density.

    With a closed-form density the integral is a plain tensor quadrature.
    Otherwise the density is estimated by nested central differences on a
    cube shrunk by delta, and the result is Richardson-extrapolated through
    the shrinks delta, 2*delta, 3*delta toward the full cube (the boundary
    strip contributes a smooth O(delta) term).
    """
    if dep.density is not None:
        if m is None:
            raise ValueError("m is required")
        return _cube_integral(lambda p: dep.density(p) ** 2, m, nodes)
    if m is None:
        raise ValueError("m is required")
    d = delta if delta is not None else max(0.006, 2.0 * m * h)

    def shrunk_integral(dd: float) -> float:
        pts, wts = tensor_rule(m, nodes)
        mapped = dd + (1.0 - 2.0 * dd) * pts
        vals = np.array([mixed_derivative(dep.fn, p, h) ** 2 for p in mapped])
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite derivative estimates")
        return float(vals @ wts) * (1.0 - 2.0 * dd) ** m

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
                       max_iter: int = 100_000) -> float:
    pts, wts = tensor_rule(kernel.m, n)
    A = kernel.cross(pts, pts)
    s = np.sqrt(wts)
    # scale in place: no further N x N arrays
    A *= s[:, None]
    A *= s[None, :]
    v = np.ones(len(A))
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for _ in range(max_iter):
        u = A @ v
        lam = float(np.linalg.norm(u))
        if lam == 0.0:
            return 0.0
        v = u / lam
        if abs(lam - lam_prev) <= tol * max(1.0, lam):
            return lam
        lam_prev = lam
    raise RuntimeError("power iteration did not converge")


def principal_eigenvalue(kernel: GreenKernel, grid_n: int) -> EigenEstimate:
    """Principal eigenvalue of the kernel's integral operator.

    Nystrom discretization on tensor Gauss-Legendre grids at grid_n and
    grid_n // 2 points per axis, Richardson-extrapolated assuming
    second-order convergence.  The reported error is the (conservative)
    difference between the two grids.
    """
    if grid_n < 8:
        raise ValueError("grid_n must be at least 8")
    if grid_n ** kernel.m > _NYSTROM_CAP:
        raise ValueError(
            f"grid_n**m = {grid_n ** kernel.m} exceeds the Nystrom cap {_NYSTROM_CAP}"
        )
    coarse = _nystrom_principal(kernel, max(4, grid_n // 2))
    fine = _nystrom_principal(kernel, grid_n)
    value = fine + (fine - coarse) / 3.0
    return EigenEstimate(value=value, error=abs(fine - coarse),
                         coarse=coarse, fine=fine, grid_n=grid_n)


def trace_bound(kernel: GreenKernel, grid_n: int) -> float:
    """Quadrature trace of the operator, an upper bound for the principal
    eigenvalue."""
    pts, wts = tensor_rule(kernel.m, grid_n)
    return float(kernel.diagonal(pts) @ wts)


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
