"""Extremal-problem solver and asymptotic-efficiency indices.

The minimum-norm problem over the cube with right-face boundary conditions
indexed by a monotone family has the solution

    Omega(x) = (1/lam) * integral of G(x, xi) d mu(xi),

with lam the double kernel integral; 1/lam is both the minimal squared
norm and the local efficiency coefficient of the matching rank test.
Every kernel value on I^m is a sum of products of nonnegative factors
(see :mod:`cubegreen.kernel`), so lam >= 0, and lam = 0 exactly when the
measure sits where the kernel vanishes (barring underflow below the
smallest subnormal): `solve` refuses lam = 0 with
`DegenerateMeasureError`, and also a lam so small (below about 5.6e-309)
that 1/lam overflows and an infinite or NaN lam (weights so large that
it overflows), and accepts every other positive lam (12^-16 for Lebesgue
under the pillow at m = 16).  A lam of 0 or too small to invert is
blamed on the weights when lam with every weight set to 1 is invertible
(it is positive exactly where the measure's is), and on where the
measure sits otherwise.
This module also computes Bahadur slopes, Pitman slopes (multivariate
Spearman statistic and the tied-down one-degree statistic), Fisher
information of a dependence direction, the efficiency-bound gap, and the
principal eigenvalue of the kernel's integral operator by the Nystrom
method: for a product kernel (the pillow, the sheet, gap times min) the
product of per-axis n x n eigenvalues, otherwise a power iteration that
applies the kernel matrix through its per-axis Kronecker factors instead
of forming it.  `trace_bound` is the
closed trace over the complement table.  Every cube integral of a
dependence direction is a tensor rule filled by `quadrature.node_values`
within its evaluation budget; every call of a dependence function goes
through `quadrature.point_values`.  The slopes take their default nodes from
`quadrature.node_ladder`: 2 and 3 nodes per axis first, then the
halvings of the node table up to the table count, stopping at the first
two rungs that agree to 1e-13 of their absolute sums sum |w_i v_i| and are
not both zero (exact from the 2-point rung on for a direction of degree
<= 3 per axis), otherwise the table count's value.  An integrand crafted
to agree on two rungs fools the ladder, as one that vanishes at the
table's nodes fools the fixed table.
The tied-down slope's drift is one tensor rule per rung, chosen by the
input: with a closed density, the n^m Gauss nodes of the density with the
weights w (1/2 - x) per axis; without one, the (n + 1)^m nodes of the
dependence function, per axis the Gauss rule and the node 1 with weight
-1/2 (L g = integral of g - g(1)/2).  Each rule's top rung is checked
against the budget, so with a density the default nodes reach m = 9 and
without one m = 8.  A slope or Fisher information that is not finite is
refused.  A direction is refused unless it vanishes on the faces x_U = 1
its index assumes (`_check_faces`): `bahadur_slope_B1` and
`pitman_slope_spearman` probe the (m-1)-faces, and `optimality_gap` the
faces of its family's minimal members.
Fisher information integrates the squared density at the tensor Gauss
nodes on the same ladder.  Without a closed density, the density there is
the mixed derivative of the tensor interpolant of the dependence function
through the nodes: one call per node, then `quadrature.diff_matrix`
contracted along each axis, the reshape-and-multiply cycle of
`GreenKernel.kron_matvec`, in O(m n^(m+1)).  `mixed_derivative` is the
separate nested central-difference stencil at one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .families import (
    MonotoneFamily,
    _check_dim,
    family_for_known_margins,
    format_subset,
    full_mask,
)
from .kernel import GreenKernel, _pair_factors, green_kernel
from .measures import (
    Measure,
    PointMassComponent,
    integrate_against,
    integrate_once,
    lambda_value,
    lebesgue,
)
from .quadrature import (
    _node_count,
    count_text,
    cube_rule,
    diff_matrix,
    node_ladder,
    node_values,
    nodes_per_axis,
    point_values,
    tensor_weights,
    unit_rule,
)

_NYSTROM_CAP = 20_000


class DegenerateMeasureError(ValueError):
    """lam is not a positive finite number with a finite inverse: the measure
    sits where the kernel vanishes, or its weights are too small or too large."""


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
    Fisher information takes in place of the interpolant's derivative and
    the tied-down slope integrates in place of fn.
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
    with np.errstate(over="ignore"):  # an infinite lam is refused next
        lam = lambda_value(kern, measure, method)
    if not lam < np.inf:  # NaN too: an overflowed weight times a vanishing pair
        raise DegenerateMeasureError(f"lambda = {lam:g} is not finite; the measure's "
                                     "weights are too large")
    if not _invertible(lam):
        small = lam > 0.0
        problem = "is so small that 1/lambda overflows" if small else "is not positive"
        # lam with every weight set to 1 is positive exactly where lam is
        unit = Measure(measure.m, tuple(
            (PointMassComponent(c.m, c.points_, (1.0,) * len(c.points_))
             if isinstance(c, PointMassComponent) else c, 1.0) for c, _ in measure.components))
        if _invertible(lambda_value(kern, unit, method)):
            cause = "the measure's weights are too small"
        else:
            cause = f"measure sits where the kernel {'nearly ' if small else ''}vanishes"
        raise DegenerateMeasureError(f"lambda = {lam:g} {problem}; {cause}")
    return ExtremalSolution(kern, measure, lam, method)


def _invertible(lam: float) -> bool:
    """lam > 0 with 1/lam finite."""
    return lam > 0.0 and bool(np.isfinite(1.0 / lam))


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
    f is called at the 2^m stencil points in `itertools.product` sign
    order, and the signed values are summed in that order.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < h) or np.any(x > 1.0 - h):
        raise ValueError("point too close to the boundary for the difference stencil")
    signs = np.array(list(product((-1.0, 1.0), repeat=len(x))))
    total = 0.0
    for sign, value in zip(np.prod(signs, axis=1), point_values(f, x + h * signs)):
        total += sign * value
    return total / (2.0 * h) ** len(x)


_PROBES = np.linspace(0.1, 0.9, 9)


def _face_points(U: int, m: int) -> np.ndarray:
    """Probe points of the face x_U = 1: every free axis sweeps `_PROBES`
    while the other free axes sit at 1/2; a face with no free axis is its
    one corner."""
    on = np.array([U >> j & 1 for j in range(m)], dtype=bool)
    free = np.flatnonzero(~on)
    if not free.size:
        return np.ones((1, m))
    X = np.tile(np.where(on, 1.0, 0.5), (len(free), len(_PROBES), 1))
    X[np.arange(len(free)), :, free] = _PROBES
    return X.reshape(-1, m)


def _check_faces(fn, faces, m: int, tol: float = 1e-6) -> None:
    """Refuse fn unless it vanishes to tol on each face x_U = 1, U in faces:
    the faces in the order of their free sets M - U, their probe points
    (`_face_points`) in one `point_values` call, and the first face with a
    value above tol or not finite named."""
    if not faces:
        return
    full = full_mask(m)
    faces = sorted(faces, key=lambda U: full ^ U)
    points = [_face_points(U, m) for U in faces]
    values = point_values(fn, np.concatenate(points))
    bad = np.flatnonzero(~(np.abs(values) <= tol))  # NaN too
    if bad.size:
        U = int(np.repeat(faces, [len(X) for X in points])[bad[0]])
        free = full ^ U
        where = (f"opposite axis {free.bit_length()}" if free.bit_count() == 1
                 else f"where coordinates {format_subset(U)} are 1")
        what = "does not vanish" if np.isfinite(values[bad[0]]) else "is non-finite"
        raise ValueError(f"dependence function {what} on the face {where}")


def _vanishing_integral(fn, m: int, nodes: int | None) -> float:
    """Cube integral of fn, which must vanish on the faces x_U = 1: the node
    count is checked, then each face with |U| = m-1 is probed
    (`_check_faces`), and then fn is integrated on `node_ladder`."""
    nodes_per_axis(m, nodes)
    _check_faces(fn, [full_mask(m) ^ (1 << j) for j in range(m)], m)
    return _finite(node_ladder(lambda n: cube_rule(fn, m, n), m, nodes), "dependence function")


def _finite(total: float, what: str) -> float:
    """A slope's integral, refused when it is not finite."""
    if not np.isfinite(total):
        raise ValueError(f"non-finite {what} values at the nodes")
    return total


def _lebesgue_lambda(V: int, m: int) -> float:
    """lam of the known-margins family of V under Lebesgue measure, closed."""
    return lambda_value(green_kernel(family_for_known_margins(V, m)), lebesgue(m), "closed")


def bahadur_slope_B1(V: int, m: int, dep: DependenceFunction,
                     nodes: int | None = None) -> float:
    """Small-theta coefficient of the Bahadur slope of the first-order statistic.

    Equals (1/lam) * (integral of the dependence function)^2 with lam taken
    for the known-margins family of V under Lebesgue measure.
    """
    lam = _lebesgue_lambda(V, m)
    integral = _vanishing_integral(dep.fn, m, nodes)
    return integral * integral / lam


def pitman_slope_spearman(m: int, dep: DependenceFunction,
                          nodes: int | None = None) -> SpearmanSlope:
    """Pitman drift, null standard deviation and squared slope of the
    multivariate Spearman statistic: the drift's factor times the integral
    and sqrt(lam) (V empty), so the slope is `bahadur_slope_B1(0, m, dep)`."""
    lam = _lebesgue_lambda(0, m)
    integral = _vanishing_integral(dep.fn, m, nodes)
    factor = 2.0 ** m * (m + 1.0) / (2.0 ** m - m - 1.0)
    return SpearmanSlope(factor * integral, factor * float(np.sqrt(lam)),
                         integral * integral / lam)


def pitman_slope_bhat(m: int, dep: DependenceFunction,
                      nodes: int | None = None) -> float:
    """Squared Pitman slope of the tied-down first-order statistic.

    12^m times the squared drift, the integral of prod_j (1/2 - x_j)
    against the m-fold mixed derivative of the direction f, on
    `quadrature.node_ladder` by default.  With `dep.density`, each rung is
    the tensor Gauss rule of that product: the density at the n^m Gauss
    nodes, with the weights w (1/2 - x) per axis.  Without one, f = 0
    wherever some x_j = 0, so integration by parts on each axis makes it
    the tensor product of L g = integral of g - g(1)/2: f at the n Gauss
    nodes and the node 1 on each axis, with the weights w and -1/2.  The
    top rung's n^m or (n + 1)^m is checked against the budget before any
    call, and so is nodes = 1 with a density (the one Gauss node is 1/2,
    where the weight vanishes).
    """
    _check_dim(m)
    if dep.density is None:
        nodes_per_axis(m, nodes_per_axis(m, nodes) + 1)  # the top rule, node 1 included
    elif nodes is not None and nodes_per_axis(m, nodes) == 1:
        raise ValueError("nodes = 1 with a density: the one Gauss node is 1/2, where "
                         "the weight 1/2 - x vanishes, so the drift would be 0")

    def drift(n: int) -> tuple[np.ndarray, np.ndarray]:
        x, w = unit_rule(n)
        if dep.density is None:
            f, x, w = dep.fn, np.append(x, 1.0), np.append(w, -0.5)
        else:
            f, w = dep.density, w * (0.5 - x)
        return node_values(lambda X: point_values(f, X), x, m), tensor_weights(w, m)

    what = "dependence function" if dep.density is None else "density"
    integral = _finite(node_ladder(drift, m, nodes), what)
    return 12.0 ** m * integral * integral


def fisher_info(dep: DependenceFunction, m: int, nodes: int | None = None) -> float:
    """Fisher information at independence: integral of the squared density.

    The density at the n^m tensor Gauss nodes is `dep.density` there or,
    without one, the mixed derivative of the tensor interpolant of
    `dep.fn` through the nodes: fn once per node, then
    `quadrature.diff_matrix(n)` contracted along each axis (exact for a
    direction of degree < n per axis, spectrally convergent for a smooth
    one).  The squared values are dotted with the tensor weights, on
    `quadrature.node_ladder` by default.  m, nodes and, without a density,
    nodes = 1 (a constant interpolant, whose derivative is 0) are refused
    before any call.
    """
    _check_dim(m)
    if dep.density is None and nodes is not None and nodes_per_axis(m, nodes) == 1:
        raise ValueError("nodes = 1 without a density: the interpolant through one node "
                         "per axis is constant, so its derivative says nothing")

    f = dep.fn if dep.density is None else dep.density

    def rule_at(n: int) -> tuple[np.ndarray, np.ndarray]:
        x, w = unit_rule(n)
        d = node_values(lambda X: point_values(f, X), x, m)
        if dep.density is None:
            D = diff_matrix(n).T
            for _ in range(m):
                d = d.reshape(n, -1).T @ D
        # float_power squares with C pow, as a scalar ** 2 does
        return np.float_power(d.reshape(-1), 2), tensor_weights(w, m)

    return _finite(node_ladder(rule_at, m, nodes), "density")


def optimality_gap(family: MonotoneFamily, measure: Measure,
                   dep: DependenceFunction) -> GapReport:
    """Efficiency index, Fisher information and their gap (bound slack).

    The index, (integral of f d mu)^2 / lam, is the squared slope only when
    f vanishes on every face x_U = 1 with U in the family.  Every such face
    lies in the face of a minimal member (a U in the family with no U - {j}
    in it), so `dep.fn` is probed on those faces (`_check_faces`) before
    anything is solved; the sheet has none.  An integral of f d mu that is
    not finite is refused, as the slopes refuse theirs.
    """
    minimal = [U for U in family.members
               if not any(U >> j & 1 and U ^ (1 << j) in family for j in range(family.m))]
    _check_faces(dep.fn, minimal, family.m)
    coeff = efficiency_coefficient(family, measure)
    integral = _finite(integrate_against(measure, dep.fn), "dependence function")
    index = coeff * integral * integral
    fisher = fisher_info(dep, m=family.m)
    return GapReport(index=index, fisher=fisher, gap=fisher - index)


def _nystrom_principal(kernel: GreenKernel, n: int, tol: float = 1e-12,
                       max_iter: int = 100_000) -> tuple[float, int]:
    """Principal eigenvalue of the symmetrized Nystrom matrix on the tensor
    Gauss grid with n nodes per axis; returns (eigenvalue, iterations).

    The matrix S K S, with K the kernel on the n**m nodes and S = diag of
    the square-rooted weights, is never formed: both K and S factor by
    axis into three scaled n x n matrices, each positive semidefinite.
    A product diagram (one node of one term per level: the pillow, the
    sheet, gap times min) makes S K S the Kronecker product of one of
    them per axis, so its top eigenvalue is the product of theirs, one
    `eigvalsh` per distinct factor and 0 iterations.  Any other diagram
    is power-iterated from the all-ones vector, `GreenKernel.kron_matvec`
    applying S K S in O(D n**(m+1)) per iteration for D node terms.
    """
    x, w = unit_rule(n)
    s = np.sqrt(w)
    scale = np.outer(s, s)
    mins, ks, gaps = (a * scale for a in _pair_factors(x[:, None], x[None, :]))
    if all(len(level) == 1 and len(level[0]) == 1 for level in kernel.levels):
        slots = [level[0][0][0] for level in kernel.levels]
        top = {f: float(np.linalg.eigvalsh((gaps, ks, mins)[f])[-1]) for f in set(slots)}
        return math.prod(top[f] for f in slots), 0
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
    difference between the two grids.  Each grid is matrix-free (see
    `_nystrom_principal`): a product kernel takes one n x n eigensolve per
    distinct axis factor and reports 0 iterations; any other is
    power-iterated in O(D n**(m+1)) time per iteration, with three n x n
    matrices and a few vectors of n**m, so no N x N matrix is built.
    Raises ConvergenceError if a power iteration does not converge.
    """
    grid_n = _node_count(grid_n, "grid_n")
    if grid_n < 8:
        raise ValueError("grid_n must be at least 8")
    if grid_n ** kernel.m > _NYSTROM_CAP:
        raise ValueError(
            f"grid_n**m = {count_text(grid_n ** kernel.m)} exceeds the Nystrom cap {_NYSTROM_CAP}"
        )
    coarse, coarse_it = _nystrom_principal(kernel, max(4, grid_n // 2))
    fine, fine_it = _nystrom_principal(kernel, grid_n)
    value = fine + (fine - coarse) / 3.0
    return EigenEstimate(value=value, error=abs(fine - coarse),
                         coarse=coarse, fine=fine,
                         coarse_iterations=coarse_it, fine_iterations=fine_it)


def trace_bound(kernel: GreenKernel, grid_n: int) -> float:
    """Trace of the operator, the integral of G(x, x), an upper bound for the
    principal eigenvalue.  A term with |W| = w integrates on the diagonal to
    3^-w 6^-(m-w) = 2^w / 6^m: one correctly rounded division of integers.
    grid_n is checked as a node count; nothing is evaluated."""
    _node_count(grid_n, "grid_n")
    return sum(c * 2 ** w for w, c in enumerate(kernel.complement_sizes())) / 6 ** kernel.m


# closed-form reference fixtures -------------------------------------------

def spearman_optimal_direction(m: int, normalize: bool = False) -> DependenceFunction:
    """The polynomial dependence direction optimal for the Spearman test.

    C * prod x_j * (prod (2 - x_j) + sum x_j - (m+1)), with its closed-form
    mixed derivative.  With normalize=True, C is chosen so the cube
    integral equals 1.  With y_j = 1 - x_j the bracket is the sum over
    |S| >= 2 of prod_{j in S} y_j, which is evaluated term by nonnegative
    term: the bracket as written cancels to far below its terms near the
    corner 1, where the tied-down drift weighs it most.
    """
    C = 1.0
    if normalize:
        # the raw polynomial is 2^m times the Lebesgue once-integral of the
        # kernel, so its cube integral is 2^m * lam
        C = 1.0 / (2.0 ** m * _lebesgue_lambda(0, m))

    def fn(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        # pairs: sum over |S| >= 2 of prod y_S, ones: sum of y_j, axis by axis
        pairs = ones = 0.0
        for y in (1.0 - x).tolist():
            pairs += (pairs + ones) * y
            ones += y
        return C * float(np.prod(x)) * pairs

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
