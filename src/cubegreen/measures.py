"""Finite measures on the unit cube and kernel integrals against them.

A measure is a positively weighted sum of atomic components: Lebesgue
measure on I^m, a line (`LineComponent`, the image of Lebesgue on [0,1]
under t -> x with x_j = 1 - t on its reversed axes and x_j = t on the
others: the diagonal reverses none, the anti-diagonal t -> (1-t, t) of
m = 2 the first), and finite point masses in I^m.  Every weight must be
positive and finite (NaN and infinity are refused), and a point with a
coordinate outside [0, 1] is refused.  The module integrates a Green
kernel once against a measure,

    L(x) = integral of G(x, xi) d mu(xi),

and twice (the Lagrange multiplier of the underlying extremal problem),

    lam = double integral of G(x, xi) d mu(x) d mu(xi).

Each component has one batch once-integral, `_once`, mapping (N, m)
points to their N integrals; every pair of components without a closed
form is one weighted sum of `_once` over the other component's atoms or
line rule.

Closed forms are used for Lebesgue and unreversed (diagonal) lines and are
cross-checked by a quadrature path.  The closed forms are exact integer
sums over the popcount histogram of the complement table, or the
kernel's diagram (see :mod:`cubegreen.kernel`) on per-axis integrals,
the gap's being x (1 - x) / 2, so nothing cancels; the quadrature path
takes the gap's integral as a difference.  Mixtures involving the
anti-diagonal are quadrature only.  All quadrature splits the domain at
the kinks of min(x, xi), which restores exactness for the
piecewise-polynomial integrands that occur here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial

import numpy as np

from .families import echoed
from .kernel import GreenKernel, check_unit_cube
from .quadrature import cube_rule, node_ladder, point_values, segmented_rule, unit_rule


@dataclass(frozen=True)
class LebesgueComponent:
    m: int


@dataclass(frozen=True)
class LineComponent:
    """Image of Lebesgue on [0,1] under t -> x with x_j = 1 - t on the
    axes j in the bitmask `reversed` and x_j = t on the others."""

    m: int
    reversed: int = 0

    def _flip(self) -> np.ndarray:
        return (self.reversed >> np.arange(self.m)) & 1 == 1

    def points(self, ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=float)[..., None]
        return np.where(self._flip(), 1.0 - t, t)

    def once_breaks(self, x: np.ndarray) -> np.ndarray:
        """The kinks in t of min(x_j, point_j(t)) for each row x."""
        return np.where(self._flip(), 1.0 - x, x)


@dataclass(frozen=True)
class PointMassComponent:
    m: int
    points_: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.points_) != len(self.weights):
            raise ValueError("points and weights must have equal length")
        if not all(0.0 < w < np.inf for w in self.weights):
            raise ValueError("point-mass weights must be positive and finite")
        for p in self.points_:
            if len(p) != self.m:
                raise ValueError("point dimension mismatch")
        check_unit_cube(self.array())

    def array(self) -> np.ndarray:
        return np.asarray(self.points_, dtype=float)


Component = LebesgueComponent | LineComponent | PointMassComponent


@dataclass(frozen=True)
class Measure:
    """A finite measure: positively weighted atomic components."""

    m: int
    components: tuple[tuple[Component, float], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("measure must have at least one component")
        for comp, w in self.components:
            if not 0.0 < w < np.inf:
                raise ValueError("component weights must be positive and finite")
            if comp.m != self.m:
                raise ValueError("component dimension mismatch")


def lebesgue(m: int) -> Measure:
    return Measure(m, ((LebesgueComponent(m), 1.0),))


def diagonal(m: int) -> Measure:
    return Measure(m, ((LineComponent(m), 1.0),))


def anti_diagonal() -> Measure:
    """The line t -> (1 - t, t) in I^2."""
    return Measure(2, ((LineComponent(2, reversed=1), 1.0),))


def point_masses(points, weights, m: int) -> Measure:
    comp = PointMassComponent(m, tuple(tuple(map(float, p)) for p in points),
                              tuple(float(w) for w in weights))
    return Measure(m, ((comp, 1.0),))


def weighted_sum(parts) -> Measure:
    """Combine (measure, weight) pairs into one measure, flattening; each
    product of weights must be positive and finite, as `Measure` checks."""
    comps: list[tuple[Component, float]] = []
    ms = set()
    for measure, w in parts:
        ms.add(measure.m)
        comps.extend((c, w * cw) for c, cw in measure.components)
    if len(ms) != 1:
        raise ValueError("all parts must share one dimension")
    return Measure(ms.pop(), tuple(comps))


def scaled(measure: Measure, c: float) -> Measure:
    return weighted_sum([(measure, c)])


# ---------------------------------------------------------------------------
# single integration:  L(x) = int G(x, xi) d mu(xi)
# ---------------------------------------------------------------------------

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # dot products along the last axis, each one a BLAS dot as in a @ b
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _min_integral(x: np.ndarray) -> np.ndarray:
    # int_0^1 min(x, t) dt for each entry of x, by a rule split at x
    ts, ws = segmented_rule(x[..., None], 4)
    return _rowdot(np.minimum(x[..., None], ts), ws)


def _once(kernel: GreenKernel, comp, X: np.ndarray, method: str) -> np.ndarray:
    """int G(x, xi) d comp(xi) for each row x of an (N, m) array."""
    if isinstance(comp, LebesgueComponent):
        # per-axis factors of a term integrated over xi: int min(x, xi) d xi,
        # int x xi d xi and int (min(x, xi) - x xi) d xi
        Xt = np.ascontiguousarray(X.T)
        if method == "quadrature":
            ts, ws = unit_rule(4)
            fmin = _min_integral(Xt)
            fk = Xt * float(ts @ ws)
            gaps = fmin - fk
        else:
            fmin = Xt - Xt * Xt / 2.0
            fk = Xt / 2.0
            gaps = Xt * (1.0 - Xt) / 2.0
        return kernel.sum_terms(fmin, fk, gaps)
    if isinstance(comp, PointMassComponent):
        return kernel.cross(X, comp.array()) @ np.asarray(comp.weights)
    if isinstance(comp, LineComponent):
        # split at each row's kinks: every piece is a polynomial of degree <= m
        ts, ws = segmented_rule(comp.once_breaks(X), kernel.m + 2)
        return _rowdot(kernel.values(X[:, None], comp.points(ts)), ws)
    raise TypeError(f"unsupported component {comp!r}")


def integrate_once(kernel: GreenKernel, measure: Measure, x, method: str = "auto") -> float:
    """Integral of G(x, .) against the measure."""
    if measure.m != kernel.m:
        raise ValueError("measure dimension does not match kernel dimension")
    x = np.asarray(x, dtype=float)
    if x.shape != (kernel.m,):
        raise ValueError(f"point has shape {x.shape}, expected ({kernel.m},)")
    check_unit_cube(x)
    return sum(w * float(_once(kernel, comp, x[None], method)[0])
               for comp, w in measure.components)


# ---------------------------------------------------------------------------
# double integration:  lam = iint G d mu d mu
# ---------------------------------------------------------------------------

def _lambda_leb_leb(kernel: GreenKernel, method: str) -> float:
    # a term with |W| = w integrates to q_k^w q_gap^(m-w), where q_k and
    # q_gap are the double integrals of x xi and min(x, xi) - x xi
    m = kernel.m
    counts = kernel.complement_sizes()
    if method == "quadrature":
        # nested 1-D quadrature for the coordinate factors
        xo, wo = unit_rule(6)
        q_min = float(_min_integral(xo) @ wo)
        ts, ws = unit_rule(4)
        q_k = float(ts @ ws) ** 2
        q_gap = q_min - q_k
        return sum(c * q_k ** w * q_gap ** (m - w) for w, c in enumerate(counts))
    # exact: 4^-w 12^-(m-w) = 3^w / 12^m, one correctly rounded division
    return sum(c * 3 ** w for w, c in enumerate(counts)) / 12 ** m


def _lambda_diag_diag_closed(kernel: GreenKernel) -> float:
    # iint (ts)^w (min(t,s) - ts)^(m-w) dt ds = 2 (m+w+1)! (m-w)! / ((m+1) (2m+2)!);
    # summed exactly in integers, then one correctly rounded division
    m = kernel.m
    num = sum(c * factorial(m + w + 1) * factorial(m - w)
              for w, c in enumerate(kernel.complement_sizes()))
    return 2 * num / ((m + 1) * factorial(2 * m + 2))


def _pair_lambda(kernel: GreenKernel, ca, cb, method: str) -> float:
    if isinstance(cb, PointMassComponent):  # point masses go first
        ca, cb = cb, ca
    leb_a = isinstance(ca, LebesgueComponent)
    if leb_a and isinstance(cb, LebesgueComponent):
        return _lambda_leb_leb(kernel, method)
    if method != "quadrature" and ca == cb == LineComponent(kernel.m):
        return _lambda_diag_diag_closed(kernel)
    if method == "closed" and not isinstance(ca, PointMassComponent):
        raise ValueError(
            "no closed form for this component pair; use method='quadrature' or 'auto'"
        )
    if leb_a:  # Lebesgue is always the inner integral
        ca, cb = cb, ca
    if isinstance(ca, PointMassComponent):
        P, w = ca.array(), np.asarray(ca.weights)
    else:  # a line, split at its kink t = 1/2
        ts, w = segmented_rule([0.5], kernel.m + 6)
        P = ca.points(ts)
    return float(w @ _once(kernel, cb, P, method))


def lambda_value(kernel: GreenKernel, measure: Measure, method: str = "auto") -> float:
    """Double integral of the kernel against the measure (bilinear in mu)."""
    if measure.m != kernel.m:
        raise ValueError("measure dimension does not match kernel dimension")
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    total = 0.0
    for ca, wa in measure.components:
        for cb, wb in measure.components:
            total += wa * wb * _pair_lambda(kernel, ca, cb, method)
    return total


# ---------------------------------------------------------------------------
# generic function integration against a measure (used for normalization
# checks and efficiency indices)
# ---------------------------------------------------------------------------

def integrate_against(measure: Measure, f) -> float:
    """Integral of a scalar point callable against the measure; every
    component evaluates f through `quadrature.point_values`.  Lebesgue
    components are `cube_rule` on the default-node ladder of
    `quadrature.node_ladder` (2 and 3 nodes per axis, then the halvings of
    the node table up to the table count, stopping at the first two rungs
    that agree to 1e-13 of their absolute sums and are not both zero, else
    the table count's value; an integrand crafted to agree on two rungs
    fools it, as one vanishing at the table's nodes fools the table), lines
    40 equal pieces of 10 nodes each."""
    total = 0.0
    for comp, w in measure.components:
        if isinstance(comp, LebesgueComponent):
            total += w * node_ladder(lambda n: cube_rule(f, comp.m, n), comp.m)
        elif isinstance(comp, LineComponent):
            ts, ws = segmented_rule(np.arange(1, 40) / 40, 10)
            total += w * float(point_values(f, comp.points(ts)) @ ws)
        elif isinstance(comp, PointMassComponent):
            vals = point_values(f, comp.array())
            total += w * sum(pw * v for v, pw in zip(vals, comp.weights))
        else:
            raise TypeError(f"unsupported component {comp!r}")
    return total


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _array(val, what: str) -> list:
    if not isinstance(val, list) or not val:
        raise ValueError(f"{what} must be a non-empty array, got {echoed(val)}")
    return val


def _numbers(val, what: str) -> list:
    if not isinstance(val, list) or not all(_is_number(x) for x in val):
        raise ValueError(f"{what} must be an array of numbers, got {echoed(val)}")
    return val


def measure_from_json(spec, m: int) -> Measure:
    """Measure from a JSON object/string or a shorthand name.

    Shorthands: "lebesgue", "diagonal", "antidiagonal",
    "diagonal+antidiagonal".  JSON: {"variant": "lebesgue"} |
    {"variant": "diagonal"} | {"variant": "antidiagonal"} |
    {"variant": "points", "points": [[...]], "weights": [...]} |
    {"variant": "sum", "parts": [{"weight": w, "measure": {...}}, ...]}.
    Every field is type-checked: `points` is a non-empty array of arrays
    of numbers, `weights` (unit weights when absent) an array of numbers,
    `parts` a non-empty array of objects with a `measure` and an optional
    numeric `weight`; bools and strings are not numbers.
    """
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "lebesgue":
            return lebesgue(m)
        if name == "diagonal":
            return diagonal(m)
        if name in ("antidiagonal", "diagonal+antidiagonal", "antidiagonal+diagonal"):
            if m != 2:
                raise ValueError("the anti-diagonal measure requires m = 2")
            if name == "antidiagonal":
                return anti_diagonal()
            return weighted_sum([(diagonal(2), 1.0), (anti_diagonal(), 1.0)])
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ValueError(f"a measure is a shorthand name or a JSON object, not {echoed(spec)}")
    variant = spec.get("variant", "")
    if not isinstance(variant, str):
        raise ValueError(f"variant must be a string, got {echoed(variant)}")
    variant = variant.lower()
    if variant in ("lebesgue", "diagonal", "antidiagonal"):
        return measure_from_json(variant, m)
    if variant == "points":
        points = [_numbers(p, "a point") for p in _array(spec.get("points"), "points")]
        weights = (_numbers(spec["weights"], "weights") if "weights" in spec
                   else [1.0] * len(points))
        return point_masses(points, weights, m)
    if variant == "sum":
        parts = []
        for part in _array(spec.get("parts"), "parts"):
            if not isinstance(part, dict) or "measure" not in part:
                raise ValueError(f"a part must be an object with a measure, got {echoed(part)}")
            weight = part.get("weight", 1.0)
            if not _is_number(weight):
                raise ValueError(f"a part weight must be a number, got {echoed(weight)}")
            parts.append((measure_from_json(part["measure"], m), float(weight)))
        return weighted_sum(parts)
    raise ValueError(f"unknown measure variant {echoed(variant)}")
