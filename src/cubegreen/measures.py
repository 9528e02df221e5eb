"""Finite measures on the unit cube and kernel integrals against them.

A measure is a positively weighted sum of atomic components: Lebesgue
measure on I^m, the arc-length-normalized diagonal line t -> (t,...,t),
the anti-diagonal line t -> (1-t, t) (m = 2 only), and finite point
masses.  The module integrates a Green kernel once against a measure,

    L(x) = integral of G(x, xi) d mu(xi),

and twice (the Lagrange multiplier of the underlying extremal problem),

    lam = double integral of G(x, xi) d mu(x) d mu(xi).

Closed forms are used for Lebesgue and diagonal components and are
cross-checked by a quadrature path.  Both sum the kernel's all-positive
terms (see :mod:`cubegreen.kernel`), so nothing cancels.  Mixtures
involving the anti-diagonal are quadrature only.  All quadrature splits
the domain at the kinks of min(x, xi), which restores exactness for the
piecewise-polynomial integrands that occur here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial

import numpy as np

from .kernel import GreenKernel
from .quadrature import segmented_rule, tensor_rule, unit_rule


@dataclass(frozen=True)
class LebesgueComponent:
    m: int


@dataclass(frozen=True)
class DiagonalComponent:
    """Image of Lebesgue on [0,1] under t -> (t, ..., t)."""

    m: int

    def points(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return np.repeat(ts[:, None], self.m, axis=1)

    def once_breaks(self, x: np.ndarray):
        return list(x)


@dataclass(frozen=True)
class AntiDiagonalComponent:
    """Image of Lebesgue on [0,1] under t -> (1-t, t); m = 2 only."""

    m: int = 2

    def __post_init__(self):
        if self.m != 2:
            raise ValueError("anti-diagonal measure is defined for m = 2 only")

    def points(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return np.column_stack([1.0 - ts, ts])

    def once_breaks(self, x: np.ndarray):
        return [x[1], 1.0 - x[0]]


@dataclass(frozen=True)
class PointMassComponent:
    m: int
    points_: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.points_) != len(self.weights):
            raise ValueError("points and weights must have equal length")
        if any(w <= 0 for w in self.weights):
            raise ValueError("point-mass weights must be positive")
        for p in self.points_:
            if len(p) != self.m:
                raise ValueError("point dimension mismatch")

    def array(self) -> np.ndarray:
        return np.asarray(self.points_, dtype=float)


Component = LebesgueComponent | DiagonalComponent | AntiDiagonalComponent | PointMassComponent


@dataclass(frozen=True)
class Measure:
    """A finite measure: positively weighted atomic components."""

    m: int
    components: tuple[tuple[Component, float], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("measure must have at least one component")
        for comp, w in self.components:
            if w <= 0:
                raise ValueError("component weights must be positive")
            if comp.m != self.m:
                raise ValueError("component dimension mismatch")


def lebesgue(m: int) -> Measure:
    return Measure(m, ((LebesgueComponent(m), 1.0),))


def diagonal(m: int) -> Measure:
    return Measure(m, ((DiagonalComponent(m), 1.0),))


def anti_diagonal() -> Measure:
    return Measure(2, ((AntiDiagonalComponent(), 1.0),))


def point_masses(points, weights, m: int) -> Measure:
    comp = PointMassComponent(m, tuple(tuple(map(float, p)) for p in points),
                              tuple(float(w) for w in weights))
    return Measure(m, ((comp, 1.0),))


def weighted_sum(parts) -> Measure:
    """Combine (measure, weight) pairs into one measure, flattening."""
    comps: list[tuple[Component, float]] = []
    ms = set()
    for measure, w in parts:
        if w <= 0:
            raise ValueError("weights must be positive")
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

def _once_lebesgue(kernel: GreenKernel, x: np.ndarray, method: str) -> float:
    # per-axis factors of a term integrated over xi: int min(x, xi) d xi,
    # int x xi d xi and int (min(x, xi) - x xi) d xi
    if method == "quadrature":
        fmin = np.empty_like(x)
        for j, xj in enumerate(x):
            ts, ws = segmented_rule([xj], 4)
            fmin[j] = np.minimum(xj, ts) @ ws
        ts, ws = unit_rule(4)
        fk = x * float(ts @ ws)
        gaps = fmin - fk
    else:
        fmin = x - x * x / 2.0
        fk = x / 2.0
        gaps = x * (1.0 - x) / 2.0
    return float(kernel.sum_terms(fmin[:, None], fk[:, None], gaps[:, None])[0])


def _once_line(kernel: GreenKernel, comp, x: np.ndarray, extra_nodes: int = 0) -> float:
    ts, ws = segmented_rule(comp.once_breaks(x), kernel.m + 2 + extra_nodes)
    vals = kernel.cross(x[None, :], comp.points(ts))[0]
    return float(vals @ ws)


def _once_component(kernel: GreenKernel, comp, x: np.ndarray, method: str) -> float:
    if isinstance(comp, LebesgueComponent):
        return _once_lebesgue(kernel, x, method)
    if isinstance(comp, (DiagonalComponent, AntiDiagonalComponent)):
        return _once_line(kernel, comp, x)
    if isinstance(comp, PointMassComponent):
        vals = kernel.cross(x[None, :], comp.array())[0]
        return float(vals @ np.asarray(comp.weights))
    raise TypeError(f"unsupported component {comp!r}")


def integrate_once(kernel: GreenKernel, measure: Measure, x, method: str = "auto") -> float:
    """Integral of G(x, .) against the measure."""
    if measure.m != kernel.m:
        raise ValueError("measure dimension does not match kernel dimension")
    x = np.asarray(x, dtype=float)
    if x.shape != (kernel.m,):
        raise ValueError(f"point has shape {x.shape}, expected ({kernel.m},)")
    meth = "quadrature" if method == "quadrature" else "closed"
    return sum(w * _once_component(kernel, comp, x, meth)
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
        q_min = 0.0
        for xj, wj in zip(xo, wo):
            ts, ws = segmented_rule([xj], 4)
            q_min += wj * float(np.minimum(xj, ts) @ ws)
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


def _lambda_line_outer(kernel: GreenKernel, outer, inner, method: str) -> float:
    # outer parameter integral of the inner once-integral along the line
    m = kernel.m
    ts, ws = segmented_rule([0.5], m + 6)
    pts = outer.points(ts)
    if isinstance(inner, LebesgueComponent):
        vals = np.array([_once_lebesgue(kernel, p, method) for p in pts])
    else:
        vals = np.array([_once_line(kernel, inner, p, extra_nodes=4) for p in pts])
    return float(vals @ ws)


def _pair_lambda(kernel: GreenKernel, ca, cb, method: str) -> float:
    # normalize order: point masses first, then lines outermost
    if isinstance(cb, PointMassComponent) and not isinstance(ca, PointMassComponent):
        ca, cb = cb, ca
    if isinstance(ca, PointMassComponent):
        if isinstance(cb, PointMassComponent):
            G = kernel.cross(ca.array(), cb.array())
            wa = np.asarray(ca.weights)
            wb = np.asarray(cb.weights)
            return float(wa @ G @ wb)
        meth = "quadrature" if method == "quadrature" else "closed"
        return sum(w * _once_component(kernel, cb, np.asarray(p), meth)
                   for p, w in zip(ca.array(), ca.weights))

    leb_a = isinstance(ca, LebesgueComponent)
    leb_b = isinstance(cb, LebesgueComponent)
    if leb_a and leb_b:
        return _lambda_leb_leb(kernel, method)
    if isinstance(ca, DiagonalComponent) and isinstance(cb, DiagonalComponent):
        if method != "quadrature":
            return _lambda_diag_diag_closed(kernel)
        return _lambda_line_outer(kernel, ca, cb, method)
    if method == "closed":
        raise ValueError(
            "no closed form for this component pair; use method='quadrature' or 'auto'"
        )
    if leb_a:  # make the line the outer integral
        ca, cb = cb, ca
    return _lambda_line_outer(kernel, ca, cb, method)


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

_DEFAULT_CUBE_NODES = {2: 24, 3: 16, 4: 10, 5: 8, 6: 6}


def default_cube_nodes(m: int) -> int:
    return _DEFAULT_CUBE_NODES.get(m, 5)


def integrate_against(measure: Measure, f, cube_nodes: int | None = None,
                      line_segments: int = 40, line_nodes: int = 10) -> float:
    """Integral of a scalar callable against the measure."""
    total = 0.0
    for comp, w in measure.components:
        if isinstance(comp, LebesgueComponent):
            n = cube_nodes or default_cube_nodes(comp.m)
            pts, wts = tensor_rule(comp.m, n)
            vals = np.array([f(p) for p in pts])
            total += w * float(vals @ wts)
        elif isinstance(comp, (DiagonalComponent, AntiDiagonalComponent)):
            breaks = [i / line_segments for i in range(1, line_segments)]
            ts, ws = segmented_rule(breaks, line_nodes)
            vals = np.array([f(p) for p in comp.points(ts)])
            total += w * float(vals @ ws)
        elif isinstance(comp, PointMassComponent):
            total += w * sum(pw * f(np.asarray(p))
                             for p, pw in zip(comp.array(), comp.weights))
        else:
            raise TypeError(f"unsupported component {comp!r}")
    return total


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def measure_from_json(spec, m: int) -> Measure:
    """Measure from a JSON object/string or a shorthand name.

    Shorthands: "lebesgue", "diagonal", "antidiagonal",
    "diagonal+antidiagonal".  JSON: {"variant": "lebesgue"} |
    {"variant": "diagonal"} | {"variant": "antidiagonal"} |
    {"variant": "points", "points": [[...]], "weights": [...]} |
    {"variant": "sum", "parts": [{"weight": w, "measure": {...}}, ...]}.
    """
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "lebesgue":
            return lebesgue(m)
        if name == "diagonal":
            return diagonal(m)
        if name == "antidiagonal":
            if m != 2:
                raise ValueError("the anti-diagonal measure requires m = 2")
            return anti_diagonal()
        if name in ("diagonal+antidiagonal", "antidiagonal+diagonal"):
            if m != 2:
                raise ValueError("the anti-diagonal measure requires m = 2")
            return weighted_sum([(diagonal(2), 1.0), (anti_diagonal(), 1.0)])
        spec = json.loads(spec)
    variant = spec.get("variant", "").lower()
    if variant in ("lebesgue", "diagonal", "antidiagonal"):
        return measure_from_json(variant, m)
    if variant == "points":
        weights = spec.get("weights") or [1.0] * len(spec["points"])
        return point_masses(spec["points"], weights, m)
    if variant == "sum":
        parts = [(measure_from_json(p["measure"], m), float(p.get("weight", 1.0)))
                 for p in spec["parts"]]
        return weighted_sum(parts)
    raise ValueError(f"unknown measure variant {variant!r}")
