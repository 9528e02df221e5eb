"""Gauss-Legendre rules on [0,1] and I^m, and the one cube integrator.

Kernels built from min(x, xi) are piecewise polynomial; splitting the
integration interval at every kink before applying Gauss-Legendre keeps
the quadrature exact to machine precision instead of degrading to a slow
algebraic rate.

`cube_integral` is the only integrator of a point callable over I^m
(slopes, Fisher information, Lebesgue integrals against a measure); its
default per-axis node count comes from the one table `_CUBE_NODES`.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np


@lru_cache(maxsize=None)
def _unit_rule_cached(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def unit_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    if n < 1:
        raise ValueError("need at least one node")
    return _unit_rule_cached(int(n))


def segmented_rule(breakpoints, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule on [0,1] split at the given interior breakpoints."""
    pts = sorted({0.0, 1.0, *(float(b) for b in breakpoints if 0.0 < float(b) < 1.0)})
    bx, bw = unit_rule(n)
    xs, ws = [], []
    for a, b in zip(pts[:-1], pts[1:]):
        h = b - a
        xs.append(a + h * bx)
        ws.append(h * bw)
    return np.concatenate(xs), np.concatenate(ws)


def integrate_segmented(f, breakpoints, n: int) -> float:
    """Integrate a callable over [0,1] with segment breaks at the kinks."""
    x, w = segmented_rule(breakpoints, n)
    vals = np.array([f(t) for t in x], dtype=float)
    return float(vals @ w)


def tensor_rule(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on the unit cube I^m.

    Returns (points, weights) with points of shape (n**m, m), ordered
    lexicographically in the per-axis node index.
    """
    x, w = unit_rule(n)
    grids = np.meshgrid(*([x] * m), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = reduce(np.multiply.outer, [w] * m, 1.0).ravel()
    return pts, wts


_CUBE_NODES = {2: 24, 3: 16, 4: 12, 5: 8, 6: 6}


def default_nodes(m: int) -> int:
    """Default Gauss-Legendre nodes per axis for a cube integral over I^m."""
    return _CUBE_NODES.get(m, 5)


def cube_integral(f, m: int, n: int | None = None) -> float:
    """Tensor Gauss-Legendre integral of a scalar callable over I^m,
    with n nodes per axis (default `default_nodes(m)`)."""
    pts, wts = tensor_rule(m, n or default_nodes(m))
    vals = np.array([f(p) for p in pts], dtype=float)
    return float(vals @ wts)


def midpoint_grid(m: int, n: int) -> tuple[np.ndarray, float]:
    """Midpoint tensor grid on I^m: (points, common cell weight)."""
    x = (np.arange(n) + 0.5) / n
    grids = np.meshgrid(*([x] * m), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return pts, float(n) ** (-m)
