"""Gauss-Legendre rules on [0,1] and I^m, and the one cube integrator.

Kernels built from min(x, xi) are piecewise polynomial; splitting the
integration interval at every kink before applying Gauss-Legendre keeps
the quadrature exact to machine precision instead of degrading to a slow
algebraic rate.  `segmented_rule` builds one such rule per row of breaks.

`point_values` is the only loop in the package that calls a point
callable (a dependence function, a density), on each point of an array in
order.  A tensor rule on I^m is the product of one per-axis rule, nodes x
and weights w: `node_values(g, x, m)` fills one vector with a block
callable's values at its len(x)^m nodes, in `blocks` of (B, m) points
written axis by axis, and `tensor_weights(w, m)` gives its weights.
`cube_rule` is the two for a point callable on the Gauss rule
`unit_rule(n)`, and `cube_integral` their dot product.  Every blocked
loop of the package takes its slices from `blocks`, the one block budget.
Every node count, len(x) included, goes through `nodes_per_axis`: a
dimension m >= 1, an integer count >= 1 (default from the one table
`_CUBE_NODES`), and at most `MAX_EVALUATIONS` nodes per rule, refused
before any array is built.

`diff_matrix(n)` differentiates the degree n - 1 interpolant through the n
Gauss nodes on [0, 1], from node values to derivative values at the same
nodes: the barycentric matrix (Berrut & Trefethen 2004) with the
closed-form Gauss-Legendre weights (-1)^j sqrt(x_j (1 - x_j) w_j) (Wang,
Huybrechs & Vandewalle 2014), which stay finite at any n where the
product of node differences underflows, and the negative row sum on the
diagonal, so constants differentiate to zero.

`node_ladder` chooses the nodes of an integral given as its rule, node
values and weights, as a function of the node count.  With an explicit
count it evaluates that count alone.  With none it climbs the rungs of
`ladder_rungs(m)`: 2 and 3 nodes per axis, then the halvings of the table
count above 3, up to the table count, and stops at the first two
consecutive rungs that agree to `LADDER_RTOL` of the larger absolute sum
sum |w_i v_i|, the scale of their rounding, and whose absolute sums are
not both exactly zero (Gauss-Legendre with n nodes is
exact for degree 2n - 1 per axis, so a direction of degree <= 3 per axis
stops at the 3-point rung); without agreement it returns the table
count's value.  A rung whose value is not finite stops the climb at once
and is returned, so its callers refuse it after that rung.  Two rungs
with no nonzero term are not agreement: a direction supported between
the nodes of both, such as a bump on [0.55, 0.75]^m, is zero at each node
and climbs on.  Agreement of two rungs is
evidence, not proof: an integrand crafted to agree on them fools the
ladder, as any integrand that vanishes at the table's nodes fools the
table alone.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce

import numpy as np

# nodes (and point evaluations) one integral may ask for, nodes^m; at the
# budget the node values and weights take 64 MiB
MAX_EVALUATIONS = 2 ** 22
# two consecutive rungs of `node_ladder` agree when they differ by at most
# this much relative to the larger of their absolute sums, which is not zero
LADDER_RTOL = 1e-13
# bytes of the largest temporary of one block, read by `blocks` alone: a
# block's few temporaries then stay within a core's L2 cache (`tiedcov` at
# n = 100, R = 1000 and grid_n = 4 at m = 2 or 3 at m = 3, on a 2-CPU
# x86-64 box: 1 MiB blocks within 10% of this speed, 64 KiB ones 1.3-1.4x
# slower)
_BLOCK_BYTES = 1 << 18
# `count_text` prints a count in decimal below this
_DECIMAL_BELOW = 10 ** 300


def _node_count(n, name: str = "node count") -> int:
    try:
        count = operator.index(n)
    except TypeError:
        count = 0
    if count < 1 or isinstance(n, bool):
        raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    return count


def count_text(count: int) -> str:
    """A count as a message prints it: in decimal below 10^300, and in
    scientific notation from there on, three digits cut, not rounded
    (Python converts no int of more than 4300 digits to decimal)."""
    if count < _DECIMAL_BELOW:
        return str(count)
    k = (count.bit_length() - 1) * 30102 // 100000  # 10^k <= count, as 0.30102 < log10 2
    while 10 ** (k + 1) <= count:
        k += 1
    return f"{count // 10 ** (k - 2) / 100:.2f}e{k}"


def blocks(count: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of range(count) of max(1, _BLOCK_BYTES //
    item_bytes) items, the last maybe fewer (an empty item counts 1 byte)."""
    step = max(1, _BLOCK_BYTES // max(1, item_bytes))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


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
    return _unit_rule_cached(_node_count(n))


@lru_cache(maxsize=None)
def _diff_matrix_cached(n: int) -> np.ndarray:
    x, w = unit_rule(n)
    lam = np.sqrt(x * (1.0 - x) * w)
    lam[1::2] *= -1.0
    gaps = np.subtract.outer(x, x)
    np.fill_diagonal(gaps, 1.0)
    D = lam / lam[:, None] / gaps
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    D.flags.writeable = False
    return D


def diff_matrix(n: int) -> np.ndarray:
    """n x n matrix D taking the values of a function at the n Gauss nodes
    of `unit_rule(n)` to the derivative of its interpolant at the same
    nodes: D_ij = (lam_j / lam_i) / (x_i - x_j) off the diagonal and
    D_ii = -sum_{j != i} D_ij, with lam_j = (-1)^j sqrt(x_j (1 - x_j) w_j).
    Exact for polynomials of degree <= n - 1.  Read-only and cached."""
    return _diff_matrix_cached(_node_count(n))


def segmented_rule(breakpoints, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite n-point rules on [0, 1], one per row of (..., k) breaks:
    nodes and weights of shape (..., (k + 1) n), pieces in increasing order.
    A break outside (0, 1), or one that repeats, adds a piece of zero width
    (zero weights), so every row has the same number of nodes."""
    bx, bw = unit_rule(n)
    b = np.sort(np.clip(np.asarray(breakpoints, dtype=float), 0.0, 1.0), axis=-1)
    zeros = np.zeros(b.shape[:-1] + (1,))
    edges = np.concatenate([zeros, b, zeros + 1.0], axis=-1)
    h = (edges[..., 1:] - edges[..., :-1])[..., None]
    shape = b.shape[:-1] + (-1,)
    return (edges[..., :-1, None] + h * bx).reshape(shape), (h * bw).reshape(shape)


def point_values(f, X) -> np.ndarray:
    """f at each point of X, in order: the rows of an (N, m) array, or the
    scalars of an (N,) array.  Returns an (N,) float array."""
    return np.fromiter(map(f, X), dtype=float, count=len(X))


def integrate_segmented(f, breakpoints, n: int) -> float:
    """Integrate a callable over [0,1] with segment breaks at the kinks."""
    x, w = segmented_rule(breakpoints, n)
    return float(point_values(f, x) @ w)


_CUBE_NODES = {2: 24, 3: 16, 4: 12, 5: 8, 6: 6}


def default_nodes(m: int) -> int:
    """Default Gauss-Legendre nodes per axis for a cube integral over I^m."""
    return _CUBE_NODES.get(m, 5)


def nodes_per_axis(m: int, n: int | None = None) -> int:
    """Validated nodes per axis for one integral over I^m: n, or
    `default_nodes(m)` when n is None.

    Refuses a dimension or a count that is not an integer >= 1, and an
    integral over more than `MAX_EVALUATIONS` nodes, n^m.
    """
    _node_count(m, "dimension m")
    n = default_nodes(m) if n is None else _node_count(n)
    count = n ** m
    if count > MAX_EVALUATIONS:
        raise ValueError(
            f"an integral over I^{m} with {n} nodes per axis needs {count_text(count)} point "
            f"evaluations, above the budget of {MAX_EVALUATIONS}"
        )
    return n


def ladder_rungs(m: int) -> tuple[int, ...]:
    """Nodes per axis the default-node ladder tries over I^m, increasing:
    2, 3, then the halvings of `default_nodes(m)` above 3, up to that count
    (2, 3, 6, 12 at m = 4; 2, 3, 6, 12, 24 at m = 2)."""
    top = default_nodes(m)
    return tuple(sorted({2, 3} | {top >> k for k in range(top.bit_length()) if top >> k > 3}))


def node_ladder(rule_at, m: int, nodes: int | None = None) -> float:
    """An integral over I^m given as `rule_at(n)`, the node values and the
    weights of its rule with n nodes per axis, whose dot product it is.

    With `nodes` given, that count is validated and evaluated alone.  With
    `nodes` None, `default_nodes(m)` is validated before any evaluation,
    then the rungs of `ladder_rungs(m)` are evaluated in increasing order up
    to the first consecutive pair a, b with |I_b - I_a| <= LADDER_RTOL *
    max(S_a, S_b) and max(S_a, S_b) > 0, S = sum |w_i v_i| the rung's
    absolute sum, and I_b is returned; if no pair agrees, the top rung's
    value is.  S bounds the rounding of I, so terms that cancel do not make
    two rungs that agree in every digit they hold look apart.  A rung whose
    value is NaN or infinite ends the climb, and its value is returned.
    """
    top = nodes_per_axis(m, nodes)
    if nodes is not None:
        return _rung(*rule_at(top))[0]
    prev, prev_abs = math.nan, 0.0  # agrees with no rung
    for n in ladder_rungs(m):
        value, total_abs = _rung(*rule_at(n))
        scale = max(prev_abs, total_abs)
        if (n == top or not math.isfinite(value)
                or 0.0 < scale and abs(value - prev) <= LADDER_RTOL * scale):
            return value
        prev, prev_abs = value, total_abs


def _rung(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """A rule's integral and its absolute sum."""
    return float(values @ weights), float(np.abs(values) @ np.abs(weights))


def tensor_weights(w, m: int) -> np.ndarray:
    """Weights of the tensor rule on I^m of the per-axis weights w, the
    len(w)^m products in `tensor_rule` order."""
    nodes_per_axis(m, len(w))
    return reduce(np.multiply.outer, [w] * m, 1.0).ravel()


def tensor_rule(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on the unit cube I^m.

    Returns (points, weights) with points of shape (n**m, m), ordered
    lexicographically in the per-axis node index.
    """
    x, w = unit_rule(nodes_per_axis(m, _node_count(n)))
    return tensor_points(x, m), tensor_weights(w, m)


def tensor_points(x, m: int) -> np.ndarray:
    """The (len(x)^m, m) points of the tensor lattice on I^m of the per-axis
    node array x, in `tensor_rule` order: the last axis varies fastest."""
    return np.stack(np.meshgrid(*[x] * m, indexing="ij"), axis=-1).reshape(-1, m)


def node_values(g, x, m: int) -> np.ndarray:
    """A block callable g, (B, m) nodes to (B,) values, at the len(x)^m
    tensor nodes on I^m of the per-axis node array x: one vector in
    `tensor_rule` order, filled in `blocks` of nodes, so the values do not
    depend on the block size."""
    k = nodes_per_axis(m, len(x))
    vals = np.empty(k ** m)
    # per node: m coordinates, the index, a quotient, a digit, its coordinate
    for b in blocks(len(vals), 8 * (m + 4)):
        index = np.arange(b.start, b.stop)
        P = np.empty((len(index), m))
        for j in range(m):
            P[:, j] = x[index // k ** (m - 1 - j) % k]
        vals[b] = g(P)
    return vals


def cube_rule(f, m: int, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A scalar point callable's values at the tensor Gauss-Legendre nodes on
    I^m, n per axis (default `default_nodes(m)`), and the rule's weights."""
    x, w = unit_rule(nodes_per_axis(m, n))
    return node_values(lambda P: point_values(f, P), x, m), tensor_weights(w, m)


def cube_integral(f, m: int, n: int | None = None) -> float:
    """Tensor Gauss-Legendre integral of a scalar point callable over I^m,
    with n nodes per axis (default `default_nodes(m)`)."""
    values, weights = cube_rule(f, m, n)
    return float(values @ weights)


def midpoint_grid(m: int, n: int) -> tuple[np.ndarray, float]:
    """Midpoint tensor grid on I^m: (points, common cell weight)."""
    return tensor_points((np.arange(n) + 0.5) / n, m), float(n) ** (-m)
