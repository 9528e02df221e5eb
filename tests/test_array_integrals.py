"""The array evaluators against the per-point code they replaced.

`GreenKernel.values` and its callers, the batch `segmented_rule`, the batch
once-integral `measures._once` and `measures._pair_lambda` are checked
against reference copies of the earlier per-point implementations below:
the kernel evaluators must agree exactly, the integrals to rounding.
"""

import math

import numpy as np
import pytest

from cubegreen import quadrature
from cubegreen.families import (
    all_nonempty_family,
    empty_family,
    enumerate_monotone_families,
    family_for_known_margins,
    upward_closure,
)
from cubegreen.kernel import green_kernel
from cubegreen.measures import (
    LebesgueComponent,
    LineComponent,
    Measure,
    PointMassComponent,
    _once,
    _pair_lambda,
    integrate_once,
)
from cubegreen.quadrature import segmented_rule, unit_rule

RNG = np.random.default_rng(90817)


# ---------------------------------------------------------------------------
# reference: the per-point implementations
# ---------------------------------------------------------------------------

def ref_cross(k, A, B):
    At = np.atleast_2d(np.asarray(A, dtype=float)).T[:, :, None]
    Bt = np.atleast_2d(np.asarray(B, dtype=float)).T[:, None, :]
    mins = np.minimum(At, Bt)
    return k.sum_terms(mins, At * Bt, mins * (1.0 - np.maximum(At, Bt)))


def ref_diagonal(k, P):
    Pt = np.atleast_2d(np.asarray(P, dtype=float)).T.copy()
    return k.sum_terms(Pt, Pt * Pt, Pt * (1.0 - Pt))


def ref_evaluate(k, x, xi):
    return float(ref_cross(k, np.asarray(x)[None, :], np.asarray(xi)[None, :])[0, 0])


def ref_segmented_rule(breakpoints, n):
    pts = sorted({0.0, 1.0, *(float(b) for b in breakpoints if 0.0 < float(b) < 1.0)})
    bx, bw = unit_rule(n)
    xs, ws = [], []
    for a, b in zip(pts[:-1], pts[1:]):
        xs.append(a + (b - a) * bx)
        ws.append((b - a) * bw)
    return np.concatenate(xs), np.concatenate(ws)


def ref_once_lebesgue(k, x, method):
    if method == "quadrature":
        fmin = np.empty_like(x)
        for j, xj in enumerate(x):
            ts, ws = ref_segmented_rule([xj], 4)
            fmin[j] = np.minimum(xj, ts) @ ws
        ts, ws = unit_rule(4)
        fk = x * float(ts @ ws)
        gaps = fmin - fk
    else:
        fmin = x - x * x / 2.0
        fk = x / 2.0
        gaps = x * (1.0 - x) / 2.0
    return float(k.sum_terms(fmin[:, None], fk[:, None], gaps[:, None])[0])


def ref_line_breaks(comp, x):
    return list(x) if comp == LineComponent(comp.m) else [x[1], 1.0 - x[0]]


def ref_once_line(k, comp, x, extra_nodes=0):
    ts, ws = ref_segmented_rule(ref_line_breaks(comp, x), k.m + 2 + extra_nodes)
    return float(ref_cross(k, x[None, :], comp.points(ts))[0] @ ws)


def ref_once(k, comp, x, method):
    if isinstance(comp, LebesgueComponent):
        return ref_once_lebesgue(k, x, method)
    if isinstance(comp, PointMassComponent):
        return float(ref_cross(k, x[None, :], comp.array())[0] @ np.asarray(comp.weights))
    return ref_once_line(k, comp, x)


def ref_lambda_line_outer(k, outer, inner, method):
    ts, ws = ref_segmented_rule([0.5], k.m + 6)
    pts = outer.points(ts)
    if isinstance(inner, LebesgueComponent):
        vals = np.array([ref_once_lebesgue(k, p, method) for p in pts])
    else:
        vals = np.array([ref_once_line(k, inner, p, extra_nodes=4) for p in pts])
    return float(vals @ ws)


def ref_lambda_leb_leb(k, method):
    m, counts = k.m, k.complement_sizes()
    if method == "quadrature":
        xo, wo = unit_rule(6)
        q_min = 0.0
        for xj, wj in zip(xo, wo):
            ts, ws = ref_segmented_rule([xj], 4)
            q_min += wj * float(np.minimum(xj, ts) @ ws)
        ts, ws = unit_rule(4)
        q_k = float(ts @ ws) ** 2
        return sum(c * q_k ** w * (q_min - q_k) ** (m - w) for w, c in enumerate(counts))
    return sum(c * 3 ** w for w, c in enumerate(counts)) / 12 ** m


def ref_lambda_diag_diag_closed(k):
    m = k.m
    num = sum(c * math.factorial(m + w + 1) * math.factorial(m - w)
              for w, c in enumerate(k.complement_sizes()))
    return 2 * num / ((m + 1) * math.factorial(2 * m + 2))


def ref_pair_lambda(k, ca, cb, method):
    if isinstance(cb, PointMassComponent) and not isinstance(ca, PointMassComponent):
        ca, cb = cb, ca
    if isinstance(ca, PointMassComponent):
        if isinstance(cb, PointMassComponent):
            G = ref_cross(k, ca.array(), cb.array())
            return float(np.asarray(ca.weights) @ G @ np.asarray(cb.weights))
        meth = "quadrature" if method == "quadrature" else "closed"
        return sum(w * ref_once(k, cb, np.asarray(p), meth)
                   for p, w in zip(ca.array(), ca.weights))
    leb_a, leb_b = isinstance(ca, LebesgueComponent), isinstance(cb, LebesgueComponent)
    if leb_a and leb_b:
        return ref_lambda_leb_leb(k, method)
    if ca == cb == LineComponent(k.m):
        if method != "quadrature":
            return ref_lambda_diag_diag_closed(k)
        return ref_lambda_line_outer(k, ca, cb, method)
    if method == "closed":
        raise ValueError("no closed form for this component pair")
    if leb_a:
        ca, cb = cb, ca
    return ref_lambda_line_outer(k, ca, cb, method)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def kernels(m):
    """Every monotone family at m <= 3, a sample of families above."""
    if m <= 3:
        return [green_kernel(f) for f in enumerate_monotone_families(m)]
    fams = [empty_family(m), all_nonempty_family(m), family_for_known_margins(1, m)]
    fams += [upward_closure([int(g) for g in RNG.integers(1, 1 << m, 2)], m) for _ in range(3)]
    return [green_kernel(f) for f in fams]


def points(count, m):
    """Random points with rows on the faces and with repeated coordinates."""
    P = RNG.random((count, m))
    P[0] = 0.0
    P[1] = 1.0
    P[2, 0] = 1.0
    P[3] = P[3, 0]
    P[4, :2] = 0.5
    P[5] = np.round(P[5], 1)
    return P


def components(m):
    comps = [LebesgueComponent(m), LineComponent(m),
             PointMassComponent(m, tuple(map(tuple, points(6, m).tolist())),
                                tuple(RNG.uniform(0.5, 2.0, 6).tolist()))]
    return comps + [LineComponent(2, reversed=1)] if m == 2 else comps


# ---------------------------------------------------------------------------
# kernel evaluators: exactly the per-point values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("na, nb", [(1, 9), (9, 1), (11, 7)])
def test_evaluators_equal_reference(m, na, nb, monkeypatch):
    # row blocks of 3 rows, so cross crosses a block boundary at 11 rows
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 8 * 3 * nb * m)
    A, B = points(max(na, 6), m)[:na], RNG.random((nb, m))
    for k in kernels(m):
        want = ref_cross(k, A, B)
        assert np.array_equal(k.cross(A, B), want)
        assert np.array_equal(k.values(A[:, None], B[None]), want)
        assert np.array_equal(k.values(B, A[:, None]), want)
        assert np.array_equal(k.values(A, A), ref_diagonal(k, A))
        assert k.evaluate(A[0], B[-1]) == ref_evaluate(k, A[0], B[-1])


@pytest.mark.parametrize("m", [2, 3])
def test_values_broadcasts_pairs(m):
    k = green_kernel(family_for_known_margins(1, m))
    X, Y = RNG.random((4, 5, m)), RNG.random((5, m))
    got = k.values(X, Y)
    assert got.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            assert got[i, j] == ref_evaluate(k, X[i, j], Y[j])
    assert k.values(X[0, 0], Y[0]).shape == ()
    with pytest.raises(ValueError):
        k.values(X[..., :1], Y[..., :1])


# ---------------------------------------------------------------------------
# batch segmented rules
# ---------------------------------------------------------------------------

def test_batch_segmented_rule_equals_rows():
    breaks = np.array([[0.3, 0.7, 0.5], [0.2, 0.2, 0.9], [0.0, 1.0, 0.4], [-0.5, 1.5, 0.6]])
    xs, ws = segmented_rule(breaks, 5)
    assert xs.shape == ws.shape == (4, 20)
    for row, x, w in zip(breaks, xs, ws):
        x1, w1 = segmented_rule(row, 5)
        assert np.array_equal(x, x1) and np.array_equal(w, w1)
        # the same nonzero nodes and weights as the rule without repeats
        xr, wr = ref_segmented_rule(row, 5)
        assert np.array_equal(x[w != 0.0], xr) and np.array_equal(w[w != 0.0], wr)
        assert np.all(np.diff(x) >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-15)
    # each repeated or outside break adds one piece of zero width
    assert [int(np.sum(w == 0.0)) for w in ws] == [0, 5, 10, 10]
    xs3, ws3 = segmented_rule(breaks.reshape(2, 2, 3), 5)
    assert np.array_equal(xs3.reshape(4, 20), xs) and np.array_equal(ws3.reshape(4, 20), ws)


def test_interior_breaks_keep_the_1d_rule():
    for breaks in ([], [0.5], np.arange(1, 40) / 40, [0.7, 0.1]):
        for n in (1, 4, 10):
            x, w = segmented_rule(breaks, n)
            xr, wr = ref_segmented_rule(breaks, n)
            assert np.array_equal(x, xr) and np.array_equal(w, wr)


# ---------------------------------------------------------------------------
# once-integrals and pair integrals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("method", ["auto", "closed", "quadrature"])
def test_batch_once_equals_rows(m, method):
    X = points(12, m)
    for k in kernels(m)[:6]:
        for comp in components(m):
            got = _once(k, comp, X, method)
            assert got.shape == (12,)
            mu = Measure(m, ((comp, 1.0),))
            rows = [integrate_once(k, mu, x, method) for x in X]
            ref = [ref_once(k, comp, x, "quadrature" if method == "quadrature" else "closed")
                   for x in X]
            np.testing.assert_allclose(got, rows, rtol=1e-15, atol=1e-17)
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-16)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("method", ["auto", "closed", "quadrature"])
def test_pair_lambda_equals_reference(m, method):
    comps = components(m)
    for k in kernels(m)[:6]:
        for ca in comps:
            for cb in comps:
                try:
                    want = ref_pair_lambda(k, ca, cb, method)
                except ValueError:
                    with pytest.raises(ValueError, match="no closed form"):
                        _pair_lambda(k, ca, cb, method)
                    continue
                assert _pair_lambda(k, ca, cb, method) == pytest.approx(want, rel=1e-14)
