import tracemalloc

import numpy as np
import pytest

from cubegreen import quadrature
from cubegreen.quadrature import (
    LADDER_RTOL,
    MAX_EVALUATIONS,
    cube_integral,
    cube_rule,
    default_nodes,
    diff_matrix,
    ladder_rungs,
    node_ladder,
    node_values,
    nodes_per_axis,
    point_values,
    tensor_rule,
    tensor_weights,
    unit_rule,
)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", [2, 5, 12])
def test_tensor_weights_are_axis_products(m, n):
    x, w = unit_rule(n)
    pts, wts = tensor_rule(m, n)
    idx = np.indices((n,) * m).reshape(m, -1)
    want = np.ones(n ** m)
    for axis in range(m):
        want *= w[idx[axis]]
    assert wts.tobytes() == want.tobytes()
    assert np.array_equal(pts, x[idx].T)
    assert wts.flags.writeable


def test_default_node_table():
    assert [default_nodes(m) for m in range(2, 9)] == [24, 16, 12, 8, 6, 5, 5]


def test_cube_integral_default_nodes():
    f = lambda p: float(np.exp(p.sum()))
    pts, wts = tensor_rule(4, 12)
    assert cube_integral(f, 4) == float(np.array([f(p) for p in pts]) @ wts)
    assert cube_integral(f, 4) == pytest.approx((np.e - 1.0) ** 4, rel=1e-14)


def test_point_values_visits_rows_then_scalars_in_order():
    seen = []
    X = np.arange(12.0).reshape(6, 2)
    vals = point_values(lambda x: seen.append(tuple(x)) or x[0] - x[1], X)
    assert seen == [tuple(r) for r in X]
    assert vals.dtype == float and vals.tolist() == [-1.0] * 6
    t = np.linspace(0.0, 1.0, 5)
    assert point_values(lambda s: 2.0 * s, t).tolist() == (2.0 * t).tolist()
    assert point_values(lambda x: 1.0, np.zeros((0, 3))).shape == (0,)


@pytest.mark.parametrize("m, n", [(1, 7), (2, 5), (3, 4), (5, 3)])
def test_cube_integral_is_tensor_rule_sum_at_any_block_size(monkeypatch, m, n):
    f = lambda p: float(np.exp(p.sum()) * np.cos(3.0 * p[0]))
    pts, wts = tensor_rule(m, n)
    want = float(np.array([f(p) for p in pts], dtype=float) @ wts)
    blocks = []

    def g(P):
        blocks.append(len(P))
        return point_values(f, P)

    assert cube_integral(f, m, n) == want
    # one node per block: same nodes in the same order, same sum
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 1)
    assert cube_integral(f, m, n) == want
    x, w = unit_rule(n)
    assert node_values(g, x, m).tolist() == [f(p) for p in pts]
    assert blocks == [1] * n ** m
    assert tensor_weights(w, m).tobytes() == wts.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_node_values_take_any_per_axis_rule(monkeypatch, m):
    # nodes in no order, one repeated, and weights of any sign: the grid is
    # the per-axis rule's, lexicographic in the per-axis index
    x = np.array([0.9, 0.0, 1.0, 0.25, 0.25])
    w = np.array([0.5, -0.5, 2.0, 1.5, -3.0])
    f = lambda p: float(np.sum(p * np.arange(1, m + 1)) + np.prod(p))
    grid = [np.array(p) for p in np.ndindex(*(len(x),) * m)]
    want = [f(x[i]) for i in grid]
    # whole grids, one node per block, and blocks of a few nodes that do not
    # divide the grid
    for block_bytes in (quadrature._BLOCK_BYTES, 1, 500):
        monkeypatch.setattr(quadrature, "_BLOCK_BYTES", block_bytes)
        assert node_values(lambda P: point_values(f, P), x, m).tolist() == want
    assert tensor_weights(w, m).tolist() == [float(np.prod(w[i])) for i in grid]


def test_node_values_refuse_a_grid_over_the_budget_before_any_call():
    def never(P):
        raise AssertionError("called")

    # len(x)^m is what is counted, whatever the nodes are
    x = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError, match=f"needs {9 ** 7} point evaluations"):
        node_values(never, x, 7)
    with pytest.raises(ValueError, match=f"needs {9 ** 7} point evaluations"):
        tensor_weights(x, 7)
    with pytest.raises(ValueError, match=f"needs {2049 ** 2} point evaluations"):
        node_values(never, np.zeros(2049), 2)
    for bad in (0, 2.0, True):
        with pytest.raises(ValueError, match="dimension m must be an integer >= 1"):
            node_values(never, x, bad)
        with pytest.raises(ValueError, match="dimension m must be an integer >= 1"):
            tensor_weights(x, bad)


def test_node_block_memory_stays_within_the_block_budget():
    # a block holds its (B, m) points and a few (B,) arrays, not m digit
    # arrays and m gathered coordinates besides
    x = unit_rule(10)[0]
    g = lambda P: point_values(lambda p: 1.0, P)
    node_values(g, x, 4)
    tracemalloc.start()
    vals = node_values(g, x, 4)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < vals.nbytes + 1.5 * quadrature._BLOCK_BYTES


@pytest.mark.parametrize("bad", [0, -1, 2.5, 2.0, True, None, "4"])
def test_node_counts_must_be_integers_from_one(bad):
    with pytest.raises(ValueError, match="integer >= 1"):
        unit_rule(bad)
    # tensor_rule has no default node count
    with pytest.raises(ValueError, match="integer >= 1"):
        tensor_rule(2, bad)
    if bad is not None:
        with pytest.raises(ValueError, match="integer >= 1"):
            cube_integral(lambda p: 1.0, 2, bad)
        with pytest.raises(ValueError, match="integer >= 1"):
            nodes_per_axis(3, bad)
    assert unit_rule(np.int64(3))[0].shape == (3,)


def test_evaluation_budget_edge():
    assert MAX_EVALUATIONS == 2 ** 22
    assert nodes_per_axis(1, 2 ** 22) == 2 ** 22
    assert nodes_per_axis(2, 2 ** 11) == 2 ** 11
    assert nodes_per_axis(11, 4) == 4
    with pytest.raises(ValueError, match=f"needs {2 ** 22 + 1} point evaluations.*{2 ** 22}"):
        nodes_per_axis(1, 2 ** 22 + 1)
    with pytest.raises(ValueError, match=f"needs {2049 ** 2} point evaluations"):
        nodes_per_axis(2, 2049)
    with pytest.raises(ValueError, match=f"needs {4 ** 12} point evaluations"):
        nodes_per_axis(12, 4)
    # the defaults: 5 nodes per axis are accepted up to m = 9
    assert nodes_per_axis(9) == 5
    with pytest.raises(ValueError, match=f"needs {5 ** 10} point evaluations"):
        nodes_per_axis(10)


@pytest.mark.parametrize("m", [0, 1, 17, 2.0, True])
def test_dimension_must_be_an_integer_from_one(m):
    def never(p):
        raise AssertionError("called")

    if m in (0, 2.0) or m is True:
        for call in (lambda: nodes_per_axis(m, 3), lambda: nodes_per_axis(m),
                     lambda: cube_integral(never, m, 3), lambda: cube_rule(never, m, 3),
                     lambda: tensor_rule(m, 3)):
            with pytest.raises(ValueError, match=f"^dimension m must be an integer >= 1, "
                                                 f"got {m!r}$"):
                call()
    elif m == 1:
        assert nodes_per_axis(m) == 5
        assert cube_integral(lambda t: float(t[0]) ** 2, m, 3) == pytest.approx(1 / 3, rel=1e-15)
    else:
        # above the dimensions the package builds kernels for, the budget still holds
        assert nodes_per_axis(m, 2) == 2
        with pytest.raises(ValueError, match=f"needs {3 ** 17} point evaluations"):
            cube_integral(never, m, 3)


def test_oversized_integrals_refused_before_any_evaluation():
    def never(p):
        raise AssertionError("called")

    with pytest.raises(ValueError, match="budget"):
        cube_integral(never, 12)
    with pytest.raises(ValueError, match="budget"):
        cube_integral(never, 3, 200)
    with pytest.raises(ValueError, match="budget"):
        tensor_rule(12, 5)


def test_ladder_rungs():
    assert [ladder_rungs(m) for m in range(2, 9)] == [
        (2, 3, 6, 12, 24), (2, 3, 4, 8, 16), (2, 3, 6, 12), (2, 3, 4, 8), (2, 3, 6),
        (2, 3, 5), (2, 3, 5)]
    assert LADDER_RTOL == 1e-13


def counting(f):
    calls = []

    def g(p):
        calls.append(1)
        return f(p)

    return g, calls


@pytest.mark.parametrize("m", range(2, 7))
def test_ladder_stops_at_the_first_agreeing_rungs(m):
    # degree 3 per axis: the 2- and 3-point rules are both exact
    h = lambda p: float(np.prod(p ** 3 - p + 0.5))
    f, calls = counting(h)
    value = node_ladder(lambda k: cube_rule(f, m, k), m)
    assert len(calls) == 2 ** m + 3 ** m
    assert value == cube_integral(h, m, 3)
    assert abs(value - cube_integral(h, m, 2)) <= LADDER_RTOL * abs(value)
    assert value == pytest.approx(0.25 ** m, rel=1e-14)


@pytest.mark.parametrize("m", range(2, 6))
def test_ladder_without_agreement_is_the_table_rule(m):
    f, calls = counting(lambda p: float(np.prod(np.sin(7.0 * p))))
    value = node_ladder(lambda k: cube_rule(f, m, k), m)
    top = default_nodes(m)
    assert value == cube_integral(f, m, top)
    assert len(calls) == sum(k ** m for k in ladder_rungs(m)) + top ** m
    assert value != cube_integral(f, m, ladder_rungs(m)[-2])


def bump(t):
    # C^1, supported on [0.55, 0.75]: between the nodes of the 2- and 3-point rules
    return np.where((0.55 < t) & (t < 0.75), ((t - 0.55) * (0.75 - t)) ** 2, 0.0)


@pytest.mark.parametrize("m", range(2, 5))
def test_ladder_climbs_past_two_zero_rungs(m):
    f = lambda p: float(np.prod(bump(p)))
    assert cube_integral(f, m, 2) == cube_integral(f, m, 3) == 0.0
    top = default_nodes(m)
    value = node_ladder(lambda k: cube_rule(f, m, k), m)
    assert value == cube_integral(f, m, top) > 0.0


def test_ladder_agreement_edge():
    # scripted rungs: each rung is the next value, as a rule of one node
    def scripted(values):
        seen = []

        def rule_at(n):
            seen.append(n)
            return np.array([values[len(seen) - 1]]), np.ones(1)

        return rule_at, seen

    one = 1.0
    at_tol = one + LADDER_RTOL  # |I_b - I_a| <= tol * max(|I_a|, |I_b|)
    assert at_tol - one <= LADDER_RTOL * at_tol
    rule_at, seen = scripted([5.0, one, at_tol, 7.0, 8.0])
    assert node_ladder(rule_at, 4) == at_tol
    assert seen == [2, 3, 6]
    above = one + 4.0 * LADDER_RTOL
    # two zero rungs are not agreement: the ladder climbs to the top
    rule_at, seen = scripted([one, above, 0.0, 0.0, 5.0])
    assert node_ladder(rule_at, 2) == 5.0
    assert seen == [2, 3, 6, 12, 24]
    rule_at, seen = scripted([0.0, 0.0, 5.0, 5.0, 7.0])
    assert node_ladder(rule_at, 2) == 5.0
    assert seen == [2, 3, 6, 12]
    rule_at, seen = scripted([one, above, 3.0, 4.0])
    assert node_ladder(rule_at, 4) == 4.0
    assert seen == [2, 3, 6, 12]
    # a rung that is not finite agrees with none: the climb stops there
    rule_at, seen = scripted([float("nan")] * 5)
    assert np.isnan(node_ladder(rule_at, 2)) and seen == [2]
    rule_at, seen = scripted([one, -float("inf"), 5.0, 5.0, 5.0])
    assert node_ladder(rule_at, 2) == -float("inf") and seen == [2, 3]
    # inf and a finite rung after it are not agreement (inf <= tol * inf)
    rule_at, seen = scripted([float("inf"), one, one, one, one])
    assert node_ladder(rule_at, 2) == float("inf") and seen == [2]


def test_ladder_agreement_is_relative_to_the_absolute_sum():
    # I = 1 + d from the terms 1000, 1 + d and -1000: sum |w v| is about 2001
    def scripted(*ds):
        seen = []

        def rule_at(n):
            seen.append(n)
            return np.array([1000.0, 1.0 + ds[len(seen) - 1], -1000.0]), np.ones(3)

        return rule_at, seen

    # 2e-11 apart: within 1e-13 of the absolute sum, though not of |I|
    rule_at, seen = scripted(0.0, 2e-11, 1.0, 1.0, 1.0)
    assert abs(node_ladder(rule_at, 2) - 1.0) < 1e-10 and seen == [2, 3]
    # 1e-9 apart: beyond it, so the ladder climbs to the top
    rule_at, seen = scripted(0.0, 1e-9, 2e-9, 3e-9, 4e-9)
    assert abs(node_ladder(rule_at, 2) - 1.0) < 1e-8 and seen == [2, 3, 6, 12, 24]


@pytest.mark.parametrize("m, n", [(2, 5), (3, 2), (4, 3), (5, 4)])
def test_explicit_nodes_evaluate_that_rule_alone(m, n):
    h = lambda p: float(np.prod(p ** 3 - p + 0.5))
    f, calls = counting(h)
    value = node_ladder(lambda k: cube_rule(f, m, k), m, n)
    assert len(calls) == n ** m
    assert value == cube_integral(h, m, n)
    assert node_ladder(lambda k: (np.array([float(k)]), np.ones(1)), m, np.int64(n)) == float(n)


def test_ladder_refuses_before_any_evaluation():
    def never(n):
        raise AssertionError("called")

    with pytest.raises(ValueError, match=f"needs {5 ** 12} point evaluations"):
        node_ladder(never, 12)
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="integer >= 1"):
            node_ladder(never, 3, bad)


@pytest.mark.parametrize("n", [2, 3, 8, 24])
def test_diff_matrix_is_exact_on_monomials_below_n(n):
    x, _ = unit_rule(n)
    D = diff_matrix(n)
    for k in range(n):
        exact = k * x ** max(k - 1, 0)
        assert np.abs(D @ x ** k - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())
    assert not D.flags.writeable and diff_matrix(np.int64(n)) is D


def test_diff_matrix_rows_sum_to_zero_and_stay_finite_at_1000_nodes():
    n = 1000
    x, _ = unit_rule(n)
    D = diff_matrix(n)
    assert np.isfinite(D).all()
    assert np.abs(D.sum(axis=1)).max() <= 1e-14 * np.abs(D).max()
    assert np.abs(D @ (2.0 * x - 1.0) - 2.0).max() <= 1e-14 * np.abs(D).max()
    # the product form 1 / prod_{k != j} (x_j - x_k) of the same weights
    # overflows, and normalising it leaves NaN
    gaps = np.subtract.outer(x, x)
    np.fill_diagonal(gaps, 1.0)
    with np.errstate(all="ignore"):
        product_form = 1.0 / np.prod(gaps, axis=1)
        assert np.isnan(product_form / product_form[0]).all()
    assert diff_matrix(1).tolist() == [[0.0]]
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="integer >= 1"):
            diff_matrix(bad)
