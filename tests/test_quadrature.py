import numpy as np
import pytest

from cubegreen import quadrature
from cubegreen.quadrature import (
    MAX_EVALUATIONS,
    block_integral,
    cube_integral,
    default_nodes,
    nodes_per_axis,
    point_values,
    tensor_rule,
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
def test_block_integral_is_tensor_rule_sum_at_any_block_size(monkeypatch, m, n):
    f = lambda p: float(np.exp(p.sum()) * np.cos(3.0 * p[0]))
    pts, wts = tensor_rule(m, n)
    want = float(np.array([f(p) for p in pts], dtype=float) @ wts)
    blocks = []

    def g(P):
        blocks.append(len(P))
        return point_values(f, P)

    assert block_integral(g, m, n) == want
    assert cube_integral(f, m, n) == want
    # one node per block: same nodes in the same order, same sum
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 1)
    blocks.clear()
    assert block_integral(g, m, n) == want
    assert blocks == [1] * n ** m


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
    assert nodes_per_axis(2, 2 ** 10, per_node=4) == 2 ** 10
    with pytest.raises(ValueError, match=f"needs {2 ** 22 + 1} point evaluations.*{2 ** 22}"):
        nodes_per_axis(1, 2 ** 22 + 1)
    with pytest.raises(ValueError, match=f"needs {2049 ** 2} point evaluations"):
        nodes_per_axis(2, 2049)
    with pytest.raises(ValueError, match=f"needs {1025 ** 2 * 4} point evaluations"):
        nodes_per_axis(2, 1025, per_node=4)
    # the defaults: 5 nodes per axis are accepted up to m = 9
    assert nodes_per_axis(9) == 5
    with pytest.raises(ValueError, match=f"needs {5 ** 10} point evaluations"):
        nodes_per_axis(10)


def test_oversized_integrals_refused_before_any_evaluation():
    def never(p):
        raise AssertionError("called")

    with pytest.raises(ValueError, match="budget"):
        cube_integral(never, 12)
    with pytest.raises(ValueError, match="budget"):
        block_integral(never, 3, 200)
    with pytest.raises(ValueError, match="budget"):
        tensor_rule(12, 5)
