import numpy as np
import pytest

from cubegreen.quadrature import cube_integral, default_nodes, tensor_rule, unit_rule


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
