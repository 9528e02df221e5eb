"""B and B-hat at p >= 2 as batch lattices.

The reference below is the per-dataset lattice code these batch forms
replaced: one cumulative histogram per dataset, the observations above
the last midpoint filtered out dataset by dataset.  The batch forms must
give `==` values, whatever the chunking.
"""

import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from cubegreen import cli, quadrature, rankstats
from cubegreen.quadrature import midpoint_grid
from cubegreen.rankstats import batch_statistic, ranks, stat_B, stat_Bhat

RNG = np.random.default_rng(20240917)


def _ref_cumcounts(idx, shape):
    flat = np.ravel_multi_index(tuple(idx.T), shape)
    C = np.bincount(flat, minlength=math.prod(shape)).astype(float).reshape(shape)
    for a in range(len(shape)):
        np.cumsum(C, axis=a, out=C)
    return C


def ref_B(X, V, p, g):
    n, m = X.shape
    in_v = [j for j in range(m) if V >> j & 1]
    k = m - len(in_v)
    shape = tuple(g if j in in_v else n for j in range(m))
    idx = ranks(X) - 1
    if in_v:
        c = midpoint_grid(1, g)[0].ravel()
        idx[:, in_v] = np.searchsorted(c, X[:, in_v], side="left")
        idx = idx[(idx[:, in_v] < g).all(axis=1)]
    ref = [c if j in in_v else np.arange(1, n + 1) / n for j in range(m)]
    D = _ref_cumcounts(idx, shape) / n
    D -= reduce(np.multiply.outer, ref)
    D **= p
    return float(D.sum()) / (n ** k * g ** len(in_v))


def ref_Bhat(X, p, g):
    n, m = X.shape
    c = midpoint_grid(1, g)[0].ravel()
    T = _ref_cumcounts(np.searchsorted(c, X, side="left"), (g + 1,) * m)
    cs = c.reshape((g,) + (1,) * (m - 1))
    for a in range(m):
        Ta = np.moveaxis(T, a, 0)
        Ta[:g] -= cs * Ta[g]
    T = T[(slice(0, g),) * m] / n
    T **= p
    return float(T.sum()) / g ** m


def _batch(count, n, m, g):
    """Uniform datasets, some observations placed above the last midpoint
    (1 - 1/(2g) < x <= 1) and one at exactly 1."""
    X = RNG.random((count, n, m))
    X[::2, 0, 0] = 1.0 - 0.1 / g
    X[1::3, -1, :] = np.linspace(1.0 - 0.2 / g, 1.0, m)
    return X


@pytest.mark.parametrize("m, n, g", [(2, 9, 7), (3, 6, 5), (4, 4, 3)])
@pytest.mark.parametrize("p", [2, 3])
def test_batch_equals_per_dataset_reference(m, n, g, p):
    X = _batch(5, n, m, g)
    want = [ref_Bhat(x, p, g) for x in X]
    assert batch_statistic("Bhat", X, 0, p, g).tolist() == want
    assert [stat_Bhat(x, p, g) for x in X] == want
    full = (1 << m) - 1
    for V in (0, 0b1, 0b10, full ^ 0b1, full):  # empty, partial and full
        want = [ref_B(x, V, p, g) for x in X]
        assert batch_statistic("B", X, V, p, g).tolist() == want
        assert [stat_B(x, V, p, g) for x in X] == want


@pytest.mark.parametrize("budget_cells", [1, 2, 3, 7, 1000])
def test_chunk_boundaries_do_not_change_values(budget_cells, monkeypatch):
    # 1: one dataset per chunk; 1000: all eleven datasets in one chunk
    X = _batch(11, 12, 2, 6)
    want = {"Bhat": [ref_Bhat(x, 2, 6) for x in X],
            "B": [ref_B(x, 0b10, 2, 6) for x in X]}
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 8 * 72 * budget_cells)
    assert batch_statistic("Bhat", X, 0, 2, 6).tolist() == want["Bhat"]
    assert batch_statistic("B", X, 0b10, 2, 6).tolist() == want["B"]


def test_every_observation_above_the_last_midpoint():
    X = RNG.random((3, 4, 2))
    X[:, :, 0] = 0.99 + 0.0025 * np.arange(4)  # all above 1 - 1/16
    for V in (0b01, 0b11):
        assert batch_statistic("B", X, V, 2, 8).tolist() == [ref_B(x, V, 2, 8) for x in X]
    assert batch_statistic("Bhat", X, 0, 2, 8).tolist() == [ref_Bhat(x, 2, 8) for x in X]


def test_default_grid_matches_reference():
    X = _batch(4, 20, 2, 64)
    assert batch_statistic("Bhat", X, 0, 2, None).tolist() == [ref_Bhat(x, 2, 64) for x in X]
    assert batch_statistic("B", X, 0b01, 2, None).tolist() == [
        ref_B(x, 0b01, 2, 64) for x in X]


class _Reached(Exception):
    pass


@pytest.fixture
def no_lattice(monkeypatch):
    """Midpoints are computed after the cell check and before any lattice is
    allocated; raising there tells an accepted lattice from a refused one."""
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(rankstats, "midpoint_grid", reached)


def test_B_cell_refusal_edge(no_lattice):
    # g^|V| n^(m-|V|) cells: 2^15 * 2^10 = 2^25 accepted, 11184811 * 3 = 2^25 + 1 refused
    assert 2 ** 15 * 2 ** 10 == rankstats._CELL_CAP == 11184811 * 3 - 1
    with pytest.raises(_Reached):
        stat_B(RNG.random((2 ** 10, 2)), 0b01, 2, 2 ** 15)
    with pytest.raises(ValueError, match="33554433 cells"):
        stat_B(RNG.random((3, 2)), 0b01, 2, 11184811)
    with pytest.raises(ValueError, match="33554433 cells"):
        batch_statistic("B", RNG.random((4, 3, 2)), 0b01, 2, 11184811)


def test_Bhat_cell_refusal_edge(no_lattice, monkeypatch):
    # (g+1)^m cells: 32^5 = 2^25 accepted; refused once the cap is one cell lower
    X = RNG.random((3, 5))
    with pytest.raises(_Reached):
        stat_Bhat(X, 2, 31)
    monkeypatch.setattr(rankstats, "_CELL_CAP", 2 ** 25 - 1)
    with pytest.raises(ValueError, match="33554432 cells"):
        stat_Bhat(X, 2, 31)
    with pytest.raises(ValueError, match="33554432 cells"):
        batch_statistic("Bhat", X[None], 0, 2, 31)


@pytest.mark.parametrize("name, V, g", [("Bhat", 0, 255), ("B", 0b01, 512)])
def test_peak_memory_is_a_few_lattices(name, V, g):
    # 65 536 or 51 200 cells, above the chunk budget: one dataset per chunk,
    # so 64 datasets take about what one does
    X = RNG.random((64, 100, 2))
    cells = (g + 1) ** 2 if name == "Bhat" else g * 100
    batch_statistic(name, X[:1], V, 2, g)  # warm up
    tracemalloc.start()
    try:
        batch_statistic(name, X, V, 2, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * cells  # an unchunked batch takes about 130


@pytest.mark.parametrize("stat, m, V", [("Bhat", 2, None), ("Bhat", 3, None),
                                        ("B", 2, ""), ("B", 2, "2"), ("B", 2, "1,2"),
                                        ("B", 3, "1,3")])
def test_nulldist_p2_identical_across_threads(stat, m, V, capsys, monkeypatch):
    argv = ["simulate", "--mode", "nulldist", "--stat", stat, "--p", "2", "--m", str(m),
            "--n", "12", "--R", "100", "--seed", "9", "--grid-n", "6"]
    if V is not None:
        argv += ["--V", V]
    results = []
    for threads, small in (("1", False), ("1", True), ("3", True)):
        if small:
            # blocks of 7 replications, and lattice chunks of 1 to 4 datasets
            monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 8 * 12 * m * 7)
        assert cli.main(argv + ["--threads", threads]) == 0
        results.append(capsys.readouterr().out.split(', "timing": ')[0].split('"result": ')[1])
    assert results[0] == results[1] == results[2]


def _old_matrix(a):
    return [[float(v) for v in row] for row in np.asarray(a)]


def test_tolist_equals_per_element_float():
    A = np.concatenate([RNG.standard_normal((4, 6)), RNG.random((4, 6)) * 1e-310,
                        np.array([[0.0, -0.0, np.inf, -np.inf, 1e308, 5e-324]] * 4)])
    for a in (A, A.T, A[:, :1], RNG.standard_normal((1, 1))):
        got = a.tolist()
        assert got == _old_matrix(a)
        assert all(type(v) is float for row in got for v in row)
        assert [[repr(v) for v in row] for row in got] == [
            [repr(v) for v in row] for row in _old_matrix(a)]
