import builtins
import inspect
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubegreen import montecarlo, rankstats
from cubegreen.families import echoed
from cubegreen.quadrature import midpoint_grid
from cubegreen.rankstats import (
    REGISTRY,
    STATISTICS,
    _column_ranks,
    _cumcounts,
    _tied_down_grid,
    batch_process_W,
    batch_ranks,
    batch_statistic,
    batch_tied_down,
    empirical_process_W,
    footrule,
    gini_coefficient,
    load_csv,
    ranks,
    spearman_rho,
    stat_B,
    stat_Bhat,
    statistic,
    tied_down_process,
    to_copula_scale,
)

RNG = np.random.default_rng(3141)


def tied_down_process_subtraction(data, x) -> float:
    """Oracle: the tied-down process as sqrt(n) (F_n minus alternating face
    corrections)."""
    X = np.asarray(data, dtype=float)
    n, m = X.shape
    x = np.asarray(x, dtype=float)

    def F_n(z):
        return float(np.mean(np.all(X <= z, axis=1)))

    total = F_n(x)
    for u in range(1, 1 << m):
        k = u.bit_count()
        xf = x.copy()
        xu = 1.0
        for j in range(m):
            if u >> j & 1:
                xu *= x[j]
                xf[j] = 1.0
        total -= (-1.0) ** (k - 1) * xu * F_n(xf)
    return float(np.sqrt(n) * total)


def brute_B1(X, V):
    """Exact oracle for the first-power integral statistic, m = 2.

    Integrates the piecewise-polynomial integrand cell by cell: Lebesgue
    over the axes in V, the empirical marginal product over the rest.
    """
    n, m = X.shape
    assert m == 2
    in_v = [j for j in range(2) if V >> j & 1]
    axes = []
    for j in range(2):
        if j in in_v:
            edges = np.concatenate([[0.0], np.sort(X[:, j]), [1.0]])
            axes.append([("cell", a, b) for a, b in zip(edges[:-1], edges[1:])])
        else:
            axes.append([("atom", y, None) for y in np.sort(X[:, j])])
    total = 0.0
    for k0, a0, b0 in axes[0]:
        for k1, a1, b1 in axes[1]:
            probe = np.array([
                0.5 * (a0 + b0) if k0 == "cell" else a0,
                0.5 * (a1 + b1) if k1 == "cell" else a1,
            ])
            Fn = np.mean(np.all(X <= probe, axis=1))
            piece = Fn
            weight = 1.0
            ref = 1.0
            for kind, a, b, j in ((k0, a0, b0, 0), (k1, a1, b1, 1)):
                if kind == "cell":
                    weight *= b - a
                    ref *= (b * b - a * a) / 2.0 / (b - a)
                else:
                    weight *= 1.0 / n
                    ref *= np.mean(X[:, j] <= a)
            total += weight * (piece - ref)
    return total


def loop_Bhat(X, g, ps):
    """Reference B-hat at p >= 2: the tied-down process evaluated point by
    point on the midpoint grid.  Returns {p: (value, scale)}, where scale
    is the same sum over the absolute values of the terms."""
    pts, cellw = midpoint_grid(X.shape[1], g)
    sums = {p: [0.0, 0.0] for p in ps}
    for x in pts:
        val = float(np.prod((X <= x).astype(float) - x, axis=1).mean())
        for p in ps:
            sums[p][0] += val ** p
            sums[p][1] += abs(val) ** p
    return {p: (v * cellw, a * cellw) for p, (v, a) in sums.items()}


def loop_B(X, V, g, ps):
    """Reference B at p >= 2: the midpoint grid over the V-axes times an
    explicit loop over the empirical product atoms of the other axes.
    Returns {p: (value, scale)} as `loop_Bhat` does."""
    n, m = X.shape
    in_v = [j for j in range(m) if V >> j & 1]
    out_v = [j for j in range(m) if not V >> j & 1]
    k = len(out_v)
    if in_v:
        grid_pts, cellw = midpoint_grid(len(in_v), g)
    else:
        grid_pts, cellw = np.zeros((1, 0)), 1.0
    ind_v = np.ones((n, len(grid_pts)))
    for a, j in enumerate(in_v):
        ind_v *= X[:, j][:, None] <= grid_pts[:, a][None, :]
    prod_xv = grid_pts.prod(axis=1) if in_v else np.ones(1)
    cols = [np.sort(X[:, j]) for j in out_v]
    diffs = []
    for atom in itertools.product(*[range(n) for _ in out_v]):
        ind_rows = np.ones(n)
        f_marg = 1.0
        for a, j in enumerate(out_v):
            ind_rows *= X[:, j] <= cols[a][atom[a]]
            f_marg *= (atom[a] + 1.0) / n
        diffs.append(ind_rows @ ind_v / n - prod_xv * f_marg)
    D = np.array(diffs)
    w = float(n) ** -k * cellw
    return {p: (w * float((D ** p).sum()), w * float((np.abs(D) ** p).sum())) for p in ps}


def oracle_datasets(m, g, distinct):
    """Random data at n = 1, 2, 20, then data on the grid midpoints, at 0
    and at 1; with `distinct`, every column of that last set is tie-free."""
    for n in (1, 2, 20):
        yield RNG.random((n, m))
    edges = np.concatenate([[0.0], (np.arange(g) + 0.5) / g, [1.0]])
    if distinct:
        yield np.column_stack([RNG.permutation(edges) for _ in range(m)])
    else:
        yield RNG.choice(edges, size=(2 * len(edges), m))


ORACLE_GRID = {2: 7, 3: 4, 4: 3}


class TestRanks:
    def test_simple(self):
        X = np.array([[0.3, 10.0], [0.1, 30.0], [0.2, 20.0]])
        R = ranks(X)
        assert R.tolist() == [[3, 1], [1, 3], [2, 2]]

    def test_ties_rejected(self):
        with pytest.raises(ValueError, match="ties"):
            ranks(np.array([[0.5, 1.0], [0.5, 2.0]]))

    def test_first_tied_column_named(self):
        X = np.array([[0.1, 0.5, 0.7], [0.2, 0.5, 0.7], [0.3, 0.6, 0.8]])
        with pytest.raises(ValueError, match="column 2"):
            ranks(X)

    def test_nan_rejected(self):
        X = np.array([[0.1, np.nan], [0.2, np.nan]])
        with pytest.raises(ValueError, match="NaN"):
            ranks(X)
        for f in (stat_Bhat, lambda X: stat_B(X, 0b11)):
            with pytest.raises(ValueError, match="unit cube"):
                f(X)

    def test_copula_scale(self):
        X = RNG.random((5, 3))
        U = to_copula_scale(X)
        assert set(np.unique(U[:, 0])) == {i / 6 for i in range(1, 6)}

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_column_ranks_of_every_column_subset(self, m):
        # every subset, in every order: runs of consecutive columns are copied as one
        X = RNG.random((3, 7, m))
        for size in range(m + 1):
            for columns in itertools.permutations(range(m), size):
                R = _column_ranks(X, columns)
                assert R.shape == (3, 7, size)
                for b in range(3):
                    assert np.array_equal(R[b], ranks(X[b])[:, list(columns)])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 4), st.integers(0, 2**31))
    def test_rank_invariance_under_increasing_maps(self, n, m, seed):
        X = np.random.default_rng(seed).random((n, m))
        maps = [np.exp, np.arctan, lambda t: t**3 + t]
        Y = np.column_stack([maps[j % 3](X[:, j]) for j in range(m)])
        assert np.array_equal(ranks(X), ranks(Y))


class TestProcesses:
    def test_W_single_observation(self):
        X = np.array([[0.2, 0.6]])
        x = np.array([0.5, 0.5])
        # F_n = 0 (0.6 > 0.5), product over V = M is 0.25
        assert empirical_process_W(X, 0b11, x) == pytest.approx(-0.25)

    def test_W_empty_V_uses_marginal_ecdfs(self):
        X = np.array([[0.2, 0.6], [0.7, 0.3]])
        x = np.array([0.5, 0.5])
        # F_n(x) = 0, F_1(0.5) = 0.5, F_2(0.5) = 0.5
        assert empirical_process_W(X, 0, x) == pytest.approx(
            np.sqrt(2) * (0.0 - 0.25))

    def test_tied_down_single_observation(self):
        X = np.array([[0.2, 0.6]])
        x = np.array([0.5, 0.5])
        assert tied_down_process(X, x) == pytest.approx((1 - 0.5) * (0 - 0.5))

    def test_tied_down_two_forms_agree(self):
        for _ in range(100):
            n = int(RNG.integers(1, 20))
            m = int(RNG.integers(2, 5))
            X = RNG.random((n, m))
            x = RNG.random(m)
            a = tied_down_process(X, x)
            b = tied_down_process_subtraction(X, x)
            assert abs(a - b) <= 1e-12

    def test_rejects_data_outside_cube(self):
        with pytest.raises(ValueError):
            tied_down_process(np.array([[1.5, 0.2]]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [1.5, -0.5, float("nan")])
    def test_rejects_a_point_outside_cube(self, bad):
        X = np.array([[0.2, 0.6], [0.7, 0.3]])
        message = f"^coordinate {re.escape(repr(bad))} is not in \\[0, 1\\]$"
        with pytest.raises(ValueError, match=message):
            empirical_process_W(X, 1, [bad, 0.5])
        with pytest.raises(ValueError, match=message):
            tied_down_process(X, [0.5, bad])

    def test_rejects_bad_V(self):
        with pytest.raises(ValueError):
            empirical_process_W(np.array([[0.1, 0.2]]), 0b100, np.array([0.5, 0.5]))


class TestStatB:
    @pytest.mark.parametrize("V", [0b00, 0b01, 0b10, 0b11])
    def test_first_power_matches_cell_oracle(self, V):
        for n in (1, 2, 3, 5):
            for _ in range(5):
                X = RNG.random((n, 2))
                assert stat_B(X, V) == pytest.approx(brute_B1(X, V), abs=1e-12)

    def test_first_power_m3(self):
        # independent check by direct summation over empirical atoms, V = M
        X = RNG.random((4, 3))
        exact = np.prod(1.0 - X, axis=1).mean() - 0.125
        assert stat_B(X, 0b111) == pytest.approx(exact, abs=1e-14)

    def test_second_power_nonnegative(self):
        X = RNG.random((6, 2))
        for V in (0b00, 0b11):
            assert stat_B(X, V, p=2, grid_n=32) >= 0.0

    def test_second_power_matches_direct_grid(self):
        X = RNG.random((4, 2))
        g = 16
        centers = (np.arange(g) + 0.5) / g
        total = 0.0
        for a in centers:
            for b in centers:
                x = np.array([a, b])
                Fn = np.mean(np.all(X <= x, axis=1))
                total += (Fn - a * b) ** 2
        assert stat_B(X, 0b11, p=2, grid_n=g) == pytest.approx(
            total / g**2, abs=1e-12)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            stat_B(RNG.random((3, 2)), 0, p=0)


class TestStatBhat:
    def test_first_power_closed_form(self):
        X = np.array([[0.2, 0.6], [0.7, 0.3]])
        expected = ((0.3 * -0.1) + (-0.2 * 0.2)) / 2
        assert stat_Bhat(X) == pytest.approx(expected, abs=1e-15)

    def test_first_power_vs_grid_integral(self):
        X = RNG.random((8, 2))
        g = 64
        centers = (np.arange(g) + 0.5) / g
        total = 0.0
        for a in centers:
            for b in centers:
                x = np.array([a, b])
                total += np.prod((X <= x).astype(float) - x, axis=1).mean()
        assert abs(stat_Bhat(X) - total / g**2) <= 2.0 / g

    def test_second_power_nonnegative(self):
        X = RNG.random((6, 3))
        assert stat_Bhat(X, p=2, grid_n=12) >= 0.0


class TestGridECDF:
    def test_cumcounts_counts_dominated_points(self):
        for shape in ((5,), (3, 4), (2, 3, 4)):
            idx = np.column_stack([RNG.integers(0, s, size=9) for s in shape])
            C = _cumcounts(idx, shape)
            for k in np.ndindex(*shape):
                assert C[k] == np.all(idx <= np.array(k), axis=1).sum()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_Bhat_matches_loop_oracle(self, m):
        g = ORACLE_GRID[m]
        for X in oracle_datasets(m, g, distinct=False):
            want = loop_Bhat(X, g, (2, 3))
            for p in (2, 3):
                value, scale = want[p]
                assert abs(stat_Bhat(X, p, g) - value) <= 1e-12 * scale

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_B_matches_loop_oracle(self, m):
        g = ORACLE_GRID[m]
        for X in oracle_datasets(m, g, distinct=True):
            for V in range(1 << m):
                want = loop_B(X, V, g, (2, 3))
                for p in (2, 3):
                    value, scale = want[p]
                    assert abs(stat_B(X, V, p, g) - value) <= 1e-12 * scale

    def test_tied_down_grid_is_the_process(self):
        for m, g in ((2, 8), (3, 5)):
            X = RNG.random((15, m))
            T = _tied_down_grid(X, g)
            assert T.shape == (g,) * m
            for k in [(0,) * m, (g - 1,) * m, tuple(RNG.integers(0, g, size=m))]:
                c = (np.array(k) + 0.5) / g
                assert T[k] / np.sqrt(15) == pytest.approx(
                    tied_down_process(X, c), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("grid_n", [0, -3])
    def test_grid_n_out_of_range(self, grid_n):
        X = RNG.random((5, 2))
        for p in (1, 2):
            with pytest.raises(ValueError, match="grid_n"):
                stat_Bhat(X, p, grid_n)
            with pytest.raises(ValueError, match="grid_n"):
                stat_B(X, 0b01, p, grid_n)

    @pytest.mark.parametrize("name", STATISTICS)
    def test_p_and_grid_n_checked_for_every_statistic(self, name):
        X = RNG.random((2, 5, 2))
        with pytest.raises(ValueError, match="p must be a positive integer"):
            batch_statistic(name, X, 0, 0)
        with pytest.raises(ValueError, match="p must be a positive integer"):
            statistic(name, X[0], 0, 0, None)
        for grid_n in (0, -3, 2.5):
            with pytest.raises(ValueError, match="grid_n"):
                batch_statistic(name, X, 0, 1, grid_n)
            with pytest.raises(ValueError, match="grid_n"):
                statistic(name, X[0], 0, 1, grid_n)

    @pytest.mark.parametrize("p", [2.5, 1.5, 2.0, True, False, "2", None])
    @pytest.mark.parametrize("name", STATISTICS)
    def test_p_must_be_an_integer(self, monkeypatch, name, p):
        # 2.5 and 1.5 used to give NaN with a RuntimeWarning, True to run as 1
        X = RNG.random((2, 5, 2))
        calls = [lambda: batch_statistic(name, X, 0, p), lambda: statistic(name, X[0], 0, p, None)]
        if name in ("B", "Bhat"):
            calls.append(lambda: stat_B(X[0], 0b01, p) if name == "B" else stat_Bhat(X[0], p))

        def never(*args, **kwargs):
            raise AssertionError("replications drawn")

        monkeypatch.setattr(montecarlo, "_replication_values", never)
        cfg = montecarlo.SimConfig(seed=1, n=5, replications=100, m=2)
        calls.append(lambda: montecarlo.null_distribution(cfg, name, p,
                                                          V=0b01 if name == "B" else 0))
        for call in calls:
            with pytest.raises(ValueError, match="^p must be a positive integer$"):
                call()
        assert batch_statistic(name, X, 0, np.int64(2)).shape == (2,)

    @pytest.mark.parametrize("grid_n", [2.5, True, "4"])
    def test_grid_n_not_an_integer(self, grid_n):
        # 2.5 used to run on 2 midpoints and True on 1
        X = RNG.random((5, 2))
        for p in (1, 2):
            with pytest.raises(ValueError, match="grid_n"):
                stat_Bhat(X, p, grid_n)
            with pytest.raises(ValueError, match="grid_n"):
                stat_B(X, 0b01, p, grid_n)

    def test_oversized_lattice_refused(self):
        # 13^7 cells at the default 12-point grid
        with pytest.raises(ValueError, match="cells"):
            stat_Bhat(RNG.random((10, 7)), 2)
        # 12^5 * 135 cells: |V| = 5 and one rank axis
        with pytest.raises(ValueError, match="cells"):
            stat_B(RNG.random((135, 6)), 0b011111, 2)

    def test_lattice_at_the_cap_runs(self, monkeypatch):
        X = RNG.random((6, 3))
        for call, cells in ((lambda: stat_Bhat(X, 2, 5), 6 ** 3),
                            (lambda: stat_B(X, 0b001, 2, 5), 5 * 6 * 6),
                            (lambda: stat_B(X, 0, 2, 5), 6 ** 3)):
            monkeypatch.setattr(rankstats, "_CELL_CAP", cells)
            assert call() >= 0.0
            monkeypatch.setattr(rankstats, "_CELL_CAP", cells - 1)
            with pytest.raises(ValueError, match="cells"):
                call()


class TestRankCoefficients:
    def test_spearman_comonotone(self):
        X = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        assert spearman_rho(X) == pytest.approx(1.0)

    def test_spearman_antimonotone(self):
        X = np.array([[1.0, 30.0], [2.0, 20.0], [3.0, 10.0]])
        assert spearman_rho(X) == pytest.approx(-1.0)

    def test_spearman_trivariate_value(self):
        X = np.array([[1, 1, 1], [2, 2, 2], [3, 3, 3]], dtype=float)
        # mean prod (4 - R) = (27 + 8 + 1)/3 = 12, minus 8; c = 12 - 8
        assert spearman_rho(X) == pytest.approx(1.0)

    def test_gini_extremes(self):
        up = np.column_stack([np.arange(4.0), np.arange(4.0) + 1])
        down = np.column_stack([np.arange(4.0), 4.0 - np.arange(4.0)])
        assert gini_coefficient(up) == pytest.approx(1.0)
        assert gini_coefficient(down) == pytest.approx(-1.0)

    def test_gini_needs_two_columns(self):
        with pytest.raises(ValueError):
            gini_coefficient(RNG.random((5, 3)))

    def test_gini_needs_two_observations(self):
        # d_n = 0 at n = 1: refused, not a division by zero
        with pytest.raises(ValueError, match="two observations"):
            gini_coefficient([[0.3, 0.4]])

    def test_footrule_values(self):
        up = np.column_stack([np.arange(3.0), np.arange(3.0)])
        down = np.column_stack([np.arange(3.0), 2.0 - np.arange(3.0)])
        assert footrule(up) == 0
        assert footrule(down) == 4

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 30), st.integers(0, 2**31))
    def test_coefficients_invariant_under_increasing_maps(self, n, seed):
        X = np.random.default_rng(seed).random((n, 2))
        Y = np.column_stack([np.exp(X[:, 0]), np.arctan(X[:, 1])])
        assert spearman_rho(X) == pytest.approx(spearman_rho(Y), abs=1e-12)
        assert gini_coefficient(X) == pytest.approx(gini_coefficient(Y), abs=1e-12)
        assert footrule(X) == footrule(Y)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**31))
    def test_coefficient_bounds(self, n, seed):
        X = np.random.default_rng(seed).random((n, 2))
        assert -1.0 - 1e-12 <= spearman_rho(X) <= 1.0 + 1e-12
        assert -1.0 - 1e-12 <= gini_coefficient(X) <= 1.0 + 1e-12
        assert 0 <= footrule(X)


def loop_ranks(X):
    return np.argsort(np.argsort(X, axis=0), axis=0) + 1


def loop_p1(name, X, V):
    """The p = 1 statistics of one dataset, in the arithmetic order of the
    single-dataset formulas, as the reference for the batch forms."""
    n, m = X.shape
    R = loop_ranks(X)
    if name == "B":
        term1 = np.ones(n)
        for j in sorted(range(m), key=lambda j: not V >> j & 1):  # V's axes first
            term1 *= 1.0 - X[:, j] if V >> j & 1 else (n - R[:, j] + 1.0) / n
        k = V.bit_count()
        return float(term1.mean()) - 0.5 ** k * ((n + 1.0) / (2.0 * n)) ** (m - k)
    if name == "Bhat":
        return float(np.prod(0.5 - X, axis=1).mean())
    if name == "rho":
        c_m = float(np.mean(np.arange(1, n + 1, dtype=float) ** m) - ((n + 1.0) / 2.0) ** m)
        return float(np.prod(n + 1.0 - R, axis=1).mean() - ((n + 1.0) / 2.0) ** m) / c_m
    if name == "gini":
        d_n = float(n * n if n % 2 == 0 else n * n - 1)
        s = np.abs(n + 1 - R[:, 0] - R[:, 1]) - np.abs(R[:, 0] - R[:, 1])
        return float(2.0 / d_n * s.sum())
    return float(np.abs(R[:, 0] - R[:, 1]).sum())


class TestBatchForms:
    @pytest.mark.parametrize("n", [2, 50, 1000])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_p1_batch_equals_each_dataset(self, n, m):
        X = RNG.random((5, n, m))
        for name in STATISTICS if m == 2 else ("B", "Bhat", "rho"):
            for V in ((0, 1, 2, (1 << m) - 1) if name == "B" else (0,)):
                batch = batch_statistic(name, X, V)
                assert batch.shape == (5,) and batch.dtype == float
                assert batch.tolist() == [statistic(name, x, V, 1, None) for x in X]
                assert batch.tolist() == [loop_p1(name, x, V) for x in X]

    def test_p2_batch_is_per_dataset(self):
        X = RNG.random((3, 20, 2))
        for name in ("B", "Bhat"):
            assert batch_statistic(name, X, 1, 2, 8).tolist() == [
                statistic(name, x, 1, 2, 8) for x in X]

    def test_batch_ranks(self):
        X = RNG.random((4, 30, 3))
        R = batch_ranks(X)
        assert R.shape == (4, 30, 3) and R.transpose(0, 2, 1).flags.c_contiguous
        for b in range(4):
            assert np.array_equal(R[b], loop_ranks(X[b]))
            assert np.array_equal(ranks(X[b]), R[b])

    @pytest.mark.parametrize("most", [1, 2, 4])
    def test_processes_equal_pointwise_loops(self, most):
        for n, m in ((1, 2), (40, 2), (300, 3), (25, 4)):
            # data and nodes are multiples of 2^-8, data on the nodes included:
            # every product and sum below is exact, in any order
            X = RNG.integers(0, 257, size=(4, n, m)) / 256.0
            axes = [np.sort(RNG.choice(np.arange(1, 256), size=RNG.integers(1, most + 1),
                                       replace=False)) / 256.0 for _ in range(m)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
            T = batch_tied_down(X, axes)
            assert T.shape == (4, len(grid))
            for V in (0, 1, (1 << m) - 1):
                W = batch_process_W(X, axes, V)
                for b in range(4):
                    for g in range(len(grid)):
                        x = grid[g]
                        below = X[b] <= x
                        prod = 1.0
                        for j in range(m):
                            prod *= x[j] if V >> j & 1 else below[:, j].mean()
                        want = np.sqrt(n) * (below.all(axis=1).mean() - prod)
                        assert W[b, g] == want == empirical_process_W(X[b], V, x)
            for b in range(4):
                # products over the axes, summed in observation order
                total = np.zeros(len(grid))
                for i in range(n):
                    total += ((X[b, i] <= grid) - grid).prod(axis=1)
                assert np.array_equal(T[b], total / np.sqrt(n))
                assert T[b].tolist() == [tied_down_process(X[b], x) for x in grid]

    def test_tied_down_process_is_not_the_lattice_code(self, monkeypatch):
        # perfbench's oracle checks stat_Bhat against tied_down_process as a
        # separate code path
        def never(*args, **kwargs):
            raise AssertionError("the lattice code was called")

        monkeypatch.setattr(rankstats, "_cumcounts", never)
        monkeypatch.setattr(rankstats, "_tied_down_grid", never)
        X = RNG.random((15, 3))
        assert np.isfinite(tied_down_process(X, [0.2, 0.5, 0.9]))

    def test_tie_in_one_replication(self):
        X = RNG.random((4, 10, 3))
        X[2, 7, 1] = X[2, 3, 1]
        with pytest.raises(ValueError) as alone:
            ranks(X[2])
        assert str(alone.value) == "ties detected in column 2"
        for name in ("B", "rho"):
            with pytest.raises(ValueError, match="^ties detected in column 2$"):
                batch_statistic(name, X)

    def test_nan_in_one_replication(self):
        X = RNG.random((4, 10, 2))
        X[1, 4, 0] = np.nan
        with pytest.raises(ValueError, match="^dataset contains NaN$"):
            ranks(X[1])
        for name in ("rho", "gini", "footrule"):
            with pytest.raises(ValueError, match="^dataset contains NaN$"):
                batch_statistic(name, X)
        with pytest.raises(ValueError, match="unit cube"):
            batch_statistic("Bhat", X)

    def test_first_bad_replication_names_the_error(self):
        X = RNG.random((4, 10, 2))
        X[1, 2, 1] = X[1, 5, 1]
        X[3, 0, 0] = np.nan
        with pytest.raises(ValueError, match="^ties detected in column 2$"):
            batch_ranks(X)
        X[0, 9, 0] = np.nan
        with pytest.raises(ValueError, match="^dataset contains NaN$"):
            batch_ranks(X)

    def test_batch_shape_checked(self):
        with pytest.raises(ValueError, match="B x n x m"):
            batch_statistic("rho", RNG.random((10, 2)))
        with pytest.raises(ValueError, match="unknown statistic"):
            batch_statistic("tau", RNG.random((1, 10, 2)))


class TestBRanksOutsideV:
    """B reads ranks only outside V: the V columns enter by value (p = 1)
    or by their midpoint bin (p >= 2)."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_only_columns_outside_V_are_sorted(self, monkeypatch, p):
        rows = []
        argsort = np.argsort

        def counted(a, *args, **kwargs):
            rows.append(a.shape[0])
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        X = RNG.random((5, 6, 4))
        for V in range(16):
            rows.clear()
            batch_statistic("B", X, V, p, 3)
            assert sum(rows) == 5 * (4 - V.bit_count())

    def test_a_tie_inside_V_is_not_refused(self):
        X = RNG.random((8, 3))
        X[5, 1] = X[2, 1]
        for V in (0b010, 0b111):
            assert stat_B(X, V) == loop_p1("B", X, V)
            value, scale = loop_B(X, V, 4, (2,))[2]
            assert abs(stat_B(X, V, 2, 4) - value) <= 1e-12 * scale
        assert stat_Bhat(X) == loop_p1("Bhat", X, 0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_a_tie_outside_V_names_its_column_in_the_data(self, p):
        X = RNG.random((8, 3))
        X[6, 2] = X[1, 2]
        X[4, 0] = X[3, 0]  # a tie in the known column 1 is not reported
        with pytest.raises(ValueError, match="^ties detected in column 3$"):
            stat_B(X, 0b001, p, 4)
        X[7, 1] = X[0, 1]
        with pytest.raises(ValueError, match="^ties detected in column 2$"):
            stat_B(X, 0b001, p, 4)


class TestStatisticDispatch:
    def test_names_dispatch_to_their_functions(self):
        X = RNG.random((12, 2))
        want = {"B": stat_B(X, 0b01, 2, 8), "Bhat": stat_Bhat(X, 2, 8),
                "rho": spearman_rho(X), "gini": gini_coefficient(X),
                "footrule": float(footrule(X))}
        assert {name: statistic(name, X, 0b01, 2, 8) for name in STATISTICS} == want

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            statistic("tau", RNG.random((5, 2)), 0, 1, None)


class TestRegistry:
    def test_names(self):
        assert STATISTICS == tuple(REGISTRY) == ("B", "Bhat", "rho", "gini", "footrule")

    @pytest.mark.parametrize("name", STATISTICS)
    def test_single_function_takes_the_data_then_the_options_read(self, name):
        entry = REGISTRY[name]
        params = inspect.signature(getattr(rankstats, entry.single)).parameters
        assert list(params) == ["data", *entry.options]

    def test_statistic_calls_the_module_function_at_call_time(self, monkeypatch):
        calls = []

        def recorder(*args, **kwargs):
            calls.append((args, kwargs))
            return 0.25

        monkeypatch.setattr(rankstats, "stat_B", recorder)
        X = RNG.random((6, 2))
        assert statistic("B", X, 0b01, 2, 8) == 0.25
        [(args, kwargs)] = calls
        assert kwargs == {} and args[1:] == (0b01, 2, 8)
        assert np.array_equal(args[0], X)

    @pytest.mark.parametrize("call", [
        lambda X: statistic("tau", X, 0, 1, None),
        lambda X: batch_statistic("tau", X[None]),
        lambda X: rankstats.lattice_cells("tau", 6, 2, 0, 2, None)])
    def test_unknown_name(self, call):
        with pytest.raises(ValueError, match=r"^unknown statistic 'tau'; choose from "
                                             r"\('B', 'Bhat', 'rho', 'gini', 'footrule'\)$"):
            call(RNG.random((6, 2)))


class TestCsv:
    def test_load_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("u,v\n0.1,0.9\n0.4,0.2\n")
        X = load_csv(path)
        assert X.shape == (2, 2)
        assert X[0, 1] == 0.9

    def test_load_without_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.1,0.9\n0.4,0.2\n")
        assert load_csv(path).shape == (2, 2)

    def test_first_row_with_a_comment_is_data(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.1,0.2 # first\n0.3,0.4\n0.5,0.6\n")
        assert load_csv(path).tolist() == [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]

    def test_header_found_past_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# drawn by hand\n\nu,v # names\n0.1,0.9\n# end\n0.4,0.2\n")
        assert load_csv(path).tolist() == [[0.1, 0.9], [0.4, 0.2]]

    def test_byte_order_mark_with_a_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbfu,v\n0.1,0.9\n0.4,0.2\n")
        assert load_csv(path).tolist() == [[0.1, 0.9], [0.4, 0.2]]

    def test_byte_order_mark_without_a_header(self, tmp_path):
        # the mark once made the first data row look like a header
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf0.1,0.2\n0.3,0.4\n0.5,0.7\n0.6,0.8\n")
        assert load_csv(path).tolist() == [[0.1, 0.2], [0.3, 0.4], [0.5, 0.7], [0.6, 0.8]]

    @pytest.mark.parametrize("text", [
        "0.1,0.2\n0.3,0.4\n0.5,0.7\n   \n",
        "  \n0.1,0.2\n0.3,0.4\n0.5,0.7\n",
        "u,v\n\t\n0.1,0.2\n  # note\n0.3,0.4\r\n \r\n0.5,0.7\n",
    ])
    def test_whitespace_only_lines_are_blank(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        assert load_csv(path).tolist() == [[0.1, 0.2], [0.3, 0.4], [0.5, 0.7]]

    def test_a_bad_value_is_still_refused_past_a_blank_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.1,0.2\n   \n0.3,x\n")
        with pytest.raises(ValueError, match=r": line 3: 'x' is not a number$"):
            load_csv(path)

    @pytest.mark.parametrize("text, line, token", [
        ("0.1,0.2\n0.3,1_0\n", 2, "1_0"),  # Python's float() reads these two, numpy not
        ("0.1,0.2\n0.3,\u0661\n", 2, "\u0661"),
        ("0.1,0.2\n0.3, \n", 2, ""),
        ("0.1,0.2 # c\n# 0.3,x\n0.5,y # z\n", 3, "y"),
    ])
    def test_a_bad_value_names_its_line_and_token(self, tmp_path, text, line, token):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_csv(path)
        assert str(exc.value) == f"the input {echoed(str(path))}: line {line}: {token!r} is not a number"

    def test_one_read_without_whitespace_only_lines(self, tmp_path, monkeypatch):
        calls = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(args[0])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        path = tmp_path / "data.csv"
        path.write_text("u,v\n0.1,0.2\n\n0.3,0.4 # c\n")
        assert load_csv(path).tolist() == [[0.1, 0.2], [0.3, 0.4]]
        assert calls == [path]

    @pytest.mark.parametrize("text", ["u,v\n0.1,0.2\n0.3,0.4\n", "0.1,0.2\n0.3,0.4\n",
                                      "\ufeffu,v\n  \n0.1,0.2\n0.3,0.4\n"])
    def test_file_opened_twice(self, tmp_path, monkeypatch, text):
        # once to sniff the header and once by numpy's datasource layer; the
        # whitespace-only fallback (the last text) reads the sniffing handle
        opened = []

        def counting(real):
            def open_(file, *args, **kwargs):
                opened.append(str(file))
                return real(file, *args, **kwargs)
            return open_

        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        monkeypatch.setattr(np.lib._datasource, "open", counting(np.lib._datasource.open))
        assert load_csv(path).tolist() == [[0.1, 0.2], [0.3, 0.4]]
        assert opened == [str(path)] * 2

    @pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n", "u,v\n",
                                      "u,v\n# no rows\n\n"])
    def test_no_data_rows_refused(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="has no data rows"):
            load_csv(path)

    def test_no_data_rows_names_the_input(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("u,v\n")
        with pytest.raises(ValueError, match="^the input 'data.csv' has no data rows$"):
            load_csv("data.csv")
        with pytest.raises(ValueError, match="^--input 'data.csv' has no data rows$"):
            load_csv("data.csv", "--input")
