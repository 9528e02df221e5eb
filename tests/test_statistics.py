import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubegreen.rankstats import (
    STATISTICS,
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
    tied_down_process_subtraction,
    to_copula_scale,
)

RNG = np.random.default_rng(3141)


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


class TestRanks:
    def test_simple(self):
        X = np.array([[0.3, 10.0], [0.1, 30.0], [0.2, 20.0]])
        R = ranks(X)
        assert R.tolist() == [[3, 1], [1, 3], [2, 2]]

    def test_ties_rejected(self):
        with pytest.raises(ValueError, match="ties"):
            ranks(np.array([[0.5, 1.0], [0.5, 2.0]]))

    def test_copula_scale(self):
        X = RNG.random((5, 3))
        U = to_copula_scale(X)
        assert set(np.unique(U[:, 0])) == {i / 6 for i in range(1, 6)}

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
