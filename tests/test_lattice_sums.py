"""One lattice construction for both simulated empirical processes.

`rankstats._lattice_sums` builds the known-margins process W and the
tied-down process.  The constructions it replaced are kept here as
oracles: W counted point by point from (B, G, n) comparisons, and the
tied-down process from (B, n, g) factors, the nodes innermost.
"""

import numpy as np
import pytest

from cubegreen import montecarlo, quadrature, rankstats
from cubegreen.montecarlo import SimConfig, simulate_null_covariance, simulate_tied_down_covariance
from cubegreen.rankstats import batch_process_W, batch_tied_down

# the covariance simulators, called with a config, the known margins V (the
# tied-down process reads none) and grid_n
SIMULATORS = [simulate_null_covariance,
              pytest.param(lambda cfg, V, grid_n: simulate_tied_down_covariance(cfg, grid_n),
                           id="simulate_tied_down_covariance")]

RNG = np.random.default_rng(2718)


def lattice_points(axes) -> np.ndarray:
    """The (G, m) points of the tensor lattice of `axes`, the last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def comparison_W(X, grid, V):
    """W at every point of a (G, m) grid, from (B, G, n) comparisons."""
    n, m = X.shape[1:]
    Xt = np.ascontiguousarray(X.transpose(0, 2, 1))
    joint = None
    prod = np.ones((X.shape[0], len(grid)))
    for j in range(m):
        below = Xt[:, None, j, :] <= grid[:, j, None]
        joint = below if joint is None else joint & below
        prod *= grid[:, j] if V >> j & 1 else np.count_nonzero(below, axis=2) / n
    return np.sqrt(n) * (np.count_nonzero(joint, axis=2) / n - prod)


def nodes_innermost_tied_down(X, axes):
    """The tied-down process from (B, n, g_j) factors, the nodes innermost."""
    n, m = X.shape[1:]

    def factors(j):
        return (X[:, :, j, None] <= axes[j]) - axes[j]

    K = factors(0)
    for j in range(1, m - 1):
        K = (K[:, :, :, None] * factors(j)[:, :, None, :]).reshape(len(X), n, -1)
    T = np.matmul(K.transpose(0, 2, 1), factors(m - 1))
    return T.reshape(len(X), -1) / np.sqrt(n)


def random_axes(m, shift):
    """1 to 4 non-dyadic nodes per axis, a different count on each axis."""
    return [np.sort(RNG.random((j + shift) % 4 + 1)) for j in range(m)]


@pytest.mark.parametrize("n", [1, 17, 100])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_W_equals_the_comparison_oracle_bit_for_bit(m, n):
    for shift in range(4):
        X = RNG.random((3, n, m))
        axes = random_axes(m, shift)
        grid = lattice_points(axes)
        for V in (0, 1 << shift % m, (1 << m) - 1):
            W = batch_process_W(X, axes, V)
            assert W.shape == (3, len(grid))
            assert np.array_equal(W, comparison_W(X, grid, V))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_tied_down_within_rounding_of_the_oracle(m):
    # the two constructions sum over the observations in different orders; up
    # to n = 30 they agree to 1e-15 of the largest entry, and the gap grows
    # like n·eps (the nodes-innermost sum is the less accurate of the two)
    for n, tol in ((1, 1e-15), (5, 1e-15), (17, 1e-15), (300, 300 * 2.0 ** -52),
                   (1000, 1000 * 2.0 ** -52)):
        for shift in range(4):
            X = RNG.random((3, n, m))
            axes = random_axes(m, shift)
            want = nodes_innermost_tied_down(X, axes)
            assert np.abs(batch_tied_down(X, axes) - want).max() <= tol * np.abs(want).max()


def test_lattice_sums_in_lattice_order():
    F = [RNG.random((g, 2, 5)) for g in (2, 3, 1, 4)]
    S = rankstats._lattice_sums(F)
    assert S.shape == (2, 24)
    for b in range(2):
        for k, (a, c, d, e) in enumerate(np.ndindex(2, 3, 1, 4)):
            want = (F[0][a, b] * F[1][c, b] * F[2][d, b] * F[3][e, b]).sum()
            assert S[b, k] == pytest.approx(want, rel=1e-14)


def test_null_covariance_equals_the_comparison_oracle_run(monkeypatch):
    for cfg, V, grid_n in ((SimConfig(seed=5, n=30, replications=200, m=3), 0b010, 2),
                           (SimConfig(seed=9, n=40, replications=150, m=2), 0, 3)):
        rep = simulate_null_covariance(cfg, V, grid_n)
        with monkeypatch.context() as mp:
            mp.setattr(rankstats, "batch_process_W",
                       lambda X, axes, V: comparison_W(X, lattice_points(axes), V))
            want = simulate_null_covariance(cfg, V, grid_n)
        for field in ("empirical", "theoretical", "standard_errors"):
            assert np.array_equal(getattr(rep, field), getattr(want, field))
        assert (rep.max_abs_dev, rep.max_dev_in_se) == (want.max_abs_dev, want.max_dev_in_se)


@pytest.mark.parametrize("simulate", SIMULATORS)
def test_results_do_not_depend_on_the_block_size(monkeypatch, simulate):
    cfg = SimConfig(seed=8, n=30, replications=150, m=3)
    reps = [simulate(cfg, 0b001, 3)]
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 1)
    reps.append(simulate(cfg, 0b001, 3))
    assert np.array_equal(reps[0].empirical, reps[1].empirical)
    assert np.array_equal(reps[0].standard_errors, reps[1].standard_errors)


class Drawn(Exception):
    pass


@pytest.mark.parametrize("simulate", SIMULATORS)
def test_per_replication_cap_is_the_factor_width(monkeypatch, simulate):
    # at (m, grid_n) = (2, 4) a replication holds n·(4 + 4) floats: n = 2^22
    # reaches the cap of 2^25 and one more observation passes it
    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(montecarlo, "_uniform_block", drawn)
    with pytest.raises(Drawn):
        simulate(SimConfig(seed=1, n=1 << 22, replications=100, m=2), 0, 4)
    with pytest.raises(ValueError, match=r"^--n 4194305 observations need 33554440 values "
                                         r"per replication, above the cap"):
        simulate(SimConfig(seed=1, n=(1 << 22) + 1, replications=100, m=2), 0, 4)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
def test_products_over_the_columns_are_numpys_bit_for_bit(m):
    # B-hat at p = 1 and rho multiply the m columns in axis order, as
    # np.prod(axis=2) does in each row
    X = RNG.random((4, 50, m))
    assert np.array_equal(rankstats.batch_statistic("Bhat", X),
                          np.prod(0.5 - X, axis=2).mean(axis=1))
    R = rankstats.batch_ranks(X)
    c_m = np.mean(np.arange(1.0, 51.0) ** m) - 25.5 ** m
    assert np.array_equal(rankstats.batch_statistic("rho", X),
                          (np.prod(51.0 - R, axis=2).mean(axis=1) - 25.5 ** m) / c_m)
