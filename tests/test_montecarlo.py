import concurrent.futures
import threading
import tracemalloc

import numpy as np
import pytest

from cubegreen import montecarlo, quadrature
from cubegreen.families import all_nonempty_family, empty_family
from cubegreen.kernel import green_kernel
from cubegreen.montecarlo import (
    MAX_THREADS,
    SimConfig,
    check_grid_size,
    interior_lattice,
    null_distribution,
    sample_gaussian_field,
    simulate_null_covariance,
    simulate_tied_down_covariance,
    substream,
)


class TestConfig:
    def test_rejects_few_replications(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, n=10, replications=50, m=2)

    @pytest.mark.parametrize("grid_n", [0, 2.5, True])
    def test_rejects_grid_n_not_a_count(self, grid_n):
        with pytest.raises(ValueError, match="grid_n must be an integer >= 1"):
            SimConfig(seed=1, n=10, replications=100, m=2, grid_n=grid_n)

    def test_rejects_bad_V(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, n=10, replications=100, m=2, V=0b100)

    @pytest.mark.parametrize("threads", [0, -1, 10**6])
    def test_rejects_threads_out_of_range(self, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        before = threading.active_count()
        with pytest.raises(ValueError, match="threads must be between 1 and 64"):
            SimConfig(seed=1, n=10, replications=100, m=2, threads=threads)
        assert threading.active_count() == before

    def test_accepts_thread_cap(self):
        assert SimConfig(seed=1, n=10, replications=100, m=2,
                         threads=MAX_THREADS).threads == 64

    def test_grid_size_cap_edge(self):
        # 5792^2 = 33 547 264 <= 2^25 < 5793^2
        check_grid_size(5792)
        with pytest.raises(ValueError, match="5793 points"):
            check_grid_size(5793)
        # at m = 2, 76^2 = 5776 points are within the cap and 77^2 = 5929 are not
        assert SimConfig(seed=1, n=10, replications=100, m=2, grid_n=76).grid_n == 76
        with pytest.raises(ValueError, match="5929 points.*reduce grid_n"):
            SimConfig(seed=1, n=10, replications=100, m=2, grid_n=77)

    def test_interior_lattice(self):
        axes, points = interior_lattice(2, 2)
        assert np.array_equal(axes, [[1 / 3, 2 / 3]] * 2)
        assert points.tolist() == [[1 / 3, 1 / 3], [1 / 3, 2 / 3],
                                   [2 / 3, 1 / 3], [2 / 3, 2 / 3]]
        # the same floats as the lattices written out by hand
        axis = (0.2, 0.4, 0.6, 0.8)
        assert interior_lattice(2, 4)[1].tolist() == [[a, b] for a in axis for b in axis]
        axis = (0.25, 0.5, 0.75)
        assert interior_lattice(3, 3)[1].tolist() == [
            [a, b, c] for a in axis for b in axis for c in axis]

    def test_interior_lattice_at_the_cap(self):
        # 2^12 points: 2^24 kernel entries are accepted, 2^13 points are not
        axes, points = interior_lattice(12, 2)
        assert axes.shape == (12, 2) and points.shape == (4096, 12)
        assert points[0].tolist() == [1 / 3] * 12 and points[1, -1] == 2 / 3
        with pytest.raises(ValueError, match="kernel entries"):
            interior_lattice(13, 2)

    def test_covariance_requires_grid(self):
        cfg = SimConfig(seed=1, n=10, replications=100, m=2, V=0)
        with pytest.raises(ValueError, match="grid"):
            simulate_null_covariance(cfg)


class TestSubstreams:
    def test_reproducible(self):
        a = substream(42, 3).random(8)
        b = substream(42, 3).random(8)
        assert np.array_equal(a, b)

    def test_distinct_replications(self):
        a = substream(42, 3).random(8)
        b = substream(42, 4).random(8)
        assert not np.array_equal(a, b)

    def test_low_cross_correlation(self):
        draws = np.array([substream(9, r).random(4000) - 0.5 for r in range(6)])
        corr = np.corrcoef(draws)
        off = corr[~np.eye(6, dtype=bool)]
        # SE of a sample correlation at this length is about 1/sqrt(4000)
        assert np.abs(off).max() < 4.0 / np.sqrt(4000)


def _replication_by_hand(seed, r, n, m):
    """Replication r of an n x m sample from a fresh Philox keyed by the seed
    in the high word: advanced r·K blocks, K = ceil(n·m/4), its next n·m
    raw outputs made doubles as (x >> 11)·2^-53, and the counter left at
    (r + 1)·K, the last block read."""
    K = -(-n * m // 4)
    bitgen = np.random.Philox(key=(seed % 2**64) << 64)
    bitgen.advance(r * K)
    raw = bitgen.random_raw(n * m)
    counter = bitgen.state["state"]["counter"]
    assert int(counter[0]) + (int(counter[1]) << 64) == (r + 1) * K
    return ((raw >> np.uint64(11)) * 2.0**-53).reshape(n, m)


class TestReplicationBlocks:
    def test_block_rows_read_their_counter_ranges(self):
        # n·m = 18 is not a multiple of 4: each replication skips 2 outputs
        for seed, lo, hi in ((3, 0, 4), (2**63, 2**40 - 2, 2**40 + 2), (2**64 - 1, 5, 6)):
            block = montecarlo._uniform_block(seed, lo, hi, 6, 3)
            for r in range(lo, hi):
                assert np.array_equal(block[r - lo], _replication_by_hand(seed, r, 6, 3))

    @pytest.mark.parametrize("seed", [3, 2**63, 2**64 - 1])
    def test_replication_zero_is_the_start_of_substream_zero(self, seed):
        block = montecarlo._uniform_block(seed, 0, 3, 6, 3)
        assert np.array_equal(block[0], substream(seed, 0).random((6, 3)))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_values_across_block_boundaries(self, monkeypatch, threads):
        # 7 replications of 40 bytes per block: 15 blocks, the last one short
        monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 7 * 8 * 5 * 2)
        cfg = SimConfig(seed=2**63, n=5, replications=100, m=2, threads=threads)
        vals = montecarlo._replication_values(cfg, lambda X: X.reshape(len(X), -1))
        want = [_replication_by_hand(2**63, r, 5, 2).ravel() for r in range(100)]
        assert np.array_equal(vals, want)

    def test_a_block_builds_one_generator(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            built.append(kwargs["key"])
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 7 * 8 * 5 * 2)
        cfg = SimConfig(seed=6, n=5, replications=100, m=2)
        montecarlo._replication_values(cfg, lambda X: X.reshape(len(X), -1))
        assert built == [6 << 64] * 15

    def test_block_size_does_not_change_results(self, monkeypatch):
        cfg = SimConfig(seed=8, n=30, replications=150, m=3, grid_n=2)
        reps = [simulate_tied_down_covariance(cfg)]
        monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 1)
        reps.append(simulate_tied_down_covariance(cfg))
        assert np.array_equal(reps[0].empirical, reps[1].empirical)
        assert np.array_equal(reps[0].standard_errors, reps[1].standard_errors)


class TestStandardErrors:
    def test_streamed_equals_one_shot(self):
        values = np.random.default_rng(4).standard_normal((500, 27))
        rep = montecarlo._covariance_report(values, np.eye(27))
        prods = values[:, :, None] * values[:, None, :]
        assert np.array_equal(rep.standard_errors,
                              prods.std(axis=0, ddof=1) / np.sqrt(500))

    def test_peak_memory_far_below_product_array(self):
        # the R x G x G products at G = 256, R = 200 would take 105 MB
        values = np.random.default_rng(5).standard_normal((200, 256))
        tracemalloc.start()
        try:
            montecarlo._covariance_report(values, np.eye(256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestCovarianceSimulations:
    def test_known_margins_covariance_within_bands(self):
        cfg = SimConfig(seed=11, n=300, replications=2000, m=2, V=0b11, grid_n=2)
        rep = simulate_null_covariance(cfg)
        assert rep.max_dev_in_se < 4.0
        assert np.allclose(rep.theoretical, rep.theoretical.T)

    def test_tied_down_covariance_within_bands(self):
        cfg = SimConfig(seed=12, n=300, replications=2000, m=2, grid_n=2)
        rep = simulate_tied_down_covariance(cfg)
        assert rep.max_dev_in_se < 4.0
        pillow = green_kernel(all_nonempty_family(2))
        points = interior_lattice(2, 2)[1]
        assert np.allclose(rep.theoretical, pillow.cross(points, points))

    def test_deviation_shrinks_with_sample_size(self):
        # at n = 8 the O(1/n) bias of the estimated-margins process
        # dominates the Monte Carlo noise floor of R = 1500 replications
        wins = 0
        for seed in range(10):
            small = simulate_null_covariance(SimConfig(
                seed=seed, n=8, replications=1500, m=2, V=0, grid_n=2))
            large = simulate_null_covariance(SimConfig(
                seed=seed, n=1000, replications=1500, m=2, V=0, grid_n=2))
            wins += large.max_abs_dev <= small.max_abs_dev
        assert wins >= 8

    def test_bit_identical_across_threads(self):
        reps = [simulate_null_covariance(SimConfig(
            seed=5, n=80, replications=400, m=2, V=0b01, grid_n=2,
            threads=t)) for t in (1, 4)]
        assert np.array_equal(reps[0].empirical, reps[1].empirical)
        assert reps[0].max_dev_in_se == reps[1].max_dev_in_se

    def test_empirical_covariance_psd(self):
        cfg = SimConfig(seed=3, n=100, replications=500, m=2, V=0, grid_n=2)
        rep = simulate_null_covariance(cfg)
        assert np.linalg.eigvalsh(rep.empirical).min() >= -1e-10


class TestGaussianField:
    def test_single_point_variance(self):
        k = green_kernel(all_nonempty_family(2))
        z = sample_gaussian_field(k, [[0.5, 0.5]], count=40000, seed=2)
        # target variance 1/16; SE of the sample variance ~ sqrt(2/R)/16
        assert z.mean() == pytest.approx(0.0, abs=4 * 0.25 / np.sqrt(40000))
        assert z.var() == pytest.approx(0.0625, abs=5 * 0.0625 * np.sqrt(2 / 40000))

    def test_sheet_matches_gram(self):
        k = green_kernel(empty_family(2))
        pts = np.array([[0.3, 0.4], [0.8, 0.9]])
        z = sample_gaussian_field(k, pts, count=60000, seed=7)
        emp = np.cov(z.T)
        assert np.abs(emp - k.cross(pts, pts)).max() < 0.02

    def test_reproducible(self):
        k = green_kernel(empty_family(2))
        a = sample_gaussian_field(k, [[0.2, 0.7]], count=10, seed=9)
        b = sample_gaussian_field(k, [[0.2, 0.7]], count=10, seed=9)
        assert np.array_equal(a, b)


class TestNullDistribution:
    def test_footrule_small_sample_enumeration(self):
        # for n = 3 the footrule over random ranks takes values {0, 2, 4}
        # with mean 8/3 and variance 20/9
        cfg = SimConfig(seed=21, n=3, replications=4000, m=2)
        nd = null_distribution(cfg, "footrule")
        se_mean = np.sqrt(20 / 9 / 4000)
        assert abs(nd.mean - 8 / 3) < 4 * se_mean
        assert abs(nd.variance - 20 / 9) < 4 * max(nd.variance_se, 1e-12)

    def test_bhat_scaled_variance(self):
        cfg = SimConfig(seed=7, n=100, replications=3000, m=2)
        nd = null_distribution(cfg, "Bhat", scale_sqrt_n=True)
        assert abs(nd.variance - 12.0**-2) < 4 * nd.variance_se

    def test_quantiles_ordered(self):
        cfg = SimConfig(seed=13, n=20, replications=500, m=2)
        nd = null_distribution(cfg, "rho")
        assert nd.quantiles[0.9] <= nd.quantiles[0.95] <= nd.quantiles[0.99]

    def test_unknown_statistic(self):
        cfg = SimConfig(seed=1, n=10, replications=100, m=2)
        with pytest.raises(ValueError):
            null_distribution(cfg, "tau")

    def test_bit_identical_across_threads(self):
        cfgs = [SimConfig(seed=4, n=50, replications=300, m=2, threads=t)
                for t in (1, 8)]
        nds = [null_distribution(c, "rho") for c in cfgs]
        assert nds[0].mean == nds[1].mean
        assert nds[0].variance == nds[1].variance
