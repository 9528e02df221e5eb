import concurrent.futures
import itertools
import re
import statistics
import threading
import tracemalloc

import numpy as np
import pytest

from cubegreen import montecarlo, quadrature, rankstats
from cubegreen.families import (
    all_nonempty_family,
    empty_family,
    enumerate_monotone_families,
    family_for_known_margins,
    upward_closure,
)
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


# the covariance simulators, called with a config and grid_n (V = {1} for cov)
SIMULATORS = [pytest.param(lambda cfg, grid_n: simulate_null_covariance(cfg, 0b01, grid_n),
                           id="cov"),
              pytest.param(simulate_tied_down_covariance, id="tiedcov")]


@pytest.fixture
def no_draw(monkeypatch):
    def never(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(montecarlo, "_uniform_block", never)


class TestConfig:
    def test_rejects_few_replications(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, n=10, replications=50, m=2)

    @pytest.mark.parametrize("simulate", SIMULATORS)
    @pytest.mark.parametrize("grid_n", [0, 2.5, True])
    def test_rejects_grid_n_not_a_count(self, no_draw, simulate, grid_n):
        with pytest.raises(ValueError, match="grid_n must be an integer >= 1"):
            simulate(SimConfig(seed=1, n=10, replications=100, m=2), grid_n)

    @pytest.mark.parametrize("grid_n", [0, True])
    def test_interior_lattice_rejects_grid_n_not_a_count(self, grid_n):
        with pytest.raises(ValueError, match=f"^grid_n must be an integer >= 1, got {grid_n}$"):
            interior_lattice(2, grid_n)

    def test_rejects_bad_V(self, no_draw):
        cfg = SimConfig(seed=1, n=10, replications=100, m=2)
        for call in (lambda: simulate_null_covariance(cfg, 0b100, 2),
                     lambda: null_distribution(cfg, "B", V=0b100)):
            with pytest.raises(ValueError, match=r"^V=4 is not a subset of M for m=2$"):
                call()

    def test_positional_p_is_still_p(self):
        cfg = SimConfig(seed=1, n=10, replications=100, m=2)
        assert null_distribution(cfg, "Bhat", 2) == null_distribution(cfg, "Bhat", p=2)
        assert null_distribution(cfg, "Bhat", 2) != null_distribution(cfg, "Bhat")

    @pytest.mark.parametrize("threads", [0, -1, 10**6])
    def test_rejects_threads_out_of_range(self, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        before = threading.active_count()
        with pytest.raises(ValueError, match="threads must be between 1 and 64"):
            SimConfig(seed=1, n=10, replications=100, m=2, threads=threads)
        assert threading.active_count() == before

    @pytest.mark.parametrize("field,value", [
        ("n", 10.5), ("replications", 150.5), ("n", True), ("threads", True)])
    def test_counts_must_be_integers(self, no_draw, field, value):
        sample = {"seed": 1, "n": 10, "replications": 100, "m": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got {value}$"):
            null_distribution(SimConfig(**sample), "rho")

    @pytest.mark.parametrize("m", [2.5, True, 1, 17])
    def test_m_is_a_dimension(self, no_draw, m):
        with pytest.raises(ValueError, match=re.escape(
                f"dimension must be an integer in [2, 16], got {m!r}") + "$"):
            null_distribution(SimConfig(seed=1, n=10, replications=100, m=m), "rho")

    def test_accepts_thread_cap(self):
        assert SimConfig(seed=1, n=10, replications=100, m=2,
                         threads=MAX_THREADS).threads == 64

    def test_grid_size_cap_edge(self):
        # 5792^2 = 33 547 264 <= 2^25 < 5793^2
        check_grid_size(5792)
        with pytest.raises(ValueError, match="5793 points"):
            check_grid_size(5793)
        # at m = 2, 76^2 = 5776 points are within the cap and 77^2 = 5929 are not
        assert interior_lattice(2, 76)[1].shape == (5776, 2)

    @pytest.mark.parametrize("simulate", SIMULATORS)
    def test_grid_size_cap_refused_before_any_draw(self, no_draw, simulate):
        with pytest.raises(ValueError, match="5929 points.*reduce grid_n"):
            simulate(SimConfig(seed=1, n=10, replications=100, m=2), 77)

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

    @pytest.mark.parametrize("simulate", SIMULATORS)
    def test_interior_lattice_at_the_cap(self, no_draw, simulate):
        # 2^12 points: 2^24 kernel entries are accepted, 2^13 points are not;
        # the lattice itself is built at m = 13, and the covariance simulators
        # refuse its kernel matrices
        axes, points = interior_lattice(12, 2)
        assert axes.shape == (12, 2) and points.shape == (4096, 12)
        assert points[0].tolist() == [1 / 3] * 12 and points[1, -1] == 2 / 3
        assert interior_lattice(13, 2)[1].shape == (8192, 13)
        with pytest.raises(ValueError, match="8192 points needs 8192\\^2 kernel entries"):
            simulate(SimConfig(seed=1, n=10, replications=100, m=13), 2)

    def test_interior_lattice_coordinates_at_the_cap(self, monkeypatch):
        # 4 points in 2 dimensions: 8 coordinates
        monkeypatch.setattr(rankstats, "_CELL_CAP", 8)
        assert interior_lattice(2, 2)[1].shape == (4, 2)
        monkeypatch.setattr(rankstats, "_CELL_CAP", 7)
        with pytest.raises(ValueError) as exc:
            interior_lattice(2, 2)
        assert str(exc.value) == ("a lattice of 4 points in 2 dimensions needs 8 coordinates, "
                                  "above the cap of 7; reduce grid_n or m")



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
        cfg = SimConfig(seed=8, n=30, replications=150, m=3)
        reps = [simulate_tied_down_covariance(cfg, 2)]
        monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 1)
        reps.append(simulate_tied_down_covariance(cfg, 2))
        assert np.array_equal(reps[0].empirical, reps[1].empirical)
        assert np.array_equal(reps[0].standard_errors, reps[1].standard_errors)


class TestStandardErrors:
    def test_gram_matrices_equal_the_products_reduction(self):
        # S1 = V^T V and S2 = (V∘V)^T (V∘V) give the products' standard
        # deviations over R to rounding
        values = np.random.default_rng(4).standard_normal((500, 27))
        rep = montecarlo._covariance_report(values, np.eye(27))
        prods = values[:, :, None] * values[:, None, :]
        assert np.allclose(rep.standard_errors, prods.std(axis=0, ddof=1) / np.sqrt(500),
                           rtol=1e-13, atol=0.0)

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
        cfg = SimConfig(seed=11, n=300, replications=2000, m=2)
        rep = simulate_null_covariance(cfg, 0b11, 2)
        assert rep.max_dev_in_se < 4.0
        assert np.allclose(rep.theoretical, rep.theoretical.T)

    def test_tied_down_covariance_within_bands(self):
        cfg = SimConfig(seed=12, n=300, replications=2000, m=2)
        rep = simulate_tied_down_covariance(cfg, 2)
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
                seed=seed, n=8, replications=1500, m=2), 0, 2)
            large = simulate_null_covariance(SimConfig(
                seed=seed, n=1000, replications=1500, m=2), 0, 2)
            wins += large.max_abs_dev <= small.max_abs_dev
        assert wins >= 8

    def test_bit_identical_across_threads(self):
        reps = [simulate_null_covariance(SimConfig(
            seed=5, n=80, replications=400, m=2, threads=t), 0b01, 2) for t in (1, 4)]
        assert np.array_equal(reps[0].empirical, reps[1].empirical)
        assert reps[0].max_dev_in_se == reps[1].max_dev_in_se

    def test_empirical_covariance_psd(self):
        cfg = SimConfig(seed=3, n=100, replications=500, m=2)
        rep = simulate_null_covariance(cfg, 0, 2)
        assert np.linalg.eigvalsh(rep.empirical).min() >= -1e-10


def _field_operator(kern, grid_n: int) -> np.ndarray:
    """B_F, the field's square root on the interior lattice: the diagram
    operator applied to the identity, one column per normal."""
    factors = montecarlo.field_factors(interior_lattice(1, grid_n)[0][0])
    return kern.kron_matvec(*factors, np.eye((grid_n + 1) ** kern.m))


def _relative(A: np.ndarray, B: np.ndarray) -> float:
    return float(np.abs(A - B).max() / np.abs(B).max())


class TestGaussianField:
    @pytest.mark.parametrize("m", [2, 3])
    def test_square_root_is_the_kernel_for_every_family(self, m):
        for fam in enumerate_monotone_families(m):
            kern = green_kernel(fam)
            for grid_n in (1, 3, 4):
                B = _field_operator(kern, grid_n)
                points = interior_lattice(m, grid_n)[1]
                assert B.shape == (grid_n ** m, (grid_n + 1) ** m)
                assert _relative(B @ B.T, kern.cross(points, points)) <= 1e-14

    @pytest.mark.parametrize("family", [
        all_nonempty_family(6), empty_family(6), family_for_known_margins(0b11, 6),
        upward_closure([sum(1 << j for j in c) for c in itertools.combinations(range(6), 3)], 6)],
        ids=["pillow", "sheet", "known-12", "closure-3-subsets"])
    def test_square_root_is_the_kernel_at_m6(self, family):
        kern = green_kernel(family)
        points = interior_lattice(6, 2)[1]
        B = _field_operator(kern, 2)
        assert _relative(B @ B.T, kern.cross(points, points)) <= 1e-14

    def test_draws_are_the_operator_on_the_stream(self):
        kern = green_kernel(family_for_known_margins(0b01, 3))
        z = substream(9, 0).standard_normal((7, 4 ** 3))
        draws = sample_gaussian_field(kern, 3, 7, 9)
        assert np.allclose(draws, z @ _field_operator(kern, 3).T, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("m, grid_n", [(2, 4), (3, 3), (3, 16)])
    def test_values_do_not_depend_on_the_block_size(self, monkeypatch, m, grid_n):
        kern = green_kernel(upward_closure([0b011, 0b101][:m - 1], m))
        want = sample_gaussian_field(kern, grid_n, 30, 5)
        for budget in (1, 8 * 5 ** m, 1 << 30):
            monkeypatch.setattr(quadrature, "_BLOCK_BYTES", budget)
            assert np.array_equal(sample_gaussian_field(kern, grid_n, 30, 5), want)
        # draw r is the same whatever the count
        assert np.array_equal(sample_gaussian_field(kern, grid_n, 4, 5), want[:4])

    def test_single_point_variance(self):
        # grid_n = 1 is the one point (1/2, 1/2), where the pillow is 1/16
        k = green_kernel(all_nonempty_family(2))
        z = sample_gaussian_field(k, 1, count=40000, seed=2)
        assert z.shape == (40000, 1)
        # SE of the sample variance ~ sqrt(2/R)/16
        assert z.mean() == pytest.approx(0.0, abs=4 * 0.25 / np.sqrt(40000))
        assert z.var() == pytest.approx(0.0625, abs=5 * 0.0625 * np.sqrt(2 / 40000))

    def test_sheet_matches_gram(self):
        k = green_kernel(empty_family(2))
        pts = interior_lattice(2, 2)[1]
        z = sample_gaussian_field(k, 2, count=60000, seed=7)
        emp = np.cov(z.T)
        assert np.abs(emp - k.cross(pts, pts)).max() < 0.02

    @pytest.mark.parametrize("family", [
        all_nonempty_family(3), empty_family(3), upward_closure([0b011], 3),
        upward_closure([0b001, 0b110], 3)], ids=["pillow", "sheet", "closure-12", "closure-1-23"])
    def test_covariance_within_bonferroni_bound(self, family):
        # 20 000 draws on the 4^3 lattice: every entry of the upper triangle
        # within its standard error sqrt((G_ii G_jj + G_ij^2) / R) times the
        # two-sided Bonferroni bound at family-wise level 1e-4, as the
        # benchmark's field check takes it
        kern = green_kernel(family)
        pts = interior_lattice(3, 4)[1]
        G = kern.cross(pts, pts)
        D = sample_gaussian_field(kern, 4, 20000, 11)
        S = D.T @ D / len(D)
        se = np.sqrt((np.outer(np.diag(G), np.diag(G)) + G ** 2) / len(D))
        iu = np.triu_indices(len(pts))
        z = statistics.NormalDist().inv_cdf(1 - 1e-4 / (2 * len(iu[0])))
        assert np.max(np.abs(S - G)[iu] / se[iu]) <= z

    @pytest.mark.parametrize("m, grid_n", [(3, 40), (8, 4)])
    def test_lattices_whose_kernel_matrix_passes_the_cap(self, m, grid_n):
        # 64 000 and 65 536 points: their G x G matrices would pass 2^25
        with pytest.raises(ValueError, match="kernel entries"):
            check_grid_size(grid_n ** m)
        draws = sample_gaussian_field(green_kernel(family_for_known_margins(0b01, m)),
                                      grid_n, 2, 1)
        assert draws.shape == (2, grid_n ** m) and np.all(np.isfinite(draws))

    def test_reproducible(self):
        k = green_kernel(empty_family(2))
        a = sample_gaussian_field(k, 2, count=10, seed=9)
        b = sample_gaussian_field(k, 2, count=10, seed=9)
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

    def test_quantiles_are_the_per_level_quantiles(self, monkeypatch):
        kept = []
        replication_values = montecarlo._replication_values
        monkeypatch.setattr(montecarlo, "_replication_values",
                            lambda *args: kept.append(replication_values(*args)) or kept[-1])
        nd = null_distribution(SimConfig(seed=13, n=20, replications=2000, m=2), "rho")
        levels = [0.9, 0.95, 0.99]
        assert list(nd.quantiles) == levels  # the order a report lists them in
        assert nd.quantiles == {q: float(np.quantile(kept[0], q)) for q in levels}

    def test_unknown_statistic(self):
        cfg = SimConfig(seed=1, n=10, replications=100, m=2)
        with pytest.raises(ValueError):
            null_distribution(cfg, "tau")

    @pytest.mark.parametrize("name, m, V, cells", [("Bhat", 16, 0, 11 ** 16),
                                                   ("B", 5, 1, 10 * 100 ** 4)])
    def test_lattice_above_the_cap_refused_before_any_draw(self, monkeypatch, name, m, V,
                                                           cells):
        def never(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(montecarlo, "_uniform_block", never)
        cfg = SimConfig(seed=1, n=100, replications=100, m=m)
        with pytest.raises(ValueError, match=f"^the statistic needs a lattice of {cells} "
                                             f"cells, above the cap of {2 ** 25}; reduce "
                                             f"grid_n, n or m, or choose larger V$"):
            null_distribution(cfg, name, p=2, grid_n=10, V=V)

    def test_bit_identical_across_threads(self):
        cfgs = [SimConfig(seed=4, n=50, replications=300, m=2, threads=t)
                for t in (1, 8)]
        nds = [null_distribution(c, "rho") for c in cfgs]
        assert nds[0].mean == nds[1].mean
        assert nds[0].variance == nds[1].variance
