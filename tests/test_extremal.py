import math
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

from cubegreen import quadrature
from cubegreen.extremal import (
    ConvergenceError,
    DegenerateMeasureError,
    DependenceFunction,
    _nystrom_principal,
    bahadur_slope_B1,
    efficiency_coefficient,
    fisher_info,
    footrule_optimal_direction,
    gini_optimal_direction,
    minimal_norm_squared,
    mixed_derivative,
    optimality_gap,
    pillow_direction,
    pitman_slope_bhat,
    pitman_slope_spearman,
    principal_eigenvalue,
    solve,
    spearman_optimal_direction,
    trace_bound,
)
from cubegreen.families import (
    all_nonempty_family,
    empty_family,
    enumerate_monotone_families,
    family_for_known_margins,
    full_mask,
    subsets_of_size,
    upward_closure,
)
from cubegreen.kernel import GreenKernel, green_kernel
from cubegreen.measures import (
    anti_diagonal,
    diagonal,
    integrate_against,
    lebesgue,
    point_masses,
    scaled,
    weighted_sum,
)
from cubegreen.quadrature import tensor_rule

RNG = np.random.default_rng(90210)


def product_direction(parts):
    """Tensor product of one-dimensional profiles vanishing at 0 and 1."""
    def fn(x):
        return float(np.prod([g(t) for g, t in zip(parts, x)]))
    return DependenceFunction(fn=fn)


def five_fixtures(m):
    bump = lambda t: t * (1.0 - t)
    skew = lambda t: t * t * (1.0 - t)
    wave = lambda t: np.sin(np.pi * t)
    fixtures = [
        product_direction([bump] * m),
        product_direction([wave] * m),
        product_direction([skew] + [bump] * (m - 1)),
        spearman_optimal_direction(m),
    ]
    f_mix = fixtures[0].fn
    g_mix = fixtures[1].fn
    fixtures.append(DependenceFunction(
        fn=lambda x: 0.3 * f_mix(x) + 0.7 * g_mix(x)))
    return fixtures


# the point-by-point formulas of the slopes and of finite-difference Fisher
# information, kept as the reference for the stencil-array evaluation

def loop_mixed_derivative(f, x, h=1e-3):
    x = np.asarray(x, dtype=float)
    total = 0.0
    for signs in product((-1.0, 1.0), repeat=len(x)):
        s = np.asarray(signs)
        total += np.prod(s) * f(x + h * s)
    return total / (2.0 * h) ** len(x)


def loop_cube_integral(f, m, n):
    pts, wts = tensor_rule(m, n)
    return float(np.array([f(p) for p in pts], dtype=float) @ wts)


def loop_fisher_fd(fn, m, h=1e-3, nodes=16, delta=None):
    d = delta if delta is not None else max(0.006, 2.0 * m * h)

    def shrunk(dd):
        total = loop_cube_integral(
            lambda p: loop_mixed_derivative(fn, dd + (1.0 - 2.0 * dd) * p, h) ** 2, m, nodes)
        return total * (1.0 - 2.0 * dd) ** m

    return 3.0 * shrunk(d) - 3.0 * shrunk(2.0 * d) + shrunk(3.0 * d)


def loop_face_check(fn, m, tol=1e-6):
    for free in range(m):
        for t in np.linspace(0.1, 0.9, 9):
            x = np.ones(m)
            x[free] = t
            if abs(fn(x)) > tol:
                raise ValueError(f"face opposite axis {free + 1}")


def loop_pitman_bhat(m, dep, n):
    def restriction(u):
        free = [j for j in range(m) if not u >> j & 1]

        def f(y):
            x = np.ones(m)
            x[free] = y
            return dep.fn(x)

        return f

    integral = loop_cube_integral(dep.fn, m, n)
    for k in range(1, m - 1):
        for u in subsets_of_size(m, k):
            integral -= (-1.0) ** (k - 1) * 0.5 ** k * loop_cube_integral(restriction(u), m - k, n)
    return 12.0 ** m * integral * integral


def recording(fn, seen):
    def f(x):
        seen.append(tuple(np.atleast_1d(x)))
        return fn(x)
    return f


def non_vanishing(m):
    g = lambda t: t + t * t
    return lambda x: float(np.prod([g(t) for t in x]))


class TestSolve:
    def test_minimal_norm_known_margins_m2(self):
        sol = solve(family_for_known_margins(0, 2), lebesgue(2))
        assert minimal_norm_squared(sol) == pytest.approx(144.0, rel=1e-12)

    def test_minimal_norm_pillow_m2(self):
        sol = solve(all_nonempty_family(2), lebesgue(2))
        assert minimal_norm_squared(sol) == pytest.approx(144.0, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_omega_proportional_to_closed_polynomial(self, m):
        sol = solve(family_for_known_margins(0, m), lebesgue(m))
        ref = spearman_optimal_direction(m, normalize=True)
        for _ in range(50):
            x = RNG.uniform(0.05, 0.95, m)
            assert sol.omega(x) == pytest.approx(ref.fn(x), rel=1e-10)

    def test_omega_integrates_to_one(self):
        cases = [
            (family_for_known_margins(0, 2), lebesgue(2)),
            (all_nonempty_family(2), lebesgue(2)),
            (family_for_known_margins(0, 2), diagonal(2)),
            (family_for_known_margins(0, 3), lebesgue(3)),
            (family_for_known_margins(0, 2),
             weighted_sum([(diagonal(2), 1.0), (anti_diagonal(), 1.0)])),
        ]
        for fam, mu in cases:
            sol = solve(fam, mu)
            got = integrate_against(mu, sol.omega)
            assert got == pytest.approx(1.0, abs=1e-10)

    def test_measure_scaling_covariance(self):
        fam = family_for_known_margins(0, 2)
        c = 2.5
        sol1 = solve(fam, diagonal(2))
        sol2 = solve(fam, scaled(diagonal(2), c))
        assert sol2.lam == pytest.approx(c * c * sol1.lam, rel=1e-12)
        x = np.array([0.4, 0.7])
        assert sol2.omega(x) == pytest.approx(sol1.omega(x) / c, rel=1e-12)

    def test_degenerate_measure_raises(self):
        # mass on the upper corner, where every kernel in the family vanishes
        mu = point_masses(np.array([[1.0, 1.0]]), np.array([1.0]), 2)
        with pytest.raises(DegenerateMeasureError):
            solve(upward_closure([full_mask(2)], 2), mu)


class TestEfficiencyCoefficients:
    def test_diagonal_gives_ninety(self):
        got = efficiency_coefficient(family_for_known_margins(0, 2), diagonal(2))
        assert got == pytest.approx(90.0, abs=1e-8)

    def test_both_diagonals_give_24(self):
        mu = weighted_sum([(diagonal(2), 1.0), (anti_diagonal(), 1.0)])
        got = efficiency_coefficient(family_for_known_margins(0, 2), mu)
        assert got == pytest.approx(24.0, abs=1e-6)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_lebesgue_closed_expression(self, m):
        got = efficiency_coefficient(family_for_known_margins(0, m), lebesgue(m))
        assert got == pytest.approx(4.0**m / ((4.0 / 3.0) ** m - m / 3.0 - 1.0),
                                    rel=1e-12)


class TestMixedDerivative:
    def test_exact_on_products(self):
        f = lambda x: float(np.prod(x * (1.0 - x)))
        for _ in range(20):
            x = RNG.uniform(0.1, 0.9, 3)
            expected = float(np.prod(1.0 - 2.0 * x))
            assert mixed_derivative(f, x) == pytest.approx(expected, abs=1e-8)

    def test_boundary_guard(self):
        with pytest.raises(ValueError):
            mixed_derivative(lambda x: 0.0, [0.0001, 0.5], h=1e-3)
        with pytest.raises(ValueError):
            mixed_derivative(lambda x: 0.0, [0.5, 0.9995], h=1e-3)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_equals_pointwise_stencil(self, m):
        fns = [
            lambda x: float(np.prod(x * (1.0 - x))),
            spearman_optimal_direction(m, normalize=True).fn,
            lambda x: float(np.exp(np.sum(x)) * np.sin(3.0 * x[0])),
            lambda x: float(np.sum(np.abs(x - 0.4) ** 3)),
        ]
        for x in RNG.uniform(0.01, 0.99, (25, m)):
            for fn, h in zip(fns, (1e-3, 1e-3, 1e-4, 5e-3)):
                a, b = [], []
                got = mixed_derivative(recording(fn, a), x, h)
                assert got == loop_mixed_derivative(recording(fn, b), x, h)
                assert a == b


class TestSlopes:
    def test_bahadur_zero_direction(self):
        dep = DependenceFunction(fn=lambda x: 0.0)
        assert bahadur_slope_B1(0, 2, dep) == 0.0

    def test_bahadur_rejects_nonvanishing_face(self):
        with pytest.raises(ValueError):
            bahadur_slope_B1(0, 2, DependenceFunction(fn=lambda x: float(x[0])))

    def test_spearman_slope_normalized_is_144(self):
        dep = spearman_optimal_direction(2, normalize=True)
        slope = pitman_slope_spearman(2, dep)
        assert slope.slope_sq == pytest.approx(144.0, rel=1e-10)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_bahadur_equals_pitman_spearman(self, m):
        for dep in five_fixtures(m):
            b = bahadur_slope_B1(0, m, dep)
            p = pitman_slope_spearman(m, dep).slope_sq
            assert abs(b - p) <= 1e-12 * max(abs(b), abs(p), 1e-300)

    def test_bhat_slope_m2(self):
        dep = spearman_optimal_direction(2, normalize=True)
        # no faces of codimension <= 0 exist, so the slope is 144 * 1^2
        assert pitman_slope_bhat(2, dep) == pytest.approx(144.0, rel=1e-10)

    def test_bhat_slope_m3_matches_direct_expansion(self):
        dep = pillow_direction(3)
        # prod x(1-x) already vanishes on every singleton face x_j = 1,
        # so the face corrections do nothing: slope = 12^3 * (1/6^3)^2
        got = pitman_slope_bhat(3, dep)
        assert got == pytest.approx(12.0**3 / 6.0**6, rel=1e-10)

    # the ids keep the "False-" prefix of a removed parameter, so each case
    # keeps the name the suite has long reported
    @pytest.mark.parametrize("m, n", [(2, 7), (3, 5), (4, 4), (5, 3)],
                             ids=["False-2-7", "False-3-5", "False-4-4", "False-5-3"])
    def test_bhat_slope_equals_pointwise_formula(self, m, n):
        a, b = [], []
        fn = non_vanishing(m)
        got = pitman_slope_bhat(m, DependenceFunction(fn=recording(fn, a)), n)
        want = loop_pitman_bhat(m, DependenceFunction(fn=recording(fn, b)), n)
        assert got == want
        assert a == b

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_face_check_sees_parent_points_and_first_face(self, m):
        a, b = [], []
        fn = pillow_direction(m).fn
        bahadur_slope_B1(0, m, DependenceFunction(fn=recording(fn, a)), nodes=3)
        loop_face_check(recording(fn, b), m)
        b.extend(tuple(p) for p in tensor_rule(m, 3)[0])
        assert a == b
        # nonzero at x_2 = 0.9 on the face opposite axis 2 and at x_m = 0.1
        # on the face opposite axis m: the first failing face is reported
        bad = lambda x: float(0.85 < x[1] < 0.95) + float(x[m - 1] < 0.2)
        with pytest.raises(ValueError, match="opposite axis 2$"):
            loop_face_check(bad, m)
        with pytest.raises(ValueError, match="opposite axis 2$"):
            bahadur_slope_B1(0, m, DependenceFunction(fn=bad))
        with pytest.raises(ValueError, match=f"opposite axis {m}$"):
            pitman_slope_spearman(m, DependenceFunction(fn=lambda x: float(x[m - 1] < 0.2)))

    def test_slopes_refuse_node_counts_before_evaluation(self):
        def never(x):
            raise AssertionError("dependence function called")

        dep = DependenceFunction(fn=never)
        for nodes in (0, -2, 2.5):
            with pytest.raises(ValueError, match="integer >= 1"):
                pitman_slope_bhat(3, dep, nodes=nodes)
            with pytest.raises(ValueError, match="integer >= 1"):
                bahadur_slope_B1(0, 3, dep, nodes=nodes)
            with pytest.raises(ValueError, match="integer >= 1"):
                pitman_slope_spearman(3, dep, nodes=nodes)

    def test_oversized_slopes_refused_at_once(self):
        # 5^12 nodes at m = 12 would be ~23 GB of points
        def never(x):
            raise AssertionError("dependence function called")

        dep = DependenceFunction(fn=never)
        t0 = time.perf_counter()
        for call in (lambda: bahadur_slope_B1(0, 12, dep),
                     lambda: pitman_slope_spearman(12, dep),
                     lambda: pitman_slope_bhat(12, dep)):
            with pytest.raises(ValueError, match=f"needs {5 ** 12} point evaluations"):
                call()
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("m", [3, 4, 5], ids=["False-3", "False-4", "False-5"])
    def test_bhat_slope_nonvanishing_faces_closed_form(self, m):
        # g(t) = t + t^2 does not vanish at t = 1, so every face correction
        # counts; each x_U * f(x_U = 1) integrates to prod_U g(1)/2 prod a
        g = lambda t: t + t * t
        a, g1 = 5.0 / 6.0, g(1.0)
        masks = [u for u in range(1, full_mask(m)) if u.bit_count() <= m - 2]
        integral = math.fsum([a ** m] + [
            -(-1.0) ** (u.bit_count() - 1) * (g1 / 2.0) ** u.bit_count()
            * a ** (m - u.bit_count()) for u in masks])
        dep = DependenceFunction(fn=lambda x: float(np.prod([g(t) for t in x])))
        got = pitman_slope_bhat(m, dep, nodes=4)
        assert got == pytest.approx(12.0 ** m * integral * integral, rel=1e-12)


class TestFisherInfo:
    def test_closed_density_product(self):
        assert fisher_info(pillow_direction(2), m=2) == pytest.approx(1 / 9, rel=1e-12)
        assert fisher_info(pillow_direction(3), m=3) == pytest.approx(1 / 27, rel=1e-12)

    def test_finite_difference_matches_closed(self):
        dep = pillow_direction(2)
        fd = fisher_info(DependenceFunction(fn=dep.fn), m=2)
        assert fd == pytest.approx(1 / 9, rel=1e-3)

    def test_requires_dimension(self):
        with pytest.raises(ValueError):
            fisher_info(DependenceFunction(fn=lambda x: 0.0))

    @pytest.mark.parametrize("m, nodes", [(2, 6), (3, 3), (4, 2)])
    def test_finite_differences_equal_pointwise_formula(self, m, nodes):
        fns = [pillow_direction(m).fn, spearman_optimal_direction(m, normalize=True).fn,
               five_fixtures(m)[2].fn]
        for fn in fns:
            a, b = [], []
            got = fisher_info(DependenceFunction(fn=recording(fn, a)), m=m, nodes=nodes)
            assert got == loop_fisher_fd(recording(fn, b), m, nodes=nodes)
            assert a == b
        fn = fns[1]
        assert (fisher_info(DependenceFunction(fn=fn), m=m, h=2e-3, nodes=nodes, delta=0.05)
                == loop_fisher_fd(fn, m, h=2e-3, nodes=nodes, delta=0.05))

    def test_estimates_are_squared_as_single_estimates_are(self):
        # f is v * (2h)^2 on the cells where floor(x_j / 2h) is odd on both
        # axes and 0 elsewhere, so every stencil has one nonzero corner and
        # every estimate is +-v exactly.  With one node and no shrink the
        # result is the squared estimate itself; for this v, v * v != v ** 2
        v, h = 1.6121007653006214, 2.0 ** -10
        if v * v == v ** 2:
            pytest.skip("pow(v, 2) is correctly rounded here")
        fn = lambda x: v * (2 * h) ** 2 * float(np.all(np.floor(x / (2 * h)) % 2 == 1))
        dep = DependenceFunction(fn=fn)
        assert fisher_info(dep, m=2, h=h, nodes=1, delta=0.0) == v ** 2
        for nodes in (1, 12):
            assert (fisher_info(dep, m=2, h=h, nodes=nodes, delta=0.01)
                    == loop_fisher_fd(fn, 2, h=h, nodes=nodes, delta=0.01))

    def test_shrink_and_step_bounds(self):
        dep = DependenceFunction(fn=pillow_direction(2).fn)
        below = np.nextafter(1.0 / 6.0, 0.0)
        assert np.isfinite(fisher_info(dep, m=2, nodes=3, delta=below))
        assert fisher_info(dep, m=2, nodes=3, delta=0.0) == loop_fisher_fd(
            dep.fn, 2, nodes=3, delta=0.0)
        for delta in (1.0 / 6.0, 0.2, 0.3, -1e-9, float("nan")):
            with pytest.raises(ValueError, match="delta"):
                fisher_info(dep, m=2, delta=delta)
        # the default shrink 2*m*h reaches 1/6 at h = 1/24 for m = 2
        with pytest.raises(ValueError, match="delta"):
            fisher_info(dep, m=2, h=1.0 / 24.0)
        for h in (0.0, -1e-3, float("nan")):
            with pytest.raises(ValueError, match="step h"):
                fisher_info(dep, m=2, h=h, delta=0.01)

    def test_nodes_refused_before_evaluation(self):
        def never(x):
            raise AssertionError("dependence function called")

        dep = DependenceFunction(fn=never)
        for nodes in (0, 2.5):
            with pytest.raises(ValueError, match="integer >= 1"):
                fisher_info(dep, m=2, nodes=nodes)
        # 16^5 nodes times a 2^5-point stencil is 2^25 evaluations
        with pytest.raises(ValueError, match=f"needs {2 ** 25} point evaluations"):
            fisher_info(dep, m=5)
        # with a density, 16^6 = 2^24 nodes
        dep = DependenceFunction(fn=never, density=never)
        with pytest.raises(ValueError, match=f"needs {2 ** 24} point evaluations"):
            fisher_info(dep, m=6)

    def test_stencil_memory_stays_within_blocks(self):
        # the full stencil array would be 10^4 nodes * 16 points * 4 coords * 8 bytes
        dep = DependenceFunction(fn=lambda x: 0.0)
        full = 10 ** 4 * 16 * 4 * 8
        fisher_info(dep, m=4, nodes=2)  # fills the rule and stencil caches
        tracemalloc.start()
        try:
            assert fisher_info(dep, m=4, nodes=10) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the values and weights of all 10^4 nodes take 160 kB; each block of
        # stencil points takes the block budget, and its values a quarter of that
        assert full > 5e6
        assert peak < 4 * quadrature._BLOCK_BYTES < full / 4


class TestOptimalityGap:
    def test_optimal_direction_closes_gap(self):
        fam = family_for_known_margins(0, 2)
        dep = spearman_optimal_direction(2, normalize=True)
        rep = optimality_gap(fam, lebesgue(2), dep)
        assert abs(rep.gap) <= 1e-6 * rep.fisher

    def test_norm_identity_finite_differences(self):
        for m in (2, 3):
            fam = family_for_known_margins(0, m)
            dep = spearman_optimal_direction(m, normalize=True)
            rep = optimality_gap(fam, lebesgue(m),
                                 DependenceFunction(fn=dep.fn))
            assert abs(rep.gap) <= 1e-3 * rep.fisher

    def test_suboptimal_direction_has_positive_gap(self):
        fam = family_for_known_margins(0, 2)
        skew = DependenceFunction(
            fn=lambda x: float(x[0] ** 2 * (1 - x[0]) * x[1] * (1 - x[1])),
            density=lambda x: float((2 * x[0] - 3 * x[0] ** 2) * (1 - 2 * x[1])))
        rep = optimality_gap(fam, lebesgue(2), skew)
        assert rep.gap > 1e-3 * rep.fisher


class TestPrincipalEigenvalue:
    @staticmethod
    def oracle_1d(bridge: bool, n: int = 400) -> float:
        """Independent reference: dense Nystrom eigensolve of the
        one-dimensional kernel, whose tensor square gives the 2-D value."""
        nodes, weights = np.polynomial.legendre.leggauss(n)
        x = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        K = np.minimum.outer(x, x)
        if bridge:
            K = K - np.outer(x, x)
        s = np.sqrt(w)
        return float(np.linalg.eigvalsh(K * np.outer(s, s)).max())

    def test_pillow_m2(self):
        est = principal_eigenvalue(green_kernel(all_nonempty_family(2)), 48)
        oracle = self.oracle_1d(bridge=True) ** 2
        assert est.value == pytest.approx(oracle, rel=1e-3)
        assert est.value == pytest.approx(1.0 / np.pi**4, rel=0.01)

    def test_sheet_m2(self):
        est = principal_eigenvalue(green_kernel(empty_family(2)), 48)
        oracle = self.oracle_1d(bridge=False) ** 2
        assert est.value == pytest.approx(oracle, rel=1e-3)
        assert est.value == pytest.approx(16.0 / np.pi**4, rel=0.01)

    def test_error_shrinks_with_grid(self):
        k = green_kernel(all_nonempty_family(2))
        e24 = principal_eigenvalue(k, 24)
        e48 = principal_eigenvalue(k, 48)
        assert e48.error < e24.error
        assert abs(e48.value - 1.0 / np.pi**4) < abs(e24.coarse - 1.0 / np.pi**4)

    def test_trace_dominates_principal(self):
        for fam in (empty_family(2), all_nonempty_family(2)):
            k = green_kernel(fam)
            est = principal_eigenvalue(k, 32)
            assert est.value <= trace_bound(k, 32) + 1e-12

    def test_grid_cap(self):
        with pytest.raises(ValueError):
            principal_eigenvalue(green_kernel(empty_family(3)), 48)

    @pytest.mark.parametrize("m, grid_n", [(2, 48), (2, 141), (3, 16), (3, 27),
                                           (4, 8), (4, 11)])
    @pytest.mark.parametrize("bridge", [True, False], ids=["pillow", "sheet"])
    def test_tensor_kernels_are_powers_of_1d(self, m, grid_n, bridge):
        """The pillow's and the sheet's Nystrom matrices are m-fold
        Kronecker powers of the 1-D one, so their eigenvalues are powers;
        the grids up to the node cap included."""
        fam = all_nonempty_family(m) if bridge else empty_family(m)
        est = principal_eigenvalue(green_kernel(fam), grid_n)
        assert est.fine == pytest.approx(self.oracle_1d(bridge, grid_n) ** m, rel=1e-10)
        assert est.coarse == pytest.approx(
            self.oracle_1d(bridge, grid_n // 2) ** m, rel=1e-10)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_every_family_matches_dense_eigensolve(self, m, n):
        pts, wts = tensor_rule(m, n)
        s = np.sqrt(wts)
        for fam in enumerate_monotone_families(m):
            kern = green_kernel(fam)
            dense = np.linalg.eigvalsh(kern.cross(pts, pts) * np.outer(s, s)).max()
            lam, iterations = _nystrom_principal(kern, n)
            assert lam == pytest.approx(dense, rel=1e-9), fam
            assert iterations >= 1

    def test_no_dense_kernel_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense kernel matrix requested")
        monkeypatch.setattr(GreenKernel, "cross", refuse)
        kern = green_kernel(family_for_known_margins(1, 3))
        est = principal_eigenvalue(kern, 10)
        assert 0.0 < est.value < trace_bound(kern, 10)
        assert est.coarse_iterations >= 1 and est.fine_iterations >= 1

    def test_nonconvergence_raises(self):
        with pytest.raises(ConvergenceError, match="did not converge"):
            _nystrom_principal(green_kernel(empty_family(2)), 8, max_iter=1)
        assert issubclass(ConvergenceError, RuntimeError)


class TestReferenceDirections:
    def test_footrule_matches_diagonal_solution(self):
        sol = solve(family_for_known_margins(0, 2), diagonal(2))
        dep = footrule_optimal_direction()
        ref = np.array([0.37, 0.81])
        ratio = sol.omega(ref) / dep.fn(ref)
        for _ in range(50):
            x = RNG.uniform(0.05, 0.95, 2)
            assert sol.omega(x) == pytest.approx(ratio * dep.fn(x), rel=1e-10)

    def test_gini_matches_two_diagonal_solution(self):
        mu = weighted_sum([(diagonal(2), 1.0), (anti_diagonal(), 1.0)])
        sol = solve(family_for_known_margins(0, 2), mu)
        dep = gini_optimal_direction()
        ref = np.array([0.37, 0.81])
        ratio = sol.omega(ref) / dep.fn(ref)
        for _ in range(50):
            x = RNG.uniform(0.05, 0.95, 2)
            assert sol.omega(x) == pytest.approx(ratio * dep.fn(x), rel=1e-8)

    def test_reference_directions_vanish_on_faces(self):
        for dep, m in ((footrule_optimal_direction(), 2),
                       (gini_optimal_direction(), 2),
                       (pillow_direction(3), 3)):
            for j in range(m):
                x = RNG.uniform(0.1, 0.9, m)
                for edge in (0.0, 1.0):
                    x[j] = edge
                    assert abs(dep.fn(x)) <= 1e-12
