import math

import numpy as np
import pytest

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

    def test_bhat_slope_uses_supplied_faces(self):
        dep = pillow_direction(3)
        faces = {u: (lambda x: 0.0) for u in (0b001, 0b010, 0b100)}
        with_faces = DependenceFunction(fn=dep.fn, faces=faces)
        assert pitman_slope_bhat(3, with_faces) == pytest.approx(
            pitman_slope_bhat(3, dep), rel=1e-12)

    def test_bhat_slope_missing_face_raises(self):
        dep = DependenceFunction(fn=pillow_direction(3).fn, faces={0b001: lambda x: 0.0})
        with pytest.raises(ValueError):
            pitman_slope_bhat(3, dep)

    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("supplied", [False, True])
    def test_bhat_slope_nonvanishing_faces_closed_form(self, m, supplied):
        # g(t) = t + t^2 does not vanish at t = 1, so every face correction
        # counts; each x_U * f(x_U = 1) integrates to prod_U g(1)/2 prod a
        g = lambda t: t + t * t
        a, g1 = 5.0 / 6.0, g(1.0)
        masks = [u for u in range(1, full_mask(m)) if u.bit_count() <= m - 2]
        integral = math.fsum([a ** m] + [
            -(-1.0) ** (u.bit_count() - 1) * (g1 / 2.0) ** u.bit_count()
            * a ** (m - u.bit_count()) for u in masks])
        faces = None
        if supplied:
            faces = {u: (lambda x, u=u: float(np.prod(
                [g1 if u >> j & 1 else g(x[j]) for j in range(m)]))) for u in masks}
        dep = DependenceFunction(fn=lambda x: float(np.prod([g(t) for t in x])), faces=faces)
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
