import math
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubegreen import extremal, quadrature
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
    lambda_value,
    lebesgue,
    point_masses,
    scaled,
    weighted_sum,
)
from cubegreen.quadrature import default_nodes, tensor_rule

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


# the point-by-point formulas of the slopes and of the difference stencil,
# kept as the reference for the array evaluations

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


def loop_face_check(fn, m, tol=1e-6):
    for free in range(m):
        for t in np.linspace(0.1, 0.9, 9):
            x = np.ones(m)
            x[free] = t
            if abs(fn(x)) > tol:
                raise ValueError(f"face opposite axis {free + 1}")


def loop_pitman_bhat(m, dep, n):
    """The tied-down slope as one loop over the (n + 1)^m grid of the
    per-axis rule: the n Gauss nodes and 1, with the Gauss weights and -1/2,
    in `tensor_rule` order (lexicographic in the per-axis index)."""
    gx, gw = quadrature.unit_rule(n)
    x, w = [*gx, 1.0], [*gw, -0.5]
    vals, wts = [], []
    for idx in product(range(n + 1), repeat=m):
        vals.append(dep.fn(np.array([x[i] for i in idx])))
        wts.append(math.prod(w[i] for i in idx))
    integral = float(np.array(vals, dtype=float) @ np.array(wts))
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

    def test_mass_on_a_vanishing_face_has_lambda_exactly_zero(self):
        # lambda = 0 is refused: on the face x_1 = 1 of the pillow
        # every term carries a zero factor
        fam = all_nonempty_family(2)
        mu = point_masses([[1.0, 0.5]], [1.0], 2)
        assert lambda_value(green_kernel(fam), mu) == 0.0
        with pytest.raises(DegenerateMeasureError, match="lambda = 0 is not positive"):
            solve(fam, mu)

    def test_lambda_whose_reciprocal_overflows_refused(self):
        # a subnormal lambda is positive, but 1/lambda is not a float
        fam = empty_family(2)
        tiny = point_masses([[1e-160, 1e-160]], [1.0], 2)
        lam = lambda_value(green_kernel(fam), tiny)
        assert 0.0 < lam and not math.isfinite(1.0 / lam)
        with pytest.raises(DegenerateMeasureError, match="1/lambda overflows"):
            efficiency_coefficient(fam, tiny)
        small = point_masses([[1e-150, 1e-150]], [1.0], 2)
        assert math.isfinite(efficiency_coefficient(fam, small))

    def test_infinite_lambda_refused(self):
        # finite weights whose squares overflow
        huge = point_masses([[0.5, 0.5]], [1e308], 2)
        with np.errstate(over="ignore"):
            assert lambda_value(green_kernel(empty_family(2)), huge) == math.inf
        with pytest.raises(DegenerateMeasureError, match="lambda = inf is not finite"):
            solve(empty_family(2), huge)
        with pytest.raises(DegenerateMeasureError, match="lambda = inf is not finite"):
            efficiency_coefficient(empty_family(2), huge)

    @pytest.mark.parametrize("m", [13, 14, 15, 16])
    def test_pillow_lambda_accepted_to_m16(self, m):
        # 12^-m: once below a fixed floor of 1e-14, now accepted as positive
        fam = all_nonempty_family(m)
        want = lambda_value(green_kernel(fam), lebesgue(m), method="closed")
        assert want == 1 / 12 ** m
        assert solve(fam, lebesgue(m)).lam == want
        assert efficiency_coefficient(fam, lebesgue(m)) == 1.0 / want


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

    @pytest.mark.parametrize("m", range(2, 7))
    def test_spearman_slope_is_the_bahadur_slope_exactly(self, m):
        for dep in five_fixtures(m):
            assert pitman_slope_spearman(m, dep).slope_sq == bahadur_slope_B1(0, m, dep)

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
        # g(t) = t + t^2 does not vanish at t = 1, so every face x_U = 1
        # counts, the edges and the corner too: the drift is
        # prod (a - g(1)/2) = (5/6 - 1)^m, and the slope 12^m 6^(-2m)
        g = lambda t: t + t * t
        integral = (5.0 / 6.0 - g(1.0) / 2.0) ** m
        dep = DependenceFunction(fn=lambda x: float(np.prod([g(t) for t in x])))
        got = pitman_slope_bhat(m, dep, nodes=4)
        assert got == pytest.approx(12.0 ** m * integral * integral, rel=1e-12)
        assert got == pytest.approx(12.0 ** m * 6.0 ** (-2 * m), rel=1e-12)

    @pytest.mark.parametrize("m", range(3, 7))
    def test_bhat_slope_of_the_spearman_direction(self, m):
        # its faces x_U = 1 with |U| <= m - 2 are nonzero; L(x(2 - x)) = 1/6,
        # L(x) = 0 and L(x^2) = -1/6 make the drift C 6^-m, the slope C^2 / 3^m
        dep = spearman_optimal_direction(m, normalize=True)
        lam = lambda_value(green_kernel(family_for_known_margins(0, m)), lebesgue(m),
                           method="closed")
        C = 1.0 / (2.0 ** m * lam)
        assert dep.fn(np.r_[0.3, 0.6, np.ones(m - 2)]) != 0.0
        assert pitman_slope_bhat(m, dep) == pytest.approx(C * C / 3.0 ** m, rel=2e-12)

    def test_bhat_slope_of_the_spearman_direction_stops_at_three_nodes(self):
        # the drift cancels terms 24 337 times larger at m = 6: rungs 2 and 3
        # agree relative to sum |w v|, though not relative to the drift
        dep = spearman_optimal_direction(6, normalize=True)
        fn, calls = counted(dep.fn)
        got = pitman_slope_bhat(6, DependenceFunction(fn=fn))
        assert calls[0] <= 3 ** 6 + 4 ** 6 == 4825
        # the 6-node table rule's value with the bracket evaluated as written,
        # prod (2 - x_j) + sum x_j - (m + 1)
        assert got == pytest.approx(0.8193616244204626, rel=1e-11)

    def test_bhat_slope_budget_counts_the_appended_node(self):
        # each rule has n + 1 nodes per axis: refused before any call where
        # n^m fits the budget and (n + 1)^m does not (the default 5 nodes at
        # m = 9, 8 nodes at m = 7, 12 at m = 6)
        def never(x):
            raise AssertionError("dependence function called")

        for m, nodes, n in ((9, None, 5), (7, 8, 8), (6, 12, 12)):
            assert n ** m <= quadrature.MAX_EVALUATIONS < (n + 1) ** m
            with pytest.raises(ValueError, match=f"needs {(n + 1) ** m} point evaluations"):
                pitman_slope_bhat(m, DependenceFunction(fn=never), nodes=nodes)
        # at m = 8 the default rule's 6^8 fits; the pillow stops at rungs 2, 3
        fn, calls = counted(pillow_direction(8).fn)
        got = pitman_slope_bhat(8, DependenceFunction(fn=fn))
        assert got == pytest.approx(12.0 ** 8 / 6.0 ** 16, rel=1e-12)
        assert calls[0] == 3 ** 8 + 4 ** 8

    @pytest.mark.parametrize("m", range(2, 7))
    def test_bhat_density_rule_equals_the_by_parts_rule(self, m):
        # the pillow, the normalized Spearman direction and the skew product,
        # each with its closed density, against the rule on fn alone
        for dep in TestFisherInfo.closed_fixtures(m):
            closed = pitman_slope_bhat(m, dep)
            by_parts = pitman_slope_bhat(m, DependenceFunction(fn=dep.fn))
            assert abs(closed - by_parts) <= 1e-12 * by_parts

    @pytest.mark.parametrize("m, n", [(2, 7), (3, 5), (4, 4), (5, 3)])
    def test_bhat_density_slope_equals_pointwise_formula(self, m, n):
        # explicit nodes: the density once per tensor Gauss node, fn never
        def never(x):
            raise AssertionError("dependence function called")

        seen = []
        density = pillow_direction(m).density
        got = pitman_slope_bhat(m, DependenceFunction(fn=never,
                                                      density=recording(density, seen)), n)
        assert got == loop_pitman_bhat_density(m, density, n)
        assert seen == [tuple(p) for p in tensor_rule(m, n)[0]]

    def test_bhat_density_budget_counts_the_gauss_nodes(self):
        def never(x):
            raise AssertionError("dependence function called")

        # the default 5 nodes at m = 9: 5^9 fits, 6^9 of the by-parts rule does not
        with pytest.raises(ValueError, match=f"needs {6 ** 9} point evaluations"):
            pitman_slope_bhat(9, DependenceFunction(fn=never))
        density, calls = counted(pillow_direction(9).density)
        got = pitman_slope_bhat(9, DependenceFunction(fn=never, density=density))
        assert got == pytest.approx(12.0 ** 9 * 6.0 ** -18, rel=1e-12)
        assert calls[0] == 2 ** 9 + 3 ** 9
        with pytest.raises(ValueError, match=f"needs {13 ** 6} point evaluations"):
            pitman_slope_bhat(6, DependenceFunction(fn=never, density=never), nodes=13)
        # one Gauss node per axis sits at 1/2, where the weight 1/2 - x is 0
        for m in (2, 9):
            with pytest.raises(ValueError, match="^nodes = 1 with a density"):
                pitman_slope_bhat(m, DependenceFunction(fn=never, density=never), nodes=1)


def loop_pitman_bhat_density(m, density, n):
    """The tied-down slope as one loop over the n^m tensor Gauss nodes of
    the density, with the weights w (1/2 - x) per axis."""
    x, w = quadrature.unit_rule(n)
    vals, wts = [], []
    for idx in product(range(n), repeat=m):
        vals.append(density(np.array([x[i] for i in idx])))
        wts.append(math.prod(w[i] * (0.5 - x[i]) for i in idx))
    integral = float(np.array(vals, dtype=float) @ np.array(wts))
    return 12.0 ** m * integral * integral


def bhat_closed_form_integral(values_at_one, integrals, add=sum):
    """The tied-down functional of a product direction prod_j p_j(x_j):
    prod_j (a_j - p_j(1)/2), a_j = integral of p_j, and the 2^m terms of
    its expansion over the faces x_U = 1, prod_U (-p_j(1)/2) prod_(not U) a_j."""
    m = len(integrals)
    terms = [math.prod(-values_at_one[j] / 2 if u >> j & 1 else integrals[j]
                       for j in range(m)) for u in range(full_mask(m) + 1)]
    return add(terms), terms


def counted(fn):
    calls = [0]

    def f(x):
        calls[0] += 1
        return fn(x)

    return f, calls


class TestNodeLadder:
    """Default-node slopes climb `quadrature.node_ladder`; explicit nodes do not."""

    @pytest.mark.parametrize("m", range(2, 7))
    def test_low_degree_slopes_stop_at_three_nodes(self, m):
        skew = lambda t: t * t * (1.0 - t)
        fn, calls = counted(product_direction([skew] + [lambda t: t * (1.0 - t)] * (m - 1)).fn)
        dep = DependenceFunction(fn=fn)
        # 9 face probes per axis, then the 2- and 3-point rungs
        want = 9 * m + 2 ** m + 3 ** m
        b = bahadur_slope_B1(0, m, dep)
        assert calls[0] == want
        calls[0] = 0
        slope = pitman_slope_spearman(m, dep)
        assert calls[0] == want
        integral = 6.0 ** (1 - m) / 12.0
        drift = 2.0 ** m * (m + 1.0) / (2.0 ** m - m - 1.0) * integral
        assert slope.mu_prime0 == pytest.approx(drift, rel=1e-13)
        assert b == pytest.approx(slope.slope_sq, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_sin_product_falls_through_to_the_table(self, m):
        dep = product_direction([lambda t: np.sin(np.pi * t)] * m)
        top = default_nodes(m)
        assert bahadur_slope_B1(0, m, dep) == bahadur_slope_B1(0, m, dep, nodes=top)
        slope = pitman_slope_spearman(m, dep)
        table = pitman_slope_spearman(m, dep, nodes=top)
        assert slope == table
        assert pitman_slope_bhat(m, dep) == pitman_slope_bhat(m, dep, nodes=top)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_bump_between_the_low_rungs_climbs_to_the_table(self, m):
        # supported on [0.55, 0.75]^m, the bump is exactly 0 at every node of
        # the 2- and 3-point rules, so those rungs give 0 and must not stop
        bump = lambda t: ((t - 0.55) * (0.75 - t)) ** 2 if 0.55 < t < 0.75 else 0.0
        dep = product_direction([bump] * m)
        top = default_nodes(m)
        b = bahadur_slope_B1(0, m, dep)
        assert b == bahadur_slope_B1(0, m, dep, nodes=top) > 0.0
        assert pitman_slope_spearman(m, dep) == pitman_slope_spearman(m, dep, nodes=top)
        assert pitman_slope_bhat(m, dep) == pitman_slope_bhat(m, dep, nodes=top) > 0.0

    def test_a_non_finite_rung_stops_the_climb(self):
        fn, calls = counted(lambda x: float("nan"))
        dep = DependenceFunction(fn=fn)
        # the 2-point rung alone: (2 + 1)^6 by-parts nodes, 2^6 Gauss nodes,
        # not the 3-, 4- and 7- or 2-, 3- and 6-point rungs after it
        with pytest.raises(ValueError, match="^non-finite dependence function values"):
            pitman_slope_bhat(6, dep)
        assert calls[0] == 3 ** 6 == 729
        calls[0] = 0
        with pytest.raises(ValueError, match="^non-finite density values"):
            fisher_info(dep, m=6)
        assert calls[0] == 2 ** 6 == 64

    @pytest.mark.parametrize("m, n", [(2, 5), (3, 4), (4, 2), (5, 3)])
    def test_explicit_nodes_evaluate_one_rule(self, m, n):
        fn, calls = counted(pillow_direction(m).fn)
        dep = DependenceFunction(fn=fn)
        pitman_slope_spearman(m, dep, nodes=n)
        assert calls[0] == 9 * m + n ** m
        calls[0] = 0
        bahadur_slope_B1(0, m, dep, nodes=n)
        assert calls[0] == 9 * m + n ** m
        calls[0] = 0
        pitman_slope_bhat(m, dep, nodes=n)
        # one rule of n + 1 nodes per axis, the node 1 appended
        assert calls[0] == (n + 1) ** m

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_bhat_slope_default_nodes_closed_form(self, m):
        g = lambda t: t + t * t
        integral, _ = bhat_closed_form_integral([g(1.0)] * m, [5.0 / 6.0] * m, math.fsum)
        dep = DependenceFunction(fn=lambda x: float(np.prod([g(t) for t in x])))
        got = pitman_slope_bhat(m, dep)
        assert got == pytest.approx(12.0 ** m * integral * integral, rel=1e-12)
        # a rung of n Gauss nodes is one rule of (n + 1)^m nodes; the pillow
        # has degree 2, so rungs 2 and 3 agree (g's drift (-1/6)^m cancels
        # terms 11^m times larger, and from m = 5 its rungs differ in
        # rounding by more than LADDER_RTOL, so it climbs on)
        fn, calls = counted(pillow_direction(m).fn)
        pitman_slope_bhat(m, DependenceFunction(fn=fn))
        assert calls[0] == 3 ** m + 4 ** m

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_cubic_products_match_exact_rationals(self, m, data):
        # each bound is the integral with |c_k| for c_k, at least the sum of
        # |weight * value| over any Gauss rule exact for the degree, so the
        # results are compared relative to that, not to a sum that may cancel
        horner = lambda c, t: sum(ck * t ** k for k, ck in enumerate(c))
        cubics = [data.draw(st.lists(st.integers(-4, 4), min_size=4, max_size=4))
                  for _ in range(m)]
        fn = lambda x: float(np.prod([horner(c, t) for c, t in zip(cubics, x)]))
        a = lambda c: sum(Fraction(ck, k + 1) for k, ck in enumerate(c))
        integral, _ = bhat_closed_form_integral([Fraction(sum(c)) for c in cubics],
                                                [a(c) for c in cubics])
        _, terms = bhat_closed_form_integral([sum(map(abs, c)) for c in cubics],
                                             [a(list(map(abs, c))) for c in cubics])
        got = math.sqrt(pitman_slope_bhat(m, DependenceFunction(fn=fn)) / 12.0 ** m)
        assert abs(got - abs(float(integral))) <= 1e-13 * float(sum(map(abs, terms)))
        # quadratics times (1 - t) are cubics that vanish on every face
        quads = [c[:3] for c in cubics]
        fn = lambda x: float(np.prod([horner(c, t) * (1.0 - t) for c, t in zip(quads, x)]))
        a = lambda c: sum(Fraction(ck, (k + 1) * (k + 2)) for k, ck in enumerate(c))
        slope = pitman_slope_spearman(m, DependenceFunction(fn=fn))
        coeff = 2.0 ** m * (m + 1.0) / (2.0 ** m - m - 1.0)
        bound = float(math.prod(a(list(map(abs, c))) for c in quads))
        exact = float(math.prod(a(c) for c in quads))
        assert abs(slope.mu_prime0 - coeff * exact) <= 1e-13 * coeff * bound

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_cubics_vanishing_on_the_edges_match_exact_rationals(self, m, data):
        # f = P - sum_k P|edge k + (m - 1) P(1, ..., 1), for P a product of
        # cubics, vanishes on every edge x_(M - {k}) = 1 but not on its faces
        # x_U = 1 with |U| <= m - 2; each term of f is a product of
        # polynomials (coefficient lists), so its functional is exact in
        # Fractions
        horner = lambda c, t: sum(ck * t ** k for k, ck in enumerate(c))
        cubics = [data.draw(st.lists(st.integers(-4, 4), min_size=4, max_size=4))
                  for _ in range(m)]
        at_one = [sum(c) for c in cubics]
        terms = [(1, cubics)]
        for k in range(m):
            rest = math.prod(v for j, v in enumerate(at_one) if j != k)
            terms.append((-rest, [c if j == k else [1] for j, c in enumerate(cubics)]))
        terms.append(((m - 1) * math.prod(at_one), [[1]] * m))

        def fn(x):
            return math.fsum(coef * math.prod(horner(c, t) for c, t in zip(polys, x))
                             for coef, polys in terms)

        a = lambda c: sum(Fraction(ck, k + 1) for k, ck in enumerate(c))
        expansions = [(coef, bhat_closed_form_integral([Fraction(sum(c)) for c in polys],
                                                       [a(c) for c in polys])[1])
                      for coef, polys in terms]
        exact = sum(coef * sum(face) for coef, face in expansions)
        # the edge and corner terms cancel: the faces |U| <= m - 2 alone agree
        assert exact == sum(coef * sum(t for u, t in enumerate(face) if u.bit_count() <= m - 2)
                            for coef, face in expansions)
        bound = sum(abs(coef) * sum(map(abs, bhat_closed_form_integral(
            [sum(map(abs, c)) for c in polys], [a(list(map(abs, c))) for c in polys])[1]))
            for coef, polys in terms)
        for k in range(m):
            edge = np.ones(m)
            edge[k] = 0.37
            assert abs(fn(edge)) <= 1e-13 * float(bound)
        got = math.sqrt(pitman_slope_bhat(m, DependenceFunction(fn=fn)) / 12.0 ** m)
        assert abs(got - abs(float(exact))) <= 1e-13 * float(bound)


def legendre_fisher(fn, m, n):
    """Fisher information from per-axis Legendre fits: the values of fn at
    the n^m Gauss nodes, each fibre along each axis fitted by the Legendre
    series of degree n - 1 through its n nodes and differentiated, then the
    squared derivatives summed with the tensor weights."""
    leg = np.polynomial.legendre
    t = 2.0 * quadrature.unit_rule(n)[0] - 1.0
    pts, wts = tensor_rule(m, n)
    F = np.array([fn(p) for p in pts], dtype=float).reshape((n,) * m)
    for axis in range(m):
        F = np.apply_along_axis(
            lambda v: 2.0 * leg.legval(t, leg.legder(leg.legfit(t, v, n - 1))), axis, F)
    return float(F.reshape(-1) ** 2 @ wts)


class TestFisherInfo:
    def test_closed_density_product(self):
        assert fisher_info(pillow_direction(2), m=2) == pytest.approx(1 / 9, rel=1e-12)
        assert fisher_info(pillow_direction(3), m=3) == pytest.approx(1 / 27, rel=1e-12)

    def test_derived_density_matches_closed(self):
        dep = pillow_direction(2)
        assert fisher_info(DependenceFunction(fn=dep.fn), m=2) == pytest.approx(1 / 9, rel=1e-13)

    @staticmethod
    def closed_fixtures(m):
        """The Spearman, bump and skew directions with their closed densities."""
        rest = pillow_direction(m - 1)
        skew = lambda x: float(x[0] ** 2 * (1 - x[0]) * rest.fn(x[1:]))
        skew_density = lambda x: float((2 * x[0] - 3 * x[0] ** 2) * rest.density(x[1:]))
        return [spearman_optimal_direction(m, normalize=True), pillow_direction(m),
                DependenceFunction(fn=skew, density=skew_density)]

    @pytest.mark.parametrize("m", range(2, 7))
    def test_polynomials_match_closed_densities(self, m):
        # degree <= 3 per axis: the interpolant through 4 or more nodes per
        # axis is the direction itself, so only rounding is left
        for dep in self.closed_fixtures(m):
            closed = fisher_info(dep, m=m)
            derived = fisher_info(DependenceFunction(fn=dep.fn), m=m)
            assert abs(derived - closed) <= 1e-12 * closed

    def test_sine_product_matches_closed_form(self):
        # the density prod pi cos(pi x) squares to (pi^2 / 2)^m; the
        # interpolant's derivative converges spectrally on the ladder
        m = 2
        fn = lambda x: float(np.prod(np.sin(np.pi * x)))
        exact = (np.pi ** 2 / 2) ** m
        assert abs(fisher_info(DependenceFunction(fn=fn), m=m) - exact) <= 1e-12 * exact

    def test_requires_dimension(self):
        with pytest.raises(TypeError):
            fisher_info(DependenceFunction(fn=lambda x: 0.0))

    @pytest.mark.parametrize("m, nodes", [(2, 6), (3, 3), (4, 3), (2, 11)])
    def test_contraction_equals_legendre_fits(self, m, nodes):
        fns = [pillow_direction(m).fn, spearman_optimal_direction(m, normalize=True).fn,
               five_fixtures(m)[2].fn,
               lambda x: float(np.exp(np.sum(x)) * np.sin(3.0 * x[0]))]
        pts, _ = tensor_rule(m, nodes)
        for fn in fns:
            seen = []
            got = fisher_info(DependenceFunction(fn=recording(fn, seen)), m=m, nodes=nodes)
            want = legendre_fisher(fn, m, nodes)
            assert abs(got - want) <= 1e-12 * want
            # fn once per node, in tensor_rule order
            assert seen == [tuple(p) for p in pts]

    def test_closed_density_is_the_pointwise_squared_sum(self):
        # the squares are taken as a scalar ** 2 takes them
        for m, nodes in ((2, 5), (3, 4)):
            for dep in self.closed_fixtures(m):
                assert (fisher_info(dep, m=m, nodes=nodes)
                        == loop_cube_integral(lambda p: dep.density(p) ** 2, m, nodes))

    def test_nodes_refused_before_evaluation(self):
        def never(x):
            raise AssertionError("dependence function called")

        dep = DependenceFunction(fn=never)
        for nodes in (0, 2.5, True):
            with pytest.raises(ValueError, match="integer >= 1"):
                fisher_info(dep, m=2, nodes=nodes)
        # one node per axis interpolates by a constant: refused without a density
        for m in (2, 5):
            with pytest.raises(ValueError, match="^nodes = 1 without a density"):
                fisher_info(dep, m=m, nodes=1)
        assert fisher_info(DependenceFunction(fn=never, density=lambda x: 2.0), m=2,
                           nodes=1) == 4.0
        # the step of the difference stencil is gone
        with pytest.raises(TypeError):
            fisher_info(pillow_direction(2), m=2, h=1e-3)
        # both branches share the budget: the ladder's top rung, 5^10 nodes at m = 10
        for dep in (DependenceFunction(fn=never), DependenceFunction(fn=never, density=never)):
            with pytest.raises(ValueError, match=f"needs {5 ** 10} point evaluations"):
                fisher_info(dep, m=10)
        assert fisher_info(pillow_direction(6), m=6) == pytest.approx(3.0 ** -6, rel=1e-12)
        # the derived density runs to m = 9 (here on 3 nodes, exact for the pillow)
        derived = fisher_info(DependenceFunction(fn=pillow_direction(9).fn), m=9, nodes=3)
        assert derived == pytest.approx(3.0 ** -9, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 17, 2.0, True])
    def test_dimension_refused_before_any_call(self, m):
        def never(x):
            raise AssertionError("dependence function called")

        for dep in (DependenceFunction(fn=never), DependenceFunction(fn=never, density=never)):
            for call in (lambda: fisher_info(dep, m=m), lambda: fisher_info(dep, m=m, nodes=3),
                         lambda: pitman_slope_spearman(m, dep),
                         lambda: pitman_slope_bhat(m, dep, nodes=2)):
                with pytest.raises(ValueError, match=f"^dimension must be an integer in "
                                                     f"\\[2, 16\\], got {m!r}$"):
                    call()

    # inf - inf in a rule's dot product warns before the result is refused
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_non_finite_values_refused(self):
        dep = DependenceFunction(fn=lambda x: float("nan"))
        with pytest.raises(ValueError, match="non-finite"):
            fisher_info(dep, m=2, nodes=3)
        with pytest.raises(ValueError, match="non-finite"):
            fisher_info(DependenceFunction(fn=dep.fn, density=dep.fn), m=2)
        # NaN or inf on a face, where the probe looks, or only inside
        inside = lambda x: float("inf") if max(x) < 0.95 else 0.0
        pillow = pillow_direction(2)
        for bad in (dep, DependenceFunction(fn=lambda x: -float("inf")),
                    DependenceFunction(fn=inside)):
            for call in (lambda: pitman_slope_bhat(2, bad), lambda: pitman_slope_bhat(2, bad, 3),
                         lambda: bahadur_slope_B1(0, 2, bad),
                         lambda: pitman_slope_spearman(2, bad, nodes=3)):
                with pytest.raises(ValueError, match="non-finite"):
                    call()
        with pytest.raises(ValueError, match="^non-finite density values"):
            pitman_slope_bhat(2, DependenceFunction(fn=pillow.fn, density=dep.fn))

    def test_calls_once_per_node(self):
        # 2^m fewer calls than a difference stencil at every node
        fn, calls = counted(pillow_direction(3).fn)
        assert fisher_info(DependenceFunction(fn=fn), m=3, nodes=8) == pytest.approx(
            1 / 27, rel=1e-13)
        assert calls[0] == 8 ** 3 == 512
        # degree 2 per axis at m = 2: rungs 2, 3 and 6; 3 and 6 are exact and agree
        fn, calls = counted(spearman_optimal_direction(2, normalize=True).fn)
        fisher_info(DependenceFunction(fn=fn), m=2)
        assert calls[0] == 4 + 9 + 36

    def test_derived_density_memory_stays_within_a_few_node_vectors(self):
        # m = 4 on 10 nodes: the node values, the weights and the contraction
        # temporaries are 10^4 doubles each, never all at once; a block of
        # nodes and its index arrays take the block budget
        dep = DependenceFunction(fn=lambda x: 0.0)
        fisher_info(dep, m=4, nodes=10)  # fills the rule and matrix caches
        tracemalloc.start()
        try:
            assert fisher_info(dep, m=4, nodes=10) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10 ** 4 + 1.5 * quadrature._BLOCK_BYTES


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
            assert abs(rep.gap) <= 1e-12 * rep.fisher

    def test_suboptimal_direction_has_positive_gap(self):
        fam = family_for_known_margins(0, 2)
        skew = DependenceFunction(
            fn=lambda x: float(x[0] ** 2 * (1 - x[0]) * x[1] * (1 - x[1])),
            density=lambda x: float((2 * x[0] - 3 * x[0] ** 2) * (1 - 2 * x[1])))
        rep = optimality_gap(fam, lebesgue(2), skew)
        assert rep.gap > 1e-3 * rep.fisher

    @staticmethod
    def pair_only():
        # a(x_1) a(x_2) x_3, a(t) = t (1 - t): uniform margins, dependence
        # between coordinates 1 and 2 only, nonzero on the face x_3 = 1
        a = lambda t: t * (1.0 - t)
        return DependenceFunction(fn=lambda x: float(a(x[0]) * a(x[1]) * x[2]),
                                  density=lambda x: float((1 - 2 * x[0]) * (1 - 2 * x[1])))

    def test_refuses_a_direction_off_a_face_of_the_family(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved")
        monkeypatch.setattr(extremal, "efficiency_coefficient", refuse)
        # the pillow's index here would be 1/3, above Fisher's 1/9
        with pytest.raises(ValueError, match=r"^dependence function does not vanish on the "
                                             r"face where coordinates \{3\} are 1$"):
            optimality_gap(all_nonempty_family(3), lebesgue(3), self.pair_only())

    def test_accepts_it_where_the_family_needs_no_such_face(self):
        # known margins V = {}: the minimal members are the pairs, and a(1) = 0
        rep = optimality_gap(family_for_known_margins(0, 3), lebesgue(3), self.pair_only())
        assert rep.index == pytest.approx(1 / 30, rel=1e-12)
        assert rep.fisher == pytest.approx(1 / 9, rel=1e-12)
        assert rep.index <= rep.fisher

    def test_the_sheet_probes_nothing(self):
        dep = self.pair_only()
        a, b = [], []
        optimality_gap(empty_family(3), lebesgue(3),
                       DependenceFunction(fn=recording(dep.fn, a), density=dep.density))
        integrate_against(lebesgue(3), recording(dep.fn, b))
        assert a == b

    @pytest.mark.parametrize("m", [2, 3])
    def test_probes_the_minimal_faces_first(self, m):
        # the pillow's minimal members are the singletons; at m = 2 their
        # faces are the slopes' (m - 1)-faces, probed the same way
        fn = pillow_direction(m).fn
        a = []
        optimality_gap(all_nonempty_family(m), lebesgue(m),
                       DependenceFunction(fn=recording(fn, a), density=pillow_direction(m).density))
        want = []
        # the face x_j = 1 has the free set M - {j}: in increasing order of
        # free sets, j runs down from m; each free axis k sweeps in turn
        for j in reversed(range(m)):
            for k in (i for i in range(m) if i != j):
                for t in np.linspace(0.1, 0.9, 9):
                    x = np.full(m, 0.5)
                    x[j], x[k] = 1.0, t
                    want.append(tuple(x))
        assert a[:len(want)] == want
        if m == 2:
            b = []
            loop_face_check(recording(fn, b), m)
            assert a[:18] == b

    def test_a_corner_face_is_one_point(self):
        # known margins V = M: the family {M}, whose face is the corner 1
        fn, calls = counted(lambda x: float(np.prod(x)))
        with pytest.raises(ValueError, match=r"on the face where coordinates \{1,2,3\} are 1$"):
            optimality_gap(family_for_known_margins(full_mask(3), 3), lebesgue(3),
                           DependenceFunction(fn=fn))
        assert calls[0] == 1

    def test_non_finite_on_a_face_is_named(self):
        with pytest.raises(ValueError, match="is non-finite on the face opposite axis 1$"):
            optimality_gap(all_nonempty_family(2), lebesgue(2),
                           DependenceFunction(fn=lambda x: float("nan")))


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

    @pytest.mark.parametrize("grid_n", [10.0, 9.5, True, "12"])
    def test_grid_n_must_be_an_integer(self, grid_n):
        with pytest.raises(ValueError, match=f"^grid_n must be an integer >= 1, got "
                                             f"{re.escape(repr(grid_n))}$"):
            principal_eigenvalue(green_kernel(all_nonempty_family(2)), grid_n)

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


def exact_trace(fam) -> Fraction:
    """The integral of G(x, x) from the family's table: a subset W outside
    the family contributes 3^-|W| 6^-(m-|W|) = 2^|W| / 6^m."""
    return Fraction(sum(2 ** W.bit_count() for W in range(1 << fam.m) if not fam.table[W]),
                    6 ** fam.m)


class TestTraceBound:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("grid_n", [1, 8, 1024])
    def test_every_family_is_the_exact_trace(self, m, grid_n):
        for fam in enumerate_monotone_families(m):
            assert trace_bound(green_kernel(fam), grid_n) == float(exact_trace(fam)), fam

    @pytest.mark.parametrize("m", [8, 12, 16])
    def test_large_families_are_the_exact_trace(self, m):
        for fam in (all_nonempty_family(m), empty_family(m),
                    upward_closure(list(subsets_of_size(m, m // 2)), m)):
            for grid_n in (1, 8, 1024):
                assert trace_bound(green_kernel(fam), grid_n) == float(exact_trace(fam))

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("grid_n", [2, 5, 8, 13, 32])
    def test_matches_the_tensor_rule_sum(self, m, grid_n):
        # the diagonal has degree 2 per axis, so Gauss rules of 2 or more
        # nodes per axis are exact up to rounding
        pts, wts = tensor_rule(m, grid_n)
        for fam in enumerate_monotone_families(m):
            k = green_kernel(fam)
            assert abs(trace_bound(k, grid_n) - float(k.values(pts, pts) @ wts)) <= 1e-14

    @pytest.mark.parametrize("grid_n", [None, 0, -2, 2.5, True, "8"])
    def test_needs_a_node_count(self, grid_n):
        with pytest.raises(ValueError, match="grid_n must be an integer >= 1"):
            trace_bound(green_kernel(all_nonempty_family(2)), grid_n)

    def test_evaluates_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("kernel evaluated")
        monkeypatch.setattr(GreenKernel, "values", refuse)
        monkeypatch.setattr(GreenKernel, "_pair_values", refuse)
        k = green_kernel(all_nonempty_family(2))
        tracemalloc.start()
        try:
            value = trace_bound(k, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16
        assert value == 1 / 36


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
