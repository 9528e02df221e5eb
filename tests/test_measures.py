import math

import numpy as np
import pytest

from cubegreen.families import (
    all_nonempty_family,
    empty_family,
    family_for_known_margins,
    full_mask,
    upward_closure,
)
from cubegreen.kernel import green_kernel
from cubegreen.measures import (
    anti_diagonal,
    diagonal,
    integrate_against,
    integrate_once,
    lambda_value,
    lebesgue,
    measure_from_json,
    point_masses,
    scaled,
    weighted_sum,
)

RNG = np.random.default_rng(7281)


def lebesgue_lambda_closed(m, coeffs):
    val = 3.0 ** (-m)
    for U, a in coeffs.items():
        k = bin(U).count("1")
        val -= a * 3.0 ** (-(m - k)) * 4.0 ** (-k)
    return val


def _gl_on(lo, hi, n=16):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * (nodes + 1) + lo, 0.5 * (hi - lo) * weights


def fine_line_line(kernel, pts_a, pts_b):
    """Oracle for the double integral over a pair of line parametrizations.

    The kernel restricted to the lines is a piecewise polynomial of low
    degree whose inner kinks sit at s in {t, 1 - t} and whose outer kink
    sits at t = 1/2, so segment-split 16-node Gauss-Legendre is exact."""
    total = 0.0
    for t_lo, t_hi in ((0.0, 0.5), (0.5, 1.0)):
        ts, tw = _gl_on(t_lo, t_hi)
        for t, wt in zip(ts, tw):
            x = pts_a(np.array([t]))[0]
            breaks = sorted({0.0, min(t, 1 - t), max(t, 1 - t), 1.0})
            inner = 0.0
            for s_lo, s_hi in zip(breaks[:-1], breaks[1:]):
                ss, sw = _gl_on(s_lo, s_hi)
                vals = kernel.cross(np.array([x]), pts_b(ss))[0]
                inner += float(vals @ sw)
            total += wt * inner
    return total


class TestOnceIntegrals:
    def test_sheet_lebesgue_corner(self):
        k = green_kernel(empty_family(2))
        # each factor is x - x^2/2 = 1/2 at x = 1
        got = integrate_once(k, lebesgue(2), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.25, abs=1e-14)

    def test_known_margins_lebesgue_formula(self):
        m = 3
        k = green_kernel(family_for_known_margins(0, m))
        x = np.array([0.3, 0.6, 0.9])
        c = np.prod(x)
        expected = c / 2**m * (np.prod(2 - x) + np.sum(x) - (m + 1))
        got = integrate_once(k, lebesgue(m), x)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_diagonal_once_matches_quadrature(self):
        k = green_kernel(family_for_known_margins(0, 2))
        for x in ([0.2, 0.7], [0.5, 0.5], [0.9, 0.1]):
            closed = integrate_once(k, diagonal(2), np.array(x), method="closed")
            quad = integrate_once(k, diagonal(2), np.array(x), method="quadrature")
            assert closed == pytest.approx(quad, abs=1e-13)

    def test_once_vanishes_on_kernel_faces(self):
        k = green_kernel(all_nonempty_family(3))
        for j in range(3):
            x = RNG.random(3)
            x[j] = 1.0
            assert abs(integrate_once(k, lebesgue(3), x)) <= 1e-14
            x[j] = 0.0
            assert abs(integrate_once(k, lebesgue(3), x)) <= 1e-14


class TestLambdaClosedForms:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_lebesgue_matches_coefficient_expansion(self, m):
        for V in [0, 1, full_mask(m)]:
            k = green_kernel(family_for_known_margins(V, m))
            lam = lambda_value(k, lebesgue(m), method="closed")
            assert lam == pytest.approx(
                lebesgue_lambda_closed(m, k.coefficients), rel=1e-14)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_known_margins_empty_V_explicit(self, m):
        k = green_kernel(family_for_known_margins(0, m))
        lam = lambda_value(k, lebesgue(m), method="closed")
        assert lam == pytest.approx(
            ((4 / 3) ** m - m / 3 - 1) / 4**m, rel=1e-13)

    @pytest.mark.parametrize("m", [*range(2, 7), 12])
    def test_pillow_lebesgue(self, m):
        k = green_kernel(all_nonempty_family(m))
        assert lambda_value(k, lebesgue(m), method="closed") == pytest.approx(
            12.0**-m, rel=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 10, 16])
    def test_pillow_diagonal(self, m):
        # the single term integrates to 2 (m!)^2 / (2m+2)!
        k = green_kernel(all_nonempty_family(m))
        want = 2 * math.factorial(m) ** 2 / math.factorial(2 * m + 2)
        assert lambda_value(k, diagonal(m), method="closed") == pytest.approx(want, rel=1e-14)
        assert lambda_value(k, diagonal(m), method="quadrature") == pytest.approx(
            want, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_top_only_lebesgue(self, m):
        k = green_kernel(upward_closure([full_mask(m)], m))
        assert lambda_value(k, lebesgue(m)) == pytest.approx(
            3.0**-m - 4.0**-m, rel=1e-13)

    def test_diagonal_reciprocal_ninety(self):
        k = green_kernel(family_for_known_margins(0, 2))
        lam = lambda_value(k, diagonal(2), method="closed")
        assert 1.0 / lam == pytest.approx(90.0, abs=1e-10)

    def test_diagonal_plus_antidiagonal_reciprocal_24(self):
        k = green_kernel(family_for_known_margins(0, 2))
        mu = weighted_sum([(diagonal(2), 1.0), (anti_diagonal(), 1.0)])
        lam = lambda_value(k, mu)
        assert 1.0 / lam == pytest.approx(24.0, abs=1e-8)


class TestLambdaQuadrature:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_lebesgue_closed_vs_quadrature(self, m):
        for V in [0, full_mask(m)]:
            k = green_kernel(family_for_known_margins(V, m))
            c = lambda_value(k, lebesgue(m), method="closed")
            q = lambda_value(k, lebesgue(m), method="quadrature")
            assert abs(c - q) <= 1e-12 * max(1.0, abs(c))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_diagonal_closed_vs_quadrature(self, m):
        k = green_kernel(family_for_known_margins(0, m))
        c = lambda_value(k, diagonal(m), method="closed")
        q = lambda_value(k, diagonal(m), method="quadrature")
        assert abs(c - q) <= 1e-12 * max(1.0, abs(c))

    def test_line_pairs_against_independent_quadrature(self):
        k = green_kernel(family_for_known_margins(0, 2))
        diag_pts = lambda t: np.column_stack([t, t])
        anti_pts = lambda t: np.column_stack([1 - t, t])
        lam_dd = lambda_value(k, diagonal(2))
        lam_aa = lambda_value(k, anti_diagonal())
        assert lam_dd == pytest.approx(fine_line_line(k, diag_pts, diag_pts), abs=1e-12)
        assert lam_aa == pytest.approx(fine_line_line(k, anti_pts, anti_pts), abs=1e-12)


class TestMeasureAlgebra:
    def test_scaling_is_quadratic(self):
        k = green_kernel(family_for_known_margins(0, 2))
        base = lambda_value(k, diagonal(2))
        assert lambda_value(k, scaled(diagonal(2), 3.0)) == pytest.approx(
            9.0 * base, rel=1e-12)

    def test_bilinearity_of_mixture(self):
        k = green_kernel(family_for_known_margins(0, 2))
        w1, w2 = 0.3, 0.7
        mu = weighted_sum([(diagonal(2), w1), (anti_diagonal(), w2)])
        diag_pts = lambda t: np.column_stack([t, t])
        anti_pts = lambda t: np.column_stack([1 - t, t])
        expansion = (w1**2 * fine_line_line(k, diag_pts, diag_pts)
                     + 2 * w1 * w2 * fine_line_line(k, diag_pts, anti_pts)
                     + w2**2 * fine_line_line(k, anti_pts, anti_pts))
        assert lambda_value(k, mu) == pytest.approx(expansion, abs=1e-12)

    def test_point_masses(self):
        k = green_kernel(empty_family(2))
        pts = np.array([[0.25, 0.5], [0.75, 0.5]])
        wts = np.array([0.4, 0.6])
        mu = point_masses(pts, wts, 2)
        expected = sum(wts[i] * wts[j] * k.evaluate(pts[i], pts[j])
                       for i in range(2) for j in range(2))
        assert lambda_value(k, mu) == pytest.approx(expected, rel=1e-14)

    def test_integrate_once_against_point_masses(self):
        k = green_kernel(empty_family(2))
        pts = np.array([[0.25, 0.5]])
        mu = point_masses(pts, np.array([1.0]), 2)
        x = np.array([0.3, 0.9])
        assert integrate_once(k, mu, x) == pytest.approx(
            k.evaluate(x, pts[0]), rel=1e-14)

    def test_integrate_against_constant_recovers_mass(self):
        mu = weighted_sum([(diagonal(2), 0.5), (lebesgue(2), 0.5)])
        got = integrate_against(mu, lambda p: 1.0)
        assert got == pytest.approx(1.0, rel=1e-12)


class TestMeasureJson:
    def test_shorthands(self):
        for name in ("lebesgue", "diagonal", "antidiagonal",
                     "diagonal+antidiagonal"):
            mu = measure_from_json(name, 2)
            assert mu.m == 2

    def test_explicit_sum(self):
        spec = ('{"variant": "sum", "parts": ['
                '{"weight": 1.0, "measure": "diagonal"},'
                ' {"weight": 1.0, "measure": "antidiagonal"}]}')
        mu = measure_from_json(spec, 2)
        k = green_kernel(family_for_known_margins(0, 2))
        assert 1.0 / lambda_value(k, mu) == pytest.approx(24.0, abs=1e-8)

    def test_points_variant(self):
        spec = '{"variant": "points", "points": [[0.5, 0.5]], "weights": [1.0]}'
        mu = measure_from_json(spec, 2)
        k = green_kernel(empty_family(2))
        assert lambda_value(k, mu) == pytest.approx(0.25, rel=1e-14)

    def test_antidiagonal_requires_m2(self):
        with pytest.raises(ValueError):
            measure_from_json("antidiagonal", 3)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            measure_from_json("cauchy", 2)
