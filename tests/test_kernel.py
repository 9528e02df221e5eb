import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubegreen.families import (
    all_nonempty_family,
    empty_family,
    enumerate_monotone_families,
    family_for_known_margins,
    full_mask,
    subsets_of_size,
    upward_closure,
)
from cubegreen.kernel import _GAP, _MIN, compute_coefficients, green_kernel

RNG = np.random.default_rng(51423)

# the dimensions where the signed-coefficient sum used to cancel
HIGH_M = [10, 12, 14, 16]


def prod_min(x, y):
    return float(np.prod(np.minimum(x, y)))


def point_pairs(m, count=200):
    """Random interior pairs plus the near-corner pair 0.9*1, 0.95*1."""
    pairs = [(RNG.random(m), RNG.random(m)) for _ in range(count)]
    return pairs + [(np.full(m, 0.9), np.full(m, 0.95))]


def positive_sum(fam, x, y):
    """fsum over W not in F of prod_{j in W} x_j y_j prod_{j not in W} (min - x y)."""
    m = fam.m
    comp = np.array([w for w in range(1 << m) if w not in fam])
    bits = (comp[:, None] >> np.arange(m)) & 1 == 1
    ks = x * y
    return math.fsum(np.where(bits, ks, np.minimum(x, y) - ks).prod(axis=1))


class TestCoefficients:
    def test_empty_family(self):
        assert compute_coefficients(empty_family(3)) == {}

    def test_top_only(self):
        fam = upward_closure([full_mask(4)], 4)
        assert compute_coefficients(fam) == {full_mask(4): 1}

    def test_all_nonempty_alternating_signs(self):
        for m in (*range(2, 7), 16):
            coeffs = compute_coefficients(all_nonempty_family(m))
            for mask, a in coeffs.items():
                k = bin(mask).count("1")
                assert a == (-1) ** (k + 1)

    def test_known_margins_empty_V_m3(self):
        fam = family_for_known_margins(0, 3)
        coeffs = compute_coefficients(fam)
        assert coeffs[0b011] == 1 and coeffs[0b101] == 1 and coeffs[0b110] == 1
        assert coeffs[0b111] == -2

    @pytest.mark.parametrize("m", [2, 3])
    def test_recurrence_exact_for_all_families(self, m):
        for fam in enumerate_monotone_families(m):
            coeffs = compute_coefficients(fam)
            for U in fam.members:
                inner = sum(a for V, a in coeffs.items() if V != U and V & ~U == 0)
                assert coeffs[U] + inner == 1

    def test_recurrence_exact_known_margins_large(self):
        for m in range(4, 7):
            for V in [0, 1, full_mask(m) >> 1, full_mask(m)]:
                fam = family_for_known_margins(V, m)
                coeffs = compute_coefficients(fam)
                for U in fam.members:
                    inner = sum(a for W, a in coeffs.items() if W != U and W & ~U == 0)
                    assert coeffs[U] + inner == 1


class TestEvaluate:
    def test_sheet_point(self):
        k = green_kernel(empty_family(2))
        assert k.evaluate([0.2, 0.5], [0.3, 0.7]) == pytest.approx(0.2 * 0.5)

    def test_top_only_vanishes_at_upper_corner(self):
        k = green_kernel(upward_closure([full_mask(3)], 3))
        assert k.evaluate([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_pillow_diagonal_value(self):
        k = green_kernel(all_nonempty_family(2))
        # product of one-dimensional bridge covariances at 0.5
        assert k.evaluate([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0625)

    @pytest.mark.parametrize("m", [2, 3, 4, *HIGH_M])
    def test_pillow_closed_form(self, m):
        k = green_kernel(all_nonempty_family(m))
        for x, y in point_pairs(m):
            closed = float(np.prod(np.minimum(x, y) * (1.0 - np.maximum(x, y))))
            got = k.evaluate(x, y)
            assert got >= 0.0
            assert abs(got - closed) <= 1e-14
            assert abs(got - closed) <= 1e-12 * closed

    @pytest.mark.parametrize("m", [2, 3, 4, *HIGH_M])
    def test_sheet_closed_form(self, m):
        k = green_kernel(empty_family(m))
        for x, y in point_pairs(m):
            got = k.evaluate(x, y)
            assert got >= 0.0
            assert abs(got - prod_min(x, y)) <= 1e-14
            assert abs(got - prod_min(x, y)) <= 1e-12 * prod_min(x, y)

    def test_known_margins_m16_matches_positive_sum(self):
        fam = family_for_known_margins(0b1010_0000_0000_0101, 16)
        k = green_kernel(fam)
        for x, y in point_pairs(16, count=4):
            got = k.evaluate(x, y)
            assert got >= 0.0
            assert got == pytest.approx(positive_sum(fam, x, y), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 16])
    def test_diagram_of_pillow_and_sheet(self, m):
        # the pillow: one gap node per axis
        assert green_kernel(all_nonempty_family(m)).levels == ((((_GAP, 0),),),) * m
        # the sheet: an all-ones root, the product of the mins
        assert green_kernel(empty_family(m)).levels == ((((_MIN, 0),),),) * m

    @pytest.mark.parametrize("m", [2, 3, 16])
    def test_product_factors(self, m):
        assert green_kernel(all_nonempty_family(m)).product_factors() == (_GAP,) * m
        assert green_kernel(empty_family(m)).product_factors() == (_MIN,) * m
        # margin 2 known: {M, {2}}, whose complement {{}, {1}} sums to min_1 gap_2
        assert green_kernel(family_for_known_margins(0b10, 2)).product_factors() == (_MIN, _GAP)
        # the top-only family sums two terms at the root
        assert green_kernel(upward_closure([full_mask(m)], m)).product_factors() is None

    @pytest.mark.parametrize("m", [2, 3, 16])
    def test_principal_member(self, m):
        top = full_mask(m)
        assert green_kernel(upward_closure([top], m)).principal_member() == top
        assert green_kernel(family_for_known_margins(top, m)).principal_member() == top
        # |V| = m - 1: the up-set of M minus the one unknown margin
        V = top ^ 0b10
        assert green_kernel(family_for_known_margins(V, m)).principal_member() == V
        assert green_kernel(upward_closure([0b1], m)).principal_member() == 0b1
        # the sheet has no member, the pillow m minimal ones, a closure of two pairs two
        assert green_kernel(empty_family(m)).principal_member() is None
        assert green_kernel(all_nonempty_family(m)).principal_member() is None
        if m >= 3:
            assert green_kernel(upward_closure([0b011, 0b110], m)).principal_member() is None
            assert green_kernel(family_for_known_margins(0b1, m)).principal_member() is None

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_principal_member_names_every_up_set_of_one_subset(self, m):
        fams = {upward_closure([U], m): U for U in range(1, full_mask(m) + 1)}
        for fam in enumerate_monotone_families(m):
            assert green_kernel(fam).principal_member() == fams.get(fam), fam

    @pytest.mark.parametrize("m", [2, 3])
    def test_top_only_closed_form(self, m):
        k = green_kernel(upward_closure([full_mask(m)], m))
        for _ in range(200):
            x, y = RNG.random(m), RNG.random(m)
            closed = prod_min(x, y) - float(np.prod(x) * np.prod(y))
            assert abs(k.evaluate(x, y) - closed) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_symmetry(self, data):
        m = data.draw(st.integers(2, 4))
        V = data.draw(st.integers(0, full_mask(m)))
        k = green_kernel(family_for_known_margins(V, m))
        x = np.array(data.draw(st.lists(st.floats(0, 1), min_size=m, max_size=m)))
        y = np.array(data.draw(st.lists(st.floats(0, 1), min_size=m, max_size=m)))
        assert k.evaluate(x, y) == pytest.approx(k.evaluate(y, x), abs=1e-14)

    @pytest.mark.parametrize("m", [2, 3])
    def test_right_face_vanishing(self, m):
        for fam in enumerate_monotone_families(m):
            k = green_kernel(fam)
            for U in k.family.members:
                coords = [j for j in range(m) if U >> j & 1]
                for _ in range(200 // max(1, len(fam))):
                    x, y = RNG.random(m), RNG.random(m)
                    x[coords] = 1.0
                    assert abs(k.evaluate(x, y)) <= 1e-14

    def test_left_face_vanishing(self):
        for m in (2, 3, 4):
            k = green_kernel(family_for_known_margins(0, m))
            for j in range(m):
                x, y = RNG.random(m), RNG.random(m)
                x[j] = 0.0
                assert abs(k.evaluate(x, y)) <= 1e-15


def exact_kernel(comp, x, xi) -> Fraction:
    """G(x, xi) in exact arithmetic from the complement table comp (an
    object array of 0 and 1 over the 2^m subsets): the sum of the per-axis
    products, contracted one bit axis at a time.  Every float is a dyadic
    rational, so each factor is an integer over 4**s."""
    s = max(Fraction(v).denominator for v in (*x, *xi)).bit_length() - 1
    top = 1 << s
    for a, b in zip(x, xi):
        lo, hi = sorted((int(a * top), int(b * top)))
        comp = comp[0::2] * (lo * (top - hi)) + comp[1::2] * (int(a * top) * int(b * top))
    return Fraction(int(comp[0]), top ** (2 * len(x)))


def near_face_points(m, rng):
    """k = 1..m coordinates at 1 - eps, the others uniform, with xi = x but
    xi_m = 0.3."""
    for eps in (1e-4, 1e-8, 1e-12, 1e-14):
        for k in range(1, m + 1):
            x = rng.random(m)
            x[:k] = 1.0 - eps
            xi = x.copy()
            xi[-1] = 0.3
            yield x, xi


class TestExactRationals:
    """G against exact rationals where the per-axis gap min - x xi would
    cancel: within 1e-14 relative, for every point."""

    def check(self, fam):
        k = green_kernel(fam)
        comp = np.array((~fam.table).astype(int).tolist(), dtype=object)
        for x, xi in near_face_points(fam.m, RNG):
            exact = exact_kernel(comp, x, xi)
            assert abs(Fraction(k.evaluate(x, xi)) - exact) <= Fraction(1, 10 ** 14) * exact

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_every_family(self, m):
        for fam in enumerate_monotone_families(m):
            self.check(fam)

    @pytest.mark.parametrize("m, size", [(12, 6), (16, 8)])
    def test_closure_of_the_k_subsets(self, m, size):
        self.check(upward_closure(subsets_of_size(m, size), m))

    def test_known_margins_m16(self):
        self.check(family_for_known_margins(0b101, 16))


class TestMatrixOps:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_gram_positive_semidefinite(self, m):
        families = [empty_family(m), all_nonempty_family(m),
                    family_for_known_margins(1, m)]
        for fam in families:
            k = green_kernel(fam)
            for _ in range(20):
                pts = RNG.random((RNG.integers(2, 13), m))
                G = k.cross(pts, pts)
                assert np.allclose(G, G.T)
                assert np.linalg.eigvalsh(G).min() >= -1e-10

    def test_cross_matches_evaluate(self):
        k = green_kernel(family_for_known_margins(0b01, 3))
        A, B = RNG.random((7, 3)), RNG.random((5, 3))
        C = k.cross(A, B)
        for i in range(7):
            for j in range(5):
                assert C[i, j] == pytest.approx(k.evaluate(A[i], B[j]), abs=1e-14)

    def test_diagonal_matches_evaluate(self):
        for m in (2, 3, 4):
            for fam in (empty_family(m), all_nonempty_family(m),
                        family_for_known_margins(1, m), upward_closure([0b11], m)):
                k = green_kernel(fam)
                P = RNG.random((9, m))
                want = [k.evaluate(p, p) for p in P]
                assert np.allclose(k.values(P, P), want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_kron_matvec_is_the_sum_over_the_complement(self, m):
        """With (n_out, n_in) factors, mins = gaps + ks, and a trailing batch
        axis, the operator is the sum over the subsets W outside F of the
        Kronecker product of ks on W and gaps off W, axis 0 slowest."""
        n_out, n_in, batch = 2, 3, 4
        ks, gaps = RNG.random((n_out, n_in)), RNG.random((n_out, n_in))
        v = RNG.random((n_in ** m, batch))
        for fam in enumerate_monotone_families(m):
            k = green_kernel(fam)
            dense = np.zeros((n_out ** m, n_in ** m))
            for W in np.flatnonzero(~fam.table):
                term = np.ones((1, 1))
                for j in range(m):
                    term = np.kron(term, ks if W >> j & 1 else gaps)
                dense += term
            out = k.kron_matvec(gaps + ks, ks, gaps, v)
            assert out.shape == (n_out ** m, batch)
            assert np.allclose(out, dense @ v, rtol=1e-13, atol=0.0)
            # each column is the one-column operator on it
            assert np.array_equal(out[:, 1], k.kron_matvec(gaps + ks, ks, gaps, v[:, 1]))

    def test_dimension_mismatch(self):
        k = green_kernel(empty_family(2))
        with pytest.raises(ValueError):
            k.evaluate([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])


class TestUnitCubePoints:
    """The one point check refuses a coordinate outside [0, 1] or not finite
    in every evaluator; the faces themselves are accepted."""

    ACCEPTED = (0.0, -0.0, 1.0)
    REFUSED = (1.0 + 2.0 ** -52, -5e-324, float("nan"), float("inf"), -float("inf"))

    def evaluators(self):
        k = green_kernel(all_nonempty_family(2))
        return (lambda p: k.evaluate(p, [0.5, 0.5]), lambda p: k.evaluate([0.5, 0.5], p),
                lambda p: k.values(np.array([p, p]), [0.5, 0.5]),
                lambda p: k.cross([[0.5, 0.5], p], [[0.5, 0.5]]),
                lambda p: k.cross([[0.5, 0.5]], [p]), lambda p: k.values([p], [p]))

    @pytest.mark.parametrize("v", ACCEPTED)
    def test_faces_accepted(self, v):
        for evaluate in self.evaluators():
            assert np.all(np.asarray(evaluate([v, 0.5])) >= 0.0)

    @pytest.mark.parametrize("v", REFUSED)
    def test_outside_or_non_finite_refused(self, v):
        for evaluate in self.evaluators():
            with pytest.raises(ValueError, match=r"coordinate .* is not in \[0, 1\]"):
                evaluate([0.5, v])
