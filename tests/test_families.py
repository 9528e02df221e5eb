import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubegreen.families import (
    MonotoneFamily,
    check_subset,
    all_nonempty_family,
    empty_family,
    echoed,
    enumerate_monotone_families,
    family_for_known_margins,
    family_from_json,
    format_subset,
    full_mask,
    is_monotone,
    mask_from_coords,
    parse_subset,
    subsets_of_size,
    upward_closure,
)


def brute_closure(generators, m):
    """Independent oracle: union of all oversets of every generator."""
    out = set()
    for g in generators:
        for w in range(1, full_mask(m) + 1):
            if g & ~w == 0:
                out.add(w)
    return out


class TestIsMonotone:
    def test_empty_family_is_vacuously_closed(self):
        assert is_monotone([], 2) is True

    def test_missing_overset(self):
        assert is_monotone([0b01], 2) is False

    def test_three_member_family_m3(self):
        # {1,2,3}, {2,3}, {1,3}
        assert is_monotone([0b111, 0b110, 0b101], 3) is True

    def test_empty_subset_rejected(self):
        assert is_monotone([0, 0b111], 3) is False

    @pytest.mark.parametrize("m", [0, 1, 17])
    def test_dimension_out_of_range(self, m):
        with pytest.raises(ValueError):
            is_monotone([], m)


def set_upward_closure(generators, m):
    """The set loop the table closure replaced, kept as its reference: each
    generator united with every subset of its complement, the members in
    (popcount, value) order."""
    top = full_mask(m)
    closed = set()
    for g in generators:
        free = top & ~g
        sub = free
        while True:
            closed.add(g | sub)
            if sub == 0:
                break
            sub = (sub - 1) & free
    return tuple(sorted(closed, key=lambda u: (u.bit_count(), u)))


# the set-based validation the array checks replace, kept as their reference

def set_is_monotone(masks, m):
    top = full_mask(m)
    members = set(masks)
    for u in members:
        if not 0 < u <= top:
            if u > top:
                raise ValueError(f"mask {u} out of range for m={m}")
            return False
        for j in range(m):
            if not u >> j & 1 and (u | 1 << j) not in members:
                return False
    return True


def canonical(masks):
    """Distinct masks in (popcount, value) order."""
    return tuple(sorted(set(masks), key=lambda u: (u.bit_count(), u)))


def set_family_check(m, members):
    """A range error first, naming the first mask above the full mask in the
    given order; otherwise the family the set check accepts, canonical."""
    over = [u for u in members if u > full_mask(m)]
    if over:
        raise ValueError(f"mask {over[0]} out of range for m={m}")
    if not set_is_monotone(members, m):
        raise ValueError("family is not upward-closed or contains the empty subset")
    return canonical(members)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return ("error", str(exc))


def table_of(members, m):
    table = np.zeros(1 << m, dtype=bool)
    table[list(members)] = True
    return table


def family_outcome(m, masks):
    """The constructor's members, checked against the table it keeps."""
    family = MonotoneFamily(m, tuple(masks))
    assert np.array_equal(family.table, table_of(family.members, m))
    return family.members


def check_against_sets(m, masks):
    """The array checks decide as the set checks do.  Where the set check
    depends on set iteration order (an out-of-range mask beside another
    defect), `is_monotone` reports the first out-of-range mask."""
    top = full_mask(m)
    over = [u for u in masks if u > top]
    assert outcome(family_outcome, m, masks) == outcome(set_family_check, m, tuple(masks))
    got, want = outcome(is_monotone, masks, m), outcome(set_is_monotone, masks, m)
    if over:
        assert got == ("error", f"mask {over[0]} out of range for m={m}")
        assert (want[1] in {f"mask {u} out of range for m={m}" for u in over}
                or (want == ("ok", False)
                    and not set_is_monotone([u for u in masks if u <= top], m)))
    else:
        assert got == want


@st.composite
def mask_lists(draw):
    m = draw(st.integers(2, 6))
    top = full_mask(m)
    kind = draw(st.sampled_from(["raw", "sorted", "closure"]))
    if kind == "closure":
        gens = draw(st.lists(st.integers(1, top), min_size=1, max_size=3))
        masks = sorted(brute_closure(gens, m))
        drop = draw(st.integers(-1, len(masks) - 1))
        if drop >= 0:
            del masks[drop]
        masks += draw(st.lists(st.sampled_from([0, top + 1, top + 9, 2 * top]), max_size=2))
    else:
        masks = draw(st.lists(st.integers(0, top + 3), max_size=top + 4))
    if kind != "raw":
        masks = sorted(set(masks), key=lambda u: (u.bit_count(), u))
    return m, masks


class TestValidationAgainstSets:
    @settings(max_examples=150, deadline=None)
    @given(mask_lists())
    def test_random_mask_lists(self, case):
        check_against_sets(*case)

    @pytest.mark.parametrize("m", [5, 6])
    def test_large_families(self, m):
        pillow = all_nonempty_family(m).members
        check_against_sets(m, list(pillow))
        for i in range(len(pillow)):
            check_against_sets(m, list(pillow[:i] + pillow[i + 1:]))
        check_against_sets(m, [0] + list(pillow))
        check_against_sets(m, list(pillow) + [full_mask(m) + 1])
        # the subsets without coordinate j, and M: only oversets through j
        # are missing
        for j in range(m):
            masks = [u for u in pillow if not u >> j & 1] + [full_mask(m)]
            assert is_monotone(masks, m) is False
            check_against_sets(m, masks)

    def test_out_of_range_reported_before_other_defects(self):
        # the set check answers False here (0 comes first in the set)
        assert set_is_monotone([0, 9], 3) is False
        with pytest.raises(ValueError, match="mask 9 out of range for m=3"):
            is_monotone([0, 9], 3)
        with pytest.raises(ValueError, match="mask 9 out of range for m=3"):
            MonotoneFamily(3, (0, 9))
        with pytest.raises(ValueError, match="mask 12 out of range for m=3"):
            is_monotone([1, 12, 9], 3)
        with pytest.raises(ValueError, match="mask 9 out of range for m=3"):
            MonotoneFamily(3, (9, 0))

    @pytest.mark.parametrize("build", [lambda u: MonotoneFamily(3, (u,)),
                                       lambda u: MonotoneFamily(3, (7, u, 7))])
    @pytest.mark.parametrize("mask", [2**63, 2**70, -2**70])
    def test_masks_beyond_int64_refused_as_by_is_monotone(self, build, mask):
        if mask > 0:
            with pytest.raises(ValueError, match=f"mask {mask} out of range for m=3"):
                is_monotone([mask], 3)
            with pytest.raises(ValueError, match=f"mask {mask} out of range for m=3"):
                build(mask)
        else:
            assert is_monotone([mask], 3) is False
            with pytest.raises(ValueError, match="not upward-closed or contains the empty"):
                build(mask)


class TestUpwardClosure:
    def test_single_generator(self):
        fam = upward_closure([0b01], 2)
        assert fam.members == (0b01, 0b11)

    def test_top_element(self):
        fam = upward_closure([full_mask(4)], 4)
        assert fam.members == (full_mask(4),)

    def test_two_generators_m3(self):
        fam = upward_closure([0b001, 0b010], 3)
        expected = brute_closure([0b001, 0b010], 3)
        assert set(fam.members) == expected
        assert len(fam) == 6

    def test_empty_generator_rejected(self):
        with pytest.raises(ValueError):
            upward_closure([0], 3)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_closure_properties(self, data):
        m = data.draw(st.integers(2, 5))
        gens = data.draw(st.lists(st.integers(1, full_mask(m)), min_size=0, max_size=6))
        fam = upward_closure(gens, m) if gens else empty_family(m)
        assert is_monotone(fam.members, m)
        assert set(fam.members) == brute_closure(gens, m)
        again = upward_closure(fam.members, m) if fam.members else fam
        assert again.members == fam.members  # idempotent

    @pytest.mark.parametrize("m", [8, 12, 16])
    def test_table_closure_matches_set_loop(self, m):
        rng = np.random.default_rng(m)
        cases = [[int(g) for g in rng.integers(1, 1 << m, count)] for count in (1, 3, 20)]
        # a singleton generator: every subset holding one coordinate
        cases += [[1 << (m // 2), *cases[1]], list(subsets_of_size(m, m // 2))]
        for gens in cases:
            assert upward_closure(gens, m).members == set_upward_closure(gens, m)


class TestKnownMarginsFamily:
    def test_full_V_reduces_to_top(self):
        fam = family_for_known_margins(full_mask(3), 3)
        assert fam.members == (0b111,)

    def test_empty_V(self):
        fam = family_for_known_margins(0, 3)
        assert set(fam.members) == {0b111, 0b110, 0b101, 0b011}

    def test_singleton_V(self):
        fam = family_for_known_margins(0b001, 3)
        assert set(fam.members) == {0b111, 0b101, 0b011}

    @pytest.mark.parametrize("m", range(2, 7))
    def test_always_contains_top_and_monotone(self, m):
        for V in range(full_mask(m) + 1):
            fam = family_for_known_margins(V, m)
            assert full_mask(m) in fam.members
            assert is_monotone(fam.members, m)


    def test_V_outside_M_is_one_message_everywhere(self):
        from cubegreen.montecarlo import SimConfig
        from cubegreen.rankstats import empirical_process_W, stat_B

        X = np.array([[0.1, 0.2], [0.6, 0.4]])
        for call in (lambda: check_subset(0b100, 2),
                     lambda: family_for_known_margins(0b100, 2),
                     lambda: SimConfig(seed=1, n=10, replications=100, m=2, V=0b100),
                     lambda: empirical_process_W(X, 0b100, [0.5, 0.5]),
                     lambda: stat_B(X, 0b100)):
            with pytest.raises(ValueError, match=r"^V=4 is not a subset of M for m=2$"):
                call()
        check_subset(0b11, 2)


class TestEnumeration:
    @pytest.mark.parametrize("m,count", [(2, 5), (3, 19), (4, 167)])
    def test_counts(self, m, count):
        assert len(enumerate_monotone_families(m)) == count

    def test_m5_count(self):
        assert len(enumerate_monotone_families(5)) == 7580

    def test_m2_explicit(self):
        fams = enumerate_monotone_families(2)
        as_sets = [set(f.members) for f in fams]
        assert {frozenset(s) for s in as_sets} == {
            frozenset(), frozenset({0b11}), frozenset({0b01, 0b11}),
            frozenset({0b10, 0b11}), frozenset({0b01, 0b10, 0b11}),
        }

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_exhaustive_filtration(self, m):
        top = full_mask(m)
        accepted = set()
        for bits in range(1 << top):
            masks = [u + 1 for u in range(top) if bits >> u & 1]
            if is_monotone(masks, m):
                accepted.add(frozenset(masks))
        assert {frozenset(f.members) for f in enumerate_monotone_families(m)} == accepted

    def test_refuses_large_m(self):
        with pytest.raises(ValueError):
            enumerate_monotone_families(6)


class TestParsing:
    def test_subset_round_trip(self):
        assert parse_subset("{1,3}", 4) == 0b101
        assert format_subset(0b101) == "{1,3}"
        assert parse_subset("[2,4]", 4) == 0b1010
        assert parse_subset("{}", 3) == 0

    def test_family_from_json(self):
        fam = family_from_json("[[1,2]]", 2)
        assert fam.members == (0b11,)

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueError):
            mask_from_coords([5], 3)

    @pytest.mark.parametrize("bad", [1.9, 2.0, True, False, "1", None, [1]])
    def test_non_integer_coordinates_refused(self, bad):
        # int() would truncate 1.9 to 1 and read True as 1
        with pytest.raises(ValueError, match="is not an integer"):
            mask_from_coords([bad], 3)
        with pytest.raises(ValueError, match="is not an integer"):
            family_from_json([[1, 2], [bad]], 3)
        assert mask_from_coords([np.int64(2), 3], 3) == 0b110

    def test_echoed_values_are_cut_at_60_characters(self):
        assert echoed("ab") == "'ab'" and echoed([1, "2"]) == "[1, '2']"
        assert echoed("x" * 60) == repr("x" * 60)
        assert echoed("x" * 61) == f"{'x' * 60!r}… (61 characters)"
        long = list(range(100))
        assert echoed(long) == f"{repr(long)[:60]}… ({len(repr(long))} characters)"
        assert echoed(10 ** 60) == f"{'1' + '0' * 59}… (61 characters)"
        with pytest.raises(ValueError, match=r"^coordinate '1\.5' is not an integer$"):
            parse_subset("{1.5}", 3)
        with pytest.raises(ValueError, match=r"^coordinate 'aaa.*… \(1000 characters\) is not"):
            parse_subset("a" * 1000, 3)

    def test_json_subsets_are_not_truncated(self):
        with pytest.raises(ValueError, match="coordinate 1.9 is not an integer"):
            parse_subset("[1.9, true]", 3)
        with pytest.raises(ValueError, match="coordinate True is not an integer"):
            parse_subset("[true]", 3)

    @pytest.mark.parametrize("spec", ["[1, 2]", "[[1], 2]", "5", '{"1": [1]}'])
    def test_family_must_be_arrays_of_coordinates(self, spec):
        with pytest.raises(ValueError, match="array of arrays"):
            family_from_json(spec, 2)

    def test_unsorted_and_repeated_masks_give_the_sorted_family(self):
        fam = MonotoneFamily(2, (0b11, 0b01))
        again = MonotoneFamily(2, [0b01, 0b11, 0b01, 0b11])
        want = MonotoneFamily(2, (0b01, 0b11))
        for got in (fam, again):
            assert got == want and hash(got) == hash(want)
            assert got.members == want.members == (0b01, 0b11)
            assert np.array_equal(got.table, want.table)
        pillow = list(range(full_mask(4), 0, -1)) * 2
        assert MonotoneFamily(4, pillow) == all_nonempty_family(4)
        assert family_from_json("[[1,2],[2],[1,2],[1]]", 2).members == (0b01, 0b10, 0b11)


def test_all_nonempty_and_empty_families():
    assert len(all_nonempty_family(3)) == 7
    assert len(empty_family(3)) == 0


class TestBuildersAgainstSets:
    """Every builder gives the family the set oracles give, in their order."""

    @pytest.mark.parametrize("m", range(2, 6))
    def test_enumeration(self, m):
        fams = enumerate_monotone_families(m)
        assert len(fams) == [5, 19, 167, 7580][m - 2]
        assert len(set(fams)) == len(fams)
        assert [(len(f), f.members) for f in fams] == sorted((len(f), f.members) for f in fams)
        for f in fams:
            assert set_is_monotone(f.members, m)
            assert f.members == canonical(f.members)
            assert np.array_equal(f.table, table_of(f.members, m))

    @pytest.mark.parametrize("m", range(2, 7))
    def test_known_margins(self, m):
        top = full_mask(m)
        for V in range(top + 1):
            want = canonical([top] + [top & ~(1 << j) for j in range(m) if not V >> j & 1])
            fam = family_for_known_margins(V, m)
            assert set_is_monotone(want, m)
            assert fam.members == want
            assert np.array_equal(fam.table, table_of(want, m))

    @pytest.mark.parametrize("m", range(2, 17))
    def test_pillow_and_sheet(self, m):
        pillow = all_nonempty_family(m)
        assert pillow.members == set_upward_closure([1 << j for j in range(m)], m)
        assert not pillow.table[0] and pillow.table[1:].all()
        sheet = empty_family(m)
        assert sheet.members == () and not sheet.table.any() and len(sheet.table) == 1 << m
