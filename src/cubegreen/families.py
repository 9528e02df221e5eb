"""Bitmask subsets of {1..m} and upward-closed (monotone) families.

Subsets of the index set M = {1..m} are stored as integer bitmasks with
bit j-1 set iff coordinate j belongs to the subset.  A monotone family is
an upward-closed collection of nonempty subsets: whenever U is a member,
so is every W with U <= W <= M.  These families index the right-face
boundary conditions of the kernels in :mod:`cubegreen.kernel`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

MIN_DIM = 2
MAX_DIM = 16
MAX_ENUM_DIM = 5


def _check_dim(m: int) -> None:
    if not isinstance(m, int) or not MIN_DIM <= m <= MAX_DIM:
        raise ValueError(f"dimension must be an integer in [{MIN_DIM}, {MAX_DIM}], got {m!r}")


def full_mask(m: int) -> int:
    """Bitmask of the full index set M = {1..m}."""
    return (1 << m) - 1


def mask_from_coords(coords, m: int) -> int:
    """Build a bitmask from 1-based coordinate indices."""
    _check_dim(m)
    mask = 0
    for c in coords:
        c = int(c)
        if not 1 <= c <= m:
            raise ValueError(f"coordinate {c} out of range 1..{m}")
        mask |= 1 << (c - 1)
    return mask


def coords_from_mask(mask: int) -> tuple[int, ...]:
    """1-based coordinate indices of a bitmask, ascending."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def parse_subset(text: str, m: int) -> int:
    """Parse a subset from brace notation '{1,3}' or a JSON list '[1,3]'."""
    text = text.strip()
    if text in ("{}", "[]", ""):
        return 0
    if text.startswith("{") and text.endswith("}"):
        items = [t for t in text[1:-1].split(",") if t.strip()]
        return mask_from_coords((int(t) for t in items), m)
    if text.startswith("["):
        return mask_from_coords(json.loads(text), m)
    return mask_from_coords((int(t) for t in text.split(",") if t.strip()), m)


def format_subset(mask: int) -> str:
    """Brace notation for a bitmask, e.g. '{1,3}'."""
    return "{" + ",".join(str(c) for c in coords_from_mask(mask)) + "}"


def _sort_key(mask: int):
    return (mask.bit_count(), mask)


def is_monotone(masks, m: int) -> bool:
    """True iff the masks form an upward-closed family of nonempty subsets."""
    _check_dim(m)
    top = full_mask(m)
    members = set(masks)
    for u in members:
        if not 0 < u <= top:
            if u > top:
                raise ValueError(f"mask {u} out of range for m={m}")
            return False
        # checking immediate oversets suffices for upward closure
        for j in range(m):
            if not u >> j & 1 and (u | 1 << j) not in members:
                return False
    return True


@dataclass(frozen=True)
class MonotoneFamily:
    """An upward-closed family of nonempty subsets of {1..m}.

    Members are sorted by (cardinality, numeric value) so that derived
    artifacts (coefficients, JSON output) are reproducible.
    """

    m: int
    members: tuple[int, ...]
    _member_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_dim(self.m)
        member_set = frozenset(self.members)
        if list(self.members) != sorted(member_set, key=_sort_key):
            raise ValueError("members must be unique and sorted by (popcount, value)")
        if not is_monotone(self.members, self.m):
            raise ValueError("family is not upward-closed or contains the empty subset")
        object.__setattr__(self, "_member_set", member_set)

    @classmethod
    def from_members(cls, masks, m: int) -> "MonotoneFamily":
        return cls(m, tuple(sorted(set(masks), key=_sort_key)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self._member_set

    def to_coord_lists(self) -> list[list[int]]:
        return [list(coords_from_mask(u)) for u in self.members]

    def __str__(self) -> str:
        return "[" + ",".join(format_subset(u) for u in self.members) + "]"


def upward_closure(generators, m: int) -> MonotoneFamily:
    """Smallest upward-closed family containing the given nonempty subsets."""
    _check_dim(m)
    top = full_mask(m)
    closed: set[int] = set()
    for g in generators:
        if g == 0:
            raise ValueError("generators must be nonempty subsets")
        if g > top:
            raise ValueError(f"generator {g} out of range for m={m}")
        free = top & ~g
        # add g united with every subset of its complement
        sub = free
        while True:
            closed.add(g | sub)
            if sub == 0:
                break
            sub = (sub - 1) & free
    return MonotoneFamily.from_members(closed, m)


def family_for_known_margins(V: int, m: int) -> MonotoneFamily:
    """The family {M} united with {M minus {u} : u not in V}.

    This is the index family of the limiting covariance of the empirical
    process with the margins in V known.  V = M gives {M}; V = empty gives
    {M} plus all subsets of size m-1.
    """
    _check_dim(m)
    top = full_mask(m)
    if V & ~top:
        raise ValueError(f"V={V} is not a subset of M for m={m}")
    members = {top}
    for j in range(m):
        if not V >> j & 1:
            members.add(top & ~(1 << j))
    return MonotoneFamily.from_members(members, m)


def all_nonempty_family(m: int) -> MonotoneFamily:
    """The family of all nonempty subsets (Brownian-pillow boundary set)."""
    _check_dim(m)
    return MonotoneFamily.from_members(range(1, full_mask(m) + 1), m)


def empty_family(m: int) -> MonotoneFamily:
    """The empty family (Brownian-sheet case: no right-face conditions)."""
    return MonotoneFamily(m, ())


def enumerate_monotone_families(m: int) -> list[MonotoneFamily]:
    """All upward-closed families of nonempty subsets of {1..m}, m <= 5.

    Enumeration is by backtracking over masks in decreasing cardinality:
    a mask may be included only if all masks covering it are included.
    Counts are Dedekind(m) - 1 (5, 19, 167, 7580 for m = 2..5).
    """
    _check_dim(m)
    if m > MAX_ENUM_DIM:
        raise ValueError(f"enumeration supported only for m <= {MAX_ENUM_DIM}")
    order = sorted(range(1, full_mask(m) + 1), key=_sort_key, reverse=True)
    covers = {
        u: [u | 1 << j for j in range(m) if not u >> j & 1] for u in order
    }
    results: list[frozenset[int]] = []

    def extend(idx: int, chosen: set[int]):
        if idx == len(order):
            results.append(frozenset(chosen))
            return
        u = order[idx]
        extend(idx + 1, chosen)
        if all(w in chosen for w in covers[u]):
            chosen.add(u)
            extend(idx + 1, chosen)
            chosen.remove(u)

    extend(0, set())
    families = [MonotoneFamily.from_members(s, m) for s in results]
    families.sort(key=lambda f: (len(f), f.members))
    return families


def family_from_json(spec, m: int) -> MonotoneFamily:
    """Family from a JSON array-of-arrays of 1-based coordinates."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    masks = [mask_from_coords(item, m) for item in spec]
    fam = MonotoneFamily.from_members(masks, m)
    return fam


def subsets_of_size(m: int, k: int):
    """All bitmasks of subsets of {1..m} with exactly k elements."""
    for combo in combinations(range(m), k):
        yield sum(1 << j for j in combo)
