"""Bitmask subsets of {1..m} and upward-closed (monotone) families.

Subsets of the index set M = {1..m} are stored as integer bitmasks with
bit j-1 set iff coordinate j belongs to the subset.  A monotone family is
an upward-closed collection of nonempty subsets: whenever U is a member,
so is every W with U <= W <= M.  These families index the right-face
boundary conditions of the kernels in :mod:`cubegreen.kernel`.

A family is its boolean table over all 2^m subsets.  Upward closure is an
OR-fold of the table over the m bit axes, and a family is upward closed
when every member's immediate oversets are members, one table lookup.
Members are listed in (popcount, value) order: one stable sort by
popcount of the table's indices, which are already in value order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

MIN_DIM = 2
MAX_DIM = 16
MAX_ENUM_DIM = 5

_BITS = 1 << np.arange(MAX_DIM)
_NOT_A_FAMILY = "family is not upward-closed or contains the empty subset"


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
    """Parse a subset of 1-based coordinates given as '1,3', in brace
    notation '{1,3}' or as a JSON list '[1,3]'; '', '{}' and '[]' are
    the empty set."""
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


def _by_popcount(masks: np.ndarray) -> np.ndarray:
    """Value-sorted masks in (popcount, value) order: one stable sort."""
    return masks[np.argsort(np.bitwise_count(masks), kind="stable")]


def _table(masks, m: int) -> np.ndarray | None:
    """The boolean table over the 2^m subsets of a sequence of masks, or
    None unless they form an upward-closed family of nonempty subsets.
    A mask above the full mask raises ValueError, naming the first one."""
    top = full_mask(m)
    if masks and max(masks) > top:
        raise ValueError(f"mask {next(u for u in masks if u > top)} out of range for m={m}")
    if masks and min(masks) <= 0:
        return None
    arr = np.array(masks, dtype=np.int64)
    table = np.zeros(top + 1, dtype=bool)
    table[arr] = True
    # every immediate overset is a member; u | 1 << j is u itself when u
    # holds j
    over = arr[:, None] | _BITS[:m]
    return table if np.count_nonzero(table[over]) == over.size else None


def _int64(masks: list, m: int) -> np.ndarray:
    """The masks as int64; one beyond int64 is refused as by `is_monotone`."""
    try:
        return np.array(masks, dtype=np.int64)
    except OverflowError:
        _table(masks, m)  # raises for a mask above the full mask
        raise ValueError(_NOT_A_FAMILY) from None


def is_monotone(masks, m: int) -> bool:
    """True iff the masks form an upward-closed family of nonempty subsets.

    A mask above the full mask raises ValueError, naming the first such
    mask in the given order, whatever else is wrong; otherwise a mask
    <= 0 makes the answer False.
    """
    _check_dim(m)
    return _table(list(masks), m) is not None


@dataclass(frozen=True)
class MonotoneFamily:
    """An upward-closed family of nonempty subsets of {1..m}.

    Members are sorted by (cardinality, numeric value) so that derived
    artifacts (coefficients, JSON output) are reproducible.  `table` is
    the family's read-only boolean table over the 2^m subsets.
    """

    m: int
    members: tuple[int, ...]
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_dim(self.m)
        members = list(self.members)
        ordered = _by_popcount(np.sort(_int64(members, self.m))).tolist()
        if len(set(members)) < len(members) or ordered != members:
            raise ValueError("members must be unique and sorted by (popcount, value)")
        table = _table(members, self.m)
        if table is None:
            raise ValueError(_NOT_A_FAMILY)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @classmethod
    def from_members(cls, masks, m: int) -> "MonotoneFamily":
        masks = np.sort(_int64(list(set(masks)), m))
        return cls(m, tuple(_by_popcount(masks).tolist()))

    @classmethod
    def _from_table(cls, table: np.ndarray, m: int) -> "MonotoneFamily":
        return cls(m, tuple(_by_popcount(np.flatnonzero(table)).tolist()))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return 0 <= mask < len(self.table) and bool(self.table[mask])

    def to_coord_lists(self) -> list[list[int]]:
        return [list(coords_from_mask(u)) for u in self.members]

    def __str__(self) -> str:
        return "[" + ",".join(format_subset(u) for u in self.members) + "]"


def upward_closure(generators, m: int) -> MonotoneFamily:
    """Smallest upward-closed family containing the given nonempty subsets."""
    _check_dim(m)
    top = full_mask(m)
    table = np.zeros(top + 1, dtype=bool)
    for g in generators:
        if g <= 0:
            raise ValueError("generators must be nonempty subsets")
        if g > top:
            raise ValueError(f"generator {g} out of range for m={m}")
        table[g] = True
    # OR-fold along each bit axis: a subset with the bit joins if the
    # subset without it is in
    for j in range(m):
        v = table.reshape(-1, 2, 1 << j)
        v[:, 1] |= v[:, 0]
    return MonotoneFamily._from_table(table, m)


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

    An upward-closed table over k + 1 bits is a pair of upward-closed
    tables over k bits, the subsets without and with bit k, the first
    inside the second; building them bit by bit gives every up-set, and
    all but the one holding the empty set are families.  Counts are
    Dedekind(m) - 1 (5, 19, 167, 7580 for m = 2..5).
    """
    _check_dim(m)
    if m > MAX_ENUM_DIM:
        raise ValueError(f"enumeration supported only for m <= {MAX_ENUM_DIM}")
    tables = np.array([[False], [True]])
    for _ in range(m):
        low, high = np.nonzero(~(tables[:, None] & ~tables[None, :]).any(axis=2))
        tables = np.concatenate([tables[low], tables[high]], axis=1)
    families = [MonotoneFamily._from_table(t, m) for t in tables if not t[0]]
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
