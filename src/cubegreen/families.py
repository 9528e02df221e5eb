"""Bitmask subsets of {1..m} and upward-closed (monotone) families.

Subsets of the index set M = {1..m} are stored as integer bitmasks with
bit j-1 set iff coordinate j belongs to the subset.  A monotone family is
an upward-closed collection of nonempty subsets: whenever U is a member,
so is every W with U <= W <= M.  These families index the right-face
boundary conditions of the kernels in :mod:`cubegreen.kernel`.

A family is its boolean table over all 2^m subsets.  It is built one way:
the masks, in any order and with repeats, are read into the table, and
the members are listed from it in (popcount, value) order, one stable
sort by popcount of the table's indices, which are in value order.
Upward closure is an OR-fold of the table over the m bit axes, and a
family is upward closed when every member's immediate oversets are
members, one table lookup.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

MIN_DIM = 2
MAX_DIM = 16
MAX_ENUM_DIM = 5

_BITS = 1 << np.arange(MAX_DIM)


# characters of a value echoed in an error message
ECHO_CHARS = 60


def echoed(value) -> str:
    """A value as an error message shows it: the repr of a string's first
    `ECHO_CHARS` characters, or the first `ECHO_CHARS` characters of any
    other value's repr, followed by the full length when it is longer."""
    text = value if isinstance(value, str) else repr(value)
    head = repr(text[:ECHO_CHARS]) if isinstance(value, str) else text[:ECHO_CHARS]
    return head if len(text) <= ECHO_CHARS else f"{head}… ({len(text)} characters)"


def _check_dim(m: int) -> None:
    if not isinstance(m, int) or not MIN_DIM <= m <= MAX_DIM:
        raise ValueError(f"dimension must be an integer in [{MIN_DIM}, {MAX_DIM}], got {m!r}")


def full_mask(m: int) -> int:
    """Bitmask of the full index set M = {1..m}."""
    return (1 << m) - 1


def check_subset(V: int, m: int) -> None:
    """Refuse a bitmask V that is not a subset of M = {1..m}."""
    if V & ~full_mask(m):
        raise ValueError(f"V={V} is not a subset of M for m={m}")


def mask_from_coords(coords, m: int) -> int:
    """Build a bitmask from 1-based coordinate indices: integers, that is
    what `operator.index` accepts, bools excepted."""
    _check_dim(m)
    mask = 0
    for item in coords:
        try:
            c = None if isinstance(item, bool) else operator.index(item)
        except TypeError:
            c = None
        if c is None:
            raise ValueError(f"coordinate {echoed(item)} is not an integer")
        if not 1 <= c <= m:
            raise ValueError(f"coordinate {echoed(c)} out of range 1..{m}")
        mask |= 1 << (c - 1)
    return mask


def coords_from_mask(mask: int) -> tuple[int, ...]:
    """1-based coordinate indices of a bitmask, ascending."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def parse_coordinate(token: str, kind=int):
    """kind(token), kind int or float, naming a refused token as `echoed` cuts it."""
    try:
        return kind(token)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"coordinate {echoed(token.strip())} is not {what}") from None


def parse_subset(text: str, m: int) -> int:
    """Parse a subset of 1-based coordinates given as '1,3', in brace
    notation '{1,3}' or as a JSON list '[1,3]'; '', '{}' and '[]' are
    the empty set."""
    text = text.strip()
    if text in ("{}", "[]", ""):
        return 0
    if text.startswith("{") and text.endswith("}"):
        items = [t for t in text[1:-1].split(",") if t.strip()]
        return mask_from_coords((parse_coordinate(t) for t in items), m)
    if text.startswith("["):
        return mask_from_coords(json.loads(text), m)
    return mask_from_coords((parse_coordinate(t) for t in text.split(",") if t.strip()), m)


def format_subset(mask: int) -> str:
    """Brace notation for a bitmask, e.g. '{1,3}'."""
    return "{" + ",".join(str(c) for c in coords_from_mask(mask)) + "}"


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

    The masks may come in any order and with repeats.  `table` is the
    family's read-only boolean table over the 2^m subsets, and `members`
    lists it by (cardinality, numeric value): one family compares and
    hashes equal however given, and derived artifacts are reproducible.
    """

    m: int
    members: tuple[int, ...]
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_dim(self.m)
        table = _table(list(self.members), self.m)
        if table is None:
            raise ValueError("family is not upward-closed or contains the empty subset")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        masks = np.flatnonzero(table)
        order = np.argsort(np.bitwise_count(masks), kind="stable")
        object.__setattr__(self, "members", tuple(masks[order].tolist()))

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
    return MonotoneFamily(m, np.flatnonzero(table).tolist())


def family_for_known_margins(V: int, m: int) -> MonotoneFamily:
    """The family {M} united with {M minus {u} : u not in V}.

    This is the index family of the limiting covariance of the empirical
    process with the margins in V known.  V = M gives {M}; V = empty gives
    {M} plus all subsets of size m-1.
    """
    _check_dim(m)
    check_subset(V, m)
    top = full_mask(m)
    return MonotoneFamily(m, [top] + [top & ~(1 << j) for j in range(m) if not V >> j & 1])


def all_nonempty_family(m: int) -> MonotoneFamily:
    """The family of all nonempty subsets (Brownian-pillow boundary set)."""
    _check_dim(m)
    return MonotoneFamily(m, range(1, full_mask(m) + 1))


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
    families = [MonotoneFamily(m, np.flatnonzero(t).tolist()) for t in tables if not t[0]]
    families.sort(key=lambda f: (len(f), f.members))
    return families


def family_from_json(spec, m: int) -> MonotoneFamily:
    """Family from a JSON array-of-arrays of 1-based coordinates."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, (list, tuple)) or not all(
            isinstance(item, (list, tuple)) for item in spec):
        raise ValueError(f"a family is an array of arrays of coordinates, got {echoed(spec)}")
    return MonotoneFamily(m, [mask_from_coords(item, m) for item in spec])


def subsets_of_size(m: int, k: int):
    """All bitmasks of subsets of {1..m} with exactly k elements."""
    for combo in combinations(range(m), k):
        yield sum(1 << j for j in combo)
