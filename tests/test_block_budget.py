"""The one block budget: `quadrature.blocks` and the row blocks of
`GreenKernel.cross`."""

import tracemalloc

import numpy as np
import pytest

from cubegreen import quadrature
from cubegreen.families import (
    all_nonempty_family,
    empty_family,
    family_for_known_margins,
)
from cubegreen.kernel import green_kernel
from cubegreen.quadrature import blocks

RNG = np.random.default_rng(20261018)


def _spans(slices):
    return [(s.start, s.stop) for s in slices]


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count, item_bytes, want", [
    (0, 8, []),                                   # no items, no slices
    (6, 8, [(0, 3), (3, 6)]),                     # an exact multiple
    (7, 8, [(0, 3), (3, 6), (6, 7)]),             # a short last slice
    (3, 25, [(0, 1), (1, 2), (2, 3)]),            # an item above the budget
    (2, 24, [(0, 1), (1, 2)]),                    # an item of exactly the budget
    (4, 0, [(0, 4)]),                             # an item of no bytes
])
def test_blocks_under_a_small_budget(monkeypatch, count, item_bytes, want):
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 24)
    assert _spans(blocks(count, item_bytes)) == want


# ---------------------------------------------------------------------------
# GreenKernel.cross
# ---------------------------------------------------------------------------

def _kernels(m):
    full = (1 << m) - 1
    return [green_kernel(f) for f in (
        all_nonempty_family(m), empty_family(m), family_for_known_margins(0b1, m),
        family_for_known_margins(full ^ 0b1, m))]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cross_across_real_blocks_equals_rows(m):
    # 3000 columns: 8 * 3000 * m bytes per row, so 5, 3 or 2 rows per block
    # at the default budget, and 5 to 12 blocks for 23 rows
    A, B = RNG.random((23, m)), RNG.random((3000, m))
    assert len(blocks(len(A), 8 * len(B) * m)) >= 3
    for k in _kernels(m):
        want = np.array([k.values(a, B) for a in A])
        assert np.array_equal(k.cross(A, B), want)
        assert np.array_equal(k.cross(B[:7], A), want[:, :7].T)


def test_cross_with_no_columns():
    k = green_kernel(all_nonempty_family(3))
    assert k.cross(RNG.random((4, 3)), np.empty((0, 3))).shape == (4, 0)


def test_cross_peak_memory_is_its_output_and_a_block():
    k = green_kernel(family_for_known_margins(0b1, 3))
    P = RNG.random((1024, 3))
    k.cross(P[:2], P)  # warm up
    tracemalloc.start()
    try:
        out = k.cross(P, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a row block's factor arrays take about 256 KiB; the rest is slack
    assert peak - out.nbytes <= 4 * 2 ** 20

