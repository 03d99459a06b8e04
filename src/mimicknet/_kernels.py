"""Exhaustive cut enumeration over side-assignment masks.

The brute-force oracle evaluates the cut value of every assignment of the
non-terminal vertices to the two sides of a bipartition (up to 2**22
assignments).  With costs scaled to a common denominator the values are
integers: bit ``j`` set (higher bits still 0) moves the value by a fixed
step minus twice the cost to each lower neighbour that is already set.

One kernel, :func:`blocks`, yields the values one cache-sized block at a
time.  A mask is ``hi << BLOCK_BITS | lo``.  The block for ``hi = 0`` is
built by prefix doubling over the low bits; the high parts are then
walked in Gray-code order.  Flipping high bit ``b`` adds one precomputed
vector to the block (minus twice ``b``'s cost to each set low neighbour)
and one number to a running offset (``b``'s step minus twice its cost to
each set high neighbour), so each move is a single in-place vector add.
:func:`minimum` reduces each block as it is made, so the oracle never
holds all 2**p values; :func:`cut_values` writes the blocks into one
natural-order array.  The kernel runs on int64 when the scaled costs sum
below ``INT64_SAFE_LIMIT`` and on Python integers (``dtype=object``)
otherwise, by the same code.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Sum of all scaled costs must stay below this for the int64 dtype.
INT64_SAFE_LIMIT = 1 << 62

# Low bits per block: 2**14 int64 values (128 KiB) stay in cache.
BLOCK_BITS = 14

# One kernel; the name stays for run metadata that records it.
kernel_backend = "numpy"


def blocks(n_masks: int, base: int, one_bit, one_flip, one_cost, two_a, two_b, two_cost) -> Iterator[tuple[int, np.ndarray, int]]:
    """Cut values of the side assignments ``0..n_masks-1``, one block at a
    time: yields ``(start, block, offset)`` where ``block[i] + offset`` is
    the value of mask ``start + i``.  Blocks come in Gray-code order of
    ``start >> BLOCK_BITS``, and the same array is updated in place between
    yields.

    ``one_*`` describe edges with exactly one non-terminal endpoint (bit
    position, side of the terminal end, scaled cost); ``two_*`` describe
    edges between two distinct non-terminals.  ``base`` carries the
    terminal-terminal crossing edges.  Blocks are int64 when the total
    scaled cost fits, else object arrays of Python integers.
    """
    p = int(n_masks).bit_length() - 1
    low = min(p, BLOCK_BITS)
    step = [0] * p
    lower: list[dict[int, int]] = [{} for _ in range(p)]
    v0 = total = int(base)
    for bit, flip, cost in zip(one_bit, one_flip, one_cost):
        cost = int(cost)
        total += cost
        if flip:
            v0 += cost
            step[int(bit)] -= cost
        else:
            step[int(bit)] += cost
    for a, b, cost in zip(two_a, two_b, two_cost):
        a, b = sorted((int(a), int(b)))
        cost = int(cost)
        total += cost
        step[a] += cost
        step[b] += cost
        lower[b][a] = lower[b].get(a, 0) + cost

    # The first block (high part 0) by prefix doubling over the low bits.
    # An entry only ever holds its final value, in [0, total], plus twice
    # the cost to lower neighbours not yet subtracted: below 2 * total.
    dtype = np.int64 if total < INT64_SAFE_LIMIT else object
    block = np.empty(1 << low, dtype=dtype)
    block[0] = v0
    for j in range(low):
        half = 1 << j
        blk = block[half : 2 * half]
        blk[:] = block[:half] + step[j]
        for a, w in lower[j].items():
            blk.reshape(-1, 2 << a)[:, 1 << a :] -= 2 * w
    offset = 0
    yield 0, block, offset

    # Setting high bit b changes the value of mask hi << low | lo by
    # cross[b][lo] (minus twice the cost to b's set low neighbours), which
    # goes into the block, plus step[b] minus twice the cost to its set
    # high neighbours, which depends on hi alone and goes into the offset.
    # So the offset is value(0, hi) - value(0, 0), in [-total, total], and
    # every block entry, held or added to, lies in [-total, 2 * total],
    # below 2**63 on the int64 dtype.
    cross, high_nbrs = [], []
    for b in range(low, p):
        vec = np.zeros(1 << low, dtype=dtype)
        nbrs: dict[int, int] = {}
        for a, w in lower[b].items():
            if a < low:
                vec.reshape(-1, 2 << a)[:, 1 << a :] -= 2 * w
            else:
                nbrs[a] = w
        for c in range(b + 1, p):
            if b in lower[c]:
                nbrs[c] = lower[c][b]
        cross.append(vec)
        high_nbrs.append(nbrs)
    hi = 0
    for i in range(1, 1 << (p - low)):
        h = (i & -i).bit_length() - 1
        flip = 1 << h
        delta = step[low + h] - 2 * sum(w for c, w in high_nbrs[h].items() if hi >> (c - low) & 1)
        if hi & flip:
            block -= cross[h]
            offset -= delta
        else:
            block += cross[h]
            offset += delta
        hi ^= flip
        yield hi << low, block, offset


def minimum(n_masks: int, base: int, *edges) -> tuple[int, list[int], int | None]:
    """Smallest cut value, every mask attaining it, and the smallest value
    above it (None when all values are equal), from :func:`blocks` with
    the same arguments, reducing each block as it is made."""
    vmin = second = None
    masks: list[int] = []
    for start, block, offset in blocks(n_masks, base, *edges):
        raw = block.min()
        bmin = int(raw) + offset
        if vmin is not None and bmin > vmin:
            second = bmin if second is None else min(second, bmin)
            continue
        if vmin is None or bmin < vmin:
            vmin, second, masks = bmin, vmin, []
        tied = block == raw
        masks.extend((start + np.flatnonzero(tied)).tolist())
        above = block[~tied]
        if above.size:
            amin = int(above.min()) + offset
            second = amin if second is None else min(second, amin)
    return vmin, masks, second


def cut_values(n_masks: int, base: int, one_bit, one_flip, one_cost, two_a, two_b, two_cost) -> np.ndarray:
    """Cut value of every non-terminal side assignment ``0..n_masks-1``, in
    mask order: the blocks of :func:`blocks` written at their offsets."""
    values = None
    for start, block, offset in blocks(n_masks, base, one_bit, one_flip, one_cost, two_a, two_b, two_cost):
        if values is None:
            values = np.empty(n_masks, dtype=block.dtype)
        np.add(block, offset, out=values[start : start + block.size])
    return values
