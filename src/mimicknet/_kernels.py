"""Exhaustive cut enumeration over side-assignment masks.

The brute-force oracle evaluates the cut value of every assignment of the
non-terminal vertices to the two sides of a bipartition (up to 2**22
assignments).  With costs scaled to a common denominator the values are
integers: bit ``j`` set (higher bits still 0) moves the value by a fixed
step minus twice the cost to each lower neighbour that is already set.

One kernel, :func:`blocks`, yields the values one cache-sized block at a
time, on int32 when the scaled costs sum below ``INT32_SAFE_LIMIT``
(2**30), so that every entry it holds, in [-total, 2 * total], fits, and
on int64 otherwise.  A mask is ``hi << BLOCK_BITS | lo``.  The block for
``hi = 0`` is built by prefix doubling over the low bits; the high parts
are then walked in Gray-code order.  Flipping high bit ``b`` adds one
precomputed vector to the block (minus twice ``b``'s cost to each set low
neighbour) and one number to a running offset (``b``'s step minus twice
its cost to each set high neighbour), so each move is a single in-place
vector add.

Scaled costs of any size run on int64 limbs.  When the costs sum below
``INT64_SAFE_LIMIT`` (2**62) there is one limb, the costs themselves, and
its sweep is the only one that may run on int32.  Otherwise every cost
is split into L digits of B bits, B chosen so that each limb's total
stays below 2**61, and one int64 :func:`blocks` pass runs per limb (a
top limb of small total too: the carries need int64), in lockstep: all
passes walk the same Gray-code order.  Each block's carries are then propagated exactly from the low limb up, so
every value is held as digits with the lower ones in [0, 2**B) and
lexicographic order is numeric order.  :func:`minimum` reduces each block
as it is made, filtering digit by digit from the top limb down, so the
oracle never holds all 2**p values; :func:`cut_values` writes the blocks
into one natural-order array and composes Python integers only for its
output when there is more than one limb.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Sum of all scaled costs must stay below this for one int64 limb.
INT64_SAFE_LIMIT = 1 << 62

# A one-limb sweep whose scaled costs sum below this runs on int32.
INT32_SAFE_LIMIT = 1 << 30

# Low bits per block: 2**14 values (64 KiB on int32, 128 KiB on int64)
# stay in cache.
BLOCK_BITS = 14

# One kernel; the name stays for run metadata that records it.
kernel_backend = "numpy"


def blocks(n_masks: int, base: int, one_bit, one_flip, one_cost, two_a, two_b, two_cost, narrow: bool = True) -> Iterator[tuple[int, np.ndarray, int]]:
    """Cut values of the side assignments ``0..n_masks-1``, one block at a
    time: yields ``(start, block, offset)`` where ``block[i] + offset``
    is the value of mask ``start + i``.  Blocks come in Gray-code order of
    ``start >> BLOCK_BITS``, and the same array is updated in place between
    yields.

    ``one_*`` describe edges with exactly one non-terminal endpoint (bit
    position, side of the terminal end, scaled cost); ``two_*`` describe
    edges between two distinct non-terminals.  ``base`` carries the
    terminal-terminal crossing edges.  The total scaled cost must be below
    ``INT64_SAFE_LIMIT``; :func:`minimum` and :func:`cut_values` split
    larger costs into limbs that are.  The blocks are int32 when ``narrow``
    and the total is below ``INT32_SAFE_LIMIT``, else int64.
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
    if total >= INT64_SAFE_LIMIT:
        raise OverflowError(f"scaled total {total} is not below INT64_SAFE_LIMIT; split it into limbs")

    dtype = np.int32 if narrow and total < INT32_SAFE_LIMIT else np.int64

    # The first block (high part 0) by prefix doubling over the low bits.
    # An entry only ever holds its final value, in [0, total], plus twice
    # the cost to lower neighbours not yet subtracted: below 2 * total.
    block = np.empty(1 << low, dtype=dtype)
    block[0] = v0
    for j in range(low):
        half = 1 << j
        blk = block[half : 2 * half]
        np.add(block[:half], step[j], out=blk)
        for a, w in lower[j].items():
            blk.reshape(-1, 2 << a)[:, 1 << a :] -= 2 * w
    offset = 0
    yield 0, block, offset

    # Setting high bit b changes the value of mask hi << low | lo by
    # cross[b][lo] (minus twice the cost to b's set low neighbours), which
    # goes into the block, plus step[b] minus twice the cost to its set
    # high neighbours, which depends on hi alone and goes into the offset.
    # So the offset is value(0, hi) - value(0, 0), in [-total, total], and
    # every block entry, held or added to, lies in [-total, 2 * total]:
    # below 2**63, and below 2**31 when the total is below 2**30.  The
    # vectors share one array: one allocation per sweep, not one per bit.
    cross, high_nbrs = np.zeros((p - low, 1 << low), dtype=dtype), []
    for b in range(low, p):
        vec = cross[b - low]
        nbrs: dict[int, int] = {}
        for a, w in lower[b].items():
            if a < low:
                vec.reshape(-1, 2 << a)[:, 1 << a :] -= 2 * w
            else:
                nbrs[a] = w
        for c in range(b + 1, p):
            if b in lower[c]:
                nbrs[c] = lower[c][b]
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


def limb_bits(terms: int) -> int:
    """Digit width B for a table of ``terms`` scaled costs, the base
    included: each limb's total is then below terms * 2**B < 2**61."""
    return 61 - terms.bit_length()


def split(base: int, one_cost, two_cost) -> tuple[int, list[tuple[int, list[int], list[int]]]]:
    """``(B, limbs)``: the base and costs (Python integers) as B-bit
    digits, ``limbs[l]`` holding digit ``l`` of each, low limb first.  One
    limb, the costs as they are (B = 0), when their total is below
    ``INT64_SAFE_LIMIT``."""
    total = base + sum(one_cost) + sum(two_cost)
    if total < INT64_SAFE_LIMIT:
        return 0, [(base, one_cost, two_cost)]
    bits = limb_bits(1 + len(one_cost) + len(two_cost))
    mask = (1 << bits) - 1
    # no cost has more bits than the total
    shifts = range(0, total.bit_length(), bits)
    return bits, [(base >> s & mask, [c >> s & mask for c in one_cost], [c >> s & mask for c in two_cost]) for s in shifts]


def _digit_blocks(n_masks: int, bits: int, limbs, one_bit, one_flip, two_a, two_b) -> Iterator[tuple[int, list[np.ndarray], int]]:
    """One :func:`blocks` pass per limb of :func:`split`, in lockstep:
    yields ``(start, digits, offset)``, the value of mask ``start + i``
    being the base-2**B number of ``digits[..][i]`` (top limb first) plus
    ``offset``.  With one limb the digits are the block itself; with more
    they are normalized (lower digits in [0, 2**B)) into arrays reused
    between yields, and the offset is 0.  Only a one-limb sweep may run on
    int32."""
    narrow = len(limbs) == 1
    sweeps = [blocks(n_masks, b, one_bit, one_flip, oc, two_a, two_b, tc, narrow) for b, oc, tc in limbs]
    if len(sweeps) == 1:
        for start, block, offset in sweeps[0]:
            yield start, [block], offset
        return
    mask = (1 << bits) - 1
    digits = carry = None
    for parts in zip(*sweeps):
        if digits is None:
            digits = [np.empty_like(block) for _, block, _ in parts]
            carry = np.empty_like(digits[0])
            top_first = digits[::-1]
        # a limb's value is its cut value, in [0, 2**61); adding the carry
        # from below keeps it under 2**62
        for level, (start, block, offset) in enumerate(parts):
            d = digits[level]
            np.add(block, offset, out=d)
            if level:
                d += carry
            if level < len(parts) - 1:
                np.right_shift(d, bits, out=carry)
                d &= mask
        yield start, top_first, 0


def _compose(digits, bits: int) -> int:
    """The number whose base-2**bits digits, top first, are ``digits``."""
    value = 0
    for d in digits:
        value = (value << bits) + d
    return value


def _least(digits: list[np.ndarray], level: int, sel: np.ndarray) -> list[int]:
    """Digits from ``level`` down of the least value among the entries that
    ``sel`` (a boolean mask or an index array) selects: the least digit at
    each level among those tied on every digit above."""
    out = []
    for d in digits[level:]:
        sub = d[sel]
        out.append(int(sub.min()))
        if level + len(out) < len(digits):
            sel = (np.flatnonzero(sel) if sel.dtype == bool else sel)[sub == out[-1]]
    return out


def minimum(n_masks: int, base: int, one_bit, one_flip, one_cost, two_a, two_b, two_cost) -> tuple[int, list[int], int | None]:
    """Smallest cut value, every mask attaining it, and the smallest value
    above it (None when all values are equal), for :func:`blocks`' edge
    tables at any cost size: each block of the limbs of :func:`split` is
    reduced as it is made, digit by digit from the top limb down."""
    bits, limbs = split(base, one_cost, two_cost)
    # values as digit tuples, top limb first: tuple order is numeric order
    vmin = second = None
    masks: list[int] = []
    for start, digits, offset in _digit_blocks(n_masks, bits, limbs, one_bit, one_flip, two_a, two_b):
        top = digits[0]
        raw = top.min()
        lead = int(raw) + offset
        if vmin is not None and lead > vmin[0]:
            # every value here is above vmin, so only the least can be second
            if second is None or lead <= second[0]:
                bmin = (lead, *_least(digits, 1, top == raw)) if len(digits) > 1 else (lead,)
                second = bmin if second is None else min(second, bmin)
            continue
        tied = top == raw
        at = np.flatnonzero(tied)
        # the deepest level where some candidate is above the least: the
        # least of those is the block's second value
        above = (0, None) if at.size < top.size else None
        least = [lead]
        for level in range(1, len(digits)):
            sub = digits[level][at]
            m = sub.min()
            tie = sub == m
            if not tie.all():
                above = level, at[~tie]
            at = at[tie]
            least.append(int(m))
        bmin = tuple(least)
        if vmin is None or bmin < vmin:
            vmin, second, masks = bmin, vmin, []
        elif bmin > vmin:
            second = bmin if second is None else min(second, bmin)
            continue
        masks.extend((start + at).tolist())
        if above is not None:
            level, sel = above
            rest = _least(digits, level, ~tied if sel is None else sel)
            if level == 0:
                rest[0] += offset
            bsecond = (*bmin[:level], *rest)
            second = bsecond if second is None else min(second, bsecond)
    return _compose(vmin, bits), masks, None if second is None else _compose(second, bits)


def cut_values(n_masks: int, base: int, one_bit, one_flip, one_cost, two_a, two_b, two_cost) -> np.ndarray:
    """Cut value of every non-terminal side assignment ``0..n_masks-1``, in
    mask order: int64 (an int32 sweep too) when the scaled costs sum below
    ``INT64_SAFE_LIMIT``, else Python integers (``dtype=object``) composed
    from the limbs."""
    bits, limbs = split(base, one_cost, two_cost)
    columns = None
    for start, digits, offset in _digit_blocks(n_masks, bits, limbs, one_bit, one_flip, two_a, two_b):
        if columns is None:
            columns = [np.empty(n_masks, dtype=np.int64) for _ in digits]
        at = slice(start, start + digits[0].size)
        np.add(digits[0], offset, out=columns[0][at])
        for column, d in zip(columns[1:], digits[1:]):
            column[at] = d
    if len(columns) == 1:
        return columns[0]
    values = columns[0].astype(object)
    for column in columns[1:]:
        values = (values << bits) + column.astype(object)
    return values
