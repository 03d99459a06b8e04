"""Exhaustive cut enumeration over side-assignment masks.

The brute-force oracle evaluates the cut value of every assignment of the
non-terminal vertices to the two sides of a bipartition (up to 2**22
assignments).  With costs scaled to a common denominator the values are
integers, and one exact O(2**p) prefix-doubling kernel computes all of
them: bit ``j`` set (higher bits still 0) moves the value by a fixed step
minus twice the cost to each lower neighbour that is already set.  The
kernel runs on int64 when the scaled costs fit (:func:`fits_int64`) and
on Python integers (``dtype=object``) otherwise.
"""

from __future__ import annotations

import numpy as np

# Sum of all scaled costs must stay below this for the int64 dtype.
INT64_SAFE_LIMIT = 1 << 62

# One kernel; the name stays for run metadata that records it.
kernel_backend = "numpy"


def fits_int64(total_scaled_cost: int) -> bool:
    return total_scaled_cost < INT64_SAFE_LIMIT


def cut_values(n_masks: int, base: int, one_bit, one_flip, one_cost, two_a, two_b, two_cost) -> np.ndarray:
    """Cut value of every non-terminal side assignment ``0..n_masks-1``.

    ``one_*`` describe edges with exactly one non-terminal endpoint (bit
    position, side of the terminal end, scaled cost); ``two_*`` describe
    edges between two distinct non-terminals.  ``base`` carries the
    terminal-terminal crossing edges.  The result is int64 when the total
    scaled cost fits, else an object array of Python integers.
    """
    p = int(n_masks).bit_length() - 1
    base = int(base)
    step = [0] * p
    lower: list[dict[int, int]] = [{} for _ in range(p)]
    v0 = base
    total = base
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

    # int64 invariant: every value lies in [0, total], and each entry of
    # ``blk`` only ever holds its final value plus twice the cost to lower
    # neighbours not yet subtracted, so intermediates stay below
    # 2 * total < 2**63.
    dtype = np.int64 if fits_int64(total) else object
    values = np.empty(1 << p, dtype=dtype)
    values[0] = v0
    for j in range(p):
        half = 1 << j
        blk = values[half : 2 * half]
        blk[:] = values[:half] + step[j]
        for a, w in lower[j].items():
            blk.reshape(-1, 2 << a)[:, 1 << a :] -= 2 * w
    return values
