"""Reference oracle: the full-array kernel and reduction that the blocked
kernel replaced.  It holds all 2**p values at once."""

import numpy as np


def full_cut_values(n_masks, base, one_bit, one_flip, one_cost, two_a, two_b, two_cost):
    """Cut value of every mask by prefix doubling over all p bits at once."""
    p = int(n_masks).bit_length() - 1
    step = [0] * p
    lower = [{} for _ in range(p)]
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
    values = np.empty(1 << p, dtype=np.int64 if total < 1 << 62 else object)
    values[0] = v0
    for j in range(p):
        half = 1 << j
        blk = values[half : 2 * half]
        blk[:] = values[:half] + step[j]
        for a, w in lower[j].items():
            blk.reshape(-1, 2 << a)[:, 1 << a :] -= 2 * w
    return values


def full_minimum(values):
    """(minimum, its masks in order, smallest value above it or None)."""
    vmin = int(values.min())
    above = values[values > vmin]
    return vmin, np.flatnonzero(values == vmin).tolist(), int(above.min()) if above.size else None
