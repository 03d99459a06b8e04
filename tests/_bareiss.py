"""Reference rank: fraction-free (Bareiss) elimination over the integers."""


def bareiss_pivot_columns(rows) -> list[int]:
    """Pivot columns of a left-to-right fraction-free (Bareiss) elimination:
    the lexicographically first set of linearly independent columns."""
    m = [list(int(x) for x in row) for row in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    pivots: list[int] = []
    rank = 0
    prev = 1
    for col in range(nc):
        if rank >= nr:
            break
        piv = next((r for r in range(rank, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        pivots.append(col)
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, nr):
            factor = m[r][col]
            if factor == 0 and pivot == prev:
                continue
            row_r, row_p = m[r], m[rank]
            for c in range(col, nc):
                row_r[c] = (row_r[c] * pivot - factor * row_p[c]) // prev
        prev = pivot
        rank += 1
    return pivots
