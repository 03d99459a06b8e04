"""Exact rank of the cutset-edge incidence matrix, and cost perturbation.

The incidence matrix is ``TerminalCuts.cut_matrix``: row ``i`` marks the
edges of the canonical minimum cut of the ``i``-th bipartition (canonical
enumeration order), the table's values are the companion vector, and
``A . c = values`` is the table's certificate (``TerminalCuts.certify``).
:func:`build_incidence` is a uint8 view of that table.  The exact rank
comes from a modular elimination whose answer is certified over the
integers (see ``_pivot_columns``); it takes the bool matrix as it is.
The elimination runs modulo primes below 2**21, in column panels whose
bulk is exact float64 matrix products (``_rref_mod``), on A itself when
it is wide, and on its Gram matrix A^T A when it is a tall bool matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, log2
from typing import Sequence

import numpy as np

from .errors import InternalError, InvalidParameterError, NonUniqueCutsError, PerturbationFailedError
from . import mincut
from .mimick import TerminalCuts, _table, terminal_cuts
from .network import Network, enumerate_bipartitions

DEFAULT_RESOLUTION = 1 << 40
MAX_RETRIES = 4


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """0/1 matrix of shape (2**(k-1) - 1, |E|) plus exact cut values."""

    k: int
    bits: np.ndarray
    values: tuple[Fraction, ...]

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]


def build_incidence(net: Network) -> IncidenceMatrix:
    """A view of ``terminal_cuts(net)``: its cut matrix as uint8, and its
    values.  The table has certified ``A . c = values`` exactly."""
    cuts = terminal_cuts(net)
    return IncidenceMatrix(cuts.k, cuts.cut_matrix.view(np.uint8), cuts.values)


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix (certified modular elimination)."""
    return len(_pivot_columns(rows))


# --- certified modular elimination -------------------------------------------

# Primes below 2**21 keep a sum of _PANEL products of two residues, each
# reduced below 2**20 in magnitude, below 2**46, so a panel's float64
# products are exact, and entries take 64 panels of them before they must
# be reduced to stay below 2**52.
_FIRST_PRIME = (1 << 21) - 9
# columns per panel of the elimination
_PANEL = 64
# entries per temporary array in the elimination and the check, so the
# peak memory stays a small multiple of the matrix
_BLOCK = 1 << 14


def _primes():
    """The primes between 2**20 and 2**21, descending, by trial division."""
    return (n for n in range(_FIRST_PRIME, 1 << 20, -2) if np.all(n % np.arange(3, isqrt(n) + 1, 2)))


def _integer_matrix(rows) -> np.ndarray:
    """``rows`` as a 2-D integer array: an ndarray of bool or integer dtype
    as it is when int64 holds it, else int64, or Python integers (object)
    when some entry does not fit.  Anything else is InvalidParameterError."""
    a = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    if a.dtype != object:
        if a.dtype.kind not in "biu":
            raise InvalidParameterError(f"matrix dtype {a.dtype} is not integer")
        return a if np.can_cast(a.dtype, np.int64) else a.astype(object)
    if not all(issubclass(t, int) for t in set(map(type, a.flat))):
        raise InvalidParameterError("matrix entries must be Python integers")
    try:
        return a.astype(np.int64)
    except OverflowError:
        return a


def _gram(a: np.ndarray) -> np.ndarray:
    """A^T A of a bool matrix, as int64: float64 products of row blocks,
    exact as every partial sum counts rows."""
    n_rows, n_cols = a.shape
    g = np.zeros((n_cols, n_cols))
    step = max(1, _BLOCK // n_cols)
    for s in range(0, n_rows, step):
        block = a[s : s + step].astype(np.float64)
        g += block.T @ block
    return g.astype(np.int64)


def _balanced(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """``x`` mod ``p`` for float64 integers below 2**52 in magnitude, as
    float64 integers of magnitude at most p // 2 + 2, written to ``out``
    when given (which may be ``x``): x / p is rounded to within 1/p, so
    the nearest integer times p is exact and within p/2 + 1 of x."""
    multiple = np.rint(x * (1 / p))
    multiple *= p
    return np.subtract(x, multiple, out=out)


def _panel(block: np.ndarray, p: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Gauss-Jordan elimination modulo ``p`` of one panel of the rows that
    are not yet pivots (float64 integers below 2**52), on int64 residues.
    Returns the new pivots as (row, column) offsets in column order, and
    K^-1 in float64 with entries of magnitude below p/2, where K is the
    pivot rows' block in the pivot columns.

    A unit column is appended for each new pivot row.  Until then no other
    row has taken a multiple of it, so the appended columns hold each
    row's coefficients on the pivot rows as the panel found them, and on
    the pivot rows they end as K^-1.  Entries are reduced where they are
    read: a row takes at most one product of residues per pivot, and the
    float64 budget of :func:`_rref_mod` already keeps ``_PANEL`` such
    products below 2**54, far inside int64."""
    n, w = block.shape
    e = np.zeros((n, w + min(n, w)), dtype=np.int64)
    e[:, :w] = block
    e[:, :w] %= p
    free = np.ones(n, dtype=bool)
    found: list[tuple[int, int]] = []
    for j in range(w):
        if len(found) == n:
            break
        col = e[:, j] % p
        hits = col.nonzero()[0]
        candidates = hits[free[hits]]
        if candidates.size == 0:
            continue
        # the free rows are zero mod p left of j, so only j.. changes
        i = candidates[0]
        e[i, w + len(found)] = 1
        pivot_row = e[i, j:] % p * pow(int(col[i]), -1, p) % p
        e[i, j:] = pivot_row
        others = hits[hits != i]
        step = max(1, _BLOCK // pivot_row.size)
        for s in range(0, others.size, step):
            rows = others[s : s + step]
            e[rows, j:] -= col[rows, None] * pivot_row
        found.append((int(i), j))
        free[i] = False
    k_inv = e[[i for i, _ in found], w : w + len(found)] % p
    return found, np.where(k_inv > p // 2, k_inv - p, k_inv).astype(np.float64)


def _rref_mod(a: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray]:
    """Pivot columns, non-pivot columns, and the nonzero rows of the reduced
    row echelon form of ``a`` modulo the prime ``p`` restricted to its
    non-pivot columns.

    A column-panel Gauss-Jordan elimination on float64 integers, whose
    bulk is matrix products (the FFLAS-FFPACK design: Dumas, Giorgi and
    Pernet, ACM TOMS 2008).  The matrix is held as one array per panel of
    ``_PANEL`` columns.  The rows above r are the pivot rows found so far,
    in pivot order, and the rows from r on are zero mod p left of the
    panel.  Each panel finds its new pivots and K^-1 on those rows alone
    (:func:`_panel`).  The new pivot rows move to rows r.. and become
    Pn = K^-1 B, where B is their entries from the panel on; every other
    row x takes x -= C Pn, where C is x's entries in the new pivot columns
    when the panel starts: one float64 product per panel from this one
    on.  Each factor is reduced to magnitude at most h = p // 2 + 2
    (:func:`_balanced`), so an entry of a product is a sum of at most
    ``_PANEL`` terms of magnitude h**2, below 2**46, and exact.  Entries
    are left unreduced until ``budget`` panels of products would take them
    past 2**52.  Pivots are decided on int64 residues alone, so they are
    the column rank profile mod p (Jeannerod, Pernet and Storjohann, J.
    Symbolic Comput. 2013)."""
    n_rows, n_cols = a.shape
    h = p // 2 + 2
    # panels of products that fit on entries below p in magnitude
    budget = ((1 << 52) - p) // (_PANEL * h * h)
    if budget < 1:
        raise InvalidParameterError(f"the prime {p} is too large for exact float64 panels")
    panels = []
    for c0 in range(0, n_cols, _PANEL):
        block = a[:, c0 : c0 + _PANEL]
        # a bool entry is its own residue
        if a.dtype != bool:
            block = (block if a.dtype == object else block.astype(np.int64)) % p
        panels.append(block.astype(np.float64))
    pivots: list[int] = []
    # panels of products since the entries from the panel on were reduced
    stale = 0
    for t, panel in enumerate(panels):
        r = len(pivots)
        if r == n_rows:
            break
        found, k_inv = _panel(panel[r:], p)
        if not found:
            continue
        reduce = stale == budget
        stale = 1 if reduce else stale + 1
        rows = [r + i for i, _ in found]
        cols = [j for _, j in found]
        new = slice(r, r + len(rows))
        # the new pivot rows move to r.., in pivot order, and the rows they
        # displace take their places; all of them are zero mod p left of
        # this panel, so only the panels from it on move
        displaced = sorted(set(range(new.start, new.stop)) - set(rows))
        src, dst = rows + displaced, [*range(new.start, new.stop), *(i for i in rows if i >= new.stop)]
        c = _balanced(panel[:, cols], p)
        c[dst] = c[src]
        for block in panels[t:]:
            if reduce:
                _balanced(block, p, out=block)
            block[dst] = block[src]
            pn = _balanced(k_inv @ _balanced(block[new], p), p)
            block -= c @ pn
            block[new] = pn
        pivots += [t * _PANEL + j for j in cols]
    # int32 residues, read a panel at a time; each panel is freed once
    # read, so the float64 panels and the residues are never held whole
    # at once
    r, is_pivot = len(pivots), set(pivots)
    free: list[int] = []
    parts = [np.empty((r, 0), dtype=np.int32)]
    for t in range(len(panels)):
        cols = [j for j in range(panels[t].shape[1]) if t * _PANEL + j not in is_pivot]
        x = _balanced(panels[t][:r, cols], p)
        x[x < 0] += p
        parts.append(x.astype(np.int32))
        free += [t * _PANEL + j for j in cols]
        panels[t] = None
    return pivots, free, np.concatenate(parts, axis=1)


def _rational(u: int, modulus: int) -> tuple[int, int] | None:
    """The fraction n/d with |n|, d <= sqrt(modulus/2) and n = u*d mod
    modulus (Wang's rational reconstruction), or None; 0 maps to 0/1."""
    bound = isqrt(modulus // 2)
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _certify(a: np.ndarray, pivots: list[int], free: list[int], residues: np.ndarray, modulus: int) -> bool:
    """Lift ``residues`` (the RREF's non-pivot columns mod ``modulus``) to
    integers Z over a common denominator d and check ``a[:, free] * d ==
    a[:, pivots] @ Z`` exactly: in float64 when every partial sum is an
    integer below 2**53, so any summation order is exact, and in Python
    integers otherwise."""
    # sorted distinct residues; np.unique would import numpy.ma, about
    # 1.3 MB of resident memory
    flat = np.sort(residues, axis=None)
    keep = np.ones(flat.size, dtype=bool)
    keep[1:] = flat[1:] != flat[:-1]
    values = flat[keep]
    fractions = [_rational(int(v), modulus) for v in values]
    if None in fractions:
        return False
    d = lcm(1, *(den for _, den in fractions))
    scaled = [num * (d // den) for num, den in fractions]
    a_max = max(int(a.max()), -int(a.min()))
    z_max = max((abs(x) for x in scaled), default=0)
    dtype = np.float64 if a_max * max(d, z_max * len(pivots)) < 1 << 53 else object
    scaled = np.array(scaled, dtype=dtype)
    a_pivots = a[:, pivots].astype(dtype)
    step = max(1, _BLOCK // a.shape[0])
    for s in range(0, len(free), step):
        z = scaled[np.searchsorted(values, residues[:, s : s + step])]
        if not np.array_equal(a[:, free[s : s + step]].astype(dtype) * d, a_pivots.dot(z)):
            return False
    return True


def _prime_budget(e: np.ndarray) -> int:
    """Primes after which the certificate must have passed, for the
    eliminated matrix ``e`` (A, or A^T A).  Every RREF entry is a ratio of
    minors of ``e``, each at most the Hadamard bound H = prod max(1,
    |column|).  A prime above 2**20 that changes the pivots or the
    residues divides one such minor, so there are at most log2(H)/20 of
    them, and reconstruction is exact once the good primes multiply past
    2 H**2.  Mod p, A^T A can lose rank where A does not (a nonzero vector
    can be self-orthogonal mod p); such a p divides a minor of A^T A, so
    the same count covers it."""
    sq = (e.astype(object) ** 2).sum(axis=0)
    bits = sum(log2(s) / 2 for s in sq.tolist() if s > 1)
    return 3 + int(3 * bits / 20)


def _pivot_columns(rows: Sequence[Sequence[int]]) -> list[int]:
    """Pivot columns of the rational RREF: the lexicographically first set
    of linearly independent columns.

    The RREF is computed modulo a prime below 2**21 (:func:`_rref_mod`),
    of A itself, or of its Gram matrix A^T A when A is a tall bool matrix:
    the float64 product is exact, as each entry counts rows, and the
    elimination then runs on columns x columns.  Over Q, A^T A has the null
    space of A, so the same row space, pivots and RREF rows.  The pivot
    minor of the eliminated matrix is nonzero mod p, hence nonzero over
    the integers, so the pivot columns P are independent in it, and so in
    A.  The RREF's non-pivot columns N are lifted to rationals Z/d and
    ``A[:, N] * d == A[:, P] @ Z`` is checked exactly on A itself; lifting
    keeps the RREF's zeros, so each non-pivot column is certified to lie
    in the span of the pivots to its left.  Together this proves that the
    rank is |P| and that P is the greedy left-to-right basis.  If lifting
    or the check fails (an unlucky prime, at which A^T A may also lose
    rank), further primes with the best pivots (highest rank, then
    lexicographically first) are combined by CRT until it passes.
    """
    a = _integer_matrix(rows)
    if a.ndim != 2 or 0 in a.shape:
        return []
    e = _gram(a) if a.dtype == bool and a.shape[0] > a.shape[1] else a
    best = residues = modulus = budget = None
    for tried, p in enumerate(_primes(), start=1):
        pivots, free, rref_free = _rref_mod(e, p)
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            best, residues, modulus = pivots, rref_free, p
        elif pivots == best:
            # CRT: the residues mod modulus * p that agree with both
            old = residues.astype(object)
            step = (rref_free.astype(object) - old) * pow(modulus, -1, p) % p
            residues, modulus = old + modulus * step, modulus * p
        if pivots == best and _certify(a, best, free, residues, modulus):
            return best
        budget = budget or _prime_budget(e)
        if tried >= budget:
            raise InternalError(f"rank certificate failed after {tried} primes")


# --- perturbation -----------------------------------------------------------


@dataclass(frozen=True)
class PerturbedNetwork:
    """A validated perturbation; ``cuts`` is the perturbed network's
    terminal-cut table, whose cut matrix equals the base network's."""

    base: Network
    network: Network
    w: tuple[Fraction, ...]
    seed: int
    gap: Fraction | None
    per_edge_bound: Fraction
    cuts: TerminalCuts


def _per_edge_bound(delta: Fraction | None, m: int) -> Fraction:
    # The stated safe range [0, 1/(delta*|E|)] only suppresses cut swaps
    # when delta >= 1 (total shift 1/delta must stay below the gap delta).
    # min(delta, 1/delta)/|E| is contained in that range for every delta > 0
    # and keeps the shift below the gap unconditionally.
    if delta is None:
        # no bipartition has a competing cutset, any perturbation is safe
        return Fraction(1, m)
    return min(delta, 1 / delta) / m


_UNSET = object()


def perturb(
    net: Network,
    seed: int,
    resolution: int = DEFAULT_RESOLUTION,
    delta=_UNSET,
) -> PerturbedNetwork:
    """Random cost perturbation that provably preserves the incidence matrix.

    Each w(e) is drawn from the grid ``{t * B / resolution : t in 0..resolution-1}``
    where B is the per-edge bound derived from the minimum cut gap (obtained
    from :func:`mincut.global_gap` unless ``delta`` is supplied).  The
    invariance of the incidence matrix is validated, not assumed;
    deterministic given ``seed``.  The gap, the base table and each
    copy's table read one reduction shape, as the copies keep ``net``'s
    ends and terminals.
    """
    if net.m == 0:
        raise NonUniqueCutsError("network has no edges to perturb")
    core = mincut._reduce(net)
    if delta is _UNSET:
        delta = mincut._min_gap(mincut._gaps(core, enumerate_bipartitions(net.k)))
    if delta is not None and delta == 0:
        raise NonUniqueCutsError("minimum terminal cuts are not unique (gap 0)")
    bound = _per_edge_bound(delta, net.m)
    base_cut = _table(core).cut_matrix
    rng = random.Random(seed)
    for _ in range(MAX_RETRIES):
        w = tuple(bound * rng.randrange(resolution) / resolution for _ in range(net.m))
        perturbed = net.with_costs([e.cost + we for e, we in zip(net.edges, w)])
        cuts = _table(mincut._Reduced(perturbed, core.shape))
        if np.array_equal(cuts.cut_matrix, base_cut):
            return PerturbedNetwork(net, perturbed, w, seed, delta, bound, cuts)
    raise PerturbationFailedError(f"validation failed after {MAX_RETRIES} resamples")
