"""Exact rank of the cutset-edge incidence matrix, and cost perturbation.

The incidence matrix is ``TerminalCuts.cut_matrix``: row ``i`` marks the
edges of the canonical minimum cut of the ``i``-th bipartition (canonical
enumeration order), the table's values are the companion vector, and
``A . c = values`` is the table's certificate (``TerminalCuts.certify``).
:func:`build_incidence` is a uint8 view of that table.  The exact rank
comes from a modular elimination whose answer is certified over the
integers (see ``_pivot_columns``); it takes the bool matrix as it is.
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

# Primes below 2**26 keep a product of two residues below 2**52, so int64
# holds 2048 unreduced row updates and float64 holds the product exactly.
_FIRST_PRIME = (1 << 26) - 5
# entries per temporary array in the elimination and the check, so the
# peak memory stays a small multiple of the matrix
_BLOCK = 1 << 14


def _primes():
    """The primes between 2**25 and 2**26, descending, by trial division."""
    return (n for n in range(_FIRST_PRIME, 1 << 25, -2) if np.all(n % np.arange(3, isqrt(n) + 1, 2)))


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


def _rref_mod(a: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray]:
    """Pivot columns, non-pivot columns, and the nonzero rows of the reduced
    row echelon form of ``a`` modulo the prime ``p`` restricted to its
    non-pivot columns."""
    # int64 entries, reduced mod p only where read: the pivot column, the
    # pivot row and the result.  A pivot subtracts a product of residues,
    # at most (p-1)**2, from each other row, so the trailing block is
    # reduced every ``budget`` pivots to keep every entry above -2**63.
    m = (a % p if a.dtype == object else a).astype(np.int64)
    m %= p
    budget = ((1 << 63) - p) // (p - 1) ** 2
    n_rows, n_cols = m.shape
    pivots: list[int] = []
    for col in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        m[:, col] %= p
        nonzero = np.flatnonzero(m[r:, col])
        if nonzero.size == 0:
            continue
        if nonzero[0]:
            m[[r, r + nonzero[0]]] = m[[r + nonzero[0], r]]
        # rows at and below r are zero left of col, so only col.. changes
        pivot_row = m[r, col:] % p * pow(int(m[r, col]), -1, p) % p
        m[r, col:] = pivot_row
        others = np.flatnonzero(m[:, col])
        others = others[others != r]
        if r and r % budget == 0:
            m[:, col + 1 :] %= p
        step = max(1, _BLOCK // (n_cols - col))
        for start in range(0, others.size, step):
            rows = others[start : start + step]
            m[rows, col:] -= m[rows, col, None] * pivot_row
        pivots.append(col)
    free = sorted(set(range(n_cols)) - set(pivots))
    # int32 residues, half the memory of int64, gathered in row blocks
    residues = np.empty((len(pivots), len(free)), dtype=np.int32)
    step = max(1, _BLOCK // n_cols)
    for start in range(0, len(pivots), step):
        residues[start : start + step] = m[start : min(start + step, len(pivots)), free] % p
    return pivots, free, residues


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


def _prime_budget(a: np.ndarray) -> int:
    """Primes after which the certificate must have passed.  Every RREF
    entry is a ratio of minors of ``a``, each at most the Hadamard bound
    H = prod max(1, |column|).  Primes above 2**25 that change the pivots
    divide one such minor, so there are at most log2(H)/25 of them, and
    reconstruction is exact once the good primes multiply past 2 H**2."""
    sq = (a.astype(object) ** 2).sum(axis=0)
    bits = sum(log2(s) / 2 for s in sq.tolist() if s > 1)
    return 3 + int(3 * bits / 25)


def _pivot_columns(rows: Sequence[Sequence[int]]) -> list[int]:
    """Pivot columns of the rational RREF: the lexicographically first set
    of linearly independent columns.

    The RREF is computed modulo a 26-bit prime.  Its pivot minor is nonzero
    mod p, hence nonzero over the integers, so the pivot columns P are
    independent.  Its non-pivot columns N are lifted to rationals Z/d and
    ``A[:, N] * d == A[:, P] @ Z`` is checked exactly; lifting keeps the
    RREF's zeros, so each non-pivot column is certified to lie in the span
    of the pivots to its left.  Together this proves that the rank is |P|
    and that P is the greedy left-to-right basis.  If lifting or the check
    fails, further primes with the best pivots (highest rank, then
    lexicographically first) are combined by CRT until it passes.
    """
    a = _integer_matrix(rows)
    if a.ndim != 2 or 0 in a.shape:
        return []
    best = residues = modulus = budget = None
    for tried, p in enumerate(_primes(), start=1):
        pivots, free, rref_free = _rref_mod(a, p)
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            best, residues, modulus = pivots, rref_free, p
        elif pivots == best:
            # CRT: the residues mod modulus * p that agree with both
            old = residues.astype(object)
            step = (rref_free.astype(object) - old) * pow(modulus, -1, p) % p
            residues, modulus = old + modulus * step, modulus * p
        if pivots == best and _certify(a, best, free, residues, modulus):
            return best
        budget = budget or _prime_budget(a)
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
