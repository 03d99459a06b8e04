"""Cutset-edge incidence matrix, exact rank, and cost perturbation.

Row ``i`` of the matrix marks the edges of the canonical minimum cut of the
``i``-th bipartition (canonical enumeration order); the companion value
vector holds the exact cut values, and ``A . c = values`` is checked at
build time.  Rank is computed fraction-free (Bareiss) over the integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InternalError, NonUniqueCutsError, PerturbationFailedError
from .mimick import terminal_cuts
from .mincut import global_gap
from .network import Network

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

    def same_bits(self, other: "IncidenceMatrix") -> bool:
        return self.bits.shape == other.bits.shape and bool(np.array_equal(self.bits, other.bits))


def build_incidence(net: Network) -> IncidenceMatrix:
    """Incidence matrix and value vector from canonical minimum cuts."""
    cuts = terminal_cuts(net)
    bits = np.zeros((len(cuts), net.m), dtype=np.uint8)
    for i, cut in enumerate(cuts):
        bits[i, list(cut.cutset)] = 1
    # A . c = values over the shared denominator, in integers
    scaled, den = net.scaled_costs, net.cost_denominator
    for i, cut in enumerate(cuts):
        row_cost = sum(scaled[j] for j in np.flatnonzero(bits[i]).tolist())
        if row_cost * cut.value.denominator != cut.value.numerator * den:
            raise InternalError(f"incidence row {i} costs {Fraction(row_cost, den)}, cut value is {cut.value}")
    bits.flags.writeable = False
    return IncidenceMatrix(net.k, bits, cuts.values)


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix via fraction-free elimination."""
    return len(_pivot_columns(rows))


def _pivot_columns(rows: Sequence[Sequence[int]]) -> list[int]:
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


def rank(mat: IncidenceMatrix) -> int:
    """Exact rank of the incidence matrix over the rationals."""
    return integer_rank(mat.bits.tolist())


# --- perturbation -----------------------------------------------------------


@dataclass(frozen=True)
class PerturbedNetwork:
    """A validated perturbation; ``matrix`` is the perturbed network's
    incidence matrix, whose bits equal the base network's."""

    base: Network
    network: Network
    w: tuple[Fraction, ...]
    seed: int
    gap: Fraction | None
    per_edge_bound: Fraction
    matrix: IncidenceMatrix


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
    from the oracle unless ``delta`` is supplied).  The invariance of the
    incidence matrix is validated, not assumed; deterministic given ``seed``.
    """
    if net.m == 0:
        raise NonUniqueCutsError("network has no edges to perturb")
    if delta is _UNSET:
        delta = global_gap(net)
    if delta is not None and delta == 0:
        raise NonUniqueCutsError("minimum terminal cuts are not unique (gap 0)")
    bound = _per_edge_bound(delta, net.m)
    base_mat = build_incidence(net)
    rng = random.Random(seed)
    for _ in range(MAX_RETRIES):
        w = tuple(bound * rng.randrange(resolution) / resolution for _ in range(net.m))
        perturbed = net.with_costs([e.cost + we for e, we in zip(net.edges, w)])
        mat = build_incidence(perturbed)
        if mat.same_bits(base_mat):
            return PerturbedNetwork(net, perturbed, w, seed, delta, bound, mat)
    raise PerturbationFailedError(f"validation failed after {MAX_RETRIES} resamples")


@dataclass(frozen=True)
class RankBoundReport:
    rank: int
    edge_count: int
    perturbed_values: tuple[Fraction, ...]
    seed: int
    gap: Fraction | None
    candidate_edge_count: int | None
    candidate_feasible: bool | None
    claim: str


def rank_bound_experiment(net: Network, candidate_edge_count: int | None = None, seed: int = 0) -> RankBoundReport:
    """Perturb the costs and report the rank-based size bound: any network
    matching all terminal cut values of the perturbed instance needs at
    least rank(A) edges."""
    pert = perturb(net, seed)
    r = rank(pert.matrix)
    feasible = None if candidate_edge_count is None else candidate_edge_count >= r
    return RankBoundReport(
        rank=r,
        edge_count=net.m,
        perturbed_values=pert.matrix.values,
        seed=seed,
        gap=pert.gap,
        candidate_edge_count=candidate_edge_count,
        candidate_feasible=feasible,
        claim=f"every network reproducing the perturbed terminal cut values has >= {r} edges",
    )
