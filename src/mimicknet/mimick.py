"""Mimicking-network construction and verification.

Two constructions:

* component contraction: remove the union of all canonical minimum
  cutsets, contract each surviving connected component (the output is a
  minor of the input);
* signature merge: vertices that lie on the same side of every canonical
  minimum cut are merged, whether or not they are adjacent.

Both read one :class:`TerminalCuts` table, computed once per network, and
preserve every terminal bipartition cut value exactly; ``verify`` and
``verify_generalized`` check that against the candidate's own table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

import numpy as np

from . import mincut
from .errors import InternalError, InvalidPairError, InvalidTerminalCountError
from .mincut import CutResult
from .network import (
    Bipartition,
    ContractionMap,
    Network,
    connected_components,
    contract,
    enumerate_bipartitions,
)


@dataclass(frozen=True, eq=False)
class TerminalCuts:
    """Canonical minimum cut (value, cutset, side) of every terminal
    bipartition of one network; row ``i`` belongs to
    ``enumerate_bipartitions(k)[i]``.  Computed once per network, then read
    by the constructions, verification, the store and the incidence matrix.

    Held as arrays: the values times the network's ``cost_denominator``,
    a rows x n bool ``side_matrix`` whose row i marks row i's canonical
    side, and a C-ordered rows x m bool ``cut_matrix`` whose row i marks
    its cutset, the edges that side cuts.
    ``lowest_terms`` is the values' one exact form that does not depend
    on the network's denominator; ``cuts`` (and iteration) builds the
    rows as :class:`CutResult` on first use."""

    k: int
    cost_denominator: int
    scaled_values: tuple[int, ...]
    cut_matrix: np.ndarray
    side_matrix: np.ndarray

    def __iter__(self) -> Iterator[CutResult]:
        return iter(self.cuts)

    def __len__(self) -> int:
        return len(self.scaled_values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TerminalCuts):
            return NotImplemented
        return (
            (self.k, self.lowest_terms) == (other.k, other.lowest_terms)
            and np.array_equal(self.cut_matrix, other.cut_matrix)
            and np.array_equal(self.side_matrix, other.side_matrix)
        )

    @cached_property
    def cuts(self) -> tuple[CutResult, ...]:
        return tuple(
            CutResult(value, frozenset(np.flatnonzero(cut).tolist()), frozenset(np.flatnonzero(side).tolist()))
            for value, cut, side in zip(self.values, self.cut_matrix, self.side_matrix)
        )

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.cost_denominator) for v in self.scaled_values)

    @cached_property
    def lowest_terms(self) -> tuple[int, tuple[int, ...]]:
        """The values over their least common denominator: (that
        denominator, the values times it).  Unique, so two tables hold the
        same values iff these are equal, whatever their networks'
        denominators."""
        g = math.gcd(self.cost_denominator, *self.scaled_values)
        return self.cost_denominator // g, tuple([v // g for v in self.scaled_values])

    @property
    def union(self) -> frozenset[int]:
        """Union of the canonical minimum cutsets over all bipartitions."""
        return frozenset(np.flatnonzero(self.cut_matrix.any(axis=0)).tolist())

    def certify(self, net: Network) -> None:
        """Raises ``InternalError`` unless the table has ``net``'s shape
        and denominator and each row's cut edges cost exactly its value
        (``A . c = values`` over the shared denominator), exactly, a tile
        at a time (:func:`mincut._cut_costs`).  A table of
        :func:`terminal_cuts` reads each row's cut from its side, so this
        proves that each row's side cuts edges that cost exactly the value
        the walk's flow bookkeeping reports.  That a feasible flow of that
        value exists, which makes the cut minimum, is not checked."""
        rows, den = len(self.scaled_values), self.cost_denominator
        shapes = (self.cut_matrix.shape, self.side_matrix.shape)
        if den != net.cost_denominator or shapes != ((rows, net.m), (rows, net.n)):
            raise InternalError(
                f"table of {rows} rows over denominator {den} does not fit {net} over {net.cost_denominator}"
            )
        got = mincut._cut_costs(self.cut_matrix, mincut._cost_array(net.scaled_costs))
        if got != list(self.scaled_values):
            i, x, y = next((i, x, y) for i, (x, y) in enumerate(zip(got, self.scaled_values)) if x != y)
            raise InternalError(f"row {i} cuts edges of cost {Fraction(x, den)}, its value is {Fraction(y, den)}")


def terminal_cuts(net: Network) -> TerminalCuts:
    """Canonical minimum cut of every bipartition, in enumeration order.

    One Gray-code walk on one residual network (:func:`mincut._walk`),
    each flow augmenting the previous one's.  The canonical side is the
    set reachable from the source in the residual of any maximum flow, so
    the table equals the one from-scratch flows would give.  Every table
    takes one route: reduce, walk, expand, certify.  The walk runs on the
    core of the exactly reduced graph (loops dropped, bundles merged,
    pendant trees peeled, satellites set aside, series chains contracted
    to one edge of their cheapest link's cost; the identity when nothing
    reduces) and gives each row's value and core side;
    :meth:`mincut._Reduced.expand` lifts the sides to the input's
    vertices (a chain whose ends the row separates is cut at the first
    cheapest link from its source-side end, and the satellites are
    placed in closed form).  Every row's cut is then read once from its
    side, by the input's own edge ends, so the one exact certificate per
    table, :meth:`TerminalCuts.certify`, checks each row's value, which
    comes from a flow, against the cost of the edges its side cuts."""
    return _table(mincut._reduce(net))


def _table(core: mincut._Reduced) -> TerminalCuts:
    """:func:`terminal_cuts` of ``core``'s network, given its reduced core
    (a shape serves every network with the same ends and terminals)."""
    net = core.net
    if net.k < 2:
        raise InvalidTerminalCountError(f"need k >= 2 terminals, got {net.k}")
    values, side = core.expand(*mincut._walk(core))
    # each row's cut is its side's, by the input's own ends; np.take keeps
    # it C-ordered (fancy indexing gives F order, slow in the certificate)
    cut = np.take(side, [u for u, _ in net.ends], axis=1) != np.take(side, [v for _, v in net.ends], axis=1)
    cut.flags.writeable = side.flags.writeable = False
    table = TerminalCuts(net.k, net.cost_denominator, tuple(values), cut, side)
    table.certify(net)
    return table


@dataclass(frozen=True)
class MimickingStats:
    vertices: int
    edges: int
    class_count: int
    dropped_classes: int
    size_bound: int
    within_size_bound: bool


@dataclass(frozen=True)
class MimickingResult:
    network: Network
    construction: str
    contraction_map: ContractionMap
    stats: MimickingStats
    cuts: TerminalCuts  # of the input network


def _size_bound(k: int) -> int:
    # telemetry only: constant-1 version of the k^2 * 4^k face bound
    return k * k * (1 << (2 * k))


def _drop_isolated_nonterminals(net: Network) -> tuple[Network, int]:
    """Remove vertices with no incident edge that are not terminals
    (contracted images of terminal-free components)."""
    touched = set(net.terminals)
    for pair in net.ends:
        touched.update(pair)
    if len(touched) == net.n:
        return net, 0
    keep = sorted(touched)
    relabel = {v: i for i, v in enumerate(keep)}
    ends = tuple([(relabel[u], relabel[v]) for u, v in net.ends])
    terms = tuple([relabel[t] for t in net.terminals])
    return Network._of(len(keep), ends, terms, net.cost_denominator, net.scaled_costs), net.n - len(keep)


def build_by_contraction(net: Network) -> MimickingResult:
    """Contract each connected component left after removing the union of
    canonical minimum cutsets.  Classes are connected, so the result is a
    minor of the input; terminal-free components (only possible when the
    input is disconnected) are dropped."""
    cuts = terminal_cuts(net)
    cmap = ContractionMap(net, connected_components(net, cuts.union))
    result, dropped = _drop_isolated_nonterminals(contract(net, cmap))
    return _mimicking(net, cuts, "component-contraction", cmap, result, dropped)


def build_by_signature(net: Network) -> MimickingResult:
    """Merge vertices whose side pattern agrees across every canonical
    minimum cut.  Classes need not be connected and the output need not be
    a minor; the class count is at most 2**(2**(k-1) - 1)."""
    cuts = terminal_cuts(net)
    # vertex v's signature is column v of the side matrix, packed to bytes
    groups: dict[bytes, list[int]] = {}
    for v, sig in enumerate(map(bytes, np.packbits(cuts.side_matrix.T, axis=1))):
        groups.setdefault(sig, []).append(v)
    cmap = ContractionMap(net, groups.values())
    return _mimicking(net, cuts, "signature-merge", cmap, contract(net, cmap), 0)


def _mimicking(
    net: Network, cuts: TerminalCuts, construction: str, cmap: ContractionMap, result: Network, dropped: int
) -> MimickingResult:
    """A construction's output network with its stats."""
    bound = _size_bound(net.k)
    stats = MimickingStats(
        vertices=result.n,
        edges=result.m,
        class_count=len(cmap),
        dropped_classes=dropped,
        size_bound=bound,
        within_size_bound=result.n <= bound,
    )
    return MimickingResult(result, construction, cmap, stats, cuts)


@dataclass(frozen=True)
class VerificationRow:
    bipartition: Bipartition
    value_original: Fraction
    value_candidate: Fraction
    equal: bool


@dataclass(frozen=True)
class GeneralizedRow:
    source_mask: int
    sink_mask: int
    value_original: Fraction
    value_candidate: Fraction
    equal: bool


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple[VerificationRow, ...]
    generalized: tuple[GeneralizedRow, ...] | None

    @property
    def all_equal(self) -> bool:
        return all(r.equal for r in self.rows + (self.generalized or ()))


def _check_pair(k: int, candidate: Network) -> None:
    # k < 2 is rejected by terminal_cuts
    if k != candidate.k:
        raise InvalidPairError(f"terminal counts differ: {k} vs {candidate.k}")


def _rows(k: int, orig: tuple[Fraction, ...], cand: tuple[Fraction, ...]) -> tuple[VerificationRow, ...]:
    return tuple(VerificationRow(bp, a, b, a == b) for bp, a, b in zip(enumerate_bipartitions(k), orig, cand))


def verify_cuts(cuts: TerminalCuts, candidate: Network) -> VerificationReport:
    """Compare every terminal bipartition cut value of ``candidate``, from
    its own freshly computed table, with an original network's cut table,
    exactly."""
    _check_pair(cuts.k, candidate)
    return VerificationReport(_rows(cuts.k, cuts.values, terminal_cuts(candidate).values), None)


def verify(orig: Network, candidate: Network) -> VerificationReport:
    """Compare every terminal bipartition cut value, exactly."""
    _check_pair(orig.k, candidate)
    return verify_cuts(terminal_cuts(orig), candidate)


def disjoint_terminal_pairs(k: int) -> list[tuple[int, int]]:
    """Unordered pairs of disjoint nonempty terminal-index masks whose union
    is not the whole terminal set (those coincide with plain bipartitions)."""
    full = (1 << k) - 1
    return [(s, t) for s in range(1, full) for t in range(s + 1, full) if not s & t and s | t != full]


def _pair_value(k: int, values: tuple[Fraction, ...], s_mask: int, t_mask: int) -> Fraction:
    """The least table value over the bipartitions that extend (S, T): the
    free terminals' submasks ``sub`` join S, and each extension's row is its
    canonical mask // 2 - 1."""
    full = (1 << k) - 1
    free = full & ~(s_mask | t_mask)
    best, sub = None, free
    while True:
        mask = s_mask | sub
        value = values[(mask ^ full if mask & 1 else mask) // 2 - 1]
        if best is None or value < best:
            best = value
        if not sub:
            return best
        sub = (sub - 1) & free


def verify_generalized(orig: Network, candidate: Network) -> VerificationReport:
    """Bipartition check plus minimum cuts separating every unordered pair
    of disjoint terminal subsets (remaining terminals unconstrained), read
    from the two tables with no flow per pair.  A pair's value is the least
    value over its extensions to bipartitions: every S-T cut cuts one
    extension, and each extension's minimum cut separates S from T."""
    _check_pair(orig.k, candidate)
    a, b = terminal_cuts(orig).values, terminal_cuts(candidate).values
    gen_rows = []
    for s_mask, t_mask in disjoint_terminal_pairs(orig.k):
        x, y = _pair_value(orig.k, a, s_mask, t_mask), _pair_value(orig.k, b, s_mask, t_mask)
        gen_rows.append(GeneralizedRow(s_mask, t_mask, x, y, x == y))
    return VerificationReport(_rows(orig.k, a, b), tuple(gen_rows))
