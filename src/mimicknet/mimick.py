"""Mimicking-network construction and verification.

Two constructions:

* component contraction: remove the union of all canonical minimum
  cutsets, contract each surviving connected component (the output is a
  minor of the input);
* signature merge: vertices that lie on the same side of every canonical
  minimum cut are merged, whether or not they are adjacent.

Both read one :class:`TerminalCuts` table, computed once per network, and
preserve every terminal bipartition cut value exactly; ``verify`` and
``verify_generalized`` check that by recomputation on the candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import mincut
from .errors import InvalidPairError, InvalidTerminalCountError
from .mincut import CutResult, min_cut_between
from .network import (
    Bipartition,
    ContractionMap,
    Network,
    connected_components,
    contract,
    enumerate_bipartitions,
)


@dataclass(frozen=True)
class TerminalCuts:
    """Canonical minimum cut (value, cutset, side) of every terminal
    bipartition of one network; row ``i`` belongs to
    ``enumerate_bipartitions(k)[i]``.  Computed once per network, then read
    by the constructions, verification, the store and the incidence matrix."""

    k: int
    cuts: tuple[CutResult, ...]

    def __iter__(self) -> Iterator[CutResult]:
        return iter(self.cuts)

    def __len__(self) -> int:
        return len(self.cuts)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(cut.value for cut in self.cuts)

    @property
    def union(self) -> frozenset[int]:
        """Union of the canonical minimum cutsets over all bipartitions."""
        return frozenset().union(*(cut.cutset for cut in self.cuts))


def terminal_cuts(net: Network) -> TerminalCuts:
    """Canonical minimum cut of every bipartition, in enumeration order.

    One walk on one residual: the bipartitions are visited in Gray-code
    order, so consecutive ones differ by one terminal, and each flow starts
    from the previous one's residual (the reuse of Gallo, Grigoriadis and
    Tarjan's parametric max flow).  The canonical side is the set reachable
    from the source in the residual of any maximum flow, so the table
    equals the one from-scratch flows would give."""
    if net.k < 2:
        raise InvalidTerminalCountError(f"need k >= 2 terminals, got {net.k}")
    cuts: list[CutResult | None] = [None] * ((1 << (net.k - 1)) - 1)
    residual = None
    for i in range(1, 1 << (net.k - 1)):
        bp = Bipartition(net.k, (i ^ (i >> 1)) << 1)
        sol = mincut._solve_flow(net, bp.coside_vertices(net), bp.side_vertices(net), residual)
        cuts[bp.row_index] = sol.cut
        residual = sol.residual.cap
    return TerminalCuts(net.k, tuple(cuts))


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

    @property
    def cut_union(self) -> frozenset[int]:
        return self.cuts.union


def _size_bound(k: int) -> int:
    # telemetry only: constant-1 version of the k^2 * 4^k face bound
    return k * k * (1 << (2 * k))


def _drop_isolated_nonterminals(net: Network) -> tuple[Network, int]:
    """Remove vertices with no incident edge that are not terminals
    (contracted images of terminal-free components)."""
    touched = set(net.terminals)
    for e in net.edges:
        touched.add(e.u)
        touched.add(e.v)
    if len(touched) == net.n:
        return net, 0
    keep = sorted(touched)
    relabel = {v: i for i, v in enumerate(keep)}
    edges = [(relabel[e.u], relabel[e.v], e.cost) for e in net.edges]
    terms = [relabel[t] for t in net.terminals]
    return Network(len(keep), edges, terms), net.n - len(keep)


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
    groups: dict[tuple[bool, ...], list[int]] = {}
    for v in range(net.n):
        sig = tuple(v in cut.side for cut in cuts)
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
        if any(not r.equal for r in self.rows):
            return False
        if self.generalized is not None and any(not r.equal for r in self.generalized):
            return False
        return True


def _check_pair(orig: Network, candidate: Network) -> None:
    if orig.k != candidate.k:
        raise InvalidPairError(f"terminal counts differ: {orig.k} vs {candidate.k}")
    if orig.k < 2:
        raise InvalidTerminalCountError(f"need k >= 2 terminals, got {orig.k}")


def verify_cuts(cuts: TerminalCuts, candidate: Network) -> VerificationReport:
    """Compare every terminal bipartition cut value of ``candidate``, from
    its own freshly computed table, with an original network's cut table,
    exactly."""
    if cuts.k != candidate.k:
        raise InvalidPairError(f"terminal counts differ: {cuts.k} vs {candidate.k}")
    rows = []
    for bp, a, b in zip(enumerate_bipartitions(cuts.k), cuts.values, terminal_cuts(candidate).values):
        rows.append(VerificationRow(bp, a, b, a == b))
    return VerificationReport(tuple(rows), None)


def verify(orig: Network, candidate: Network) -> VerificationReport:
    """Compare every terminal bipartition cut value, exactly."""
    _check_pair(orig, candidate)
    return verify_cuts(terminal_cuts(orig), candidate)


def disjoint_terminal_pairs(k: int) -> list[tuple[int, int]]:
    """Unordered pairs of disjoint nonempty terminal-index masks whose union
    is not the whole terminal set (those coincide with plain bipartitions)."""
    full = (1 << k) - 1
    pairs = []
    for s in range(1, full):
        for t in range(s + 1, full + 1):
            if s & t or (s | t) == full:
                continue
            pairs.append((s, t))
    return pairs


def verify_generalized(orig: Network, candidate: Network) -> VerificationReport:
    """Bipartition check plus minimum cuts separating every unordered pair
    of disjoint terminal subsets (remaining terminals unconstrained)."""
    base = verify(orig, candidate)
    gen_rows = []
    for s_mask, t_mask in disjoint_terminal_pairs(orig.k):
        s_idx = [i for i in range(orig.k) if s_mask >> i & 1]
        t_idx = [i for i in range(orig.k) if t_mask >> i & 1]
        a = min_cut_between(orig, s_idx, t_idx).value
        b = min_cut_between(candidate, s_idx, t_idx).value
        gen_rows.append(GeneralizedRow(s_mask, t_mask, a, b, a == b))
    return VerificationReport(base.rows, tuple(gen_rows))
