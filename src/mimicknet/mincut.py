"""Exact minimum terminal-separating cuts.

Flow route: Dinic over integer-scaled capacities (costs share a common
denominator, so arithmetic is exact Python integers end to end).  The
canonical minimum cut for a bipartition is the one whose side containing
terminal 0 is inclusion-minimal, obtained as the residual-reachable set
from the contracted super-source.

Oracle route: exhaustive sweep over all side assignments of the
non-terminal vertices (capacity ``n - k <= 22``) by the prefix-doubling
kernel in :mod:`mimicknet._kernels`, on int64 when the scaled costs fit
and on Python integers otherwise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .errors import InternalError, InvalidParameterError, OracleCapacityError
from .network import Bipartition, Network, enumerate_bipartitions

ORACLE_CAPACITY = 22


@dataclass(frozen=True)
class CutResult:
    """A minimum separating cut: exact value, cutset and the canonical side
    (the inclusion-minimal side containing the first source terminal)."""

    value: Fraction
    cutset: frozenset[int]
    side: frozenset[int]


@dataclass(frozen=True)
class GapReport:
    """Gap between the two cheapest distinct cutsets for one bipartition.

    ``delta is None`` means no second cutset exists (the bipartition admits
    a single cut); ``exhaustive`` records whether the numbers came from the
    oracle or only the flow-based uniqueness test ran.
    """

    delta: Fraction | None
    second_best: Fraction | None
    unique: bool
    exhaustive: bool


class _Dinic:
    __slots__ = ("n", "to", "cap", "adj", "level", "it")

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_undirected(self, u: int, v: int, c: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(c)

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            for a in self.adj[v]:
                if self.cap[a] > 0 and self.level[self.to[a]] < 0:
                    self.level[self.to[a]] = self.level[v] + 1
                    q.append(self.to[a])
        return self.level[t] >= 0

    def _dfs(self, v: int, t: int, f: int) -> int:
        if v == t:
            return f
        while self.it[v] < len(self.adj[v]):
            a = self.adj[v][self.it[v]]
            w = self.to[a]
            if self.cap[a] > 0 and self.level[w] == self.level[v] + 1:
                d = self._dfs(w, t, min(f, self.cap[a]))
                if d > 0:
                    self.cap[a] -= d
                    self.cap[a ^ 1] += d
                    return d
            self.it[v] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                f = self._dfs(s, t, 1 << 300)
                if f == 0:
                    break
                flow += f
        return flow

    def reachable_from(self, s: int) -> list[bool]:
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            v = q.popleft()
            for a in self.adj[v]:
                if self.cap[a] > 0 and not seen[self.to[a]]:
                    seen[self.to[a]] = True
                    q.append(self.to[a])
        return seen

    def reaching(self, t: int) -> list[bool]:
        """Vertices with a residual path into t."""
        seen = [False] * self.n
        seen[t] = True
        q = deque([t])
        while q:
            v = q.popleft()
            for a in self.adj[v]:
                # twin arc to[a] -> v has residual capacity cap[a ^ 1]
                if self.cap[a ^ 1] > 0 and not seen[self.to[a]]:
                    seen[self.to[a]] = True
                    q.append(self.to[a])
        return seen


@dataclass(frozen=True)
class _FlowSolution:
    value: Fraction
    source_side: frozenset[int]
    source_cutset: frozenset[int]
    sink_cutset: frozenset[int]


def _solve_flow(net: Network, sources: Sequence[int], sinks: Sequence[int]) -> _FlowSolution:
    src, snk = set(sources), set(sinks)
    if not src or not snk:
        raise InvalidParameterError("source and sink sets must be nonempty")
    if src & snk:
        raise InvalidParameterError(f"source/sink overlap: {sorted(src & snk)}")
    s, t = net.n, net.n + 1
    vmap = [s if v in src else t if v in snk else v for v in range(net.n)]
    d = _Dinic(net.n + 2)
    den = net.cost_denominator
    for e in net.edges:
        a, b = vmap[e.u], vmap[e.v]
        if a == b:
            continue
        d.add_undirected(a, b, e.cost.numerator * (den // e.cost.denominator))
    scaled = d.max_flow(s, t)
    value = Fraction(scaled, den)

    from_s = d.reachable_from(s)
    side = frozenset(v for v in range(net.n) if from_s[vmap[v]])
    cutset_src = frozenset(
        eid for eid, e in enumerate(net.edges) if from_s[vmap[e.u]] != from_s[vmap[e.v]]
    )
    to_t = d.reaching(t)
    cutset_snk = frozenset(
        eid for eid, e in enumerate(net.edges) if to_t[vmap[e.u]] != to_t[vmap[e.v]]
    )
    cut_cost = sum((net.edges[eid].cost for eid in cutset_src), Fraction(0))
    if cut_cost != value:
        raise InternalError(f"max-flow {value} differs from its cut cost {cut_cost}")
    return _FlowSolution(value, side, cutset_src, cutset_snk)


def min_separating_cut(net: Network, bp: Bipartition) -> CutResult:
    """Canonical minimum cut for one terminal bipartition.

    The returned ``side`` is the inclusion-minimal side containing
    terminal 0 (the super-source side); its terminal trace is the
    bipartition's complement side.
    """
    if bp.k != net.k:
        raise InvalidParameterError(f"bipartition is for k={bp.k}, network has k={net.k}")
    sol = _solve_flow(net, bp.coside_vertices(net), bp.side_vertices(net))
    return CutResult(sol.value, sol.source_cutset, sol.source_side)


def min_cut_between(net: Network, source_terminals: Iterable[int], sink_terminals: Iterable[int]) -> CutResult:
    """Minimum cut separating two disjoint terminal-index sets; remaining
    terminals are unconstrained."""
    src = [net.terminals[i] for i in source_terminals]
    snk = [net.terminals[i] for i in sink_terminals]
    sol = _solve_flow(net, src, snk)
    return CutResult(sol.value, sol.source_cutset, sol.source_side)


def uniqueness_by_flow(net: Network, bp: Bipartition) -> bool:
    """True iff the source-minimal and sink-minimal minimum cuts share one
    cutset, which is equivalent to the minimum cutset being unique."""
    if bp.k != net.k:
        raise InvalidParameterError(f"bipartition is for k={bp.k}, network has k={net.k}")
    sol = _solve_flow(net, bp.coside_vertices(net), bp.side_vertices(net))
    return sol.source_cutset == sol.sink_cutset


# --- exhaustive oracle ------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    value: Fraction
    min_cutsets: frozenset[frozenset[int]]
    second_value: Fraction | None


def _edge_tables(net: Network, bp: Bipartition):
    """Split edges by how their crossing state depends on the mask."""
    nonterms = [v for v in range(net.n) if v not in set(net.terminals)]
    bit_of = {v: i for i, v in enumerate(nonterms)}
    term_side = {}
    side = set(bp.side_indices())
    for i, t in enumerate(net.terminals):
        term_side[t] = 1 if i in side else 0
    den = net.cost_denominator
    base = 0
    one_bit, one_flip, one_cost = [], [], []
    two_a, two_b, two_cost = [], [], []
    for e in net.edges:
        if e.u == e.v:
            continue
        c = e.cost.numerator * (den // e.cost.denominator)
        su, sv = term_side.get(e.u), term_side.get(e.v)
        if su is not None and sv is not None:
            if su != sv:
                base += c
        elif su is None and sv is None:
            two_a.append(bit_of[e.u])
            two_b.append(bit_of[e.v])
            two_cost.append(c)
        else:
            term = su if su is not None else sv
            free = e.v if su is not None else e.u
            one_bit.append(bit_of[free])
            one_flip.append(term)
            one_cost.append(c)
    return nonterms, den, base, (one_bit, one_flip, one_cost), (two_a, two_b, two_cost)


def _crossing_cutset(net: Network, bp: Bipartition, nonterms: Sequence[int], mask: int) -> frozenset[int]:
    bit_of = {v: i for i, v in enumerate(nonterms)}
    side = set(bp.side_indices())
    in_s = {}
    for i, t in enumerate(net.terminals):
        in_s[t] = i in side
    for v in nonterms:
        in_s[v] = bool(mask >> bit_of[v] & 1)
    return frozenset(
        eid for eid, e in enumerate(net.edges) if e.u != e.v and in_s[e.u] != in_s[e.v]
    )


def _postprocess(values, net, bp, nonterms):
    vmin = int(values.min())
    min_masks = np.flatnonzero(values == vmin)
    cutsets = frozenset(_crossing_cutset(net, bp, nonterms, int(m)) for m in min_masks)
    above = values[values > vmin]
    second = int(above.min()) if above.size else None
    return vmin, cutsets, second


def oracle_enumeration(net: Network, bp: Bipartition) -> OracleResult:
    """Exhaustive sweep over all 2**(n-k) consistent vertex bipartitions."""
    if bp.k != net.k:
        raise InvalidParameterError(f"bipartition is for k={bp.k}, network has k={net.k}")
    p = net.n - net.k
    if p > ORACLE_CAPACITY:
        raise OracleCapacityError(f"n - k = {p} exceeds oracle capacity {ORACLE_CAPACITY}")
    nonterms, den, base, ones, twos = _edge_tables(net, bp)
    values = _kernels.cut_values(1 << p, base, *ones, *twos)
    vmin, cutsets, second = _postprocess(values, net, bp, nonterms)
    return OracleResult(
        Fraction(vmin, den),
        cutsets,
        Fraction(second, den) if second is not None else None,
    )


def min_cut_oracle(net: Network, bp: Bipartition) -> tuple[Fraction, frozenset[frozenset[int]]]:
    """Exact minimum value and the set of ALL minimum cutsets."""
    res = oracle_enumeration(net, bp)
    return res.value, res.min_cutsets


def gap(net: Network, bp: Bipartition, require_delta: bool = False) -> GapReport:
    """Gap between the two cheapest distinct cutsets.

    Within oracle capacity the gap is exact; beyond it only the flow-based
    uniqueness flag is available (``delta`` stays None), unless
    ``require_delta`` forces an error.
    """
    p = net.n - net.k
    if p > ORACLE_CAPACITY:
        if require_delta:
            raise OracleCapacityError(f"n - k = {p} exceeds oracle capacity {ORACLE_CAPACITY}")
        return GapReport(None, None, uniqueness_by_flow(net, bp), exhaustive=False)
    res = oracle_enumeration(net, bp)
    if len(res.min_cutsets) > 1:
        return GapReport(Fraction(0), res.value, False, exhaustive=True)
    if res.second_value is None:
        return GapReport(None, None, True, exhaustive=True)
    return GapReport(res.second_value - res.value, res.second_value, True, exhaustive=True)


def global_gap(net: Network) -> Fraction | None:
    """Minimum gap over all bipartitions (0 when some minimum cut is tied;
    None when no bipartition has more than one possible cutset)."""
    best: Fraction | None = None
    for bp in enumerate_bipartitions(net.k):
        rep = gap(net, bp, require_delta=True)
        if not rep.unique:
            return Fraction(0)
        if rep.delta is not None and (best is None or rep.delta < best):
            best = rep.delta
    return best
