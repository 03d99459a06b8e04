"""Exact minimum terminal-separating cuts.

Flow route: Dinic over integer-scaled capacities (costs share a common
denominator, so arithmetic is exact Python integers end to end).  Each
flow's first augmenting path is its first level BFS's tree path (the
Edmonds-Karp step); the walk's flows mostly need one or two paths, and
a blocking flow there would search the level graph again only to find
no second one.  The canonical minimum cut for a bipartition is the one
whose side containing terminal 0 is inclusion-minimal, obtained as the
residual-reachable set from the contracted super-source.  One
constructor, :class:`_Dinic`, builds every residual network from a graph
and the two vertex sets it contracts.  A terminal-cut table is one Gray-code walk on one residual
network (:func:`_walk`), run on the core of the exactly reduced graph of
:func:`_reduce` (the identity when nothing reduces): loops dropped,
bundles merged, pendant trees peeled, satellites set aside and series
chains contracted to their cheapest link.  The walk's sides alone are
lifted to the input's vertices, each chain's interiors placed by the
first cheapest link from its source-side end and the satellites' sides
solved in closed form; every row's cut is then read from its lifted
side, once, so the table's one certificate covers the sides.  The
canonical side only grows when a terminal joins the source side, so
such a step searches only what that terminal newly reaches.  The
reduction's shape depends on the ends and the terminals alone, so one
shape serves any costs on those ends (:class:`_Reduced`).

Oracle route: exhaustive sweep over all side assignments of the
non-terminal vertices (capacity ``n - k <= 22``) by the blocked kernel in
:mod:`mimicknet._kernels`, on int64 limbs: one limb when the scaled
costs sum below 2**62 (swept on int32 below 2**30), else B-bit digits
with exact carries, so costs of any size run on the same kernel.
Isolated non-terminals take no bit.  Each cache-sized block is reduced
as it is made to the running minimum, its masks and the second distinct
value, so no array of all 2**p values is built; cutsets are read only
for the minimizing masks, and each one's cost is checked against the
minimum.

Satellite rows: with the terminals placed, a satellite (a non-terminal
whose neighbours are all terminals) picks its side alone, so its share
of any row is in closed form.  One reader,
:meth:`_Reduced.satellite_rows`, gives it for a list of row masks, on
the core's own costs or on every copy of a stack of other costs on the
same ends, a block of (copy, row) entries at a time: the values, the
terminals' and satellites' sides and the edges those sides cut, each
block certified against each copy's own edge costs.  The closed-form
gaps and the lower-bound experiments read it, the collision experiment
all its sampled copies in one pass; the table's expansion takes the
same sides from :meth:`_Reduced.split` and leaves the cut to the
table.

Gaps (:func:`_gaps`, :func:`global_gap`) are in closed form, at any
size, when every vertex is a terminal or a satellite of one
vertex and no edge joins two terminals (the bipartite family, stars):
each satellite then picks its side alone.  Every other network takes the
oracle.  On such a network any subset of the rows can be read without a
table, as the lower-bound experiments do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import InternalError, InvalidParameterError, OracleCapacityError
from .network import Bipartition, Network, enumerate_bipartitions

ORACLE_CAPACITY = 22
# entries per row-block temporary in _Reduced.satellite_rows
_SATELLITE_BLOCK = 1 << 18
# entries per cast of a bool block to the costs' dtype in _cut_costs
_PRODUCT_BLOCK = 1 << 14
# level-list entries per block of sides that _walk writes together
_SIDE_BLOCK = 1 << 14


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
    a single cut).
    """

    delta: Fraction | None
    second_best: Fraction | None
    unique: bool


class _Dinic:
    """Dinic max flow on an undirected graph with integer capacities.

    Arc ``a`` runs to ``to[a]`` with residual capacity ``cap[a]`` (updated
    in place); ``adj[v]`` lists the arcs leaving v, and arc ``a ^ 1`` is
    the other direction of the same edge.  Every search is a loop over
    plain lists (no recursion), so a path of any length fits.

    Built from ``graph``'s arcs at the zero flow with the sources
    contracted into s = n and the sinks into t = n + 1: their out-arcs
    leave s or t, and the twins of those arcs are redirected there.

    ``settled``, when set, is the level list every BFS starts from: the
    level of an earlier search on vertices already known to be
    residual-reachable from s and closed (no residual arc leaves them but
    to s or to each other), -1 elsewhere.  No BFS enters them, yet they
    count as reached; a blocking flow that steps into one whose level
    matches finds only dead ends there.  ``via`` is scratch for the BFS
    tree: each vertex's discovering arc in the last search.
    """

    __slots__ = ("n", "to", "cap", "adj", "level", "settled", "via")

    def __init__(self, graph: Network | _Reduced, sources: Sequence[int], sinks: Sequence[int]):
        head, cap, out = graph.arcs()
        self.n, self.to, self.cap, self.adj = graph.n + 2, list(head), list(cap), [*out]
        # s, then t, is the next vertex of adj
        for end in (sources, sinks):
            arcs = [a for q in end for a in out[q]]
            for a in arcs:
                self.to[a ^ 1] = len(self.adj)
            self.adj.append(arcs)
        self.level: list[int] = []
        self.settled: list[int] | None = None
        self.via = [0] * self.n

    def _levels(self, s: int, t: int) -> list[int]:
        """Residual BFS distance from s (-1 if unreached), from the
        ``settled`` levels when set; ``via[w]`` is the arc that discovered
        w.  Stops once the vertex it expands has discovered t; the other
        vertices at t's distance lead nowhere in this phase's level graph,
        so they are unset again and the blocking flow enters that level
        only at t.  When t is unreachable the search runs to the end."""
        to, cap, adj, via = self.to, self.cap, self.adj, self.via
        level = [-1] * self.n if self.settled is None else self.settled.copy()
        level[s] = 0
        queue = [s]
        for v in queue:
            nxt = level[v] + 1
            for a in adj[v]:
                w = to[a]
                if cap[a] and level[w] < 0:
                    level[w] = nxt
                    via[w] = a
                    queue.append(w)
            if level[t] >= 0:
                # the queue is in level order, so t's level is its tail
                while level[queue[-1]] == nxt:
                    level[queue.pop()] = -1
                level[t] = nxt
                break
        return level

    def max_flow(self, s: int, t: int) -> int:
        """Augments to a maximum flow and returns the value it added.  The
        first search that reaches t augments along its BFS tree's path
        alone; each later one is a Dinic phase, a blocking flow on its
        level graph.  The last level BFS, which found t unreachable, stays
        in ``level`` and is not written again: it holds every vertex
        residual-reachable from s (the ``settled`` ones at their earlier
        levels)."""
        to, cap, adj, via = self.to, self.cap, self.adj, self.via
        self.level = level = self._levels(s, t)
        if level[t] < 0:
            return 0
        # the tree path, from t back to s: an arc's tail is its twin's head
        path: list[int] = []
        v = t
        while v != s:
            a = via[v]
            path.append(a)
            v = to[a ^ 1]
        flow = min([cap[a] for a in path])
        for a in path:
            cap[a] -= flow
            cap[a ^ 1] += flow
        while True:
            self.level = level = self._levels(s, t)
            if level[t] < 0:
                return flow
            # blocking flow: ``path`` holds the arcs from s to v, ``it[v]``
            # is v's current arc; arcs before it lead nowhere this phase
            it = [0] * self.n
            path = []
            v = s
            while True:
                if v == t:
                    push = min([cap[a] for a in path])
                    flow += push
                    first_full = -1
                    for i, a in enumerate(path):
                        cap[a] -= push
                        cap[a ^ 1] += push
                        if first_full < 0 and not cap[a]:
                            first_full = i
                    # retreat to the tail of the first saturated arc
                    del path[first_full:]
                    v = to[path[-1]] if path else s
                    continue
                arcs = adj[v]
                end = len(arcs)
                i = it[v]
                nxt = level[v] + 1
                while i < end:
                    a = arcs[i]
                    if cap[a] and level[to[a]] == nxt:
                        break
                    i += 1
                it[v] = i
                if i < end:
                    path.append(a)
                    v = to[a]
                elif path:
                    # dead end: drop v from the level graph, back up one arc
                    level[v] = -1
                    v = to[path.pop() ^ 1]
                    it[v] += 1
                else:
                    break

    def reach(self, root: int) -> list[bool]:
        """Vertices with a residual path into root: with root the sink, the
        side of the sink-minimal minimum cut."""
        to, cap, adj = self.to, self.cap, self.adj
        seen = [False] * self.n
        seen[root] = True
        queue = [root]
        for v in queue:
            for a in adj[v]:
                w = to[a]
                # arc a runs v -> w; its twin a ^ 1 runs w -> v
                if cap[a ^ 1] and not seen[w]:
                    seen[w] = True
                    queue.append(w)
        return seen


class _Shape:
    """What the reduction of :func:`_reduce` takes from a network's ends
    and terminals alone.  No cost enters it, so one shape serves every
    cost vector on those ends (:class:`_Reduced`).

    Core vertex ``r`` stands for the input vertices ``groups[r]`` and core
    edge ``j`` for the input edges ``bundles[j]`` (none for an edge made
    only of chains); ``head`` and ``out`` are the core's arcs in the
    layout of :meth:`Network.arcs`.  Satellite ``s`` stands for the input
    vertices ``satellites[s]``, and each ``links`` entry ``(s, i, eids)``
    is one of its bundles to terminal index i.  Each ``chains`` entry
    ``(j, u, w, links, inner)`` is a series chain on core edge j from core
    vertex u to core vertex w: its links (input-edge bundles) and the
    groups of its interior vertices, in order from u.  The index arrays
    map the core's edges and sides to the input's: ``edge_cols`` and
    ``edge_core`` (a core edge's input edges), ``link_eid``, ``link_sat``
    and ``link_term`` (a satellite's edges to terminals), which the costs
    are summed by; ``vertex_cols`` and ``vertex_core`` (a core vertex's
    input vertices), ``sat_vertex`` and ``sat_of`` (a satellite's input
    vertices) and ``inner_vertex`` (the chains' interiors' input vertices,
    in the order of ``chains``, with ``vertex_u`` and ``vertex_w``, the
    core ends of each one's chain), which the sides are lifted by;
    ``chain_edge`` is each chain's core edge.  The chain arrays are None
    with no chain."""

    __slots__ = (
        "n", "terminals", "groups", "bundles", "head", "out", "satellites", "links", "chains",
        "edge_cols", "edge_core", "vertex_cols", "vertex_core",
        "link_eid", "link_sat", "link_term", "sat_vertex", "sat_of",
        "inner_vertex", "vertex_u", "vertex_w", "chain_edge",
    )

    def __init__(self, terminals: tuple[int, ...], groups, bundles, head, out, satellites, links, chains):
        self.n, self.terminals = len(groups), terminals
        self.groups, self.bundles, self.head, self.out = groups, bundles, head, out
        self.satellites, self.links, self.chains = satellites, links, chains
        self.edge_cols, self.edge_core = _flat(bundles), _owners(bundles)
        self.vertex_cols, self.vertex_core = _flat(groups), _owners(groups)
        self.sat_vertex, self.sat_of = _flat(satellites), _owners(satellites)
        self.link_eid = _flat([eids for _, _, eids in links])
        self.link_sat = np.array([s for s, _, eids in links for _ in eids], dtype=np.intp)
        self.link_term = np.array([i for _, i, eids in links for _ in eids], dtype=np.intp)
        self.inner_vertex = self.vertex_u = self.vertex_w = self.chain_edge = None
        if chains:
            vertices = [y for _, u, w, _, inner in chains for group in inner for x in group for y in (x, u, w)]
            self.inner_vertex, self.vertex_u, self.vertex_w = np.array(vertices, dtype=np.intp).reshape(-1, 3).T
            self.chain_edge = np.array([chain[0] for chain in chains], dtype=np.intp)


class _SatelliteRows(NamedTuple):
    """One certified block of :meth:`_Reduced.satellite_rows`: its
    entries are the reader's from ``lo`` on, one (copy, row mask) each,
    so with one copy they are the given masks' rows.  ``src`` (entries x
    k) marks the source-side terminals, ``on`` (entries x satellites) the
    satellites on the source side, and ``cut`` (entries x links, the
    shape's ``link_eid`` order) the satellites' edges that the entry
    cuts.  ``values`` is the satellites' scaled share of each entry's
    value, and ``deltas`` each entry's least |a - b| over the satellites
    (None with no satellite)."""

    lo: int
    values: list[int]
    deltas: list[int | None]
    src: np.ndarray
    on: np.ndarray
    cut: np.ndarray


class _Reduced:
    """A network's reduced core with its costs: the graph the walk runs
    on, ``arcs()`` in the layout of :meth:`Network.arcs`.  A core edge's
    capacity is its bundle's summed scaled cost plus, for each chain on
    it, the chain's least link cost; ``sat_cost[s, i]`` is satellite s's
    summed scaled cost to terminal index i, and ``costs`` holds every
    input edge's scaled cost, both in the dtype of :func:`_cost_array`.
    The rest is ``shape``'s.

    With chains, each chain is cut at the first cheapest link counted
    from its source-side end: ``side_u`` marks, in the shape's
    ``inner_vertex`` order, the interiors between u and the first
    cheapest link from u, and ``side_w`` those between w and the first
    cheapest link from w (None with no chain)."""

    __slots__ = ("net", "shape", "n", "terminals", "den", "costs", "sat_cost", "_arcs", "side_u", "side_w")

    def __init__(self, net: Network, shape: _Shape):
        self.net, self.shape, self.n, self.terminals = net, shape, shape.n, shape.terminals
        self.den, scaled = net.cost_denominator, net.scaled_costs
        self.costs = costs = _cost_array(scaled)
        caps = np.zeros(len(shape.bundles), dtype=costs.dtype)
        np.add.at(caps, shape.edge_core, costs[shape.edge_cols])
        self.side_u = self.side_w = None
        if shape.chains:
            least, side_u, side_w = [], [], []
            for _, _, _, links, inner in shape.chains:
                cost = [sum([scaled[e] for e in link]) for link in links]
                low = min(cost)
                least.append(low)
                # the first cheapest link from u and from w
                a, b = cost.index(low), len(cost) - 1 - cost[::-1].index(low)
                # interior i lies between links i - 1 and i
                for i, group in enumerate(inner, 1):
                    side_u += [i <= a] * len(group)
                    side_w += [i > b] * len(group)
            np.add.at(caps, shape.chain_edge, np.array(least, dtype=costs.dtype))
            self.side_u, self.side_w = np.array(side_u), np.array(side_w)
        # an edge's two arcs carry its capacity
        self._arcs = (shape.head, tuple(caps.repeat(2).tolist()), shape.out)
        self.sat_cost = self._satellite_costs(costs[None])[0]

    def arcs(self):
        return self._arcs

    def _satellite_costs(self, costs: np.ndarray) -> np.ndarray:
        """For a copies x m stack of scaled edge costs: each copy's
        ``sat_cost``, copies x satellites x k, in the stack's dtype."""
        shape = self.shape
        # the copies axis last, so that each link adds one column of copies
        sat_cost = np.zeros((len(shape.satellites), len(self.terminals), len(costs)), dtype=costs.dtype)
        np.add.at(sat_cost, (shape.link_sat, shape.link_term), costs[:, shape.link_eid].T)
        return np.ascontiguousarray(sat_cost.transpose(2, 0, 1))

    def split(self, masks: np.ndarray, sat_cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each row mask: a rows x k bool array of the source-side
        terminals (bit clear, terminal 0's side); and for each copy of the
        satellites' costs (``sat_cost``, copies x satellites x k, as
        :meth:`_satellite_costs` gives them), each satellite's scaled cost
        a to those terminals less its cost b to the others, a - b, and its
        side, each copies x rows x satellites.  With the terminals placed,
        a satellite's side is decided alone: it joins the source side iff
        b < a, strictly, so the side stays inclusion-minimal, and it adds
        min(a, b) = (a + b - |a - b|) / 2 to the row's value.  Every
        partial sum of a - b is at most a + b in size, so it is exact in
        the costs' dtype."""
        src = (masks[:, None] >> np.arange(len(self.terminals)) & 1) == 0
        diff = np.where(src, 1, -1).astype(sat_cost.dtype) @ sat_cost.transpose(0, 2, 1)
        return src, diff, diff > 0

    def satellite_rows(self, masks: Sequence[int], costs: np.ndarray | None = None) -> Iterator[_SatelliteRows]:
        """The satellites' share of each row mask's canonical cut, in
        closed form (:meth:`split`): a satellite's edges to the other
        side's terminals are cut.  The rows are read on the core's own
        costs, or on each copy of ``costs``: a copies x m stack of other
        scaled costs on the same ends, over any one denominator, in the
        dtype of :func:`_cost_dtype`.  Entry ``copy * len(masks) + row``
        is that copy's row; the entries come in that order, a block at a
        time, each block one copy's run of rows or a run of whole copies.

        Each block is certified before it is yielded, from each copy's own
        edge costs rather than the sums the sides were decided on: the
        edges that the sides cut cost exactly each entry's value, or
        ``InternalError``."""
        shape = self.shape
        masks = np.asarray(masks, dtype=np.int64)
        costs = self.costs[None] if costs is None else costs
        rows, sats, links = len(masks), len(shape.satellites), len(shape.link_eid)
        if not rows:
            return
        block = max(1, _SATELLITE_BLOCK // max(links, len(shape.sat_vertex), len(self.terminals)))
        # a block of more than one copy holds each of them whole
        step = min(rows, block)
        per = block // step
        for c in range(0, len(costs), per):
            sat_cost, link_costs = self._satellite_costs(costs[c : c + per]), costs[c : c + per, shape.link_eid]
            # each copy's a + b summed over the satellites: all their edges
            total = link_costs.sum(axis=1)[:, None]
            for lo in range(0, rows, step):
                src, diff, on = self.split(masks[lo : lo + step], sat_cost)
                copies, count = on.shape[:2]
                # |a - b| is written over the difference, which is not kept
                # while the cut is read
                np.abs(diff, out=diff)
                values = ((total - diff.sum(axis=2)) // 2).ravel().tolist()
                deltas = diff.min(axis=2).ravel().tolist() if sats else [None] * len(values)
                del diff
                # an edge is cut iff its satellite and terminal sides differ
                cut = on[:, :, shape.link_sat]
                cut ^= src[:, shape.link_term]
                got = _cut_costs(cut, link_costs)
                if got != values:
                    i, x, y = next((i, x, y) for i, (x, y) in enumerate(zip(got, values)) if x != y)
                    copy, row = c + i // count, lo + i % count
                    where = f" in copy {copy}" if len(costs) > 1 else ""
                    raise InternalError(
                        f"row mask {masks[row]:#b} cuts satellite edges of scaled cost {x}, "
                        f"its satellites' share is {y}{where}"
                    )
                entries = copies * count
                yield _SatelliteRows(
                    c * rows + lo, values, deltas, np.tile(src, (copies, 1)),
                    on.reshape(entries, sats), cut.reshape(entries, links),
                )
                # free this block before the next is built; the consumer
                # drops its own reference
                del src, on, cut, values, deltas, got

    def expand(self, core_values: list[int], core_side: np.ndarray) -> tuple[list[int], np.ndarray]:
        """The input network's (scaled values, rows x n side matrix) for
        the core's, one row per bipartition in canonical order: the sides
        alone are lifted, and the cuts are read from them
        (:func:`mimick._table`).  Core vertex columns are gathered out to
        their groups, each chain's interiors are placed by its cut link,
        and the satellites' sides and share of the value come from
        :meth:`split`, a block of rows at a time."""
        shape, net = self.shape, self.net
        rows = len(core_values)
        side = np.zeros((rows, net.n), dtype=bool)
        side[:, shape.vertex_cols] = core_side[:, shape.vertex_core]
        if shape.chains:
            # a chain whose ends lie on one side is not cut and its
            # interiors lie there too; otherwise it is cut at the first
            # cheapest link from its source-side end, the source-minimal
            # choice, and the interiors before that link are on the source
            # side
            on_u, on_w = core_side[:, shape.vertex_u], core_side[:, shape.vertex_w]
            side[:, shape.inner_vertex] = np.where(on_u, on_w | self.side_u, on_w & self.side_w)
        if not shape.satellites:
            return core_values, side
        values: list[int] = []
        # row i is the bipartition of mask 2 * (i + 1)
        masks = np.arange(2, 2 * rows + 2, 2, dtype=np.int64)
        block = max(1, _SATELLITE_BLOCK // max(len(shape.sat_vertex), len(self.terminals)))
        total = self.sat_cost.sum()
        for lo in range(0, rows, block):
            _, diff, on = self.split(masks[lo : lo + block], self.sat_cost[None])
            values += ((total - np.abs(diff[0]).sum(axis=1)) // 2).tolist()
            side[lo : lo + block, shape.sat_vertex] = on[0][:, shape.sat_of]
        return [x + y for x, y in zip(core_values, values)], side


def _cost_dtype(total: int) -> type:
    """The dtype of scaled costs that sum to ``total``: int64 below
    2**63, so every sum of them is exact, Python integers otherwise."""
    return np.int64 if total < 1 << 63 else object


def _cost_array(scaled: Sequence[int]) -> np.ndarray:
    """Scaled costs as an array, in the dtype of :func:`_cost_dtype`."""
    return np.array(scaled, dtype=_cost_dtype(sum(scaled)))


def _cut_costs(cut: np.ndarray, costs: np.ndarray) -> list[int]:
    """Each row's cost: the sum of ``costs`` over the row's set entries of
    the bool array ``cut``, exact in the dtype of :func:`_cost_dtype`.
    With a leading copies axis, ``cut`` copies x rows x cols and
    ``costs`` copies x cols, each copy's rows are summed over its own
    costs, copy by copy.  The product casts the bools to that dtype, so a
    larger array runs on tiles of at most ``_PRODUCT_BLOCK`` entries and
    no cast copies all of it."""
    if cut.ndim == 2:
        cut, costs = cut[None], costs[None]
    rows, cols = cut.shape[1:]
    costs = costs[:, :, None]
    if cut.size <= _PRODUCT_BLOCK:
        return (cut @ costs).ravel().tolist()
    width = min(cols, _PRODUCT_BLOCK)
    step = min(rows, _PRODUCT_BLOCK // width)
    # a tile of more than one copy holds each of their rows whole, so the
    # tiles come copy by copy
    per = _PRODUCT_BLOCK // (width * step)
    got: list[int] = []
    for c in range(0, len(cut), per):
        for lo in range(0, rows, step):
            tile, weights = cut[c : c + per, lo : lo + step], costs[c : c + per]
            total = tile[:, :, :width] @ weights[:, :width]
            for col in range(width, cols, width):
                total += tile[:, :, col : col + width] @ weights[:, col : col + width]
            got += total.ravel().tolist()
    return got


def _flat(lists) -> np.ndarray:
    """The entries of the lists, concatenated, as an index array."""
    return np.array([x for part in lists for x in part], dtype=np.intp)


def _owners(lists) -> np.ndarray:
    """For each entry of ``_flat(lists)``, the index of its list."""
    return np.repeat(np.arange(len(lists), dtype=np.intp), [len(part) for part in lists])


def _reduce(net: Network) -> _Reduced:
    """The graph a terminal-cut table is solved on: ``net``'s reduced core
    (:func:`_shape_of`) with ``net``'s costs."""
    return _Reduced(net, _shape_of(net))


def _shape_of(net: Network) -> _Shape:
    """The reduction of ``net``'s ends and terminals: the identity (one
    group per vertex, one bundle per edge) when nothing reduces.  Costs
    are positive, so in every minimum cut a self-loop is uncut, a parallel
    bundle is cut whole or not at all, and a non-terminal with one
    neighbour lies on that neighbour's side (moving it would save the edge
    between them).  Peeling repeats that last rule to a fixpoint; a vertex
    left with no neighbour is in a terminal-free tree, which no source
    reaches, and is dropped with the tree.  A kept non-terminal whose
    neighbours are all terminals (a satellite) is set aside with its
    peeled trees: its side depends on the terminals' alone
    (:meth:`_Reduced.expand`).

    Then one pass contracts series chains: maximal paths of core
    non-terminals that each have exactly two distinct core neighbours.  A
    minimum cut cuts no link of a chain whose two ends lie on one side and
    exactly one, a cheapest, otherwise.  So a chain between core vertices
    u != w becomes one u-w core edge of its cheapest link's cost
    (:class:`_Reduced`), and a chain that closes on one vertex joins that
    vertex's group.  A cycle of such vertices with no end stays as it is.
    Every minimum cut of the input is thus the lift of one of the core's
    with the chains' and satellites' choices, the source-minimal one
    included, whatever the costs."""
    n = net.n
    terminal = [False] * n
    for q in net.terminals:
        terminal[q] = True
    bundle_of: dict[tuple[int, int], list[int]] = {}
    for eid, (u, v) in enumerate(net.ends):
        if u != v:
            bundle_of.setdefault((u, v) if u < v else (v, u), []).append(eid)
    # distinct neighbours: the count, the XOR of their ids (the neighbour
    # itself once the count is 1), and the count of terminals among them
    degree, nbr, outer = [0] * n, [0] * n, [0] * n
    for u, v in bundle_of:
        degree[u] += 1
        degree[v] += 1
        nbr[u] ^= v
        nbr[v] ^= u
        outer[u] += terminal[v]
        outer[v] += terminal[u]
    peel = [v for v in range(n) if degree[v] < 2 and not terminal[v]]
    # a peeled vertex's parent, -1 for a dropped one, until resolved below
    root = list(range(n))
    for v in peel:  # grows while it is walked
        if degree[v]:
            u = root[v] = nbr[v]
            degree[v] = 0
            degree[u] -= 1
            nbr[u] ^= v
            if degree[u] == 1 and not terminal[u]:
                peel.append(u)
        else:
            root[v] = -1
    # a peeled vertex's parent is peeled later or kept, so this order
    # resolves the parent's root first
    for v in reversed(peel):
        if root[v] >= 0:
            root[v] = root[root[v]]
    # a kept vertex (root[v] == v) is a core vertex unless it is a
    # satellite: peeling never removes a terminal, so a non-terminal whose
    # neighbours left are as many as its terminal neighbours touches only
    # terminals.  No core non-terminal touches a satellite, so one with
    # two neighbours left, not both terminals, has two core neighbours,
    # whose XOR is nbr
    two = [root[v] == v and degree[v] == 2 and outer[v] < 2 and not terminal[v] for v in range(n)]
    # each chain's ends, links and interior vertices, in order from u; a
    # chain is walked once, from the first bundle met that joins an end to
    # it, and a cycle of such vertices with no end is never entered
    chains: list[tuple[int, int, list[list[int]], list[int]]] = []
    inner: set[int] = set()
    if any(two):
        for (a, b), eids in bundle_of.items():
            if two[a] != two[b]:
                u, v = (a, b) if two[b] else (b, a)
                if root[u] == u and v not in inner:
                    prev, w, links, path = u, v, [eids], []
                    while two[w]:
                        path.append(w)
                        prev, w = w, nbr[w] ^ prev
                        links.append(bundle_of[(prev, w) if prev < w else (w, prev)])
                    inner.update(path)
                    chains.append((u, w, links, path))
    # each kept vertex's list, which its peeled trees join; rid is a core
    # vertex's id, or ~s for satellite s
    home: list[list[int] | None] = [None] * n
    rid = [-1] * n
    groups: list[list[int]] = []
    satellites: list[list[int]] = []
    for v in range(n):
        if root[v] == v:
            home[v] = []
            if v in inner:
                continue
            if terminal[v] or degree[v] != outer[v]:
                rid[v] = len(groups)
                groups.append(home[v])
            else:
                rid[v] = ~len(satellites)
                satellites.append(home[v])
    for u, w, _, path in chains:
        if u == w:
            # a closed chain's links are never cut
            for x in path:
                home[x] = home[u]
    for v in range(n):
        if root[v] >= 0:
            home[root[v]].append(v)
    head: list[int] = []
    out: list[list[int]] = [[] for _ in groups]
    bundles: list[tuple[int, ...]] = []
    index = {q: i for i, q in enumerate(net.terminals)}
    links: list[tuple[int, int, tuple[int, ...]]] = []
    # a chain shares the core edge of its ends with their bundle and the
    # other chains between them
    edge_of: dict[tuple[int, int], int] = {}
    for (u, v), eids in bundle_of.items():
        if root[u] != u or root[v] != v or u in inner or v in inner:
            continue
        ru, rv = rid[u], rid[v]
        if ru >= 0 and rv >= 0:
            if chains:
                edge_of[u, v] = len(bundles)
            out[ru].append(len(head))
            out[rv].append(len(head) + 1)
            head += (rv, ru)
            bundles.append(tuple(eids))
        else:
            # a satellite's bundle to a terminal
            s, q = (~ru, v) if ru < 0 else (~rv, u)
            links.append((s, index[q], tuple(eids)))
    series = []
    for u, w, chain, path in chains:
        if u != w:
            j = edge_of.setdefault((u, w) if u < w else (w, u), len(bundles))
            u, w = rid[u], rid[w]
            if j == len(bundles):
                out[u].append(len(head))
                out[w].append(len(head) + 1)
                head += (w, u)
                bundles.append(())
            series.append((j, u, w, tuple(map(tuple, chain)), [home[x] for x in path]))
    terminals = tuple(rid[q] for q in net.terminals)
    return _Shape(terminals, groups, bundles, tuple(head), tuple(map(tuple, out)), satellites, links, series)


def _solve_flow(net: Network, bp: Bipartition) -> tuple[CutResult, _Dinic]:
    """The one flow of a bipartition, from the zero flow: its complement
    side (terminal 0's) is the source, its S side the sink.  Returns its
    canonical cut, its cutset read from its side (:func:`_cutset`) and
    certified (the cut's cost must equal the flow's value), and the
    residual network it was read from."""
    if bp.k != net.k:
        raise InvalidParameterError(f"bipartition is for k={bp.k}, network has k={net.k}")
    n, sources = net.n, bp.coside_vertices(net)
    d = _Dinic(net, sources, bp.side_vertices(net))
    scaled = d.max_flow(n, n + 1)

    # the side is what the last level BFS reached, plus the sources (the
    # arcs into them run to s)
    in_side = [x >= 0 for x in d.level[:n]]
    for q in sources:
        in_side[q] = True
    cutset, den = _cutset(net, in_side), net.cost_denominator
    cut_cost = sum([net.scaled_costs[eid] for eid in cutset])
    if cut_cost != scaled:
        raise InternalError(f"max-flow {Fraction(scaled, den)} differs from its cut cost {Fraction(cut_cost, den)}")
    # frozenset() of a set sizes its table to fit; from a generator it
    # keeps the slack of incremental growth
    return CutResult(Fraction(scaled, den), cutset, frozenset({v for v in range(n) if in_side[v]})), d


def _walk(graph: _Reduced) -> tuple[list[int], np.ndarray]:
    """The canonical cut of every bipartition of ``graph``'s terminals:
    (scaled values, rows x n bool side matrix), row i for the bipartition
    of mask 2 * (i + 1).  The cuts are read from the sides, once, for the
    input network (:func:`mimick._table`).

    One Gray-code walk on one residual network.  Consecutive bipartitions
    differ by one terminal, so a step moves only that terminal between the
    super-source s and the super-sink t: the twins of its out-arcs are
    redirected and s's arc list reset.  The flow already in the residual
    stays feasible (conservation holds at every non-terminal), so Dinic
    augments it to a maximum flow (the reuse of Gallo, Grigoriadis and
    Tarjan's parametric flow and of Kohli and Torr's dynamic graph cuts),
    along its first search's tree path first.  The canonical side is what
    the last level BFS reached plus the source terminals: each row keeps
    that level list, and a block of at most ``_SIDE_BLOCK`` entries of
    them is written into the side matrix at once.

    Sides are nested: with more terminals on the source side the canonical
    side can only grow (the lattice argument behind Gallo, Grigoriadis and
    Tarjan's nested cuts).  When terminal j joins the source side, the last
    side R is still reached and closed: every residual arc out of s or R
    ends at s or in R, else the last BFS would have gone on, and the arcs
    into j, which now run to s, ran to t, so they are saturated.  An
    augmenting path cannot enter R and leave it, and augmenting along
    paths outside R opens no arc out of R.  So s's arc list is j's arcs
    alone, R is settled (:attr:`_Dinic.settled`: the last level list
    itself), and the new side is R plus what the search from j's arcs
    reaches.  When j joins the sink side, s's arc list is every source
    terminal's, and the search stays inside R by itself.

    Nothing is checked here: :meth:`mimick.TerminalCuts.certify` checks
    that each row's side, lifted to the input, cuts edges that cost
    exactly the value this flow bookkeeping reports.  Of ``graph`` it
    reads ``n``, ``terminals`` and ``arcs()``."""
    n, terminals = graph.n, graph.terminals
    k = len(terminals)
    rows = (1 << (k - 1)) - 1
    s, t = n, n + 1
    head, _, out = graph.arcs()
    # every terminal starts on the source side, at the zero flow; t's arc
    # list stays empty: the walk never searches from t
    source = [True] * k
    d = _Dinic(graph, terminals, ())
    to, res, adj = d.to, d.cap, d.adj
    values = [0] * rows
    side = np.zeros((rows, n), dtype=bool)
    # each row's last level list, which no later step mutates, kept until
    # a block of them is written into ``side`` together
    block = max(1, _SIDE_BLOCK // (n + 2))
    kept: list[list[int]] = []
    at: list[int] = []
    # the flow's value: the net flow out of the source-side terminals
    value = 0
    # with no arcs every flow is zero and every side is its source
    # terminals, which are set after the loop: no flow runs
    for i in range(1, rows + 1 if head else 1):
        # step i flips terminal tz(i) + 1; terminal 0 never moves
        j = (i & -i).bit_length()
        arcs = out[terminals[j]]
        # the terminal's net outflow: an arc carries half its twin's
        # residual minus its own
        outflow = sum([res[a ^ 1] - res[a] for a in arcs]) // 2
        source[j] = not source[j]
        value += outflow if source[j] else -outflow
        end = s if source[j] else t
        for a in arcs:
            to[a ^ 1] = end
        if source[j]:
            # the last side is still reached and closed: only what j's
            # arcs newly reach is searched
            adj[s] = arcs
            d.settled = d.level
        else:
            adj[s] = [a for on, q in zip(source, terminals) if on for a in out[q]]
            d.settled = None
        value += d.max_flow(s, t)
        row = (i ^ (i >> 1)) - 1
        values[row] = value
        kept.append(d.level)
        at.append(row)
        if len(kept) == block or i == rows:
            side[at] = np.array(kept)[:, :n] >= 0
            kept, at = [], []
    # no arc runs into a terminal, so the level BFS leaves their columns
    # unset; a terminal is on the side iff its bit of the row's mask is clear
    masks = np.arange(2, 2 * rows + 2, 2, dtype=np.int64)
    side[:, list(terminals)] = (masks[:, None] >> np.arange(k) & 1) == 0
    return values, side


def _cutset(net: Network, in_side: Sequence[bool]) -> frozenset[int]:
    """Ids of the edges with exactly one end on the side."""
    return frozenset({eid for eid, (u, v) in enumerate(net.ends) if in_side[u] != in_side[v]})


def min_separating_cut(net: Network, bp: Bipartition) -> CutResult:
    """Canonical minimum cut for one terminal bipartition.

    The returned ``side`` is the inclusion-minimal side containing
    terminal 0 (the super-source side); its terminal trace is the
    bipartition's complement side.
    """
    return _solve_flow(net, bp)[0]


def min_cut_and_uniqueness(net: Network, bp: Bipartition) -> tuple[CutResult, bool]:
    """Canonical minimum cut plus whether it is the only minimum cut, both
    read from one flow: the cutset is unique iff the source-minimal and
    sink-minimal minimum cuts share it."""
    cut, residual = _solve_flow(net, bp)
    in_sink = residual.reach(net.n + 1)[: net.n]
    for q in bp.side_vertices(net):
        in_sink[q] = True
    return cut, cut.cutset == _cutset(net, in_sink)


def uniqueness_by_flow(net: Network, bp: Bipartition) -> bool:
    """True iff the bipartition's minimum cutset is unique."""
    return min_cut_and_uniqueness(net, bp)[1]


# --- exhaustive oracle ------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    value: Fraction
    min_cutsets: frozenset[frozenset[int]]
    second_value: Fraction | None


def _edge_tables(net: Network, bp: Bipartition):
    """Split edges by how their crossing state depends on the mask.  Only
    the non-terminals with an edge other than a self-loop get a bit: an
    isolated one never changes a cutset."""
    side = set(bp.side_indices())
    term_side = {t: 1 if i in side else 0 for i, t in enumerate(net.terminals)}
    nonterms = [v for v in range(net.n) if v not in term_side]
    bit_of = {v: i for i, v in enumerate(nonterms)}
    den = net.cost_denominator
    base = 0
    one_bit, one_flip, one_cost = [], [], []
    two_a, two_b, two_cost = [], [], []
    for (u, v), c in zip(net.ends, net.scaled_costs):
        if u == v:
            continue
        su, sv = term_side.get(u), term_side.get(v)
        if su is not None and sv is not None:
            if su != sv:
                base += c
        elif su is None and sv is None:
            two_a.append(bit_of[u])
            two_b.append(bit_of[v])
            two_cost.append(c)
        else:
            term = su if su is not None else sv
            free = v if su is not None else u
            one_bit.append(bit_of[free])
            one_flip.append(term)
            one_cost.append(c)
    linked = {*one_bit, *two_a, *two_b}
    if len(linked) < len(nonterms):
        keep = sorted(linked)
        renumber = {b: i for i, b in enumerate(keep)}
        nonterms = [nonterms[b] for b in keep]
        one_bit, two_a, two_b = ([renumber[b] for b in bits] for bits in (one_bit, two_a, two_b))
    return nonterms, den, base, (one_bit, one_flip, one_cost), (two_a, two_b, two_cost)


def _crossing_cutset(net: Network, bp: Bipartition, nonterms: Sequence[int], mask: int) -> frozenset[int]:
    """The cutset of ``mask``; a vertex without a bit stays on side 0."""
    in_s = [False] * net.n
    for i, t in enumerate(net.terminals):
        in_s[t] = bool(bp.mask >> i & 1)
    for i, v in enumerate(nonterms):
        in_s[v] = bool(mask >> i & 1)
    return _cutset(net, in_s)


def oracle_enumeration(net: Network, bp: Bipartition) -> OracleResult:
    """Exhaustive sweep over all consistent vertex bipartitions: 2**(n-k),
    less the isolated non-terminals, which stay on side 0.  Each distinct
    minimum cutset's cost is re-read from the network's own costs, so a
    kernel fault raises ``InternalError``."""
    if bp.k != net.k:
        raise InvalidParameterError(f"bipartition is for k={bp.k}, network has k={net.k}")
    p = net.n - net.k
    if p > ORACLE_CAPACITY:
        raise OracleCapacityError(f"n - k = {p} exceeds oracle capacity {ORACLE_CAPACITY}")
    nonterms, den, base, ones, twos = _edge_tables(net, bp)
    vmin, masks, second = _kernels.minimum(1 << len(nonterms), base, *ones, *twos)
    cutsets = frozenset(_crossing_cutset(net, bp, nonterms, m) for m in masks)
    for cutset in cutsets:
        cost = sum(map(net.scaled_costs.__getitem__, cutset))
        if cost != vmin:
            raise InternalError(f"oracle minimum {vmin} differs from its cutset's cost {cost}")
    return OracleResult(
        Fraction(vmin, den),
        cutsets,
        Fraction(second, den) if second is not None else None,
    )


def _gaps(core: _Reduced, bps: Sequence[Bipartition]) -> Iterator[GapReport]:
    """The gap report of each bipartition of ``core``'s network, in order:
    in closed form from the core when every vertex is a terminal or a
    satellite (:func:`_closed_gaps`), from one oracle sweep each, as they
    are read, otherwise (so ``OracleCapacityError`` beyond its capacity)."""
    if not _satellite_only(core):
        return (_oracle_gap(core.net, bp) for bp in bps)
    return _closed_gaps(core, [bp.mask for bp in bps])


def global_gap(net: Network) -> Fraction | None:
    """Minimum gap over all bipartitions (0 when some minimum cut is tied;
    None when no bipartition has more than one possible cutset)."""
    return _min_gap(_gaps(_reduce(net), enumerate_bipartitions(net.k)))


def _oracle_gap(net: Network, bp: Bipartition) -> GapReport:
    res = oracle_enumeration(net, bp)
    if len(res.min_cutsets) > 1:
        return GapReport(Fraction(0), res.value, False)
    if res.second_value is None:
        return GapReport(None, None, True)
    return GapReport(res.second_value - res.value, res.second_value, True)


def _satellite_core(net: Network) -> _Reduced:
    """``net``'s reduced core when :func:`_satellite_only`, else
    ``InvalidParameterError``."""
    core = _reduce(net)
    if not _satellite_only(core):
        raise InvalidParameterError("the network must hold only terminals and satellites")
    return core


def _satellite_only(core: _Reduced) -> bool:
    """True iff the core has no arc and every vertex of its network is a
    terminal or a satellite of one vertex, as in the bipartite family and
    stars.  A peeled or dropped vertex, or a core arc, gives cutsets that
    the satellites' choices do not list, so :func:`_closed_gaps` declines
    those networks."""
    shape, net = core.shape, core.net
    # the core's vertices are the terminals alone, each satellite holds one
    # vertex, and none was dropped
    one_each = len(shape.vertex_cols) == net.k and len(shape.sat_vertex) == len(shape.satellites) == net.n - net.k
    return one_each and not shape.head


def _closed_gaps(core: _Reduced, masks: Sequence[int]) -> Iterator[GapReport]:
    """The gap report of each row mask's bipartition, for a core of
    :func:`_satellite_core`.  A row's cutsets are then the satellites'
    independent choices: satellite s costs a to the source-side terminals
    on the sink side and b to the others on the source side
    (:meth:`_Reduced.split`), and the two choices cut different edges, as
    its costs are positive.  So the minimum is the sum of min(a, b) and
    the cheapest other cutset flips the satellite of least |a - b|: the
    gap, 0 when some a = b, which is a second minimum cutset.  With no
    satellite the row has one cutset.  Exact, read with the certified
    rows of :meth:`_Reduced.satellite_rows`."""
    for part in core.satellite_rows(masks):
        for value, delta in zip(part.values, part.deltas):
            yield _gap_report(value, delta, core.den)


def _gap_report(value: int, delta: int | None, den: int) -> GapReport:
    """The gap report of a satellite row of scaled value ``value`` over
    ``den``, whose cheapest satellite flip costs ``delta`` more (None when
    the row has no satellite; 0 is a tie)."""
    if delta is None:
        return GapReport(None, None, True)
    if delta:
        return GapReport(Fraction(delta, den), Fraction(value + delta, den), True)
    return GapReport(Fraction(0), Fraction(value, den), False)


def _min_gap(reports: Iterable[GapReport]) -> Fraction | None:
    """``global_gap`` of a sequence of reports; stops at the first tie."""
    best: Fraction | None = None
    for rep in reports:
        if not rep.unique:
            return Fraction(0)
        if rep.delta is not None and (best is None or rep.delta < best):
            best = rep.delta
    return best
