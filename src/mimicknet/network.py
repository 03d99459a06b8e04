"""Data model for k-terminal networks with exact rational edge costs.

Vertices are dense ids ``0..n-1``.  Edges keep their position in the edge
list as a stable id, so column ``j`` of any incidence matrix built from a
network always refers to edge ``j``.  Costs are given as exact rationals
(``int``, ``fractions.Fraction``) and held as integers over one least
common denominator; no floating point enters any cut value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from operator import attrgetter, index
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    CostSizeError,
    InvalidEdgeError,
    InvalidParameterError,
    InvalidTerminalCountError,
    TerminalCollisionError,
)


class Edge(NamedTuple):
    u: int
    v: int
    cost: Fraction


# The m scaled costs may take at most this many times the bits of the
# given numerators and denominators, plus the floor.
_COST_BITS_RATIO = 64
_COST_BITS_FLOOR = 1 << 16


def _scaled(costs: Iterable) -> tuple[int, tuple[int, ...]]:
    """Exact costs as (their least common denominator, each cost times
    it).  A cost that is not a ``numbers.Rational`` (a float, say) or not
    positive raises ``InvalidParameterError``.  Each scaled cost has about
    as many bits as the denominator, so m pairwise coprime denominators
    would take memory quadratic in the input: ``CostSizeError`` as soon as
    m times the bits of the denominator built so far passes
    ``_COST_BITS_RATIO`` times the bits given, plus ``_COST_BITS_FLOOR``."""
    costs = tuple(costs)
    types = set(map(type, costs))
    if not all(issubclass(t, Rational) for t in types):
        bad = next(c for c in costs if not isinstance(c, Rational))
        raise InvalidParameterError(f"edge cost must be an exact rational, got {bad!r}")
    nums, dens = list(map(attrgetter("numerator"), costs)), list(map(attrgetter("denominator"), costs))
    if not types <= {int, Fraction}:
        # numpy integers and other rationals: their parts as Python integers
        nums, dens = list(map(int, nums)), list(map(int, dens))
    if nums and min(nums) <= 0:
        bad = next(c for c, x in zip(costs, nums) if x <= 0)
        raise InvalidParameterError(f"edge cost must be positive, got {bad}")
    given = sum(map(int.bit_length, nums)) + sum(map(int.bit_length, dens))
    budget = _COST_BITS_RATIO * given + _COST_BITS_FLOOR
    den = 1
    for d in set(dens):
        den = math.lcm(den, d)
        if len(dens) * den.bit_length() > budget:
            raise CostSizeError(
                f"{len(dens)} costs over their common denominator would take more than"
                f" {_COST_BITS_RATIO} times the {given} bits they are given in"
            )
    return den, tuple([x * (den // d) for x, d in zip(nums, dens)])


class Network:
    """Undirected multigraph (parallel edges and self-loops allowed) with
    an ordered tuple of distinct terminal vertices.

    Its data are ``n``, ``ends`` (edge i joins ``ends[i]``), ``terminals``
    and the costs: ``scaled_costs`` over ``cost_denominator``, the least
    common denominator, so two networks are equal iff these are.
    ``edges`` is a view of them, built on first read.

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("n", "ends", "terminals", "cost_denominator", "scaled_costs", "_arcs", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple], terminals: Sequence[int]):
        if n <= 0:
            raise InvalidParameterError(f"need at least one vertex, got n={n}")
        ends, costs = [], []
        for u, v, cost in edges:
            try:
                u, v = index(u), index(v)
            except TypeError:
                raise InvalidEdgeError(f"edge ({u},{v}) has an endpoint that is not an integer") from None
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidEdgeError(f"edge ({u},{v}) out of range for n={n}")
            ends.append((u, v))
            costs.append(cost)
        terms = tuple(terminals)
        if len(set(terms)) != len(terms):
            raise InvalidTerminalCountError(f"terminals not distinct: {terms}")
        if any(not (0 <= t < n) for t in terms):
            raise InvalidTerminalCountError(f"terminal out of range: {terms}")
        # terminals may be empty for derived graphs (duals); every operation
        # that needs terminals checks k itself.
        self.n, self.ends, self.terminals = n, tuple(ends), terms
        self.cost_denominator, self.scaled_costs = _scaled(costs)
        self._arcs = self._edges = None

    @classmethod
    def _of(cls, n: int, ends: tuple, terminals: tuple, den: int, scaled: Sequence[int]) -> "Network":
        """The network of checked ends and terminals and positive integer
        costs ``scaled`` over ``den``, with no second check.  Dividing by
        gcd(den, *scaled) leaves the least common denominator of the costs
        in lowest terms, as the public constructor has it."""
        g = math.gcd(den, *scaled)
        net = cls.__new__(cls)
        net.n, net.ends, net.terminals = n, ends, terminals
        net.cost_denominator = den // g
        net.scaled_costs = tuple([c // g for c in scaled]) if g > 1 else tuple(scaled)
        net._arcs = net._edges = None
        return net

    @property
    def k(self) -> int:
        return len(self.terminals)

    @property
    def m(self) -> int:
        return len(self.ends)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Each edge as ``Edge(u, v, cost)``, its cost a ``Fraction``;
        built on first read."""
        if self._edges is None:
            den = self.cost_denominator
            self._edges = tuple([Edge(u, v, Fraction(c, den)) for (u, v), c in zip(self.ends, self.scaled_costs)])
        return self._edges

    def with_costs(self, costs: Sequence[Fraction]) -> "Network":
        """Same graph, new edge costs (edge ids preserved)."""
        if len(costs) != self.m:
            raise InvalidParameterError("cost vector length mismatch")
        return Network._of(self.n, self.ends, self.terminals, *_scaled(costs))

    def arcs(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Directed view of the multigraph: arc ``2*i`` runs along edge ``i``
        from ``u`` to ``v`` and arc ``2*i + 1`` back (a self-loop gives two
        arcs from its vertex to itself).  Returns the head and the scaled
        cost of every arc, and each vertex's out-arcs in arc order.  Built
        on first use."""
        if self._arcs is None:
            # slice assignments: every new plane network in the generator
            # builds these once
            head, tail, cap = [0] * (2 * self.m), [0] * (2 * self.m), [0] * (2 * self.m)
            head[1::2] = tail[0::2] = [u for u, _ in self.ends]
            head[0::2] = tail[1::2] = [v for _, v in self.ends]
            cap[0::2] = cap[1::2] = self.scaled_costs
            out: list[list[int]] = [[] for _ in range(self.n)]
            for a, v in enumerate(tail):
                out[v].append(a)
            self._arcs = (tuple(head), tuple(cap), tuple(map(tuple, out)))
        return self._arcs

    def _key(self) -> tuple:
        return (self.n, self.ends, self.terminals, self.cost_denominator, self.scaled_costs)

    def __repr__(self) -> str:
        return f"Network(n={self.n}, m={self.m}, k={self.k})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class Bipartition:
    """Canonical nontrivial split of the terminal set.

    ``mask`` has bit ``i`` set iff terminal ``i`` lies on the S side.  Bit 0
    is always clear (terminal 0 lies on the complement side), which fixes one
    representative per unordered split.
    """

    k: int
    mask: int

    def __post_init__(self):
        if self.k < 2:
            raise InvalidTerminalCountError(f"need k >= 2 terminals, got {self.k}")
        full = (1 << self.k) - 1
        if not (0 < self.mask < full):
            raise InvalidParameterError(f"trivial bipartition mask {self.mask:#b}")
        if self.mask & 1:
            raise InvalidParameterError("non-canonical mask: bit 0 must be clear")

    @classmethod
    def from_mask(cls, k: int, mask: int) -> "Bipartition":
        """Canonicalize an arbitrary nontrivial terminal-index mask."""
        full = (1 << k) - 1
        if not (0 < mask < full):
            raise InvalidParameterError(f"trivial bipartition mask {mask:#b}")
        if mask & 1:
            mask ^= full
        return cls(k, mask)

    @classmethod
    def from_indices(cls, k: int, indices: Iterable[int]) -> "Bipartition":
        mask = 0
        for i in indices:
            if not (0 <= i < k):
                raise InvalidParameterError(f"terminal index {i} out of range")
            mask |= 1 << i
        return cls.from_mask(k, mask)

    @property
    def row_index(self) -> int:
        """Position in the canonical enumeration (ascending even masks)."""
        return self.mask // 2 - 1

    def side_indices(self) -> tuple[int, ...]:
        """Terminal indices on the S side (never contains index 0)."""
        return tuple(i for i in range(self.k) if self.mask >> i & 1)

    def coside_indices(self) -> tuple[int, ...]:
        """Terminal indices on the complement side (contains index 0)."""
        return tuple(i for i in range(self.k) if not self.mask >> i & 1)

    def side_vertices(self, net: Network) -> tuple[int, ...]:
        return tuple(net.terminals[i] for i in self.side_indices())

    def coside_vertices(self, net: Network) -> tuple[int, ...]:
        return tuple(net.terminals[i] for i in self.coside_indices())


def enumerate_bipartitions(k: int) -> list[Bipartition]:
    """All 2**(k-1) - 1 canonical bipartitions, ascending by mask.

    This order is the row order of every incidence matrix and terminal-cuts
    store built from a k-terminal network.
    """
    if k < 2:
        raise InvalidTerminalCountError(f"need k >= 2 terminals, got {k}")
    return [Bipartition(k, mask) for mask in range(2, (1 << k) - 1, 2)]


def connected_components(net: Network, removed_edges: frozenset[int] | set[int] = frozenset()) -> list[frozenset[int]]:
    """Vertex sets of the maximal connected pieces of ``net`` minus the
    given edge ids.  Every vertex appears (isolated ones as singletons);
    components are in order of smallest member."""
    for eid in removed_edges:
        if not (0 <= eid < net.m):
            raise InvalidEdgeError(f"unknown edge id {eid}")
    head, _, out = net.arcs()
    seen = [False] * net.n
    comps: list[frozenset[int]] = []
    for start in range(net.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:
            for a in out[v]:
                w = head[a]
                if not seen[w] and a >> 1 not in removed_edges:
                    seen[w] = True
                    comp.append(w)
        comps.append(frozenset(comp))
    return comps


class Quotient:
    """The graph of a contraction map's classes: one vertex per class and
    one edge per input edge that joins two different classes, parallel
    edges kept.

    Let the classes be the components of ``net`` minus an edge set U, as
    :func:`mimick.build_by_contraction` contracts them.  Then for every
    C ⊆ U the components of ``net`` minus C are those of the quotient minus
    C: every edge outside U lies inside a class, and every class is
    connected without U.  :meth:`component_counts` counts them with no
    search of ``net``; for a C that is not a subset of U the count is not
    that of ``net`` minus C."""

    __slots__ = ("m", "size", "edge_ids", "ends")

    def __init__(self, net: Network, cmap: ContractionMap):
        ends = [(cmap.class_of[u], cmap.class_of[v]) for u, v in net.ends]
        crossing = [eid for eid, (a, b) in enumerate(ends) if a != b]
        self.m, self.size = net.m, len(cmap)
        self.edge_ids = np.array(crossing, dtype=np.intp)
        self.ends = [ends[eid] for eid in crossing]

    def component_counts(self, removed: np.ndarray) -> list[int]:
        """For each row of ``removed``, a rows x m bool array whose row
        marks an edge set C ⊆ U, the number of components of ``net`` minus
        C: the class count less the merges that the quotient's edges
        outside C make (union-find on the classes)."""
        if removed.ndim != 2 or removed.shape[1] != self.m:
            raise InvalidParameterError(f"need a rows x {self.m} edge mask, got shape {removed.shape}")
        counts = []
        for row in removed[:, self.edge_ids].tolist():
            root = list(range(self.size))
            count = self.size
            for cut, (a, b) in zip(row, self.ends):
                if cut:
                    continue
                while root[a] != a:
                    root[a] = a = root[root[a]]
                while root[b] != b:
                    root[b] = b = root[root[b]]
                if a != b:
                    root[a] = b
                    count -= 1
            counts.append(count)
        return counts


class ContractionMap:
    """Partition of the vertex set into contraction classes.

    Class ids are dense, ordered by smallest member vertex.  At most one
    terminal per class; the class of a terminal becomes that terminal after
    contraction.
    """

    __slots__ = ("class_of", "classes", "terminal_of_class")

    def __init__(self, net: Network, partition: Iterable[Iterable[int]]):
        classes = [tuple(sorted(set(part))) for part in partition]
        if not all(classes):
            raise InvalidParameterError("empty contraction class")
        classes.sort(key=lambda c: c[0])
        class_of = [-1] * net.n
        for cid, members in enumerate(classes):
            for v in members:
                if not (0 <= v < net.n):
                    raise InvalidParameterError(f"vertex {v} out of range")
                if class_of[v] != -1:
                    raise InvalidParameterError(f"vertex {v} in two classes")
                class_of[v] = cid
        if any(c == -1 for c in class_of):
            missing = [v for v, c in enumerate(class_of) if c == -1]
            raise InvalidParameterError(f"partition does not cover vertices {missing}")
        term_of_class: list[int | None] = [None] * len(classes)
        for t in net.terminals:
            cid = class_of[t]
            if term_of_class[cid] is not None:
                raise TerminalCollisionError(
                    f"class {cid} holds terminals {term_of_class[cid]} and {t}"
                )
            term_of_class[cid] = t
        self.class_of = tuple(class_of)
        self.classes = tuple(classes)
        self.terminal_of_class = tuple(term_of_class)

    @classmethod
    def identity(cls, net: Network) -> "ContractionMap":
        return cls(net, [[v] for v in range(net.n)])

    def __len__(self) -> int:
        return len(self.classes)


def contract(net: Network, cmap: ContractionMap) -> Network:
    """Contract every class to a single vertex.

    Crossing edges between a class pair merge into one edge whose cost is
    the exact sum of the originals; edges internal to a class disappear.
    Terminal order is preserved.
    """
    class_of = cmap.class_of
    merged: dict[tuple[int, int], int] = {}
    for (u, v), c in zip(net.ends, net.scaled_costs):
        a, b = class_of[u], class_of[v]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        merged[key] = merged.get(key, 0) + c
    terminals = tuple([class_of[t] for t in net.terminals])
    return Network._of(len(cmap), tuple(merged), terminals, net.cost_denominator, tuple(merged.values()))
