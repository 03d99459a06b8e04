"""Plane multigraph embeddings, dual graphs, and cut/circuit duality checks.

An embedding is a rotation system: every edge ``e`` contributes darts
``2e`` (at its first endpoint) and ``2e+1`` (at its second), and each
vertex lists its incident darts in cyclic order.  Faces are the orbits of
``dart -> successor-in-rotation(reverse(dart))``; the validator requires
genus zero (Euler formula per connected component).

The dual keeps the primal's edge ids and dart ids: dual vertex = primal
face, dual rotation at a face = that face's dart orbit.  Taking the dual
twice therefore reproduces the primal rotation system exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidEdgeError, InvalidEmbeddingError, NotACircuitError
from .network import Network, connected_components


class PlaneEmbedding:
    """Immutable rotation-system embedding of a network, validated genus 0."""

    __slots__ = ("net", "rotations", "rotation_next", "faces", "face_of_dart", "components")

    def __init__(self, net: Network, rotations: Sequence[Sequence[int]]):
        if len(rotations) != net.n:
            raise InvalidEmbeddingError(f"need {net.n} rotation lists, got {len(rotations)}")
        # dart d is arc d of net.arcs(), so each vertex lists its out-arcs;
        # the emptiness test skips the bare vertices of a subgraph cheaply
        _, _, out = net.arcs()
        for v, rot in enumerate(rotations):
            if (rot or out[v]) and sorted(rot) != list(out[v]):
                raise InvalidEmbeddingError(f"vertex {v} lists darts {list(rot)}, its darts are {list(out[v])}")
        n_darts = 2 * net.m
        self.net = net
        self.rotations = tuple(tuple(rot) for rot in rotations)
        nxt = [0] * n_darts
        for rot in self.rotations:
            for i, d in enumerate(rot):
                nxt[d] = rot[(i + 1) % len(rot)]
        self.rotation_next = tuple(nxt)
        self.faces = self._trace_faces()
        face_of = [-1] * n_darts
        for f, orbit in enumerate(self.faces):
            for d in orbit:
                face_of[d] = f
        self.face_of_dart = tuple(face_of)
        self.components = connected_components(net)
        self._check_genus()

    def _trace_faces(self) -> tuple[tuple[int, ...], ...]:
        n_darts = 2 * self.net.m
        visited = [False] * n_darts
        orbits = []
        for start in range(n_darts):
            if visited[start]:
                continue
            orbit = []
            d = start
            while not visited[d]:
                visited[d] = True
                orbit.append(d)
                d = self.rotation_next[d ^ 1]
            orbits.append(tuple(orbit))
        return tuple(orbits)

    def _check_genus(self) -> None:
        """The Euler certificate: V - E + F = 2 on every component."""
        comps = self.components
        comp_of = {}
        for ci, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = ci
        v_count = [len(c) for c in comps]
        e_count = [0] * len(comps)
        f_count = [0] * len(comps)
        for u, _ in self.net.ends:
            e_count[comp_of[u]] += 1
        head = self.net.arcs()[0]
        for orbit in self.faces:
            f_count[comp_of[head[orbit[0] ^ 1]]] += 1
        for ci in range(len(comps)):
            faces = f_count[ci] if e_count[ci] else 1
            if v_count[ci] - e_count[ci] + faces != 2:
                raise InvalidEmbeddingError(
                    f"component {ci} is not genus 0: V={v_count[ci]} E={e_count[ci]} F={faces}"
                )

    @property
    def face_count(self) -> int:
        """Face count satisfying |V| - |E| + |F| = 1 + |CC| (outer faces of
        separate components merged)."""
        return 1 + len(self.components) - self.net.n + self.net.m

    def __repr__(self) -> str:
        return f"PlaneEmbedding({self.net!r}, faces={self.face_count})"


@dataclass(frozen=True, eq=False)
class DualGraph:
    """Dual of a connected plane multigraph.

    Edge ids are shared: primal edge ``e`` pairs with dual edge ``e`` (same
    cost), and dart ids carry over unchanged.
    """

    primal: PlaneEmbedding
    dual: Network
    embedding: PlaneEmbedding


def build_dual(emb: PlaneEmbedding) -> DualGraph:
    if len(emb.components) != 1:
        raise InvalidEmbeddingError("dual construction needs a connected primal")
    face_of, net = emb.face_of_dart, emb.net
    ends = tuple(zip(face_of[0::2], face_of[1::2]))
    dual_net = Network._of(max(len(emb.faces), 1), ends, (), net.cost_denominator, net.scaled_costs)
    dual_rotations = [tuple(orbit) for orbit in emb.faces]
    if not dual_rotations:
        dual_rotations = [()]
    dual_emb = PlaneEmbedding(dual_net, dual_rotations)
    return DualGraph(emb, dual_net, dual_emb)


def _subembedding(emb: PlaneEmbedding, edge_subset: Iterable[int]) -> PlaneEmbedding:
    """The plane subgraph on the given edge ids: every vertex kept, the
    kept edges renumbered in id order, rotations inherited.  It is
    validated like any embedding, so its genus check certifies its faces."""
    kept = sorted(set(edge_subset))
    for eid in kept:
        if not (0 <= eid < emb.net.m):
            raise InvalidEdgeError(f"unknown edge id {eid}")
    new_id = {eid: i for i, eid in enumerate(kept)}
    net = emb.net
    ends, scaled = tuple([net.ends[e] for e in kept]), [net.scaled_costs[e] for e in kept]
    sub = Network._of(net.n, ends, (), net.cost_denominator, scaled)
    rotations = [[2 * new_id[d >> 1] + (d & 1) for d in rot if d >> 1 in new_id] for rot in emb.rotations]
    return PlaneEmbedding(sub, rotations)


def faces_of_subgraph(emb: PlaneEmbedding, edge_subset: Iterable[int]) -> int:
    """Face count of the plane subgraph on the given edge ids (inherited
    rotations, outer faces of the subgraph's components merged); the empty
    subset reports one face."""
    return _subembedding(emb, edge_subset).face_count


def _dual_degrees(dual: DualGraph, edge_ids: Iterable[int]) -> dict[int, int]:
    """Degree of each dual vertex in the dual subgraph on the given edge ids
    (vertices it does not touch are left out)."""
    degrees: dict[int, int] = {}
    for eid in edge_ids:
        for v in dual.dual.ends[eid]:
            degrees[v] = degrees.get(v, 0) + 1
    return degrees


@dataclass(frozen=True)
class CircuitReport:
    edge_set: frozenset[int]
    vertex_degrees: dict[int, int]
    meeting_vertices: frozenset[int]
    face_count: int
    component_count: int


def dual_circuit_check(dual: DualGraph, primal_cutset: Iterable[int]) -> CircuitReport:
    """Check that the dual edges of a minimum cutset form a circuit (every
    incident dual vertex has degree >= 2); degree-1 vertices signal a
    non-minimal cutset or an embedding bug."""
    subset = frozenset(primal_cutset)
    sub = _subembedding(dual.embedding, subset)
    degrees = _dual_degrees(dual, subset)
    bad = [v for v, d in degrees.items() if d < 2]
    if bad:
        raise NotACircuitError(f"dual vertices of degree < 2: {sorted(bad)}")
    meeting = frozenset(v for v, d in degrees.items() if d > 2)
    # components of the subgraph, not counting the vertices it leaves bare
    n_comps = len(sub.components) - (sub.net.n - len(degrees))
    return CircuitReport(subset, degrees, meeting, sub.face_count, n_comps)


@dataclass(frozen=True)
class BoundReport:
    k: int
    cc_single: tuple[int, ...]
    cc_union: int | None
    meeting_vertices: int | None
    single_ok: bool
    union_ok: bool | None
    meeting_ok: bool | None

    @property
    def ok(self) -> bool:
        return self.single_ok and self.union_ok is not False and self.meeting_ok is not False

    @classmethod
    def of(
        cls, k: int, cc_single: tuple[int, ...], cc_union: int | None = None, meeting: int | None = None
    ) -> "BoundReport":
        """The bounds checked on counts already made: each cutset alone
        leaves at most k components; with a pair's union count and meeting
        vertices, the union leaves at most cc(S) + cc(T) + k and meets at
        most 6k dual vertices."""
        single_ok = all(cc <= k for cc in cc_single)
        if cc_union is None:
            return cls(k, cc_single, None, None, single_ok, None, None)
        return cls(k, cc_single, cc_union, meeting, single_ok, cc_union <= sum(cc_single) + k, meeting <= 6 * k)


def meeting_vertices(dual: DualGraph, edge_ids: Iterable[int]) -> int:
    """Dual vertices of degree above 2 in the dual subgraph on the given
    edge ids: where the dual circuits of a union of cutsets meet."""
    return sum(1 for d in _dual_degrees(dual, edge_ids).values() if d > 2)


def check_component_bounds(
    emb: PlaneEmbedding,
    dual: DualGraph,
    cutset_s: Iterable[int],
    cutset_t: Iterable[int] | None = None,
) -> BoundReport:
    """Structural bounds for one or two minimum cutsets: at most k components
    after removing one cutset; at most cc(S) + cc(T) + k after removing both;
    at most 6k meeting vertices in the dual subgraph of the union.  One
    search of the network per cutset and one on the union, so the reference
    for counts read any other way."""
    k = emb.net.k
    es = frozenset(cutset_s)
    cc_s = len(connected_components(emb.net, es))
    if cutset_t is None:
        return BoundReport.of(k, (cc_s,))
    et = frozenset(cutset_t)
    union = es | et
    return BoundReport.of(
        k,
        (cc_s, len(connected_components(emb.net, et))),
        len(connected_components(emb.net, union)),
        meeting_vertices(dual, union),
    )
