from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicknet.errors import (
    CostSizeError,
    InvalidEdgeError,
    InvalidParameterError,
    InvalidTerminalCountError,
    TerminalCollisionError,
)
from mimicknet.generate import random_planar_network
from mimicknet.mimick import build_by_contraction
from mimicknet.planar import PlaneEmbedding, _subembedding, build_dual
from mimicknet.network import (
    Bipartition,
    ContractionMap,
    Edge,
    Network,
    Quotient,
    connected_components,
    contract,
    enumerate_bipartitions,
)


def small_networks():
    """Random little multigraphs for property tests."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, 7))
        m = draw(st.integers(0, 12))
        edges = [
            (
                draw(st.integers(0, n - 1)),
                draw(st.integers(0, n - 1)),
                Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 8))),
            )
            for _ in range(m)
        ]
        k = draw(st.integers(2, n))
        terminals = draw(st.permutations(range(n)))[:k]
        return Network(n, edges, terminals)

    return build()


class TestBipartitions:
    def test_k2_single_split(self):
        bps = enumerate_bipartitions(2)
        assert [bp.mask for bp in bps] == [0b10]
        assert bps[0].side_indices() == (1,)
        assert bps[0].coside_indices() == (0,)

    def test_k3_three_splits(self):
        bps = enumerate_bipartitions(3)
        assert [bp.side_indices() for bp in bps] == [(1,), (2,), (1, 2)]

    def test_k6_count(self):
        assert len(enumerate_bipartitions(6)) == 31

    def test_k_below_two_rejected(self):
        with pytest.raises(InvalidTerminalCountError):
            enumerate_bipartitions(1)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
    def test_canonical_and_distinct(self, k):
        bps = enumerate_bipartitions(k)
        masks = [bp.mask for bp in bps]
        assert len(set(masks)) == len(masks) == 2 ** (k - 1) - 1
        assert all(mask & 1 == 0 for mask in masks)
        assert masks == sorted(masks)
        assert [bp.row_index for bp in bps] == list(range(len(bps)))

    def test_from_indices_canonicalizes(self):
        bp = Bipartition.from_indices(3, [0, 2])  # contains terminal 0 -> complement
        assert bp.side_indices() == (1,)

    def test_trivial_masks_rejected(self):
        with pytest.raises(InvalidParameterError):
            Bipartition.from_mask(3, 0)
        with pytest.raises(InvalidParameterError):
            Bipartition.from_mask(3, 0b111)


class TestConnectedComponents:
    def test_path_with_removed_edge(self):
        net = Network(3, [(0, 1, 1), (1, 2, 1)], [0, 2])
        comps = connected_components(net, {0})
        assert comps == [frozenset({0}), frozenset({1, 2})]

    def test_connected_whole(self):
        net = Network(3, [(0, 1, 1), (1, 2, 1)], [0, 2])
        assert connected_components(net) == [frozenset({0, 1, 2})]

    def test_four_cycle_opposite_edges(self):
        net = Network(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], [0, 2])
        comps = connected_components(net, {0, 2})
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_unknown_edge_id(self):
        net = Network(2, [(0, 1, 1)], [0, 1])
        with pytest.raises(InvalidEdgeError):
            connected_components(net, {5})

    @settings(max_examples=40, deadline=None)
    @given(small_networks(), st.randoms(use_true_random=False))
    def test_partition_property(self, net, rng):
        removed = {i for i in range(net.m) if rng.random() < 0.4}
        comps = connected_components(net, removed)
        everything = [v for comp in comps for v in comp]
        assert sorted(everything) == list(range(net.n))
        # union-find reference: same pieces, in order of smallest member
        parent = list(range(net.n))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for eid, e in enumerate(net.edges):
            if eid not in removed:
                parent[find(e.u)] = find(e.v)
        pieces: dict[int, set[int]] = {}
        for v in range(net.n):
            pieces.setdefault(find(v), set()).add(v)
        assert comps == sorted(map(frozenset, pieces.values()), key=min)


def edge_mask(m: int, *edge_sets) -> np.ndarray:
    """One bool row per edge set, over m edge columns."""
    rows = np.zeros((len(edge_sets), m), dtype=bool)
    for row, edges in zip(rows, edge_sets):
        row[list(edges)] = True
    return rows


class TestQuotient:
    def test_path(self):
        # the union {1} leaves classes {0, 1} and {2, 3}, joined by edge 1
        net = Network(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)], [0, 3])
        q = Quotient(net, ContractionMap(net, connected_components(net, {1})))
        assert (q.size, q.edge_ids.tolist(), q.ends) == (2, [1], [(0, 1)])
        assert q.component_counts(edge_mask(3, (), {1})) == [1, 2]

    def test_union_edges_inside_a_class_and_isolated_vertices(self):
        # edges 0 and 1 are parallel, loop 3 sits on vertex 2, vertex 4 is
        # isolated: with U = {0, 2, 3}, edge 1 still holds 0 and 1 together
        net = Network(5, [(0, 1, 1), (0, 1, 2), (1, 2, 3), (2, 2, 1), (2, 3, 5)], [0, 3])
        union = {0, 2, 3}
        q = Quotient(net, ContractionMap(net, connected_components(net, union)))
        assert (q.size, q.edge_ids.tolist()) == (3, [2])
        subsets = [set(), {0}, {2}, {3}, {0, 3}, union]
        assert q.component_counts(edge_mask(5, *subsets)) == [len(connected_components(net, c)) for c in subsets]

    def test_no_rows(self):
        net = Network(3, [(0, 1, 1), (1, 2, 1)], [0, 2])
        q = Quotient(net, ContractionMap.identity(net))
        assert q.component_counts(np.zeros((0, 2), dtype=bool)) == []

    @pytest.mark.parametrize("shape", [(2,), (1, 1), (1, 3)])
    def test_mask_shape_mismatch(self, shape):
        net = Network(3, [(0, 1, 1), (1, 2, 1)], [0, 2])
        with pytest.raises(InvalidParameterError):
            Quotient(net, ContractionMap.identity(net)).component_counts(np.zeros(shape, dtype=bool))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 30), st.integers(0, 10**6), st.randoms(use_true_random=False))
    def test_counts_equal_search(self, k, more, seed, rng):
        # every table row, random pairs of rows and random subsets of the
        # union, against one search of the network each
        net, _ = random_planar_network(k + more, k, seed)
        result = build_by_contraction(net)
        cut, union = result.cuts.cut_matrix, sorted(result.cuts.union)
        q = Quotient(net, result.contraction_map)
        rows = [set(np.flatnonzero(row).tolist()) for row in cut]
        pairs = [rows[rng.randrange(len(rows))] | rows[rng.randrange(len(rows))] for _ in range(10)]
        subsets = [{e for e in union if rng.random() < p} for p in (0.0, 0.2, 0.5, 0.8, 1.0)]
        for sets in (rows, pairs, subsets):
            assert q.component_counts(edge_mask(net.m, *sets)) == [len(connected_components(net, c)) for c in sets]


class TestContract:
    def test_triangle_pair_merge(self):
        net = Network(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], [0, 2])
        cmap = ContractionMap(net, [[0], [1, 2]])
        out = contract(net, cmap)
        assert out.n == 2 and out.m == 1
        assert out.edges[0].cost == 2

    def test_identity_map(self):
        net = Network(3, [(0, 1, Fraction(3, 7)), (1, 2, 5)], [0, 2])
        out = contract(net, ContractionMap.identity(net))
        assert out == net

    def test_star_singletons_unchanged(self):
        k = 4
        net = Network(k + 1, [(i, k, 1) for i in range(k)], range(k))
        out = contract(net, ContractionMap.identity(net))
        assert out.n == 5 and out.m == 4
        assert out.terminals == (0, 1, 2, 3)

    def test_terminal_collision(self):
        net = Network(3, [(0, 1, 1), (1, 2, 1)], [0, 2])
        with pytest.raises(TerminalCollisionError):
            ContractionMap(net, [[0, 2], [1]])

    def test_empty_class_rejected(self):
        net = Network(3, [(0, 1, 1), (1, 2, 1)], [0, 2])
        with pytest.raises(InvalidParameterError, match="empty"):
            ContractionMap(net, [[0, 1], [], [2]])

    def test_partition_must_cover(self):
        net = Network(3, [(0, 1, 1), (1, 2, 1)], [0, 2])
        with pytest.raises(InvalidParameterError):
            ContractionMap(net, [[0], [1]])

    @settings(max_examples=40, deadline=None)
    @given(small_networks(), st.randoms(use_true_random=False))
    def test_cost_conservation(self, net, rng):
        # total output cost = total input cost minus intra-class cost, exactly
        n_classes = rng.randint(1, net.n)
        assignment = [rng.randrange(n_classes) for _ in range(net.n)]
        groups = {}
        for v, c in enumerate(assignment):
            groups.setdefault(c, []).append(v)
        try:
            cmap = ContractionMap(net, groups.values())
        except TerminalCollisionError:
            return
        out = contract(net, cmap)
        intra = sum(
            (e.cost for e in net.edges if cmap.class_of[e.u] == cmap.class_of[e.v]),
            Fraction(0),
        )
        total = lambda g: Fraction(sum(g.scaled_costs), g.cost_denominator)
        assert total(out) == total(net) - intra


class TestNetworkValidation:
    def test_nonpositive_cost(self):
        with pytest.raises(InvalidParameterError):
            Network(2, [(0, 1, 0)], [0, 1])

    def test_duplicate_terminals(self):
        with pytest.raises(InvalidTerminalCountError):
            Network(2, [(0, 1, 1)], [0, 0])

    def test_edge_out_of_range(self):
        with pytest.raises(InvalidEdgeError):
            Network(2, [(0, 5, 1)], [0, 1])

    def test_costs_stay_fractions(self):
        net = Network(2, [(0, 1, Fraction(7, 3))], [0, 1])
        assert net.edges[0].cost == Fraction(7, 3)
        assert net.cost_denominator == 3

    def test_float_cost_refused(self):
        # a float's binary value is not the cost its text names: 0.1 would
        # be stored as 3602879701896397/36028797018963968
        with pytest.raises(InvalidParameterError):
            Network(2, [(0, 1, 0.1)], [0, 1])

    def test_non_integer_endpoint_refused(self):
        with pytest.raises(InvalidEdgeError):
            Network(3, [(0.5, 1, 1)], [0, 1])

    def test_numpy_integers_accepted(self):
        net = Network(2, [(np.int64(0), np.int64(1), np.int64(3))], [0, 1])
        assert net == Network(2, [(0, 1, 3)], [0, 1])
        assert type(net.ends[0][0]) is int and type(net.scaled_costs[0]) is int

    def test_scaled_costs_bounded_by_the_given_bits(self):
        # costs 1/1 .. 1/m: the common denominator lcm(1..m) has about
        # 1.44 m bits, so the m scaled costs take about 1.44 m**2 bits
        def path(m, costs):
            return Network(m + 1, [(i, i + 1, c) for i, c in enumerate(costs)], [0, m])

        def harmonic(m):
            return [Fraction(1, i + 1) for i in range(m)]

        assert path(300, harmonic(300)).cost_denominator.bit_length() == 432
        with pytest.raises(CostSizeError):
            path(1000, harmonic(1000))
        with pytest.raises(InvalidParameterError):
            path(1000, [1] * 1000).with_costs(harmonic(1000))
        # one wide denominator shared by every cost takes its own bits
        wide = [Fraction(i + 1, 3**3000) for i in range(1000)]
        assert path(1000, wide).cost_denominator == 3**3000


def assert_as_public(net):
    """``net`` equals the network that the public constructor builds from
    its ``edges`` view, down to the denominator and the scaled costs."""
    want = Network(net.n, net.edges, net.terminals)
    assert net == want and hash(net) == hash(want)
    assert (net.cost_denominator, net.scaled_costs) == (want.cost_denominator, want.scaled_costs)


# costs over the denominator 6, so a subset of the edges can share a factor
SIXTHS = st.sampled_from([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)])


class TestIntegerConstructor:
    """Every internal builder goes through ``Network._of``: its networks
    must be those of the public constructor."""

    @settings(max_examples=60, deadline=None)
    @given(small_networks(), st.data())
    def test_with_costs_and_contract(self, net, data):
        copy = net.with_costs(data.draw(st.lists(SIXTHS, min_size=net.m, max_size=net.m)))
        assignment = data.draw(st.lists(st.integers(0, 2), min_size=net.n, max_size=net.n))
        for graph in (net, copy):
            assert_as_public(graph)
            groups = {}
            for v, c in enumerate(assignment):
                groups.setdefault(c, []).append(v)
            try:
                cmap = ContractionMap(graph, groups.values())
            except TerminalCollisionError:
                cmap = ContractionMap.identity(graph)
            assert_as_public(contract(graph, cmap))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 30), st.integers(0, 10**6), st.data())
    def test_dual_and_subembeddings(self, n, seed, data):
        net, emb = random_planar_network(n, 2, seed)
        emb = PlaneEmbedding(net.with_costs(data.draw(st.lists(SIXTHS, min_size=net.m, max_size=net.m))), emb.rotations)
        dual = build_dual(emb)
        assert_as_public(dual.dual)
        assert_as_public(build_dual(dual.embedding).dual)
        # the edges whose scaled cost is even share the factor 2 with the
        # denominator 6, so the gcd step divides it out
        even = [eid for eid, c in enumerate(emb.net.scaled_costs) if c % 2 == 0]
        drawn = data.draw(st.sets(st.integers(0, emb.net.m - 1)))
        for subset in (even, drawn, ()):
            sub = _subembedding(emb, subset).net
            assert_as_public(sub)
            if subset is even and even and emb.net.cost_denominator == 6:
                assert sub.cost_denominator < 6

    @settings(max_examples=30, deadline=None)
    @given(small_networks(), st.integers(1, 4), st.data())
    def test_contraction_drops_isolated_classes(self, net, extra, data):
        # a terminal-free path beside the network: its class is dropped
        ends = [(net.n + i, net.n + i + 1) for i in range(extra)]
        costs = data.draw(st.lists(SIXTHS, min_size=extra, max_size=extra))
        edges = [*net.edges, *((u, v, c) for (u, v), c in zip(ends, costs))]
        res = build_by_contraction(Network(net.n + extra + 1, edges, net.terminals))
        assert res.stats.dropped_classes >= 1
        assert_as_public(res.network)


class TestWithCosts:
    @settings(max_examples=60, deadline=None)
    @given(small_networks(), st.data())
    def test_equals_full_constructor(self, net, data):
        costs = [
            data.draw(st.one_of(st.integers(1, 50), st.fractions(min_value=Fraction(1, 97), max_denominator=97)))
            for _ in range(net.m)
        ]
        got = net.with_costs(costs)
        want = Network(net.n, [(e.u, e.v, c) for e, c in zip(net.edges, costs)], net.terminals)
        assert got == want
        assert (got.cost_denominator, got.scaled_costs) == (want.cost_denominator, want.scaled_costs)
        assert got.arcs() == want.arcs()
        assert all(type(e) is Edge and type(e.cost) is Fraction for e in got.edges)

    def test_nonpositive_cost(self):
        net = Network(3, [(0, 1, 1), (1, 2, 1)], [0, 2])
        with pytest.raises(InvalidParameterError):
            net.with_costs([1, Fraction(-1, 2)])

    def test_length_mismatch(self):
        net = Network(3, [(0, 1, 1), (1, 2, 1)], [0, 2])
        with pytest.raises(InvalidParameterError):
            net.with_costs([1])
