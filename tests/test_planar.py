import random
from fractions import Fraction

import pytest

from mimicknet.errors import InvalidEdgeError, InvalidEmbeddingError, NotACircuitError
from mimicknet.generate import random_planar_network
from mimicknet.lowerbound import gen_grid
from mimicknet.mimick import terminal_cuts
from mimicknet.mincut import min_separating_cut
from mimicknet.network import Network, connected_components, enumerate_bipartitions
from mimicknet.planar import (
    PlaneEmbedding,
    build_dual,
    check_component_bounds,
    dual_circuit_check,
    faces_of_subgraph,
)


def triangle():
    net = Network(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], [0, 1])
    emb = PlaneEmbedding(net, [[0, 5], [1, 2], [3, 4]])
    return net, emb


class TestEmbedding:
    def test_triangle_faces(self):
        _, emb = triangle()
        assert emb.face_count == 2

    def test_tree_single_face(self):
        net = Network(3, [(0, 1, 1), (1, 2, 1)], [0, 2])
        emb = PlaneEmbedding(net, [[0], [1, 2], [3]])
        assert emb.face_count == 1

    def test_dart_listed_twice_rejected(self):
        net = Network(2, [(0, 1, 1)], [0, 1])
        with pytest.raises(InvalidEmbeddingError):
            PlaneEmbedding(net, [[0, 0], [1]])

    def test_dart_out_of_range_rejected(self):
        net = Network(2, [(0, 1, 1)], [0, 1])
        with pytest.raises(InvalidEmbeddingError, match="vertex 1"):
            PlaneEmbedding(net, [[0], [1, 2]])

    def test_missing_dart_rejected(self):
        net = Network(2, [(0, 1, 1)], [0, 1])
        with pytest.raises(InvalidEmbeddingError):
            PlaneEmbedding(net, [[0], []])

    def test_dart_at_wrong_vertex_rejected(self):
        net = Network(2, [(0, 1, 1)], [0, 1])
        with pytest.raises(InvalidEmbeddingError):
            PlaneEmbedding(net, [[1], [0]])

    def test_genus_one_rejected(self):
        # two interleaved self-loops at one vertex have a single face:
        # 1 - 2 + 1 = 0 != 2
        net = Network(1, [(0, 0, 1), (0, 0, 1)], [0])
        with pytest.raises(InvalidEmbeddingError):
            PlaneEmbedding(net, [[0, 2, 1, 3]])

    def test_nested_self_loops_accepted(self):
        net = Network(1, [(0, 0, 1), (0, 0, 1)], [0])
        emb = PlaneEmbedding(net, [[0, 1, 2, 3]])
        assert emb.face_count == 3


class TestDual:
    def test_triangle_dual(self):
        _, emb = triangle()
        dual = build_dual(emb)
        assert dual.dual.n == 2 and dual.dual.m == 3
        assert all(dual.dual.edges[e].cost == emb.net.edges[e].cost for e in range(3))

    def test_single_edge_dual_is_loop(self):
        net = Network(2, [(0, 1, Fraction(5, 2))], [0, 1])
        emb = PlaneEmbedding(net, [[0], [1]])
        dual = build_dual(emb)
        assert dual.dual.n == 1 and dual.dual.m == 1
        e = dual.dual.edges[0]
        assert e.u == e.v and e.cost == Fraction(5, 2)

    def test_four_cycle_dual(self):
        net = Network(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], [0, 2])
        emb = PlaneEmbedding(net, [[0, 7], [1, 2], [3, 4], [5, 6]])
        dual = build_dual(emb)
        assert dual.dual.n == 2 and dual.dual.m == 4

    @pytest.mark.parametrize("seed", range(5))
    def test_double_dual_recovers_primal(self, seed):
        net, emb = random_planar_network(12, 3, seed=400 + seed)
        dual = build_dual(emb)
        assert dual.dual.n == emb.face_count
        assert dual.embedding.face_count == net.n
        dd = build_dual(dual.embedding)
        assert dd.dual.n == net.n
        assert sorted(e.cost for e in dd.dual.edges) == sorted(e.cost for e in net.edges)
        assert dd.embedding.face_count == emb.face_count

    def test_grid_dual_counts(self):
        fam = gen_grid(3)
        dual = build_dual(fam.embedding)
        assert dual.dual.m == fam.network.m
        assert dual.dual.n == fam.embedding.face_count
        assert dual.embedding.face_count == fam.network.n

    def test_disconnected_rejected(self):
        net = Network(4, [(0, 1, 1), (2, 3, 1)], [0, 2])
        emb = PlaneEmbedding(net, [[0], [1], [2], [3]])
        with pytest.raises(InvalidEmbeddingError):
            build_dual(emb)


class TestFacesOfSubgraph:
    def test_empty_subset_one_face(self):
        _, emb = triangle()
        assert faces_of_subgraph(emb, []) == 1

    def test_full_triangle(self):
        _, emb = triangle()
        assert faces_of_subgraph(emb, [0, 1, 2]) == 2

    def test_single_bridge_edge(self):
        _, emb = triangle()
        assert faces_of_subgraph(emb, [0]) == 1

    def test_nested_components_merge_outer_faces(self):
        # triangle inside a triangle, joined by one spoke; dropping the spoke
        # leaves two nested triangles drawn with three regions
        edges = [(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1), (0, 3, 1)]
        net = Network(6, edges, [0, 3])
        rotations = [
            [0, 12, 5],  # vertex 0: outer triangle darts plus the spoke
            [1, 2],
            [3, 4],
            [6, 13, 11],  # vertex 3: inner triangle darts plus the spoke
            [7, 8],
            [9, 10],
        ]
        emb = PlaneEmbedding(net, rotations)
        assert faces_of_subgraph(emb, [0, 1, 2, 3, 4, 5]) == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_component_correspondence_on_cut_unions(self, seed):
        net, emb = random_planar_network(13, 3, seed=500 + seed)
        dual = build_dual(emb)
        union = terminal_cuts(net).union
        assert faces_of_subgraph(dual.embedding, union) == len(connected_components(net, union))
        one_cut = min_separating_cut(net, enumerate_bipartitions(3)[0]).cutset
        assert faces_of_subgraph(dual.embedding, one_cut) == len(connected_components(net, one_cut))
        # the duality holds for every edge subset, not only cut unions
        rng = random.Random(seed)
        for _ in range(40):
            density = rng.random()
            subset = {e for e in range(net.m) if rng.random() < density}
            assert faces_of_subgraph(dual.embedding, subset) == len(connected_components(net, subset))

    def test_unknown_edge_id_raises(self):
        _, emb = triangle()
        for bad in ([3], [-1], [0, 7]):
            with pytest.raises(InvalidEdgeError):
                faces_of_subgraph(emb, bad)
            with pytest.raises(InvalidEdgeError):
                dual_circuit_check(build_dual(emb), bad)


class TestCircuits:
    def test_single_edge_cut_is_loop_circuit(self):
        net = Network(2, [(0, 1, 4)], [0, 1])
        emb = PlaneEmbedding(net, [[0], [1]])
        dual = build_dual(emb)
        rep = dual_circuit_check(dual, [0])
        assert rep.vertex_degrees == {0: 2}
        assert not rep.meeting_vertices

    def test_triangle_min_cut_is_two_cycle(self):
        net, emb = triangle()
        dual = build_dual(emb)
        cut = min_separating_cut(net, enumerate_bipartitions(2)[0])
        rep = dual_circuit_check(dual, cut.cutset)
        assert len(rep.edge_set) == 2
        assert set(rep.vertex_degrees.values()) == {2}
        assert rep.component_count == 1

    def test_non_cutset_fails_circuit(self):
        net, emb = triangle()
        dual = build_dual(emb)
        with pytest.raises(NotACircuitError):
            dual_circuit_check(dual, [0])

    @pytest.mark.parametrize("seed", range(6))
    def test_three_terminal_min_cutsets_are_circuits(self, seed):
        net, emb = random_planar_network(12, 3, seed=600 + seed)
        dual = build_dual(emb)
        for bp in enumerate_bipartitions(3):
            cutset = min_separating_cut(net, bp).cutset
            if not cutset:
                continue
            rep = dual_circuit_check(dual, cutset)
            assert min(rep.vertex_degrees.values()) >= 2

    @pytest.mark.parametrize("seed", range(4))
    def test_every_minimum_cutset_is_a_circuit(self, seed):
        # partial converse within oracle reach: not just the canonical cut,
        # every cutset attaining the minimum dualizes to a circuit
        from mimicknet.mincut import oracle_enumeration

        net, emb = random_planar_network(11, 3, seed=640 + seed)
        dual = build_dual(emb)
        for bp in enumerate_bipartitions(3):
            for cutset in oracle_enumeration(net, bp).min_cutsets:
                if not cutset:
                    continue
                rep = dual_circuit_check(dual, cutset)
                assert min(rep.vertex_degrees.values()) >= 2


class TestComponentBounds:
    def test_path_two_components(self):
        net = Network(3, [(0, 1, 3), (1, 2, 5)], [0, 2])
        emb = PlaneEmbedding(net, [[0], [1, 2], [3]])
        dual = build_dual(emb)
        cut = min_separating_cut(net, enumerate_bipartitions(2)[0])
        rep = check_component_bounds(emb, dual, cut.cutset)
        assert rep.cc_single == (2,) and rep.ok

    def test_two_cutsets_can_shatter_past_their_sum(self):
        # frozen instance where removing two minimum cutsets leaves more
        # components than either alone: 2 and 3 single counts, 5 joint
        net, emb = random_planar_network(18, 5, seed=10)
        dual = build_dual(emb)
        bps = enumerate_bipartitions(5)
        cut_s = min_separating_cut(net, bps[1]).cutset
        cut_t = min_separating_cut(net, bps[0]).cutset
        rep = check_component_bounds(emb, dual, cut_s, cut_t)
        assert rep.cc_single == (2, 3)
        assert rep.cc_union == 5
        assert rep.ok

    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances_respect_bounds(self, seed):
        net, emb = random_planar_network(14, 4, seed=700 + seed)
        dual = build_dual(emb)
        bps = enumerate_bipartitions(4)
        cutsets = [min_separating_cut(net, bp).cutset for bp in bps]
        for cs in cutsets:
            assert check_component_bounds(emb, dual, cs).ok
        for a in range(len(bps)):
            for b in range(a + 1, len(bps)):
                assert check_component_bounds(emb, dual, cutsets[a], cutsets[b]).ok
