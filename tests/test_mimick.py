import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mimicknet import mincut
from mimicknet.errors import InternalError, InvalidPairError
from mimicknet.generate import random_planar_network, star_network
from mimicknet.lowerbound import gen_bipartite, gen_grid
from mimicknet.mimick import (
    build_by_contraction,
    build_by_signature,
    disjoint_terminal_pairs,
    terminal_cuts,
    verify,
    verify_cuts,
    verify_generalized,
)
from mimicknet.mincut import _Dinic, min_separating_cut
from mimicknet.network import (
    ContractionMap,
    Network,
    connected_components,
    contract,
    enumerate_bipartitions,
)

PATH_35 = Network(3, [(0, 1, 3), (1, 2, 5)], [0, 2])
SINGLE = Network(2, [(0, 1, 3)], [0, 1])


def cornered_grid(k):
    """``gen_grid(k)``'s network with one more edge, u(k, k) - u(k-1, k-1):
    its corner then has three neighbours, so nothing reduces."""
    fam = gen_grid(k)
    net = fam.network
    return Network(net.n, [*net.edges, (fam.u_vertex(k, k), fam.u_vertex(k - 1, k - 1), 1)], net.terminals)


class TestTerminalCuts:
    def test_walk_equals_cold_flows(self, campaign):
        nets = [net for net, _ in campaign] + [gen_grid(4).network, gen_bipartite(6).network]
        for net in nets:
            cold = tuple(min_separating_cut(net, bp) for bp in enumerate_bipartitions(net.k))
            assert terminal_cuts(net).cuts == cold

    def test_grid_walk_equals_cold_flows(self, monkeypatch):
        # 8 terminals on an identity core: 127 rows, and the 63 steps that
        # move a terminal to the source side search from its arcs alone,
        # with the last side settled.  The grid's corner has two
        # neighbours, a chain; an edge to a third leaves nothing to reduce
        net = cornered_grid(4)
        assert net.k == 8 and mincut._reduce(net).shape.bundles == [(eid,) for eid in range(net.m)]
        max_flow = _Dinic.max_flow
        settled = []

        def recording(self, s, t):
            settled.append(self.settled is not None)
            return max_flow(self, s, t)

        monkeypatch.setattr(_Dinic, "max_flow", recording)
        table = terminal_cuts(net)
        monkeypatch.undo()
        assert len(settled) == 127 and sum(settled) == 63
        assert table.cuts == tuple(min_separating_cut(net, bp) for bp in enumerate_bipartitions(net.k))

    @pytest.mark.parametrize(
        "net",
        [gen_bipartite(6).network, gen_bipartite(9).network, *(star_network(k)[0] for k in (2, 3, 5, 6))],
        ids=["bipartite6", "bipartite9", "star2", "star3", "star5", "star6"],
    )
    def test_arcless_core_equals_cold_flows(self, net, solved):
        # these reduce to their terminals with no arcs plus satellites: the
        # walk runs no flow, and every row equals one cold flow on the input
        table = terminal_cuts(net)
        assert mincut._reduce(net).arcs()[0] == () and solved == []
        assert table.cuts == tuple(min_separating_cut(net, bp) for bp in enumerate_bipartitions(net.k))

    def test_lifted_cost_mismatch_raises(self, monkeypatch):
        # a shape whose bundle lost one of its edges: the core edge's
        # capacity misses that edge's cost, so the walk's value does too,
        # while the side read back cuts the whole bundle
        net = Network(3, [(0, 1, 2), (0, 1, 3), (1, 2, 7), (2, 2, 1)], [0, 1])
        shape_of = mincut._shape_of

        def lossy(net):
            shape = shape_of(net)
            assert shape.edge_cols.tolist() == [0, 1] and shape.edge_core.tolist() == [0, 0]
            shape.edge_cols, shape.edge_core = shape.edge_cols[:1], shape.edge_core[:1]
            return shape

        monkeypatch.setattr(mincut, "_shape_of", lossy)
        with pytest.raises(InternalError):
            terminal_cuts(net)

    def test_lifted_satellite_cost_mismatch_raises(self, monkeypatch):
        # 2 is a satellite (a bundle of cost 3 to q0, an edge of cost 5 to
        # q1), so its bundle to q0 is cut; a shape whose link lost an edge
        # id leaves that edge's cost out of sat_cost, so out of the value,
        # while the satellite's side still cuts it
        net = Network(3, [(2, 0, 1), (2, 0, 2), (2, 1, 5)], [0, 1])
        assert terminal_cuts(net).cuts[0].cutset == frozenset({0, 1})
        shape_of = mincut._shape_of

        def lossy(net):
            shape = shape_of(net)
            assert shape.link_eid.tolist() == [0, 1, 2]
            shape.link_eid, shape.link_sat, shape.link_term = shape.link_eid[1:], shape.link_sat[1:], shape.link_term[1:]
            return shape

        monkeypatch.setattr(mincut, "_shape_of", lossy)
        with pytest.raises(InternalError):
            terminal_cuts(net)

    def test_expanded_costlier_chain_link_raises(self, monkeypatch):
        # the chain 0-2-3-1 (links costing 2, 1, 2) runs parallel to the
        # edge 0-1, so the core edge costs 5 + 1; a lift that leaves the
        # interior 2 off the source side cuts the chain's first link, not
        # its cheapest, and that side cuts more than the flow's value
        net = Network(4, [(0, 2, 2), (2, 3, 1), (3, 1, 2), (0, 1, 5)], [0, 1])
        assert terminal_cuts(net).cuts[0].cutset == frozenset({1, 3})
        reduce = mincut._reduce

        def costlier(net):
            red = reduce(net)
            assert red.side_u.tolist() == [True, False]
            red.side_u = np.array([False, False])
            return red

        monkeypatch.setattr(mincut, "_reduce", costlier)
        with pytest.raises(InternalError):
            terminal_cuts(net)

    def test_expanded_column_mismatch_raises(self, monkeypatch):
        # a shape that sums the core's one edge (the bundle of edges 0 and
        # 1, cost 5) from edges 0 and 2 (cost 9): the walk's value is 9,
        # and the side read back cuts edges 0 and 1
        net = Network(3, [(0, 1, 2), (0, 1, 3), (1, 2, 7), (2, 2, 1)], [0, 1])
        shape_of = mincut._shape_of

        def misplaced(net):
            shape = shape_of(net)
            assert shape.edge_cols.tolist() == [0, 1]
            shape.edge_cols = np.array([0, 2])
            return shape

        monkeypatch.setattr(mincut, "_shape_of", misplaced)
        with pytest.raises(InternalError):
            terminal_cuts(net)

    def test_peeled_vertex_in_another_group_raises(self, monkeypatch):
        # 2 hangs off terminal 1, so it joins 1's group; a gather that
        # gives it terminal 0's column puts it on the source side, and
        # that side also cuts the edge 1-2
        net = Network(3, [(0, 1, 5), (1, 2, 1)], [0, 1])
        assert terminal_cuts(net).cuts[0] == mincut.CutResult(5, frozenset({0}), frozenset({0}))
        reduce = mincut._reduce

        def regrouped(net):
            red = reduce(net)
            shape = red.shape
            assert shape.vertex_cols.tolist() == [0, 1, 2] and shape.vertex_core.tolist() == [0, 1, 1]
            shape.vertex_core = np.array([0, 1, 0])
            return red

        monkeypatch.setattr(mincut, "_reduce", regrouped)
        with pytest.raises(InternalError):
            terminal_cuts(net)

    def test_chain_interior_past_cheapest_link_raises(self, monkeypatch):
        # the chain 0-2-3-1 (links costing 2, 1, 2) is cut at its middle
        # link; a lift that puts the interior 3 on the source side too
        # gives the side {0, 2, 3}, which cuts the last link instead
        net = Network(4, [(0, 2, 2), (2, 3, 1), (3, 1, 2), (0, 1, 5)], [0, 1])
        reduce = mincut._reduce

        def past(net):
            red = reduce(net)
            assert red.side_u.tolist() == [True, False]
            red.side_u = np.array([True, True])
            return red

        monkeypatch.setattr(mincut, "_reduce", past)
        with pytest.raises(InternalError):
            terminal_cuts(net)

    def test_satellite_side_in_wrong_column_raises(self, monkeypatch):
        # satellites 2 (cost 1 to q0, 5 to q1) and 3 (5 to q0, 1 to q1)
        # take opposite sides; scattering each one's side to the other's
        # column cuts both costlier edges
        net = Network(4, [(2, 0, 1), (2, 1, 5), (3, 0, 5), (3, 1, 1)], [0, 1])
        assert terminal_cuts(net).cuts[0] == mincut.CutResult(2, frozenset({0, 3}), frozenset({0, 3}))
        reduce = mincut._reduce

        def swapped(net):
            red = reduce(net)
            shape = red.shape
            assert shape.sat_vertex.tolist() == [2, 3] and shape.sat_of.tolist() == [0, 1]
            shape.sat_vertex = np.array([3, 2])
            return red

        monkeypatch.setattr(mincut, "_reduce", swapped)
        with pytest.raises(InternalError):
            terminal_cuts(net)

    def test_cut_matrix_is_c_contiguous(self):
        # the certificate's product runs on rows of the cut matrix
        for net in (cornered_grid(3), gen_bipartite(6).network, random_planar_network(40, 4, 1, 30)[0]):
            table = terminal_cuts(net)
            assert table.cut_matrix.flags.c_contiguous and table.side_matrix.flags.c_contiguous

    def test_unreduced_table_cost_mismatch_raises(self, monkeypatch):
        # nothing reduces in a grid whose corner has a third neighbour, so
        # its walk runs on the identity core; a flow whose last level BFS
        # lost a reached vertex leaves its row's side short, and a
        # source-minimal side less a vertex cuts more than the flow's value
        net = cornered_grid(3)
        shape = mincut._reduce(net).shape
        assert shape.groups == [[v] for v in range(net.n)] and shape.bundles == [(eid,) for eid in range(net.m)]
        assert shape.satellites == []
        max_flow = _Dinic.max_flow
        steps, rows = [], []

        def short_side(self, s, t):
            flow = max_flow(self, s, t)
            steps.append(s)
            reached = [v for v in range(net.n) if self.level[v] >= 0]
            if reached and not rows:
                self.level[reached[0]] = -1
                i = len(steps)
                rows.append((i ^ (i >> 1)) - 1)
            return flow

        monkeypatch.setattr(_Dinic, "max_flow", short_side)
        with pytest.raises(InternalError) as err:
            terminal_cuts(net)
        assert err.value.args[0].startswith(f"row {rows[0]} ")
        assert len(steps) == 31

    def test_warm_flow_value_mismatch_raises(self, monkeypatch):
        # the first flow starts cold; every later one augments the previous
        # one's residual, and the walk's running value is certified per row
        max_flow = _Dinic.max_flow
        calls = []

        def off_by_one_last(self, s, t):
            calls.append((s, t))
            return max_flow(self, s, t) + (len(calls) == 3)

        monkeypatch.setattr(_Dinic, "max_flow", off_by_one_last)
        net, _ = random_planar_network(12, 3, seed=2)
        # the third step of the walk flips terminal 1 back: mask 0b100
        with pytest.raises(InternalError, match=r"^row 1 "):
            terminal_cuts(net)
        assert len(calls) == 3


class TestLowestTerms:
    @pytest.mark.parametrize(
        "net",
        [
            Network(4, [(0, 3, Fraction(1, 2)), (1, 3, Fraction(2, 3)), (2, 3, Fraction(5, 6)), (0, 1, Fraction(1, 4))], [0, 1, 2]),
            # every value is zero, over a network denominator of 3
            Network(4, [(3, 3, Fraction(1, 3))], [0, 1, 2]),
            Network(4, [(0, 3, 2**70 + Fraction(1, 3)), (1, 3, 2**65), (2, 3, 3 << 64), (0, 1, Fraction(1 << 80, 7))], [0, 1, 2]),
        ],
        ids=["mixed-denominators", "all-zero", "big-integers"],
    )
    def test_equal_the_values_reduced(self, net):
        table = terminal_cuts(net)
        den = math.lcm(*(v.denominator for v in table.values))
        assert table.lowest_terms == (den, tuple(v.numerator * (den // v.denominator) for v in table.values))

    def test_tables_over_other_denominators_compare_by_value(self):
        a = terminal_cuts(PATH_35)
        b = terminal_cuts(Network(3, [(0, 1, 3), (1, 2, Fraction(11, 2))], [0, 2]))
        assert a.scaled_values != b.scaled_values and a == b
        assert a != terminal_cuts(Network(3, [(0, 1, Fraction(7, 2)), (1, 2, 5)], [0, 2]))


class TestBigIntegerCertificate:
    # scaled costs summing past 2**63: the certificate runs on Python integers
    NET = Network(4, [(0, 2, 2**62), (2, 3, 2**62 + 1), (3, 1, 2**62), (0, 3, 3), (2, 1, 2**61)], [0, 1])

    def test_table_equals_cold_flows(self):
        assert mincut._cost_array(self.NET.scaled_costs).dtype == object
        cold = tuple(min_separating_cut(self.NET, bp) for bp in enumerate_bipartitions(2))
        assert terminal_cuts(self.NET).cuts == cold

    def test_big_integer_value_mismatch_raises(self, monkeypatch):
        walk = mincut._walk

        def off_by_one(graph):
            values, side = walk(graph)
            return [v + 1 for v in values], side

        monkeypatch.setattr(mincut, "_walk", off_by_one)
        with pytest.raises(InternalError, match=r"^row 0 "):
            terminal_cuts(self.NET)


class TestCutUnion:
    def test_single_edge(self):
        assert terminal_cuts(SINGLE).union == frozenset({0})

    def test_star3_all_edges(self):
        net = Network(4, [(0, 3, 1), (1, 3, 1), (2, 3, 1)], [0, 1, 2])
        assert terminal_cuts(net).union == frozenset({0, 1, 2})

    def test_path_min_edge_only(self):
        assert terminal_cuts(PATH_35).union == frozenset({0})


class TestContractionBuild:
    def test_path_collapses_to_single_edge(self):
        res = build_by_contraction(PATH_35)
        assert res.network.n == 2 and res.network.m == 1
        assert res.network.edges[0].cost == 3
        assert verify(PATH_35, res.network).all_equal
        assert res.contraction_map.classes == ((0,), (1, 2))

    def test_unit_star_k4_unchanged(self):
        net, _ = star_network(4)
        res = build_by_contraction(net)
        assert res.network.n == 5 and res.network.m == 4
        assert verify(net, res.network).all_equal

    def test_single_edge_unchanged(self):
        res = build_by_contraction(SINGLE)
        assert res.network == SINGLE

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_verified_and_minor(self, seed):
        net, _ = random_planar_network(15, 4, seed=800 + seed)
        res = build_by_contraction(net)
        assert verify(net, res.network).all_equal
        comps = connected_components(net, res.cuts.union)
        assert set(res.contraction_map.classes) == set(tuple(sorted(c)) for c in comps)

    def test_size_accounting(self):
        net, _ = random_planar_network(18, 3, seed=42)
        res = build_by_contraction(net)
        assert res.network.n == len(connected_components(net, res.cuts.union))
        assert res.stats.class_count == res.network.n

    def test_disconnected_drops_terminal_free_component(self):
        # two terminal components plus one with no terminals at all
        net = Network(
            6,
            [(0, 1, 2), (2, 3, 3), (4, 5, 1)],
            [0, 2],
        )
        res = build_by_contraction(net)
        assert res.stats.dropped_classes == 1
        assert verify(net, res.network).all_equal
        assert res.network.n == 2 and res.network.m == 0


class TestSignatureBuild:
    def test_single_edge_unchanged(self):
        res = build_by_signature(SINGLE)
        assert res.network.n == 2

    def test_near_tie_path_merges(self):
        net = Network(3, [(0, 1, 3), (1, 2, Fraction(22, 7))], [0, 2])
        res = build_by_signature(net)
        assert res.network.n == 2
        assert verify(net, res.network).all_equal

    def test_class_count_bound(self):
        for seed in range(4):
            net, _ = random_planar_network(14, 3, seed=900 + seed)
            res = build_by_signature(net)
            m = 2 ** (net.k - 1) - 1
            assert res.stats.class_count <= 2**m
            assert verify(net, res.network).all_equal

    def test_classes_equal_per_row_reference(self, campaign):
        # signatures read from frozenset sides, one row at a time, in
        # vertex order
        nets = [net for net, _ in campaign[:40]] + [gen_grid(4).network, gen_bipartite(6).network]
        nets += [random_planar_network(60, 5, seed, 40)[0] for seed in range(4)]
        for net in nets:
            cuts = terminal_cuts(net).cuts
            groups: dict[tuple[bool, ...], list[int]] = {}
            for v in range(net.n):
                groups.setdefault(tuple(v in cut.side for cut in cuts), []).append(v)
            assert build_by_signature(net).contraction_map.classes == tuple(map(tuple, groups.values()))

    def test_signature_never_coarser_than_needed(self):
        # contraction classes refine signature classes, so signature output
        # is never larger than contraction output
        for seed in range(4):
            net, _ = random_planar_network(15, 4, seed=950 + seed)
            assert build_by_signature(net).network.n <= build_by_contraction(net).network.n


class TestVerify:
    def test_identity(self):
        assert verify(PATH_35, PATH_35).all_equal

    def test_path_vs_single_edge(self):
        assert verify(PATH_35, Network(2, [(0, 1, 3)], [0, 1])).all_equal

    def test_detects_wrong_cost(self):
        rep = verify(PATH_35, Network(2, [(0, 1, 4)], [0, 1]))
        assert not rep.all_equal
        assert [r.equal for r in rep.rows] == [False]

    def test_terminal_count_mismatch(self):
        other = Network(3, [(0, 1, 1), (1, 2, 1)], [0, 1, 2])
        with pytest.raises(InvalidPairError):
            verify(PATH_35, other)
        with pytest.raises(InvalidPairError):
            verify_cuts(terminal_cuts(PATH_35), other)

    def test_result_carries_the_input_table(self):
        net, _ = random_planar_network(16, 4, seed=5)
        table = terminal_cuts(net)
        assert table.cuts == tuple(min_separating_cut(net, bp) for bp in enumerate_bipartitions(4))
        for build in (build_by_contraction, build_by_signature):
            res = build(net)
            assert res.cuts == table
            assert verify_cuts(res.cuts, res.network) == verify(net, res.network)

    def test_monotone_under_contraction(self):
        # contracting anything can only raise bipartition cut values
        rng = random.Random(12)
        for seed in range(5):
            net, _ = random_planar_network(12, 3, seed=1000 + seed)
            assignment = [rng.randrange(6) for _ in range(net.n)]
            for i, t in enumerate(net.terminals):
                assignment[t] = 6 + i  # keep terminals in distinct classes
            groups: dict[int, list[int]] = {}
            for v, c in enumerate(assignment):
                groups.setdefault(c, []).append(v)
            smaller = contract(net, ContractionMap(net, groups.values()))
            for bp in enumerate_bipartitions(net.k):
                assert (
                    min_separating_cut(smaller, bp).value
                    >= min_separating_cut(net, bp).value
                )


class TestVerifyGeneralized:
    def test_k2_reduces_to_plain(self):
        rep = verify_generalized(SINGLE, SINGLE)
        assert rep.generalized == ()
        assert rep.all_equal

    def test_star3_pair(self):
        net = Network(4, [(0, 3, 1), (1, 3, 1), (2, 3, 1)], [0, 1, 2])
        res = build_by_contraction(net)
        rep = verify_generalized(net, res.network)
        assert rep.all_equal
        row = next(r for r in rep.generalized if r.source_mask == 1 and r.sink_mask == 2)
        assert row.value_original == 1 and row.value_candidate == 1

    def test_pair_enumeration_counts(self):
        # (3^k - 2^(k+1) + 1)/2 unordered pairs, minus the (2^(k-1) - 1)
        # full covers that coincide with plain bipartitions
        assert len(disjoint_terminal_pairs(2)) == 0
        assert len(disjoint_terminal_pairs(3)) == 6 - 3
        assert len(disjoint_terminal_pairs(4)) == 25 - 7

    @pytest.mark.parametrize("seed", range(4))
    def test_random_contractions_generalized(self, seed):
        net, _ = random_planar_network(12, 4, seed=1100 + seed)
        res = build_by_contraction(net)
        assert verify_generalized(net, res.network).all_equal

    def test_one_table_per_network(self, solved):
        net, _ = random_planar_network(14, 5, seed=1200)
        res = build_by_contraction(net)
        solved.clear()
        assert verify_generalized(net, res.network).all_equal
        assert len(solved) == 2 * 15

    def test_detects_generalized_mismatch(self):
        # triangle of terminals with a bonus vertex: candidate missing capacity
        net = Network(4, [(0, 1, 2), (1, 2, 2), (2, 0, 2), (0, 3, 1)], [0, 1, 2])
        weak = Network(4, [(0, 1, 2), (1, 2, 2), (2, 0, 1), (0, 3, 1)], [0, 1, 2])
        rep = verify_generalized(net, weak)
        assert not rep.all_equal
