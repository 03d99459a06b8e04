import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicknet import _kernels, mincut
from mimicknet.errors import InternalError, InvalidParameterError, OracleCapacityError
from mimicknet.generate import _random_cost, random_planar_network, star_network
from mimicknet.lowerbound import gen_bipartite, gen_grid
from mimicknet.mimick import terminal_cuts, verify_generalized
from mimicknet.mincut import (
    CutResult,
    GapReport,
    _closed_gaps,
    _cutset,
    _Dinic,
    _edge_tables,
    _min_gap,
    _reduce,
    _Reduced,
    _satellite_core,
    _walk,
    _gaps,
    global_gap,
    min_cut_and_uniqueness,
    min_separating_cut,
    oracle_enumeration,
    uniqueness_by_flow,
)
from mimicknet.network import Bipartition, Network, enumerate_bipartitions

PATH_35 = Network(3, [(0, 1, 3), (1, 2, 5)], [0, 2])
BP2 = enumerate_bipartitions(2)[0]


def gap_of(net, bp):
    """The gap report of one bipartition, from the reader global_gap uses."""
    return next(_gaps(_reduce(net), [bp]))


def all_gaps(net):
    return list(_gaps(_reduce(net), enumerate_bipartitions(net.k)))


def min_cut_between(net, source_terminals, sink_terminals):
    """Minimum cut separating two disjoint terminal-index sets, the
    remaining terminals unconstrained: one cold flow, the reference for
    ``verify_generalized``'s pair rows.  It is the canonical cut of a copy
    of ``net`` whose terminals are the sources, then the sinks."""
    src = [net.terminals[i] for i in source_terminals]
    snk = [net.terminals[i] for i in sink_terminals]
    pair = Network(net.n, net.edges, src + snk)
    return min_separating_cut(pair, Bipartition.from_indices(pair.k, range(len(src), pair.k)))


class TestMinSeparatingCut:
    def test_series_edges_min(self):
        cut = min_separating_cut(PATH_35, BP2)
        assert cut.value == 3
        assert cut.cutset == frozenset({0})
        assert cut.side == frozenset({0})

    def test_flow_cut_mismatch_raises(self, monkeypatch):
        # the real flow runs (its last level BFS gives the side), and its
        # reported value is off by one
        max_flow = _Dinic.max_flow
        monkeypatch.setattr(_Dinic, "max_flow", lambda self, s, t: max_flow(self, s, t) + 1)
        with pytest.raises(InternalError):
            min_separating_cut(PATH_35, BP2)

    def test_disconnected_terminals(self):
        net = Network(2, [], [0, 1])
        cut = min_separating_cut(net, BP2)
        assert cut.value == 0 and cut.cutset == frozenset()

    def test_grid_k4_staircase_value(self):
        # 5 - 6/256: two epsilon-bearing horizontal edges on row 3
        fam = gen_grid(4)
        bp = Bipartition.from_mask(8, fam.subset_mask(2, 3))
        cut = min_separating_cut(fam.network, bp)
        assert cut.value == Fraction(637, 128)

    def test_cutset_matches_side_and_value(self):
        net, _ = random_planar_network(14, 4, seed=21)
        for bp in enumerate_bipartitions(4):
            cut = min_separating_cut(net, bp)
            crossing = frozenset(
                eid
                for eid, e in enumerate(net.edges)
                if (e.u in cut.side) != (e.v in cut.side)
            )
            assert crossing == cut.cutset
            assert sum((net.edges[i].cost for i in cut.cutset), Fraction(0)) == cut.value
            assert cut.side & set(net.terminals) == set(bp.coside_vertices(net))

    def test_parallel_edges_count_individually(self):
        net = Network(2, [(0, 1, 2), (0, 1, 3)], [0, 1])
        cut = min_separating_cut(net, BP2)
        assert cut.value == 5 and cut.cutset == frozenset({0, 1})

    def test_self_loop_never_cut(self):
        net = Network(2, [(0, 0, 100), (0, 1, 4)], [0, 1])
        cut = min_separating_cut(net, BP2)
        assert cut.value == 4 and cut.cutset == frozenset({1})

    @pytest.mark.parametrize("solve", [min_separating_cut, min_cut_and_uniqueness, oracle_enumeration])
    def test_bipartition_of_another_k_raises(self, solve):
        with pytest.raises(InvalidParameterError, match="k=3"):
            solve(PATH_35, enumerate_bipartitions(3)[0])

    @pytest.mark.parametrize("n", [3000, 20000])
    def test_long_path_needs_no_recursion(self, n):
        net = Network(n, [(i, i + 1, 1) for i in range(n - 1)], [0, n - 1])
        cut = min_separating_cut(net, BP2)
        assert cut.value == 1 and cut.side == frozenset({0}) and cut.cutset == frozenset({0})


class TestReduce:
    def test_loops_bundles_and_pendant_tree(self):
        # 2-3-4 hangs off terminal 1 (4 also has a loop); 5-6 is a
        # terminal-free tree; 0-1 is a bundle of two edges; 7 touches only
        # the terminals 0 and 1, so it is a satellite
        edges = [(0, 1, 2), (1, 0, 3), (1, 2, 1), (2, 3, 1), (2, 4, 1), (4, 4, 9), (5, 6, 1), (1, 7, 1), (7, 0, 1)]
        red = _reduce(Network(8, edges, [0, 1]))
        assert isinstance(red, _Reduced)
        shape = red.shape
        assert shape.groups == [[0], [1, 2, 3, 4]]
        assert shape.bundles == [(0, 1)]
        assert red.terminals == shape.terminals == (0, 1)
        assert red.arcs() == ((1, 0), (5, 5), ((0,), (1,)))
        assert shape.satellites == [[7]] and red.sat_cost.tolist() == [[1, 1]]
        assert shape.links == [(0, 1, (7,)), (0, 0, (8,))]
        # the index arrays the table is gathered by
        assert shape.edge_cols.tolist() == [0, 1] and shape.edge_core.tolist() == [0, 0]
        assert shape.vertex_cols.tolist() == [0, 1, 2, 3, 4] and shape.vertex_core.tolist() == [0, 1, 1, 1, 1]
        assert shape.link_eid.tolist() == [7, 8] and shape.link_sat.tolist() == [0, 0]
        assert shape.link_term.tolist() == [1, 0]
        assert shape.sat_vertex.tolist() == [7] and shape.sat_of.tolist() == [0]

    def test_loops_and_bundles_alone(self):
        red = _reduce(Network(2, [(0, 1, 1), (0, 0, 3), (1, 0, 2)], [0, 1]))
        assert red.shape.groups == [[0], [1]] and red.shape.bundles == [(0, 2)]
        assert red.arcs() == ((1, 0), (3, 3), ((0,), (1,)))
        assert red.shape.satellites == []

    def test_degree_one_terminals_kept(self):
        # the non-terminal 3 is peeled into 1, whose neighbours left are
        # the degree-1 terminals 2 and 0: 1 is a satellite, 3 in its group
        red = _reduce(Network(4, [(0, 1, 1), (1, 2, 1), (1, 3, 1)], [2, 0]))
        assert red.shape.groups == [[0], [2]] and red.terminals == (1, 0)
        assert red.shape.bundles == [] and red.shape.satellites == [[1, 3]]
        # cost by terminal index: q0 is vertex 2, q1 vertex 0
        assert red.sat_cost.tolist() == [[1, 1]] and red.shape.links == [(0, 1, (0,)), (0, 0, (1,))]

    def test_satellite_bundles_and_pendant_tree(self):
        # 3 joins terminal 0 by a bundle of two edges and terminal 1 by
        # one, has a loop and the pendant path 3-4-5; 2 and 6 are core
        # vertices (each touches the other and both terminals, so neither
        # is a chain's interior)
        edges = [(3, 0, 1), (0, 3, 2), (3, 1, 4), (3, 3, 5), (3, 4, 1), (4, 5, 1)]
        edges += [(0, 2, 1), (2, 1, 1), (2, 6, 1), (6, 1, 1), (6, 0, 1)]
        red = _reduce(Network(7, edges, [0, 1]))
        assert red.shape.groups == [[0], [1], [2], [6]] and red.shape.bundles == [(6,), (7,), (8,), (9,), (10,)]
        assert red.shape.chains == []
        assert red.shape.satellites == [[3, 4, 5]] and red.sat_cost.tolist() == [[3, 4]]
        assert red.shape.links == [(0, 0, (0, 1)), (0, 1, (2,))]

    def test_bipartite_family_reduces_to_satellites(self):
        # every non-terminal touches only terminals: the core is the k
        # terminals with no arcs, and each subset's vertex is a satellite
        fam = gen_bipartite(6)
        red = _reduce(fam.network)
        assert red.shape.groups == [[q] for q in range(6)] and red.shape.bundles == []
        assert red.arcs() == ((), (), ((),) * 6)
        assert red.shape.satellites == [[fam.u_vertex(i)] for i in range(fam.l)]
        scaled = fam.network.scaled_costs
        assert red.sat_cost.tolist() == [[scaled[fam.edge_id(i, q)] for q in range(6)] for i in range(fam.l)]

    def test_chain_with_tied_links_and_parallel_edge(self):
        # 0-2-3-4-1 is a chain of links costing 2, 1, 1, 2 between the
        # terminals, parallel to the edge 0-1 (cost 5); 5 hangs off the
        # interior 3.  The core is the two terminals and one edge of cost
        # 5 + 1; the first cheapest link is the second from 0 and the
        # third from 1
        edges = [(0, 2, 2), (2, 3, 1), (3, 4, 1), (4, 1, 2), (0, 1, 5), (3, 5, 1)]
        red = _reduce(Network(6, edges, [0, 1]))
        shape = red.shape
        assert shape.groups == [[0], [1]] and shape.bundles == [(4,)] and shape.satellites == []
        assert shape.chains == [(0, 0, 1, ((0,), (1,), (2,), (3,)), [[2], [3, 5], [4]])]
        assert red.arcs() == ((1, 0), (6, 6), ((0,), (1,)))
        assert shape.inner_vertex.tolist() == [2, 3, 5, 4]
        assert shape.vertex_u.tolist() == [0] * 4 and shape.vertex_w.tolist() == [1] * 4
        assert red.side_u.tolist() == [True, False, False, False] and red.side_w.tolist() == [False, False, False, True]
        # the interiors before the source-side end's first cheapest link
        # are on the source side, so the side cuts that link
        assert terminal_cuts(Network(6, edges, [0, 1])).cuts[0] == CutResult(6, frozenset({1, 4}), frozenset({0, 2}))
        assert terminal_cuts(Network(6, edges, [1, 0])).cuts[0] == CutResult(6, frozenset({2, 4}), frozenset({1, 4}))

    def test_closed_chain_and_cycle_with_no_end(self):
        # 1-2-3-1 closes on the terminal 1, so 2 and 3 join its group;
        # 4-5-6 is a cycle of non-terminals with no end and stays
        edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 1), (5, 6, 1), (6, 4, 1)]
        red = _reduce(Network(7, edges, [0, 1]))
        assert red.shape.groups == [[0], [1, 2, 3], [4], [5], [6]] and red.shape.chains == []
        assert red.shape.bundles == [(0,), (4,), (5,), (6,)] and red.side_u is None

    @pytest.mark.parametrize("family", [gen_grid(3)])
    def test_nothing_reduces_returns_input(self, family):
        # the grid's corner u(k, k) has two neighbours, a chain; with an
        # edge to a third, nothing reduces: the input itself, as its
        # identity core
        k, net = family.k, family.network
        net = Network(net.n, [*net.edges, (family.u_vertex(k, k), family.u_vertex(k - 1, k - 1), 1)], net.terminals)
        assert_identity(_reduce(net), net)

    def test_terminal_only_neighbours_decline_the_input(self):
        # distinct simple edges and no pendant vertex; with the edge 2-3
        # nothing reduces, without it 2 and 3 touch only terminals
        net = Network(4, [(0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 1), (2, 3, 1)], [0, 1])
        assert_identity(_reduce(net), net)
        net = Network(4, [(0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 1)], [0, 1])
        red = _reduce(net)
        assert red is not net and red.shape.satellites == [[2], [3]] and red.shape.bundles == []
        # a terminal-terminal edge stays in the core
        net = Network(3, [(0, 2, 1), (1, 2, 1), (0, 1, 1)], [0, 1])
        red = _reduce(net)
        assert red is not net and red.shape.satellites == [[2]] and red.shape.bundles == [(2,)]


def assert_identity(red, net):
    """``red`` is ``net``'s identity core: one group per vertex, one
    bundle per edge, no satellites."""
    shape = red.shape
    assert shape.groups == [[v] for v in range(net.n)] and red.terminals == net.terminals
    assert shape.bundles == [(eid,) for eid in range(net.m)]
    assert shape.satellites == [] and shape.links == [] and shape.chains == []


class TestOracle:
    def test_path(self):
        res = oracle_enumeration(PATH_35, BP2)
        assert res.value == 3 and res.min_cutsets == frozenset({frozenset({0})})

    def test_symmetric_cycle_lists_all(self):
        net = Network(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], [0, 2])
        res = oracle_enumeration(net, BP2)
        assert res.value == 2
        assert res.min_cutsets == frozenset(
            {frozenset({0, 3}), frozenset({1, 3}), frozenset({0, 2}), frozenset({1, 2})}
        )

    def test_bipartite_k6_unique_expected_side(self):
        fam = gen_bipartite(6)
        subset = fam.subsets[2]
        bp = Bipartition.from_indices(6, subset)
        res = oracle_enumeration(fam.network, bp)
        assert len(res.min_cutsets) == 1
        expected_w = {fam.u_vertex(2)} | (set(range(6)) - set(subset))
        expected_cutset = frozenset(
            eid
            for eid, e in enumerate(fam.network.edges)
            if (e.u in expected_w) != (e.v in expected_w)
        )
        assert res.min_cutsets == frozenset({expected_cutset})
        assert min_separating_cut(fam.network, bp).value == res.value

    def test_capacity_limit(self):
        n = 26  # n - k = 24 > 22
        net = Network(n, [(i, i + 1, 1) for i in range(n - 1)], [0, n - 1])
        with pytest.raises(OracleCapacityError):
            oracle_enumeration(net, BP2)
        with pytest.raises(OracleCapacityError):
            gap_of(net, BP2)
        assert uniqueness_by_flow(net, BP2) is False

    @pytest.mark.parametrize("seed", range(8))
    def test_flow_agrees_with_oracle(self, seed):
        net, _ = random_planar_network(12, 3, seed=seed)
        for bp in enumerate_bipartitions(3):
            res = oracle_enumeration(net, bp)
            cut = min_separating_cut(net, bp)
            assert cut.value == res.value
            assert cut.cutset in res.min_cutsets
            assert uniqueness_by_flow(net, bp) == (len(res.min_cutsets) == 1)

    def test_bigint_fallback_is_exact(self):
        # costs too large for the int64 kernels force the Gray-code path
        huge = 10**40
        net = Network(
            4,
            [(0, 1, huge), (1, 2, huge + 7), (1, 3, 3), (3, 2, huge - 1)],
            [0, 2],
        )
        res = oracle_enumeration(net, BP2)
        assert res.value == huge  # cheapest: cut (0,1)
        assert min_separating_cut(net, BP2).value == res.value
        rep = gap_of(net, BP2)
        assert rep.unique and rep.delta == 10  # second best: {(1,2),(1,3)} = huge + 10


class TestGap:
    def test_path_gap(self):
        rep = gap_of(PATH_35, BP2)
        assert rep.delta == 2 and rep.second_best == 5 and rep.unique

    def test_tied_cycle(self):
        net = Network(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], [0, 2])
        rep = gap_of(net, BP2)
        assert rep.delta == 0 and not rep.unique

    def test_single_cut_instance(self):
        net = Network(2, [(0, 1, 7)], [0, 1])
        rep = gap_of(net, BP2)
        assert rep.delta is None and rep.unique

    def test_grid_k4_staircase_unique(self):
        fam = gen_grid(4)
        bp = Bipartition.from_mask(8, fam.subset_mask(1, 1))
        rep = gap_of(fam.network, bp)
        assert rep.unique and rep.delta > 0

    def test_global_gap_path(self):
        assert global_gap(PATH_35) == 2


def oracle_gaps(net):
    """Every row's gap report from the exhaustive sweep alone: a tie
    between distinct minimum cutsets is gap 0, and a row with one cutset
    has no gap."""
    reports = []
    for bp in enumerate_bipartitions(net.k):
        res = oracle_enumeration(net, bp)
        if len(res.min_cutsets) > 1:
            reports.append(GapReport(Fraction(0), res.value, False))
        elif res.second_value is None:
            reports.append(GapReport(None, None, True))
        else:
            reports.append(GapReport(res.second_value - res.value, res.second_value, True))
    return reports


def assert_closed_gaps_equal_oracle(net):
    core = _satellite_core(net)
    assert core is not None
    want = oracle_gaps(net)
    assert list(_closed_gaps(core, [bp.mask for bp in enumerate_bipartitions(net.k)])) == want
    assert all_gaps(net) == want
    assert global_gap(net) == _min_gap(want)


# Networks the closed form declines, each with a cutset that the
# satellites' choices do not list: a terminal-terminal edge (in every
# row's cut or in none), an edge between two non-terminals, a pendant
# vertex peeled into the satellite 2 or into the terminal 0, and the
# terminal-free tree 3-4
DECLINED = {
    "terminal-terminal edge": Network(3, [(0, 2, 5), (1, 2, 7), (0, 1, 1)], [0, 1]),
    "non-terminal edge": Network(4, [(0, 2, 5), (1, 2, 7), (0, 3, 2), (1, 3, 3), (2, 3, 1)], [0, 1]),
    "pendant": Network(4, [(0, 2, 5), (1, 2, 7), (2, 3, 1)], [0, 1]),
    "pendant on a terminal": Network(4, [(0, 2, 5), (1, 2, 7), (0, 3, 1)], [0, 1]),
    "terminal-free tree": Network(5, [(0, 2, 5), (1, 2, 7), (3, 4, 1)], [0, 1]),
}


class TestClosedGaps:
    def test_bipartite_k6_every_row(self):
        assert_closed_gaps_equal_oracle(gen_bipartite(6).network)

    def test_star(self):
        # one satellite: a = b only where both sides cost 3
        net = Network(4, [(3, 0, 1), (3, 1, 2), (3, 2, 3)], [0, 1, 2])
        assert_closed_gaps_equal_oracle(net)
        assert [rep.unique for rep in oracle_gaps(net)] == [True, False, True]

    def test_terminals_alone(self):
        # no satellite, so each row has one cutset: the empty one
        net = Network(3, [(1, 1, 4)], [2, 0, 1])
        assert_closed_gaps_equal_oracle(net)
        assert global_gap(net) is None

    @pytest.mark.parametrize("name", DECLINED)
    def test_declined_networks_take_the_oracle(self, name):
        net = DECLINED[name]
        with pytest.raises(InvalidParameterError):
            _satellite_core(net)
        want = oracle_gaps(net)
        assert all_gaps(net) == want
        assert global_gap(net) == _min_gap(want)
        # the closed form on the reduced core would report other gaps
        forced = _closed_gaps(_reduce(net), [bp.mask for bp in enumerate_bipartitions(net.k)])
        assert list(forced) != want


@st.composite
def satellite_only_networks(draw):
    """Terminals and zero to seven satellites, each joined only to
    terminals, to at least two distinct ones, by bundles, with
    self-loops on satellites and terminals; optionally one satellite
    joined to two terminals by equal costs, which ties on every row that
    separates them.  Costs are 1, 2 or 1/2, so sums often tie, all times
    1 or 10**19 (the scaled sum passes 2**63, so it is held in Python
    integers)."""
    scale = draw(st.sampled_from([1, 10**19]))
    cost = st.sampled_from([Fraction(scale), Fraction(2 * scale), Fraction(scale, 2)])
    k = draw(st.integers(2, 5))
    n = k + draw(st.integers(0, 7))
    edges = []
    for s in range(k, n):
        ends = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=k, unique=True))
        ends += draw(st.lists(st.sampled_from(ends), max_size=3))
        edges += [(s, q, draw(cost)) for q in ends]
    if draw(st.booleans()):
        c = draw(cost)
        edges += [(n, q, c) for q in draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))]
        n += 1
    edges += [(v, v, draw(cost)) for v in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    label = draw(st.permutations(range(n)))
    edges = draw(st.permutations([(label[u], label[v], c) for u, v, c in edges]))
    terminals = draw(st.permutations([label[q] for q in range(k)]))
    return Network(n, edges, terminals)


@settings(max_examples=200, deadline=None)
@given(satellite_only_networks())
def test_closed_gaps_equal_oracle(net):
    assert_closed_gaps_equal_oracle(net)


def satellite_rows(net, masks):
    """The reader's rows of a satellite-only network as a table's: scaled
    values, cut rows over the edge columns and side rows over the
    vertices (a satellite is its one vertex, a terminal its own group)."""
    core = _satellite_core(net)
    shape = core.shape
    values = []
    cut = np.zeros((len(masks), net.m), dtype=bool)
    side = np.zeros((len(masks), net.n), dtype=bool)
    for part in core.satellite_rows(masks):
        hi = part.lo + len(part.values)
        values += part.values
        cut[part.lo : hi, shape.link_eid] = part.cut
        side[part.lo : hi, list(net.terminals)] = part.src
        side[part.lo : hi, shape.sat_vertex] = part.on[:, shape.sat_of]
    return values, cut, side


def assert_satellite_rows_equal_table(net, rows):
    """The reader on the given rows' masks, in their order, against those
    rows of the certified table."""
    table = terminal_cuts(net)
    values, cut, side = satellite_rows(net, [2 * (row + 1) for row in rows])
    assert values == [table.scaled_values[row] for row in rows]
    assert np.array_equal(cut, table.cut_matrix[rows])
    assert np.array_equal(side, table.side_matrix[rows])


class TestSatelliteRows:
    @pytest.mark.parametrize("k", [6, 9, 12])
    def test_bipartite_every_row(self, k):
        # k=12 reads 2047 rows in blocks of 44
        assert_satellite_rows_equal_table(gen_bipartite(k).network, list(range((1 << (k - 1)) - 1)))

    @pytest.mark.parametrize("k", [6, 9, 12])
    def test_bipartite_subset_rows(self, k):
        fam = gen_bipartite(k)
        rows = [Bipartition.from_indices(k, subset).row_index for subset in fam.subsets]
        assert_satellite_rows_equal_table(fam.network, rows[::-1])

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    @pytest.mark.parametrize("block", [1, 3, 1 << 18])
    def test_star(self, monkeypatch, k, block):
        # the centre ties on every row that splits the leaves evenly
        monkeypatch.setattr(mincut, "_SATELLITE_BLOCK", block)
        net, _ = star_network(k)
        assert_satellite_rows_equal_table(net, list(range((1 << (k - 1)) - 1)))

    def test_no_masks(self):
        assert list(_satellite_core(gen_bipartite(6).network).satellite_rows([])) == []

    @pytest.mark.parametrize("row", [0, 7, 30])
    def test_flipped_satellite_side_raises(self, monkeypatch, row):
        # the reader's split negates one untied satellite's cost
        # difference a - b in one row: the value (the sum of the minima,
        # read from |a - b|) is unchanged and only the satellite's side
        # flips, so the edges it cuts no longer cost the value
        net = gen_bipartite(6).network
        split = _Reduced.split

        def flipped(core, masks, sat_cost):
            src, diff, _ = split(core, masks, sat_cost)
            hit = np.flatnonzero(masks == 2 * (row + 1))
            if hit.size:
                s = np.flatnonzero(diff[0, hit[0]])[0]
                diff[0, hit[0], s] = -diff[0, hit[0], s]
            return src, diff, diff > 0

        monkeypatch.setattr(_Reduced, "split", flipped)
        with pytest.raises(InternalError, match=f"row mask {2 * (row + 1):#b} cuts"):
            list(_satellite_core(net).satellite_rows(np.arange(2, 64, 2)))
        with pytest.raises(InternalError):
            terminal_cuts(net)


class TestCutCosts:
    @pytest.mark.parametrize("block", [1, 3, 7, 64, 1 << 14])
    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (1, 1), (9, 13), (40, 3)])
    @pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
    def test_equal_row_sums(self, monkeypatch, block, shape, big):
        # tiles of any size, narrower or wider than a row, in either dtype
        monkeypatch.setattr(mincut, "_PRODUCT_BLOCK", block)
        rng = np.random.default_rng(block)
        cut = rng.random(shape) < 0.5
        scaled = rng.integers(1, 1000, shape[1]).tolist()
        costs = mincut._cost_array([x << 62 for x in scaled] if big else scaled)
        assert costs.dtype == (object if big and shape[1] else np.int64)
        want = [sum(c for c, on in zip(costs.tolist(), row) if on) for row in cut.tolist()]
        assert mincut._cut_costs(cut, costs) == want

    @pytest.mark.parametrize("block", [1, 3, 7, 64, 1 << 14])
    @pytest.mark.parametrize("shape", [(1, 0, 5), (3, 5, 0), (3, 1, 1), (4, 9, 13), (2, 40, 3)])
    @pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
    def test_equal_row_sums_per_copy(self, monkeypatch, block, shape, big):
        # copies x rows x cols against copies x cols: each copy's rows
        # summed over its own costs, in copy order, whatever the tiles
        monkeypatch.setattr(mincut, "_PRODUCT_BLOCK", block)
        rng = np.random.default_rng(block)
        cut = rng.random(shape) < 0.5
        scaled = rng.integers(1, 1000, shape[::2]).tolist()
        costs = np.array([[x << 62 for x in row] for row in scaled], dtype=object) if big else np.array(scaled)
        want = [sum(c for c, on in zip(own, row) if on) for own, rows in zip(costs.tolist(), cut.tolist()) for row in rows]
        assert mincut._cut_costs(cut, costs) == want

    def test_casts_no_whole_block(self):
        # a 64 x 2^15 bool block would cast to 16 MB of int64; no
        # temporary may hold more than a tile of _PRODUCT_BLOCK entries
        import tracemalloc

        cut = np.zeros((64, 1 << 15), dtype=bool)
        cut[:, ::3] = True
        costs = np.arange(1, (1 << 15) + 1, dtype=np.int64)
        tracemalloc.start()
        try:
            got = mincut._cut_costs(cut, costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [int(costs[::3].sum())] * 64
        assert peak < 4 * 8 * mincut._PRODUCT_BLOCK + 64 * 1024


@settings(max_examples=200, deadline=None)
@given(satellite_only_networks(), st.data())
def test_satellite_rows_equal_table_and_flows(net, data):
    # any list of row masks, in any order, with repeats, read in blocks of
    # any size, against the table's rows and one cold flow per row on the
    # input itself
    rows = data.draw(st.lists(st.integers(0, (1 << (net.k - 1)) - 2), max_size=20))
    block = data.draw(st.sampled_from([1, 2, 5, 1 << 18]))
    with patch.object(mincut, "_SATELLITE_BLOCK", block):
        assert_satellite_rows_equal_table(net, rows)
        values, cut, side = satellite_rows(net, [2 * (row + 1) for row in rows])
    bps = enumerate_bipartitions(net.k)
    for i, row in enumerate(rows):
        cold = min_separating_cut(net, bps[row])
        assert Fraction(values[i], net.cost_denominator) == cold.value
        assert frozenset(np.flatnonzero(cut[i]).tolist()) == cold.cutset
        assert frozenset(np.flatnonzero(side[i]).tolist()) == cold.side


@settings(max_examples=100, deadline=None)
@given(satellite_only_networks(), st.data())
def test_satellite_rows_of_a_stack_equal_each_copy(net, data):
    # a stack of other costs on the network's ends, read in blocks of any
    # size, against each copy read alone as a network of its own costs;
    # costs of 2**62 and more put the stack in Python integers
    core = _satellite_core(net)
    scale = data.draw(st.sampled_from([1, 1 << 62]))
    stack = data.draw(st.lists(st.lists(st.integers(1, 4), min_size=net.m, max_size=net.m), min_size=1, max_size=4))
    stack = [[c * scale for c in costs] for costs in stack]
    masks = [2 * (row + 1) for row in data.draw(st.lists(st.integers(0, (1 << (net.k - 1)) - 2), max_size=10))]
    block = data.draw(st.sampled_from([1, 2, 5, 1 << 18]))
    with patch.object(mincut, "_SATELLITE_BLOCK", block):
        parts = list(core.satellite_rows(masks, np.array(stack, dtype=mincut._cost_dtype(max(map(sum, stack))))))
        alone = [part for costs in stack for part in _satellite_core(net.with_costs(costs)).satellite_rows(masks)]
    assert [part.lo for part in parts] == list(np.cumsum([0] + [len(part.values) for part in parts])[:-1])
    for field in ("values", "deltas"):
        assert sum((getattr(part, field) for part in parts), []) == sum((getattr(part, field) for part in alone), [])
    for field in ("src", "on", "cut") if masks else ():
        assert np.array_equal(np.concatenate([getattr(part, field) for part in parts]), np.concatenate([getattr(part, field) for part in alone]))


class TestUniquenessByFlow:
    def test_path_unique(self):
        assert uniqueness_by_flow(PATH_35, BP2)

    def test_cycle_not_unique(self):
        net = Network(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], [0, 2])
        assert not uniqueness_by_flow(net, BP2)

    def test_bipartite_k6_all_subsets_unique(self):
        fam = gen_bipartite(6)
        for subset in fam.subsets:
            bp = Bipartition.from_indices(6, subset)
            assert uniqueness_by_flow(fam.network, bp)


class TestMinCutBetween:
    def test_star_pair(self):
        net = Network(4, [(0, 3, 1), (1, 3, 1), (2, 3, 1)], [0, 1, 2])
        cut = min_cut_between(net, [0], [1])
        assert cut.value == 1

    def test_matches_bipartition_when_pair_covers(self):
        net, _ = random_planar_network(10, 3, seed=4)
        for bp in enumerate_bipartitions(3):
            a = min_separating_cut(net, bp).value
            b = min_cut_between(net, bp.coside_indices(), bp.side_indices()).value
            assert a == b


@st.composite
def oracle_sized_networks(draw, k=None):
    """Small multigraphs (parallel edges, self-loops, terminal-terminal
    edges and disconnected pieces likely, rational costs on a coarse grid
    so ties occur) with k <= 6, or the given k, and n - k <= 10."""
    k = k or draw(st.integers(2, 6))
    n = k + draw(st.integers(0, 10))
    m = draw(st.integers(0, 16))
    edges = [
        (
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 4))),
        )
        for _ in range(m)
    ]
    edges += draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    terminals = draw(st.permutations(range(n)))[:k]
    return Network(n, edges, terminals)


@settings(max_examples=80, deadline=None)
@given(oracle_sized_networks())
def test_flow_properties_against_oracle(net):
    for bp in enumerate_bipartitions(net.k):
        res = oracle_enumeration(net, bp)
        cut = min_separating_cut(net, bp)
        assert cut.value == res.value
        assert cut.cutset in res.min_cutsets
        # every minimizing side assignment: a set bit puts that non-terminal
        # on the bipartition's S side, i.e. the flow's sink side
        nonterms, _, base, ones, twos = _edge_tables(net, bp)
        values = _kernels.cut_values(1 << len(nonterms), base, *ones, *twos)
        for mask in np.flatnonzero(values == values.min()).tolist():
            source_side = set(bp.coside_vertices(net))
            source_side.update(v for i, v in enumerate(nonterms) if not mask >> i & 1)
            assert cut.side <= source_side
        unique = len(res.min_cutsets) == 1
        assert min_cut_and_uniqueness(net, bp) == (cut, unique)
        assert uniqueness_by_flow(net, bp) == unique


@settings(max_examples=150, deadline=None)
@given(oracle_sized_networks())
def test_terminal_cuts_equal_cold_flows(net):
    # the warm-started Gray walk against one from-scratch flow per row
    table = terminal_cuts(net)
    for i, bp in enumerate(enumerate_bipartitions(net.k)):
        assert table.cuts[i] == min_separating_cut(net, bp)


def assert_sides_nested(net):
    """Clearing a set bit of a row's mask moves that terminal to the source
    side, so the canonical side may only grow: the side matrix row of the
    cleared mask contains the row's (the walk's up-flips rely on it)."""
    side = terminal_cuts(net).side_matrix
    masks = np.arange(2, 1 << net.k, 2)
    for j in range(1, net.k):
        bit = 1 << j
        grown = masks[((masks & bit) != 0) & (masks != bit)]
        rows, up = grown // 2 - 1, (grown ^ bit) // 2 - 1
        assert not (side[rows] & ~side[up]).any()


def test_sides_nested_on_campaign_and_grids(campaign):
    for net in [net for net, _ in campaign] + [gen_grid(k).network for k in (3, 4, 5)]:
        assert_sides_nested(net)


@given(oracle_sized_networks())
def test_sides_nested(net):
    assert_sides_nested(net)


@st.composite
def reducible_networks(draw):
    """Multigraphs with what the table's reduction removes: self-loops,
    parallel bundles, pendant chains hanging off any vertex, a
    terminal-free piece and isolated vertices; terminals are drawn from
    every vertex, so chains may end at one and terminals may have degree
    1.  Costs are coarse rationals, so ties occur."""
    cost = st.builds(Fraction, st.integers(1, 6), st.integers(1, 3))
    core = draw(st.integers(2, 6))
    end = st.integers(0, core - 1)
    edges = [(draw(end), draw(end), draw(cost)) for _ in range(draw(st.integers(1, 10)))]
    edges += [(u, v, draw(cost)) for u, v, _ in draw(st.lists(st.sampled_from(edges), max_size=3))]
    n = core
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(1, 4))
        path = [draw(st.integers(0, n - 1)), *range(n, n + length)]
        edges += [(u, v, draw(cost)) for u, v in zip(path, path[1:])]
        n += length
    free = draw(st.integers(0, 3))
    edges += [(n + draw(st.integers(0, i)), n + i + 1, draw(cost)) for i in range(free - 1)]
    n += free + draw(st.integers(0, 2))
    edges += [(v, v, draw(cost)) for v in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    # relabel, so a peeled vertex's id is no guide to its root's
    label = draw(st.permutations(range(n)))
    edges = draw(st.permutations([(label[u], label[v], c) for u, v, c in edges]))
    k = draw(st.integers(2, min(5, n)))
    return Network(n, edges, draw(st.permutations(range(n)))[:k])


@settings(max_examples=200, deadline=None)
@given(reducible_networks())
def test_reduced_table_equals_cold_flows(net):
    # the walk on the reduced graph, mapped back, against one flow per row
    # on the input itself
    cold = tuple(min_separating_cut(net, bp) for bp in enumerate_bipartitions(net.k))
    assert terminal_cuts(net).cuts == cold


@st.composite
def satellite_networks(draw):
    """A core multigraph on the terminals and up to three more vertices
    (terminal-terminal edges likely), plus one to four satellites:
    non-terminals joined only to terminals, to at least two distinct
    ones, by bundles, with self-loops and pendant trees of their own.
    Costs are 1, 2 or 1/2, so a satellite's two sums often tie, all times
    1 or 10**19 (past int64, so the sums are Python integers)."""
    scale = draw(st.sampled_from([1, 10**19]))
    cost = st.sampled_from([Fraction(scale), Fraction(2 * scale), Fraction(scale, 2)])
    k = draw(st.integers(2, 5))
    core = k + draw(st.integers(0, 3))
    end = st.integers(0, core - 1)
    edges = [(draw(end), draw(end), draw(cost)) for _ in range(draw(st.integers(0, 8)))]
    n = core
    satellites = draw(st.integers(1, 4))
    for s in range(core, core + satellites):
        ends = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=k, unique=True))
        ends += draw(st.lists(st.sampled_from(ends), max_size=3))  # bundles
        edges += [(s, q, draw(cost)) for q in ends]
        edges += [(s, s, draw(cost))] * draw(st.integers(0, 1))
    n += satellites
    for _ in range(draw(st.integers(0, 4))):
        # each new vertex hangs off a satellite or a vertex added here
        edges.append((draw(st.integers(core, n - 1)), n, draw(cost)))
        n += 1
    # relabel, so terminals and satellites interleave
    label = draw(st.permutations(range(n)))
    edges = draw(st.permutations([(label[u], label[v], c) for u, v, c in edges]))
    terminals = draw(st.permutations([label[q] for q in range(k)]))
    return Network(n, edges, terminals), satellites


@settings(max_examples=200, deadline=None)
@given(satellite_networks())
def test_satellite_table_equals_cold_flows(drawn):
    # satellites in closed form, mapped back, against one flow per row on
    # the input itself
    net, satellites = drawn
    assert len(_reduce(net).shape.satellites) >= satellites
    cold = tuple(min_separating_cut(net, bp) for bp in enumerate_bipartitions(net.k))
    assert terminal_cuts(net).cuts == cold


@st.composite
def subdivided_networks(draw):
    """A multigraph on the terminals and up to three more vertices whose
    edges are subdivided into chains of 1-4 links, so chains end at
    terminals and at core non-terminals, run parallel to direct edges and
    to other chains, and close on one vertex (a subdivided self-loop);
    pendant trees hang off interior vertices.  A chain's links cost 1, 2
    or 1/2, or all one of them, so cheapest links tie, and relabelling
    orients each chain either way; all times 1 or 10**19 (past int64)."""
    scale = draw(st.sampled_from([1, 10**19]))
    cost = st.sampled_from([Fraction(scale), Fraction(2 * scale), Fraction(scale, 2)])
    k = draw(st.integers(2, 5))
    core = k + draw(st.integers(0, 3))
    end = st.integers(0, core - 1)
    pairs = [(draw(end), draw(end)) for _ in range(draw(st.integers(1, 8)))]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    edges, inner, n = [], [], core
    for u, w in pairs:
        path = [u, *range(n, n + draw(st.integers(0, 3))), w]
        n += len(path) - 2
        inner += path[1:-1]
        tied = draw(st.one_of(st.none(), cost))
        edges += [(a, b, tied or draw(cost)) for a, b in zip(path, path[1:])]
    for _ in range(draw(st.integers(0, 3)) if inner else 0):
        # each new vertex hangs off an interior or a vertex added here
        edges.append((draw(st.sampled_from(inner)), n, draw(cost)))
        inner.append(n)
        n += 1
    label = draw(st.permutations(range(n)))
    edges = draw(st.permutations([(label[u], label[v], c) for u, v, c in edges]))
    terminals = draw(st.permutations([label[q] for q in range(k)]))
    return Network(n, edges, terminals)


@settings(max_examples=200, deadline=None)
@given(subdivided_networks())
def test_chain_table_equals_cold_flows(net):
    # chains contracted, walked and mapped back, against one flow per row
    # on the input itself: value, cutset and side
    cold = tuple(min_separating_cut(net, bp) for bp in enumerate_bipartitions(net.k))
    assert terminal_cuts(net).cuts == cold


@st.composite
def recosted_networks(draw):
    """A network with what the reduction removes (loops, bundles, pendant
    trees, satellites, chains; with no core edge drawn, a satellite
    network's core has no arcs), new costs for its edges (1, 2 or 1/2, so ties
    occur, times 1 or 10**19), and whether the base network's table is
    asked for before the copy's."""
    net = draw(st.one_of(reducible_networks(), satellite_networks().map(lambda drawn: drawn[0]), subdivided_networks()))
    scale = draw(st.sampled_from([1, 10**19]))
    cost = st.sampled_from([Fraction(scale), Fraction(2 * scale), Fraction(scale, 2)])
    return net, draw(st.lists(cost, min_size=net.m, max_size=net.m)), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(recosted_networks())
def test_recosted_table_equals_fresh_network(drawn):
    # a with_costs copy's table and its base network's, whichever is asked
    # first, must each equal that of a network built from scratch with the
    # same ends and costs
    net, costs, base_first = drawn
    copy = net.with_costs(costs)
    for graph in (net, copy) if base_first else (copy, net):
        table = terminal_cuts(graph)
        fresh = terminal_cuts(Network(graph.n, graph.edges, graph.terminals))
        assert (table.cost_denominator, table.scaled_values) == (fresh.cost_denominator, fresh.scaled_values)
        assert table == fresh


@st.composite
def long_walk_networks(draw):
    """k = 8..10 terminals, one of them isolated, and up to six more
    vertices; terminal-terminal edges, parallel bundles and self-loops at
    terminals are likely.  Costs are 1, 2 or 1/2, so ties occur."""
    cost = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)])
    k = draw(st.integers(8, 10))
    n = k + draw(st.integers(0, 6))
    # vertex 0, a terminal, is isolated: no edge ends at it
    end, terminal = st.integers(1, n - 1), st.integers(1, k - 1)
    edges = [(draw(end), draw(end), draw(cost)) for _ in range(draw(st.integers(k, 3 * n)))]
    edges += [(draw(terminal), draw(terminal), draw(cost)) for _ in range(draw(st.integers(1, k)))]
    edges += [(q, q, draw(cost)) for q in draw(st.lists(terminal, min_size=1, max_size=3))]
    edges += [(u, v, draw(cost)) for u, v, _ in draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4))]
    label = draw(st.permutations(range(n)))
    edges = draw(st.permutations([(label[u], label[v], c) for u, v, c in edges]))
    return Network(n, edges, draw(st.permutations([label[q] for q in range(k)])))


@settings(max_examples=25, deadline=None)
@given(long_walk_networks())
def test_long_walk_equals_cold_flows(net):
    # terminal 1 flips 2**(k-2) times, each flip redirecting its arcs in
    # place: on the reduced core, and on the input's own arcs (self-loops
    # at terminals included); every row against one cold flow
    cold = tuple(min_separating_cut(net, bp) for bp in enumerate_bipartitions(net.k))
    assert terminal_cuts(net).cuts == cold
    values, side = _walk(net)
    assert values == [c.value * net.cost_denominator for c in cold]
    # each row's cut is the cut of its side
    assert [_cutset(net, row) for row in side] == [c.cutset for c in cold]
    assert [frozenset(np.flatnonzero(row).tolist()) for row in side] == [c.side for c in cold]


def boundary_grid(side, k, cost):
    """A side x side grid whose k terminals sit evenly spaced on its outer
    cycle, from corner (0, 0); ``cost(inner, rng)`` gives an edge's cost,
    ``inner`` false for an edge of the outer cycle."""
    rng = random.Random(side)
    vid = lambda i, j: i * side + j  # noqa: E731
    edges = []
    for i in range(side):
        for j in range(side):
            if j + 1 < side:
                edges.append((vid(i, j), vid(i, j + 1), cost(0 < i < side - 1, rng)))
            if i + 1 < side:
                edges.append((vid(i, j), vid(i + 1, j), cost(0 < j < side - 1, rng)))
    cycle = [vid(0, j) for j in range(side)] + [vid(i, side - 1) for i in range(1, side)]
    cycle += [vid(side - 1, j) for j in range(side - 2, -1, -1)] + [vid(i, 0) for i in range(side - 2, 0, -1)]
    return Network(side * side, edges, [cycle[len(cycle) * q // k] for q in range(k)])


def planar_grid(side):
    """Boundary edges of cost 1000, interior costs from the generator's
    cost rule, and 8 terminals: the shape whose cuts cross the interior."""
    return boundary_grid(side, 8, lambda inner, rng: _random_cost(rng) if inner else 1000)


class TestWalkFlows:
    def test_blocking_flow_after_tree_path(self):
        # on a unit-cost 4 x 4 grid the first flow has two disjoint
        # shortest paths between its corners: the first search augments
        # along its tree path, the next reaches t at the same distance,
        # and its blocking flow takes the other path
        net = boundary_grid(4, 4, lambda inner, rng: 1)
        levels, searches = _Dinic._levels, []

        def recording(self, s, t):
            level = levels(self, s, t)
            searches.append(level[t])
            return level

        with patch.object(_Dinic, "_levels", recording):
            table = terminal_cuts(net)
        assert searches[:3] == [3, 3, -1]
        assert table.cuts == tuple(mincut._solve_flow(net, bp)[0] for bp in enumerate_bipartitions(net.k))

    def test_planar_grid_equals_cold_flows(self):
        net = planar_grid(12)
        assert terminal_cuts(net).cuts == tuple(min_separating_cut(net, bp) for bp in enumerate_bipartitions(net.k))

    @pytest.mark.parametrize("rows", [1, 5])
    def test_side_blocks_leave_the_table(self, monkeypatch, rows):
        # a block of one row, and blocks of 5 whose last one ends inside
        # the 127-row table
        net = planar_grid(12)
        table = terminal_cuts(net)
        monkeypatch.setattr(mincut, "_SIDE_BLOCK", rows * (mincut._reduce(net).n + 2))
        assert terminal_cuts(net) == table


@settings(max_examples=100, deadline=None)
@given(oracle_sized_networks(), st.data())
def test_generalized_rows_equal_cold_flows(net, data):
    # pair values read from the two tables against one flow per pair
    other = data.draw(oracle_sized_networks(net.k))
    for row in verify_generalized(net, other).generalized:
        s_idx = [i for i in range(net.k) if row.source_mask >> i & 1]
        t_idx = [i for i in range(net.k) if row.sink_mask >> i & 1]
        assert row.value_original == min_cut_between(net, s_idx, t_idx).value
        assert row.value_candidate == min_cut_between(other, s_idx, t_idx).value
