import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from mimicknet import lowerbound, mincut
from mimicknet.errors import InternalError, InvalidParameterError
from mimicknet.fileio import serialize_network
from mimicknet.lowerbound import (
    BipartiteCutRecord,
    gen_bipartite,
    gen_grid,
    tc_collision_family,
    verify_bipartite_lemma,
    verify_grid_lemma,
    verify_rank_bounds,
)
from mimicknet.incidence import _pivot_columns, build_incidence
from mimicknet.mimick import terminal_cuts
from mimicknet.mincut import global_gap, min_cut_and_uniqueness, min_separating_cut
from mimicknet.network import Bipartition, Network, enumerate_bipartitions


class TestBipartiteGenerator:
    def test_k6_counts(self):
        fam = gen_bipartite(6)
        assert fam.network.n == 21  # 6 + C(6,4)
        assert fam.network.m == 90
        assert fam.l == 15
        assert fam.epsilon == Fraction(1, 6)

    def test_k6_edge_costs(self):
        fam = gen_bipartite(6)
        for i, subset in enumerate(fam.subsets):
            for q in range(6):
                cost = fam.network.edges[fam.edge_id(i, q)].cost
                assert cost == (1 if q in subset else Fraction(13, 6))

    def test_k6_per_vertex_total(self):
        # 2k/3 unit edges plus k/3 edges of cost 2 + 1/k: 4k/3 + k eps/3
        fam = gen_bipartite(6)
        for i in range(fam.l):
            total = sum(
                (fam.network.edges[fam.edge_id(i, q)].cost for q in range(6)), Fraction(0)
            )
            assert total == Fraction(50, 6)

    def test_k9_counts(self):
        fam = gen_bipartite(9)
        assert fam.l == 84 and fam.network.n == 93

    def test_crucial_inequality(self):
        fam = gen_bipartite(6)
        inside = Fraction(2 * 6, 3)
        outside = (2 + fam.epsilon) * 2
        assert inside < outside
        assert fam.epsilon * 6 / 3 < 1

    @pytest.mark.parametrize("k", [4, 5, 7, 8])
    def test_indivisible_k_rejected(self, k):
        with pytest.raises(InvalidParameterError):
            gen_bipartite(k)

    def test_small_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            gen_bipartite(3)

    def test_deterministic(self):
        assert serialize_network(gen_bipartite(6).network) == serialize_network(
            gen_bipartite(6).network
        )


class TestGridGenerator:
    def test_k4_counts(self):
        fam = gen_grid(4)
        assert fam.network.n == 24
        assert fam.network.k == 8

    def test_k4_epsilon_edge(self):
        # edge between u(1,2) and u(1,3) costs 1 - 2/256
        fam = gen_grid(4)
        eid = fam.horizontal_edge_id(1, 2)
        e = fam.network.edges[eid]
        assert e.cost == Fraction(127, 128)
        assert {e.u, e.v} == {fam.u_vertex(1, 2), fam.u_vertex(1, 3)}

    def test_k3_heavy_cost(self):
        fam = gen_grid(3)
        assert fam.heavy_cost == 81

    def test_epsilon_mass_below_one(self):
        for k in (3, 4, 5):
            fam = gen_grid(k)
            mass = sum(
                (Fraction(j, k**4) for i in range(1, k) for j in range(1, k)), Fraction(0)
            )
            assert mass < 1

    def test_too_small_rejected(self):
        with pytest.raises(InvalidParameterError):
            gen_grid(2)

    def test_deterministic(self):
        a = serialize_network(gen_grid(4).network, gen_grid(4).embedding)
        b = serialize_network(gen_grid(4).network, gen_grid(4).embedding)
        assert a == b


class TestBipartiteLemma:
    def test_k6_full(self):
        rep = verify_bipartite_lemma(gen_bipartite(6))
        assert len(rep.checked) == 15
        assert rep.ok

    def test_k6_values_match_oracle_derivation(self):
        # u_{S_i} contributes 4; the 8 overlap-3 vertices 19/6 each; the 6
        # overlap-2 vertices 2 each: 124/3 in total
        rep = verify_bipartite_lemma(gen_bipartite(6))
        assert {r.value for r in rep.checked} == {Fraction(124, 3)}

    def test_k9_spot_check(self):
        rep = verify_bipartite_lemma(gen_bipartite(9), spot_check=10, seed=5)
        assert len(rep.checked) == 10
        assert rep.ok

    def test_no_flow_on_the_family(self, solved):
        # the sides come from the table, whose satellites are in closed
        # form with no arc to run a flow on, and the uniqueness from the
        # closed-form gaps
        assert verify_bipartite_lemma(gen_bipartite(6)).ok
        assert len(solved) == 0

    @pytest.mark.parametrize("spot_check", [None, 4])
    def test_subset_rows_alone(self, certified, monkeypatch, spot_check):
        # the lemma reads its (sampled) subset rows' masks from the
        # satellite core, once, and builds no table
        reads = []
        satellite_rows = mincut._Reduced.satellite_rows
        monkeypatch.setattr(mincut._Reduced, "satellite_rows", lambda core, masks: reads.append(list(masks)) or satellite_rows(core, masks))
        fam = gen_bipartite(6)
        rep = verify_bipartite_lemma(fam, spot_check, seed=2)
        assert rep.ok and certified == []
        assert reads == [[Bipartition.from_indices(6, r.subset).mask for r in rep.checked]]

    def test_flipped_satellite_side_raises(self, monkeypatch):
        # a reader whose split swaps one satellite's costs in one row flips
        # that satellite's side: the row's certificate fails
        monkeypatch.setattr(mincut._Reduced, "split", _flip_one_side(mask=Bipartition.from_indices(6, (1, 2, 3, 4)).mask))
        with pytest.raises(InternalError):
            verify_bipartite_lemma(gen_bipartite(6))

    def test_declined_network_raises(self):
        fam = gen_bipartite(6)
        with pytest.raises(InvalidParameterError):
            verify_bipartite_lemma(dataclasses.replace(fam, network=_with_core_edge(fam)))

    @pytest.mark.parametrize("seed", range(5))
    def test_records_match_flows(self, solved, seed):
        # random costs tie some satellites; the table's sides and values
        # and the closed-form uniqueness must be what one flow per subset
        # finds
        fam = gen_bipartite(6)
        rng = random.Random(seed)
        grid = [Fraction(1, 2), Fraction(1), Fraction(13, 6), Fraction(7, 3), 2 ** 64 + Fraction(1, 3)]
        fam = dataclasses.replace(fam, network=fam.network.with_costs([rng.choice(grid) for _ in range(fam.network.m)]))
        got = verify_bipartite_lemma(fam)
        assert len(solved) == 0
        net = fam.network
        want = []
        for i, (subset, rec) in enumerate(zip(fam.subsets, got.checked)):
            cut, unique = min_cut_and_uniqueness(net, Bipartition.from_indices(fam.k, subset))
            side = cut.side if 0 not in subset else frozenset(range(net.n)) - cut.side
            expected_w = frozenset({fam.u_vertex(i)} | (set(range(fam.k)) - set(subset)))
            want.append(BipartiteCutRecord(subset, cut.value, side == expected_w, unique, rec.inequalities_ok))
        assert got.checked == tuple(want)
        assert len(solved) == 15

    def test_broken_inequality_reported(self):
        # u_0's edge to one terminal of its own subset costs 1 more: its
        # cost to the subset's terminals now exceeds its cost to the others
        # (4 + 1 > 13/3), while every other comparison moves by 1 from at
        # least 2; the costs are read from the network, not the formula
        fam = gen_bipartite(6)
        eid = fam.edge_id(0, fam.subsets[0][0])
        costs = [e.cost + (eid == i) for i, e in enumerate(fam.network.edges)]
        rep = verify_bipartite_lemma(dataclasses.replace(fam, network=fam.network.with_costs(costs)))
        assert [r.inequalities_ok for r in rep.checked] == [False] + [True] * 14
        assert not rep.ok

    @pytest.mark.parametrize("seed", range(5))
    def test_inequalities_equal_fraction_reference(self, seed):
        # random costs break some comparisons; each record against the
        # proof's comparisons summed one edge at a time
        fam = gen_bipartite(6)
        rng = random.Random(seed)
        grid = [Fraction(1, 2), Fraction(1), Fraction(13, 6), Fraction(7, 3), 2 ** 64 + Fraction(1, 3)]
        net = fam.network.with_costs([rng.choice(grid) for _ in range(fam.network.m)])
        rep = verify_bipartite_lemma(dataclasses.replace(fam, network=net))

        def cost(j, terminals):
            return sum((net.edges[fam.edge_id(j, q)].cost for q in terminals), Fraction(0))

        expected = []
        for i, subset in enumerate(fam.subsets):
            rest = [q for q in range(fam.k) if q not in subset]
            others = all(cost(j, subset) > cost(j, rest) for j in range(fam.l) if j != i)
            expected.append(cost(i, subset) < cost(i, rest) and others)
        assert [r.inequalities_ok for r in rep.checked] == expected

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("recost", ["one broken", "random"])
    def test_spot_check_records_equal_full(self, seed, recost):
        # one broken comparison (as in test_broken_inequality_reported), or
        # random costs that break them all and tie some satellites: a
        # sample's records, comparisons included, must be the full run's
        fam = gen_bipartite(6)
        if recost == "one broken":
            eid = fam.edge_id(0, fam.subsets[0][0])
            costs = [e.cost + (eid == i) for i, e in enumerate(fam.network.edges)]
        else:
            rng = random.Random(seed)
            grid = [Fraction(1, 2), Fraction(1), Fraction(13, 6), Fraction(7, 3), 2 ** 64 + Fraction(1, 3)]
            costs = [rng.choice(grid) for _ in range(fam.network.m)]
        fam = dataclasses.replace(fam, network=fam.network.with_costs(costs))
        full = {r.subset: r for r in verify_bipartite_lemma(fam).checked}
        spot = verify_bipartite_lemma(fam, 8, seed)
        assert len(spot.checked) == 8
        assert spot.checked == tuple(full[r.subset] for r in spot.checked)


class TestGridLemma:
    def test_k3_with_oracle(self):
        rep = verify_grid_lemma(gen_grid(3), oracle=True)
        assert len(rep.checked) == 4
        assert rep.ok

    def test_k4_values(self):
        rep = verify_grid_lemma(gen_grid(4))
        assert rep.ok
        by_ij = {(r.i, r.j): r.value for r in rep.checked}
        assert by_ij[(2, 3)] == Fraction(637, 128)
        assert by_ij[(1, 1)] == Fraction(511, 256)

    def test_one_flow_per_cut(self, solved):
        assert verify_grid_lemma(gen_grid(5)).ok
        assert len(solved) == 16

    def test_cutset_shape(self):
        fam = gen_grid(4)
        cut = min_separating_cut(
            fam.network, Bipartition.from_mask(8, fam.subset_mask(3, 2))
        )
        horiz = [e for e in cut.cutset if e < 9]
        vert = [e for e in cut.cutset if 9 <= e < 18]
        assert len(horiz) == 3 and len(vert) == 2
        assert len(cut.cutset) == 5


class TestRankBounds:
    def test_bipartite_k6(self):
        rep = verify_rank_bounds(gen_bipartite(6))
        assert rep.rank >= 15 and rep.ok

    @pytest.mark.parametrize("k,bound", [(3, 4), (4, 9)])
    def test_grid(self, k, bound):
        rep = verify_rank_bounds(gen_grid(k))
        assert rep.bound == bound
        assert rep.rank >= bound
        assert rep.submatrix_ok
        assert rep.ok

    @pytest.mark.parametrize("ic", [1, 2, 3])  # below, on and above the diagonal
    def test_flipped_staircase_entry_fails(self, monkeypatch, ic):
        fam = gen_grid(4)
        cuts = terminal_cuts(fam.network)
        cut = cuts.cut_matrix.copy()
        row = Bipartition.from_mask(8, fam.subset_mask(2, 3)).row_index
        cut[row, fam.horizontal_edge_id(ic, 3)] ^= True
        flipped = dataclasses.replace(cuts, cut_matrix=cut)
        monkeypatch.setattr(lowerbound, "terminal_cuts", lambda net: flipped)
        rep = verify_rank_bounds(fam)
        assert rep.submatrix_ok is False and not rep.ok


@pytest.fixture(scope="module")
def fam():
    return gen_bipartite(6)


def _flip_one_side(mask, copy=0):
    """``_Reduced.split`` with satellite 0's cost difference a - b negated
    on the row of ``mask`` in copy ``copy`` of each block's copies: the
    row's value, which reads |a - b|, is unchanged and only that
    satellite's side flips."""
    split = mincut._Reduced.split

    def flipped(core, masks, sat_cost):
        src, diff, _ = split(core, masks, sat_cost)
        for i in np.flatnonzero(masks == mask) if copy < len(diff) else []:
            diff[copy, i, 0] = -diff[copy, i, 0]
        return src, diff, diff > 0

    return flipped


def _with_core_edge(fam):
    """The family's network with an edge between two satellites: its core
    then has an arc, so ``_satellite_core`` declines it."""
    net = fam.network
    return Network(net.n, [*net.edges, (fam.u_vertex(0), fam.u_vertex(1), 1)], net.terminals)


def _collision_reference(fam, sample_count, seed):
    """The collision report from one certified table per cost function:
    the base table's subset-row pivots as the columns, the gaps of
    ``mincut._gaps``, and ``terminal_cuts`` of a ``with_costs`` copy per
    sampled pattern, compared by values in lowest terms and cut matrices."""
    net = fam.network
    base = terminal_cuts(net)
    subset_rows = [Bipartition.from_indices(fam.k, s).row_index for s in fam.subsets]
    columns = _pivot_columns(base.cut_matrix[subset_rows])[: fam.l]
    reports = list(mincut._gaps(mincut._reduce(net), enumerate_bipartitions(fam.k)))
    step = Fraction(1, 6 * fam.k * fam.k * fam.l)
    min_row_gap = min(reports[row].delta for row in subset_rows)
    tables = {}

    def table(bits):
        if bits not in tables:
            costs = [e.cost + (step if bits >> columns.index(eid) & 1 else 0) if eid in columns else e.cost for eid, e in enumerate(net.edges)]
            tables[bits] = terminal_cuts(net.with_costs(costs))
        return tables[bits]

    rng = random.Random(seed)
    collisions = []
    for _ in range(sample_count):
        a = rng.randrange(1 << fam.l)
        b = rng.randrange(1 << fam.l)
        while b == a:
            b = rng.randrange(1 << fam.l)
        if table(a).lowest_terms == table(b).lowest_terms:
            collisions.append((a, b))
    return lowerbound.CollisionReport(
        k=fam.k,
        l=fam.l,
        gap=mincut._min_gap(reports) or Fraction(0),
        step=step,
        columns=tuple(columns),
        first_l_columns_independent=columns == list(range(fam.l)),
        min_subset_row_gap=min_row_gap,
        total_mass_below_gap=fam.l * step < min_row_gap,
        pairs_checked=sample_count,
        collisions=tuple(collisions),
        subset_rows_stable=all(np.array_equal(t.cut_matrix[subset_rows], base.cut_matrix[subset_rows]) for t in tables.values()),
        full_matrix_changes=sum(not np.array_equal(t.cut_matrix, base.cut_matrix) for t in tables.values()),
    )


class TestCollision:
    def test_sampled_pairs_distinguished(self, fam):
        rep = tc_collision_family(fam, 30, seed=7)
        assert rep.ok
        assert rep.collisions == ()
        assert rep.subset_rows_stable
        assert rep.total_mass_below_gap
        assert rep.step == Fraction(1, 6 * 36 * 15)

    def test_family_gap_is_zero(self, fam):
        # odd-size splits tie (|S_j cap S| = 2 with |S| = 3 costs the same on
        # both sides), so the family-wide gap vanishes; only the subset rows
        # carry a positive gap
        assert global_gap(fam.network) == 0
        rep = tc_collision_family(fam, 5, seed=1)
        assert rep.gap == 0
        assert rep.min_subset_row_gap == Fraction(1, 3)

    def test_no_oracle_sweep(self, fam, monkeypatch):
        # every vertex is a terminal or a satellite, so the family's gaps
        # are in closed form
        swept = []
        oracle = mincut.oracle_enumeration

        def counting(net, bp):
            swept.append(bp)
            return oracle(net, bp)

        monkeypatch.setattr(mincut, "oracle_enumeration", counting)
        assert tc_collision_family(fam, 5, seed=1).ok
        assert swept == []

    def test_one_core_for_every_gap(self, fam, monkeypatch):
        # the global and subset-row gaps come from one closed-form pass
        cores = []
        satellite_core = mincut._satellite_core

        def counting(net):
            cores.append(net)
            return satellite_core(net)

        monkeypatch.setattr(mincut, "_satellite_core", counting)
        assert tc_collision_family(fam, 5, seed=1).ok
        assert cores == [fam.network]

    def test_k9_past_the_oracle(self):
        # n - k = 84 is beyond the oracle's capacity; on its own subset
        # row u_i costs 6 to the subset and 3 (2 + 1/9) to the rest
        rep = tc_collision_family(gen_bipartite(9), 3, seed=1)
        assert rep.ok and rep.min_subset_row_gap == Fraction(1, 3)

    def test_one_reduction_per_family(self, monkeypatch):
        # the perturbed copies share the base network's ends, so the
        # reduction's shape is built once, for the base network's table
        built = []
        shape_of = mincut._shape_of

        def counting(net):
            built.append(net)
            return shape_of(net)

        monkeypatch.setattr(mincut, "_shape_of", counting)
        fam = gen_bipartite(6)
        rep = tc_collision_family(fam, 20, seed=2)
        assert rep.ok and len(built) == 1 and built[0] is fam.network

    def test_one_certificate_per_table(self, fam, certified, monkeypatch):
        # no copy is a Network or a table: no with_costs, no walk and no
        # table certificate.  The base core is read twice: its subset rows,
        # and one batch whose copies are the base costs (whose rows give
        # the gaps) and each distinct sampled pattern's, every (copy, row)
        # certified once
        walks, copies, reads, checked = [], [], [], []
        walk, with_costs, satellite_rows = mincut._walk, Network.with_costs, mincut._Reduced.satellite_rows
        cut_costs = mincut._cut_costs
        monkeypatch.setattr(mincut, "_walk", lambda graph: walks.append(graph) or walk(graph))
        monkeypatch.setattr(Network, "with_costs", lambda net, costs: copies.append(net) or with_costs(net, costs))
        monkeypatch.setattr(
            mincut._Reduced, "satellite_rows",
            lambda core, masks, costs=None: reads.append((core, costs)) or satellite_rows(core, masks, costs),
        )
        monkeypatch.setattr(mincut, "_cut_costs", lambda cut, costs: checked.append(cut.size // cut.shape[-1]) or cut_costs(cut, costs))
        assert tc_collision_family(fam, 100, seed=5).ok
        assert walks == copies == certified == []
        assert len({id(core) for core, _ in reads}) == 1
        assert [costs is None for _, costs in reads] == [True, False]
        stack = reads[1][1].tolist()
        scale = stack[0][0] // fam.network.scaled_costs[0]
        assert stack[0] == [c * scale for c in fam.network.scaled_costs]
        assert len(stack) == len({tuple(costs) for costs in stack}) == 201
        assert sum(checked) == fam.l + 201 * 31

    @pytest.mark.parametrize("k,seed,samples", [(6, seed, 100) for seed in range(1, 6)] + [(9, 1, 20)])
    def test_report_equals_table_reference(self, k, seed, samples):
        fam = gen_bipartite(k)
        assert tc_collision_family(fam, samples, seed) == _collision_reference(fam, samples, seed)

    @pytest.mark.parametrize("k,seed,samples", [(6, seed, 100) for seed in range(1, 4)] + [(9, 1, 20)])
    @pytest.mark.parametrize("block", [1, 700, 5000, 20000])
    def test_small_blocks_report_equals_table_reference(self, monkeypatch, k, seed, samples, block):
        # k=6 has 90 links a row, k=9 756: blocks of one row, of runs of
        # rows that end inside a copy, and of one or more whole copies
        monkeypatch.setattr(mincut, "_SATELLITE_BLOCK", block)
        fam = gen_bipartite(k)
        assert tc_collision_family(fam, samples, seed) == _collision_reference(fam, samples, seed)

    def test_flipped_satellite_side_raises(self, fam, monkeypatch):
        monkeypatch.setattr(mincut._Reduced, "split", _flip_one_side(mask=6))
        with pytest.raises(InternalError):
            tc_collision_family(fam, 5, seed=1)

    @pytest.mark.parametrize("copy", [1, 100, 200])
    def test_flipped_copy_side_raises(self, fam, monkeypatch, copy):
        # one row of one sampled copy, past the base copy 0: one block
        # holds all 201 copies, so only that (copy, row) is flipped, and
        # the batch certifies it against that copy's own costs
        monkeypatch.setattr(mincut, "_SATELLITE_BLOCK", 1 << 30)
        monkeypatch.setattr(mincut._Reduced, "split", _flip_one_side(mask=6, copy=copy))
        with pytest.raises(InternalError, match=f"row mask 0b110 cuts .* in copy {copy}$"):
            tc_collision_family(fam, 100, seed=5)

    def test_declined_network_raises(self, fam):
        with pytest.raises(InvalidParameterError):
            tc_collision_family(dataclasses.replace(fam, network=_with_core_edge(fam)), 5, seed=1)

    def test_equal_values_collide(self, fam, monkeypatch):
        # the batch's values replaced by each copy's total cost, the base
        # total plus one step per set bit: exactly the sampled pairs of
        # equal bit counts collide, in sample order
        satellite_rows = mincut._Reduced.satellite_rows

        def totals(core, masks, costs=None):
            for part in satellite_rows(core, masks, costs):
                if costs is not None:
                    copy = np.arange(part.lo, part.lo + len(part.values)) // len(masks)
                    part = part._replace(values=costs.sum(axis=1)[copy].tolist())
                yield part

        monkeypatch.setattr(mincut._Reduced, "satellite_rows", totals)
        rng, pairs = random.Random(3), []
        for _ in range(40):
            a, b = rng.randrange(1 << fam.l), rng.randrange(1 << fam.l)
            while b == a:
                b = rng.randrange(1 << fam.l)
            pairs.append((a, b))
        want = tuple((a, b) for a, b in pairs if a.bit_count() == b.bit_count())
        assert 0 < len(want) < len(pairs)
        assert tc_collision_family(fam, 40, seed=3).collisions == want

    def test_single_bit_functions_differ(self, fam):
        mat = build_incidence(fam.network)
        rep = tc_collision_family(fam, 1, seed=3)
        step = rep.step
        base_values = mat.values
        for col in rep.columns[:4]:
            w_net = fam.network.with_costs(
                [
                    e.cost + (step if eid == col else 0)
                    for eid, e in enumerate(fam.network.edges)
                ]
            )
            new_values = build_incidence(w_net).values
            assert new_values != base_values


def _fraction_rank(rows: list[list[int]]) -> int:
    """Rank by Gauss-Jordan elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _greedy_columns(bits: np.ndarray, rows: list[int], count: int) -> list[int]:
    """Add each column, left to right, that raises the rank on the rows."""
    selected: list[int] = []
    for col in range(bits.shape[1]):
        cand = selected + [col]
        if _fraction_rank(bits[rows][:, cand].tolist()) == len(cand):
            selected.append(col)
            if len(selected) == count:
                break
    return selected


class TestIndependentColumns:
    def test_bipartite_subset_rows(self, fam):
        mat = build_incidence(fam.network)
        rows = [Bipartition.from_indices(fam.k, s).row_index for s in fam.subsets]
        expected = _greedy_columns(mat.bits, rows, fam.l)
        assert _pivot_columns(mat.bits[rows])[: fam.l] == expected
        assert len(expected) == fam.l

    @pytest.mark.parametrize("seed", range(40))
    def test_random_matrices(self, seed):
        rng = random.Random(seed)
        n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 12)
        density = rng.choice([0.2, 0.5, 0.8])
        bits = np.array(
            [[int(rng.random() < density) for _ in range(n_cols)] for _ in range(n_rows)], dtype=np.uint8
        )
        rows = sorted(rng.sample(range(n_rows), rng.randint(1, n_rows)))
        count = rng.randint(1, n_cols)
        assert _pivot_columns(bits[rows])[:count] == _greedy_columns(bits, rows, count)
