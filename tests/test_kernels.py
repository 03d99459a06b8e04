import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from _full_array import full_cut_values, full_minimum
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicknet import _kernels
from mimicknet.errors import MimicknetError
from mimicknet.generate import random_planar_network
from mimicknet.incidence import perturb
from mimicknet.lowerbound import gen_bipartite, gen_grid
from mimicknet.mincut import _edge_tables, oracle_enumeration
from mimicknet.network import enumerate_bipartitions


def brute_force(net, bp):
    """Scaled cut value and crossing edge ids of every non-terminal mask,
    evaluated edge by edge."""
    nonterms = [v for v in range(net.n) if v not in net.terminals]
    side_terms = set(bp.side_vertices(net))
    den = net.cost_denominator
    out = []
    for mask in range(1 << len(nonterms)):
        in_side = {v: v in side_terms for v in net.terminals}
        for bit, v in enumerate(nonterms):
            in_side[v] = bool(mask >> bit & 1)
        cutset = frozenset(eid for eid, e in enumerate(net.edges) if in_side[e.u] != in_side[e.v])
        value = sum(net.edges[eid].cost.numerator * (den // net.edges[eid].cost.denominator) for eid in cutset)
        out.append((value, cutset))
    return out


def kernel_args(net, bp):
    nonterms, _, base, ones, twos = _edge_tables(net, bp)
    return (1 << len(nonterms), base, *ones, *twos)


def kernel_values(net, bp):
    return _kernels.cut_values(*kernel_args(net, bp))


def block_widths():
    """Run the loop body at the module's block width, then at a narrow one
    so that small instances span many blocks."""
    for bits in (_kernels.BLOCK_BITS, 2):
        with mock.patch.object(_kernels, "BLOCK_BITS", bits):
            yield bits


def test_kernel_matches_brute_force_on_random_planar():
    loops = parallel = 0
    for k in (2, 3, 4):
        for seed in range(4):
            net, _ = random_planar_network(k + 7, k, seed=300 + 10 * k + seed, loop_prob=0.3)
            loops += sum(e.u == e.v for e in net.edges)
            pairs = [frozenset((e.u, e.v)) for e in net.edges if e.u != e.v]
            parallel += len(pairs) - len(set(pairs))
            for bp in enumerate_bipartitions(k):
                ref = [v for v, _ in brute_force(net, bp)]
                for _ in block_widths():
                    values = kernel_values(net, bp)
                    assert values.dtype == np.int64
                    assert values.tolist() == ref
    assert loops and parallel


def _overflowing_instance():
    for seed in range(20):
        net, _ = random_planar_network(9, 3, seed=seed)
        try:
            return perturb(net, seed, resolution=1 << 60).network
        except MimicknetError:
            continue
    raise AssertionError("no perturbable instance")


def test_object_dtype_oracle_matches_brute_force():
    net = _overflowing_instance()
    den = net.cost_denominator
    for bp in enumerate_bipartitions(net.k):
        ref = brute_force(net, bp)
        assert max(v for v, _ in ref) >= 1 << 62
        vmin = min(v for v, _ in ref)
        above = [v for v, _ in ref if v > vmin]
        for _ in block_widths():
            values = kernel_values(net, bp)
            assert values.dtype == object
            assert values.tolist() == [v for v, _ in ref]

            res = oracle_enumeration(net, bp)
            assert res.value == Fraction(vmin, den)
            assert res.min_cutsets == frozenset(c for v, c in ref if v == vmin)
            assert res.second_value == (Fraction(min(above), den) if above else None)


def test_no_nonterminals_single_mask():
    net, _ = random_planar_network(4, 4, seed=7)
    bp = enumerate_bipartitions(4)[0]
    nonterms, _, base, ones, twos = _edge_tables(net, bp)
    assert nonterms == []
    values = _kernels.cut_values(1, base, *ones, *twos)
    assert values.shape == (1,) and int(values[0]) == base
    assert _kernels.minimum(1, base, *ones, *twos) == (base, [0], None)


def test_int64_guard_threshold():
    # a network with no non-terminal: the total is the base alone
    for total, dtype in [(2**62 - 1, np.int64), (2**62, object)]:
        assert next(_kernels.blocks(1, total, [], [], [], [], [], []))[1].dtype == dtype


def check_against_full_array(args):
    """Blocked ``cut_values`` and ``minimum`` equal the full-array reference."""
    full = full_cut_values(*args)
    values = _kernels.cut_values(*args)
    assert values.dtype == full.dtype
    assert values.tolist() == full.tolist()
    vmin, masks, second = _kernels.minimum(*args)
    assert (vmin, sorted(masks), second) == full_minimum(full)
    return full.dtype, vmin, sorted(masks), second


def columns(rows):
    """Three parallel lists from (a, b, cost) rows."""
    return [list(col) for col in zip(*rows)] if rows else [[], [], []]


@st.composite
def edge_tables(draw):
    """Kernel arguments for p <= 9 non-terminals: small costs, so ties and
    isolated bits are common, scaled past the int64 limit half the time."""
    p = draw(st.integers(0, 9))
    scale = draw(st.sampled_from([1, 1 << 61]))
    cost = st.integers(1, 4).map(lambda c: c * scale)
    ones, twos = [], []
    if p:
        bit = st.integers(0, p - 1)
        ones = draw(st.lists(st.tuples(bit, st.integers(0, 1), cost), max_size=2 * p))
        if p > 1:
            pair = st.lists(bit, min_size=2, max_size=2, unique=True)
            twos = draw(st.lists(st.tuples(pair, cost).map(lambda t: (*t[0], t[1])), max_size=2 * p))
    return (1 << p, draw(st.integers(0, 4)) * scale, *columns(ones), *columns(twos))


@settings(max_examples=150, deadline=None)
@given(edge_tables(), st.integers(1, 4))
def test_blocked_kernel_matches_full_array(args, bits):
    with mock.patch.object(_kernels, "BLOCK_BITS", bits):
        check_against_full_array(args)


@pytest.mark.parametrize("scale", [1, 1 << 61])
class TestBlockBoundaries:
    """Hand-made tables on p = 3 or 4 bits with two-bit blocks."""

    @pytest.fixture(autouse=True)
    def narrow_blocks(self, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK_BITS", 2)

    @staticmethod
    def run(p, base, ones, twos, scale):
        ones = [(bit, flip, cost * scale) for bit, flip, cost in ones]
        twos = [(a, b, cost * scale) for a, b, cost in twos]
        dtype, vmin, masks, second = check_against_full_array((1 << p, base * scale, *columns(ones), *columns(twos)))
        assert dtype == (np.int64 if scale == 1 else object)
        return vmin // scale, masks, second if second is None else second // scale

    def test_ties_in_every_block(self, scale):
        # bits 2 and 3 touch no edge, so each block repeats the first
        assert self.run(4, 0, [(0, 0, 3), (1, 1, 2)], [], scale) == (0, [2, 6, 10, 14], 2)

    def test_second_value_in_another_block(self, scale):
        # block 0 holds 0, 5, 7, 12; setting bit 2 adds 1 to each
        assert self.run(3, 0, [(0, 0, 5), (1, 0, 7), (2, 0, 1)], [], scale) == (0, [0], 1)

    def test_minimum_in_a_later_block(self, scale):
        # the edge to side 1 makes every mask without bit 3 cost 4 more
        assert self.run(4, 0, [(3, 1, 4), (0, 0, 1)], [(1, 2, 1)], scale) == (0, [8, 14], 1)

    def test_no_second_value(self, scale):
        assert self.run(3, 4, [], [], scale) == (4, list(range(8)), None)


def test_blocked_kernel_on_families_at_module_width():
    """Networks with p below, at and above ``BLOCK_BITS``; bipartite k=6
    (p = 15) has tied minimum cuts."""
    width = _kernels.BLOCK_BITS
    nets = [
        gen_grid(3).network,
        random_planar_network(width + 3, 3, seed=4)[0],
        gen_bipartite(6).network,
    ]
    assert sorted(np.sign([net.n - net.k - width for net in nets])) == [-1, 0, 1]
    tied = 0
    for net in nets:
        for bp in enumerate_bipartitions(net.k):
            _, _, masks, _ = check_against_full_array(kernel_args(net, bp))
            tied += len(masks) > 1
    assert tied


def test_oracle_never_holds_all_values():
    net, _ = random_planar_network(24, 4, seed=1)
    bp = enumerate_bipartitions(4)[0]
    full_bytes = 8 << 20  # 2**20 int64 values
    tracemalloc.start()
    try:
        oracle_enumeration(net, bp)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        kernel_values(net, bp)  # tracemalloc sees numpy's buffers
        _, full_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert full_peak >= full_bytes
    assert peak < full_bytes // 4
