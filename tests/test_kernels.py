import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from _full_array import full_cut_values, full_minimum
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicknet import _kernels
from mimicknet.errors import InternalError, MimicknetError
from mimicknet.generate import random_planar_network
from mimicknet.incidence import perturb
from mimicknet.lowerbound import gen_bipartite, gen_grid
from mimicknet.mincut import _edge_tables, oracle_enumeration
from mimicknet.network import Network, enumerate_bipartitions


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
    for total, limbs in [(2**62 - 1, 1), (2**62, 2)]:
        assert len(_kernels.split(total, [], [])[1]) == limbs
        assert _kernels.minimum(1, total, [], [], [], [], [], []) == (total, [0], None)
    # the kernel itself takes one limb only
    with pytest.raises(OverflowError):
        next(_kernels.blocks(1, 2**62, [], [], [], [], [], []))


def test_int32_threshold():
    # a two-edge pair of cost c: the first block's last entry holds 2c
    # before its lower neighbour is subtracted
    for c, dtype in [(2**30 - 1, np.int32), (2**30, np.int64)]:
        args = (4, 0, [], [], [], [0], [1], [c])
        assert next(_kernels.blocks(*args))[1].dtype == dtype
        assert next(_kernels.blocks(*args, narrow=False))[1].dtype == np.int64
        assert _kernels.cut_values(*args).tolist() == [0, c, c, 0]
        assert _kernels.minimum(*args) == (0, [0, 3], c)


def test_kernel_fault_raises(monkeypatch):
    """A minimum that lost its top limb's share is not the cost of its
    cutsets: the oracle's certificate fires."""
    net = _overflowing_instance()
    bp = enumerate_bipartitions(net.k)[0]
    compose = _kernels._compose
    monkeypatch.setattr(_kernels, "_compose", lambda digits, bits: compose(digits[1:], bits))
    with pytest.raises(InternalError):
        oracle_enumeration(net, bp)


def test_narrow_kernel_fault_raises(monkeypatch):
    """An int32 one-limb sweep whose offsets are off by one gives a
    minimum that is not the cost of its cutsets: the oracle's certificate
    fires."""
    net, _ = random_planar_network(10, 3, seed=1)
    bp = enumerate_bipartitions(3)[0]
    blocks, dtypes = _kernels.blocks, set()

    def shifted(*args):
        for start, block, offset in blocks(*args):
            dtypes.add(block.dtype)
            yield start, block, offset + 1

    monkeypatch.setattr(_kernels, "blocks", shifted)
    with pytest.raises(InternalError):
        oracle_enumeration(net, bp)
    assert dtypes == {np.dtype(np.int32)}


def test_isolated_nonterminals_leave_the_sweep():
    path = [(0, 2, 1), (2, 3, 2), (3, 1, 1)]
    bp = enumerate_bipartitions(2)[0]
    alone = oracle_enumeration(Network(4, path, [0, 1]), bp)
    # 18 isolated non-terminals, one with a self-loop: n - k = 20
    net = Network(22, [*path, (5, 5, 2)], [0, 1])
    with mock.patch.object(_kernels, "minimum", wraps=_kernels.minimum) as kernel:
        assert oracle_enumeration(net, bp) == alone
    assert kernel.call_args.args[0] == 4


def sweep_dtypes(args):
    """The dtypes of the digits of the first block of ``args``' sweep."""
    bits, limbs = _kernels.split(args[1], args[4], args[7])
    _, digits, _ = next(_kernels._digit_blocks(args[0], bits, limbs, *args[2:4], *args[5:7]))
    return {d.dtype for d in digits}


def check_against_full_array(args):
    """Blocked ``cut_values`` and ``minimum`` equal the full-array
    reference, and the sweep is int32 exactly when the total is below
    ``INT32_SAFE_LIMIT`` (so with one limb only)."""
    total = args[1] + sum(args[4]) + sum(args[7])
    assert sweep_dtypes(args) == {np.dtype(np.int32 if total < _kernels.INT32_SAFE_LIMIT else np.int64)}
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


# Cost scales, given the kernel's digit width B: one limb on int32, one
# limb whose total is on either side of 2**30 (int32 below eight unit
# costs, int64 from there), two limbs (2**61, named by its value), 2**B - 1
# (every digit sum carries once the total takes two limbs), 2**2B - 1
# (always three limbs, a carry out of every entry) and four limbs or more.
SCALES = {
    "1": lambda bits: 1,
    "2^27": lambda bits: 1 << 27,
    str(1 << 61): lambda bits: 1 << 61,
    "2^B-1": lambda bits: (1 << bits) - 1,
    "2^2B-1": lambda bits: (1 << 2 * bits) - 1,
    "2^200": lambda bits: 1 << 200,
}


def scaled_table(p, base, ones, twos, scale):
    """Kernel arguments with the base and every cost times ``scale(B)``."""
    s = scale(_kernels.limb_bits(1 + len(ones) + len(twos)))
    ones = [(bit, flip, cost * s) for bit, flip, cost in ones]
    twos = [(a, b, cost * s) for a, b, cost in twos]
    return s, (1 << p, base * s, *columns(ones), *columns(twos))


@st.composite
def edge_tables(draw):
    """Kernel arguments for p <= 9 non-terminals: small costs, so ties and
    isolated bits are common, at every scale of ``SCALES``."""
    p = draw(st.integers(0, 9))
    cost = st.integers(1, 4)
    ones, twos = [], []
    if p:
        bit = st.integers(0, p - 1)
        ones = draw(st.lists(st.tuples(bit, st.integers(0, 1), cost), max_size=2 * p))
        if p > 1:
            pair = st.lists(bit, min_size=2, max_size=2, unique=True)
            twos = draw(st.lists(st.tuples(pair, cost).map(lambda t: (*t[0], t[1])), max_size=2 * p))
    scale = SCALES[draw(st.sampled_from(sorted(SCALES)))]
    return scaled_table(p, draw(st.integers(0, 4)), ones, twos, scale)[1]


@settings(max_examples=150, deadline=None)
@given(edge_tables(), st.integers(1, 4))
def test_blocked_kernel_matches_full_array(args, bits):
    with mock.patch.object(_kernels, "BLOCK_BITS", bits):
        check_against_full_array(args)


@pytest.mark.parametrize("scale", SCALES.values(), ids=SCALES.keys())
class TestBlockBoundaries:
    """Hand-made tables on p = 3 or 4 bits with two-bit blocks."""

    @pytest.fixture(autouse=True)
    def narrow_blocks(self, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK_BITS", 2)

    @staticmethod
    def run(p, base, ones, twos, scale):
        s, args = scaled_table(p, base, ones, twos, scale)
        dtype, vmin, masks, second = check_against_full_array(args)
        total = args[1] + sum(args[4]) + sum(args[7])
        assert dtype == (np.int64 if total < _kernels.INT64_SAFE_LIMIT else object)
        return vmin // s, masks, second if second is None else second // s

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


def test_multi_limb_sweep_stays_int64():
    """A two-limb table whose top limb sums far below ``INT32_SAFE_LIMIT``
    still sweeps every limb on int64, and matches the reference."""
    big = 1 << 61
    ones = [(0, 0, big + 5), (0, 1, big + 3), (1, 0, 7), (2, 1, 2)]
    args = (8, 1, *columns(ones), [1], [2], [4])
    _, limbs = _kernels.split(args[1], args[4], args[7])
    top_base, top_one, top_two = limbs[-1]
    assert len(limbs) == 2 and top_base + sum(top_one) + sum(top_two) < _kernels.INT32_SAFE_LIMIT
    for _ in block_widths():
        check_against_full_array(args)


class TestLimbBoundaries:
    """Values of three limbs or more that agree in every limb but the low
    ones, on p = 4 bits with two-bit blocks."""

    BIG = 1 << 200

    @pytest.fixture(autouse=True)
    def narrow_blocks(self, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK_BITS", 2)

    def run(self, ones):
        args = (16, 0, *columns(ones), [], [], [])
        assert len(_kernels.split(0, args[4], args[7])[1]) >= 4
        _, vmin, masks, second = check_against_full_array(args)
        return vmin - 2 * self.BIG, masks, second - 2 * self.BIG

    def test_tie_split_in_the_lowest_limb(self):
        # bit 0 clear costs one less; bits 1 to 3 cost the same either way
        big = self.BIG
        ones = [(0, 0, big + 2), (0, 1, big + 1), (1, 0, big), (1, 1, big)]
        assert self.run(ones) == (1, [0, 2, 4, 6, 8, 10, 12, 14], 2)

    def test_second_value_one_carry_apart(self):
        # the two choices of bit 0 differ by 1 across a limb boundary
        low = 1 << _kernels.limb_bits(5)
        ones = [(0, 0, self.BIG + low), (0, 1, self.BIG + low - 1), (2, 0, self.BIG), (2, 1, self.BIG)]
        assert self.run(ones) == (low - 1, [0, 2, 4, 6, 8, 10, 12, 14], low)

    def test_minimum_in_a_later_block_same_top(self):
        # setting bit 3 saves 1 in the lowest limb; block 0 holds the second
        big = self.BIG
        ones = [(3, 0, big), (3, 1, big + 1), (0, 0, 1), (1, 1, 1), (2, 0, big), (2, 1, big)]
        assert self.run(ones) == (0, [10, 14], 1)


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


def test_multi_limb_kernel_at_module_width():
    """Tables of three limbs or more with p above ``BLOCK_BITS``: bipartite
    k=6 (p = 15, tied minima) at costs times 2**2B - 1, and a perturbed
    planar network with p = 16 whose minimum is unique."""
    args = kernel_args(gen_bipartite(6).network, enumerate_bipartitions(6)[6])
    s = (1 << 2 * _kernels.limb_bits(1 + len(args[4]) + len(args[7]))) - 1
    scaled = (args[0], args[1] * s, *args[2:4], [c * s for c in args[4]], *args[5:7], [c * s for c in args[7]])
    assert len(_kernels.split(scaled[1], scaled[4], scaled[7])[1]) >= 3
    _, _, masks, _ = check_against_full_array(scaled)
    assert len(masks) > 1
    for seed in range(20):
        try:
            net = perturb(random_planar_network(20, 4, seed=seed)[0], seed, resolution=1 << 60).network
            break
        except MimicknetError:
            continue
    bp = enumerate_bipartitions(4)[2]
    args = kernel_args(net, bp)
    assert args[0] > 1 << _kernels.BLOCK_BITS
    assert len(_kernels.split(args[1], args[4], args[7])[1]) >= 2
    assert len(check_against_full_array(args)[2]) == 1


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
