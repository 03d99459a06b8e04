from fractions import Fraction

import numpy as np

from mimicknet import _kernels
from mimicknet.errors import MimicknetError
from mimicknet.generate import random_planar_network
from mimicknet.incidence import perturb
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


def kernel_values(net, bp):
    nonterms, _, base, ones, twos = _edge_tables(net, bp)
    return _kernels.cut_values(1 << len(nonterms), base, *ones, *twos)


def test_kernel_matches_brute_force_on_random_planar():
    loops = parallel = 0
    for k in (2, 3, 4):
        for seed in range(4):
            net, _ = random_planar_network(k + 7, k, seed=300 + 10 * k + seed, loop_prob=0.3)
            loops += sum(e.u == e.v for e in net.edges)
            pairs = [frozenset((e.u, e.v)) for e in net.edges if e.u != e.v]
            parallel += len(pairs) - len(set(pairs))
            for bp in enumerate_bipartitions(k):
                values = kernel_values(net, bp)
                assert values.dtype == np.int64
                assert values.tolist() == [v for v, _ in brute_force(net, bp)]
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
        values = kernel_values(net, bp)
        assert values.dtype == object
        ref = brute_force(net, bp)
        assert values.tolist() == [v for v, _ in ref]
        assert max(v for v, _ in ref) >= 1 << 62

        res = oracle_enumeration(net, bp)
        vmin = min(v for v, _ in ref)
        above = [v for v, _ in ref if v > vmin]
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


def test_int64_guard_threshold():
    assert _kernels.fits_int64(2**61)
    assert not _kernels.fits_int64(2**62)

