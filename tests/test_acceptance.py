"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings.  The shared campaign (200 random connected
plane-embedded networks, k in {2,3,4,5}, n <= 30, random rational costs)
comes from conftest.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from mimicknet.errors import NonUniqueCutsError
from mimicknet.incidence import perturb
from mimicknet.lowerbound import (
    gen_bipartite,
    gen_grid,
    tc_collision_family,
    verify_bipartite_lemma,
    verify_grid_lemma,
    verify_rank_bounds,
)
from mimicknet.mimick import (
    build_by_contraction,
    build_by_signature,
    terminal_cuts,
    verify,
    verify_generalized,
)
from mimicknet.mincut import (
    ORACLE_CAPACITY,
    global_gap,
    min_separating_cut,
    oracle_enumeration,
    uniqueness_by_flow,
)
from mimicknet.network import Bipartition, connected_components, enumerate_bipartitions
from mimicknet.planar import build_dual, check_component_bounds, faces_of_subgraph
from mimicknet.tcscheme import deserialize, preprocess, query, serialize, storage_report


def _report(name: str, started: float, **stats) -> None:
    extra = " ".join(f"{k}={v}" for k, v in stats.items())
    print(f"\nACCEPTANCE {name}: PASS ({time.time() - started:.1f}s) {extra}")


def test_c01_contraction_mimicking_correctness(campaign):
    t0 = time.time()
    checked = 0
    for net, _ in campaign:
        result = build_by_contraction(net)
        assert verify(net, result.network).all_equal, f"cut value drift on {net}"
        # minor witness: every class is connected once the cut union is removed
        comps = connected_components(net, result.cuts.union)
        assert set(result.contraction_map.classes) == {
            tuple(sorted(c)) for c in comps
        }
        checked += 1
    assert checked == 200
    _report("C1 contraction mimicking", t0, instances=checked)


def test_c02_signature_mimicking_correctness(campaign):
    t0 = time.time()
    for net, _ in campaign:
        result = build_by_signature(net)
        assert verify(net, result.network).all_equal
        assert result.stats.class_count <= 2 ** (2 ** (net.k - 1) - 1)
    _report("C2 signature mimicking", t0, instances=len(campaign))


def test_c03_generalized_mimicking(campaign):
    t0 = time.time()
    checked = 0
    for net, _ in campaign:
        if net.k > 4:
            continue
        result = build_by_contraction(net)
        assert verify_generalized(net, result.network).all_equal
        checked += 1
    assert checked == 150
    _report("C3 generalized mimicking", t0, instances=checked)


def test_c04_structural_bounds(campaign):
    t0 = time.time()
    rng = random.Random(20240)
    pair_checks = 0
    for idx, (net, emb) in enumerate(campaign):
        dual = build_dual(emb)
        bps = enumerate_bipartitions(net.k)
        cutsets = [min_separating_cut(net, bp).cutset for bp in bps]
        for cs in cutsets:
            rep = check_component_bounds(emb, dual, cs)
            assert rep.single_ok, f"instance {idx}: {rep.cc_single} > k={net.k}"
        for _ in range(50):
            a, b = rng.randrange(len(bps)), rng.randrange(len(bps))
            rep = check_component_bounds(emb, dual, cutsets[a], cutsets[b])
            assert rep.ok, f"instance {idx}: {rep}"
            pair_checks += 1
        result = build_by_contraction(net)
        n_components = len(connected_components(net, result.cuts.union))
        n_faces = faces_of_subgraph(dual.embedding, result.cuts.union)
        assert result.network.n == n_components == n_faces
    _report("C4 structural bounds", t0, pair_checks=pair_checks)


def test_c05_grid_staircase_cuts():
    t0 = time.time()
    for k in (3, 4, 5):
        fam = gen_grid(k)
        rep = verify_grid_lemma(fam, oracle=(k == 3))
        assert rep.ok, f"grid k={k}: {[r for r in rep.checked if not r.ok]}"
        for r in rep.checked:
            assert r.value == r.i + r.j - Fraction(r.i * r.j, k**4)
    fam4 = gen_grid(4)
    bp = Bipartition.from_mask(8, fam4.subset_mask(2, 3))
    assert min_separating_cut(fam4.network, bp).value == Fraction(637, 128)
    _report("C5 grid staircase cuts", t0, ks="3,4,5")


def test_c06_bipartite_cuts():
    t0 = time.time()
    rep6 = verify_bipartite_lemma(gen_bipartite(6))
    assert len(rep6.checked) == 15 and rep6.ok
    rep9 = verify_bipartite_lemma(gen_bipartite(9), spot_check=10, seed=2024)
    assert len(rep9.checked) == 10 and rep9.ok
    _report("C6 bipartite cuts", t0, full_k6=15, spot_k9=10)


def test_c07_rank_bounds():
    t0 = time.time()
    rep = verify_rank_bounds(gen_bipartite(6))
    assert rep.rank >= 15 and rep.ok
    for k in (3, 4, 5):
        rep = verify_rank_bounds(gen_grid(k))
        assert rep.rank >= (k - 1) ** 2
        assert rep.submatrix_ok, f"grid k={k} submatrix not lower triangular"
    _report("C7 rank bounds", t0, bipartite_rank=">=15", grids="3,4,5")


def test_c08_perturbation_preserves_incidence(campaign):
    t0 = time.time()
    # grid k=3 is the constructed family with a positive gap; run the full
    # 50-seed campaign there plus 50 seeds spread over positive-gap random
    # planar instances
    fam = gen_grid(3)
    base = terminal_cuts(fam.network).cut_matrix
    delta = global_gap(fam.network)
    assert delta == Fraction(1, 81)
    for seed in range(50):
        pert = perturb(fam.network, seed=seed, delta=delta)
        assert all(0 <= w <= 1 / (delta * fam.network.m) for w in pert.w)
        assert np.array_equal(terminal_cuts(pert.network).cut_matrix, base)

    done = 0
    for net, _ in campaign:
        if done >= 50 or net.n - net.k > 16:
            continue
        d = global_gap(net)
        if d is None or d == 0:
            continue
        pert = perturb(net, seed=done, delta=d)
        assert np.array_equal(terminal_cuts(pert.network).cut_matrix, terminal_cuts(net).cut_matrix)
        done += 1
    assert done >= 25, f"too few unique-cut campaign instances ({done})"

    # the other constructed families have tied minimum cuts (gap 0), so the
    # uniqueness precondition is unsatisfiable and perturbation must refuse
    assert global_gap(gen_bipartite(6).network) == 0
    with pytest.raises(NonUniqueCutsError):
        perturb(gen_bipartite(6).network, seed=0)
    assert global_gap(gen_grid(4).network) == 0
    with pytest.raises(NonUniqueCutsError):
        perturb(gen_grid(4).network, seed=0)
    _report("C8 perturbation", t0, grid3_seeds=50, planar_instances=done)


def test_c09_terminal_cuts_store(campaign):
    t0 = time.time()
    for net, _ in campaign:
        store = preprocess(net)
        for bp in enumerate_bipartitions(net.k):
            direct = min_separating_cut(net, bp).value
            assert query(store, bp.side_indices()) == direct
            assert query(store, bp.coside_indices()) == direct
        rep = storage_report(store)
        assert rep.words <= 1 << net.k
        blob = serialize(store)
        assert serialize(deserialize(blob)) == blob
    collision = tc_collision_family(gen_bipartite(6), 100, seed=7)
    assert collision.ok and not collision.collisions
    _report("C9 terminal-cuts store", t0, instances=len(campaign), collision_pairs=100)


def test_c10_oracle_equivalence(campaign):
    t0 = time.time()
    eligible = 0
    for net, _ in campaign:
        if net.n - net.k > ORACLE_CAPACITY:
            continue
        eligible += 1
        for bp in enumerate_bipartitions(net.k):
            flow_cut = min_separating_cut(net, bp)
            res = oracle_enumeration(net, bp)
            assert flow_cut.value == res.value
            assert flow_cut.cutset in res.min_cutsets
            assert uniqueness_by_flow(net, bp) == (len(res.min_cutsets) == 1)
    assert eligible >= 100, f"only {eligible} campaign instances within oracle capacity"
    _report("C10 oracle equivalence", t0, instances=eligible)
