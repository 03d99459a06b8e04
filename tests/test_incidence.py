import itertools
import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _bareiss import bareiss_pivot_columns

from mimicknet.errors import InternalError, InvalidParameterError, NonUniqueCutsError
from mimicknet.generate import random_planar_network, star_network
from mimicknet.incidence import (
    _pivot_columns,
    build_incidence,
    integer_rank,
    perturb,
)
from mimicknet.lowerbound import gen_bipartite, gen_grid
from mimicknet import incidence, mincut
from mimicknet.mimick import terminal_cuts
from mimicknet.mincut import global_gap
from mimicknet.network import Network

STAR3 = Network(4, [(0, 3, 1), (1, 3, 1), (2, 3, 1)], [0, 1, 2])


class TestBuild:
    def test_single_edge(self):
        net = Network(2, [(0, 1, 7)], [0, 1])
        mat = build_incidence(net)
        assert mat.bits.tolist() == [[1]]
        assert mat.values == (Fraction(7),)

    def test_star3_structure(self):
        # canonical cuts: rows for {q2} and {q3} take that leaf's edge; the
        # {q2,q3} split is cheapest on the complement side, taking q1's edge
        mat = build_incidence(STAR3)
        assert mat.bits.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        assert mat.values == (Fraction(1), Fraction(1), Fraction(1))

    def test_row_value_mismatch_raises(self, monkeypatch):
        # the one edge costs 7; the walk claims 8 for the row that cuts it,
        # and the table's one certificate, run by terminal_cuts, catches it
        walk = mincut._walk

        def wrong(graph):
            values, side = walk(graph)
            assert values == [7] and side.tolist() == [[True, False]]
            return [8], side

        monkeypatch.setattr(mincut, "_walk", wrong)
        with pytest.raises(InternalError):
            build_incidence(Network(2, [(0, 1, 7)], [0, 1]))

    def test_one_certificate_per_table(self, certified):
        # terminal_cuts certifies the read-only table build_incidence views
        build_incidence(gen_grid(3).network)
        assert len(certified) == 1

    def test_grid_k4_row_count(self):
        fam = gen_grid(4)
        mat = build_incidence(fam.network)
        assert mat.rows == 127 and mat.cols == fam.network.m

    @pytest.mark.parametrize("seed", range(4))
    def test_matrix_times_costs_gives_values(self, seed):
        net, _ = random_planar_network(12, 4, seed=300 + seed)
        mat = build_incidence(net)
        costs = [e.cost for e in net.edges]
        for i in range(mat.rows):
            dot = sum((c for c, b in zip(costs, mat.bits[i]) if b), Fraction(0))
            assert dot == mat.values[i]


class TestRank:
    def test_star3_full_rank(self):
        assert integer_rank(terminal_cuts(STAR3).cut_matrix) == 3

    def test_bipartite_k6_at_least_15(self):
        assert integer_rank(terminal_cuts(gen_bipartite(6).network).cut_matrix) >= 15

    def test_grid_k4_at_least_9(self):
        assert integer_rank(terminal_cuts(gen_grid(4).network).cut_matrix) >= 9

    def test_row_permutation_invariant(self):
        cut = terminal_cuts(gen_grid(3).network).cut_matrix
        rows = cut.view(np.uint8).tolist()
        rng = random.Random(5)
        for _ in range(3):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert integer_rank(shuffled) == integer_rank(cut)

    def test_integer_rank_known_matrices(self):
        assert integer_rank([[1, 0], [0, 1]]) == 2
        assert integer_rank([[1, 2], [2, 4]]) == 1
        assert integer_rank([[0, 0], [0, 0]]) == 0
        assert integer_rank([[2, 3, 5], [7, 11, 13], [9, 14, 19]]) == 3
        assert integer_rank([[1, 1, 0], [0, 0, 1], [1, 1, 1]]) == 2

    def test_integer_input_kinds(self):
        assert integer_rank([[True, False], [True, True]]) == 2
        assert integer_rank(np.array([[True, True]])) == 1
        assert integer_rank(np.array([[1 << 70, 1], [1 << 71, 2]], dtype=object)) == 1

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([[0.5, 0.25]]),  # rank 1; truncated to int64, rank 0
            np.array([[0.5, 1.0], [1.0, 2.0]]),  # rank 1; truncated, rank 2
            np.array([["1", "2"]]),
            np.array([[0.5, 1]], dtype=object),
        ],
    )
    def test_non_integer_dtype_rejected(self, rows):
        with pytest.raises(InvalidParameterError):
            integer_rank(rows)

    @pytest.mark.parametrize("rows", [[[0.5, 1]], [[1.0]], [[1, Fraction(1, 2)]], [[1, 2], [3]]])
    def test_non_integer_entry_rejected(self, rows):
        with pytest.raises(InvalidParameterError):
            integer_rank(rows)


PRIME = (1 << 21) - 9  # the first prime of the modular elimination
BIG_PRIME = (1 << 21) + 17  # a prime above every prime it uses

# entries from 0/1 up to well past int64, negative ones included
ENTRIES = st.one_of(
    st.integers(0, 1),
    st.integers(-3, 3),
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from([PRIME, -PRIME, BIG_PRIME, 1 << 63, -(1 << 63), (1 << 64) + 1]),
)


@st.composite
def integer_matrices(draw):
    """Tall, wide, empty and 0-column matrices; half of them are products
    through an inner dimension below min(rows, cols), so rank-deficient."""
    n_rows, n_cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    if n_rows and n_cols and draw(st.booleans()):
        inner = draw(st.integers(0, min(n_rows, n_cols) - 1))
        left = draw(st.lists(st.lists(st.integers(-3, 3), min_size=inner, max_size=inner), min_size=n_rows, max_size=n_rows))
        right = draw(st.lists(st.lists(ENTRIES, min_size=n_cols, max_size=n_cols), min_size=inner, max_size=inner))
        return [[sum(x * r[j] for x, r in zip(row, right)) for j in range(n_cols)] for row in left]
    return draw(st.lists(st.lists(ENTRIES, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))


@st.composite
def small_rref_products(draw):
    """Matrices of about 30 x 40 whose RREF R has entries in -3..3: a
    left factor of full column rank (unit lower triangular on some of its
    rows) times R, so a single prime lifts the RREF."""
    n_rows, n_cols = draw(st.integers(20, 30)), draw(st.integers(30, 40))
    pivots = sorted(draw(st.sets(st.integers(0, n_cols - 1), min_size=4, max_size=n_rows)))
    r = len(pivots)
    right = np.array(draw(st.lists(st.integers(-3, 3), min_size=r * n_cols, max_size=r * n_cols))).reshape(r, n_cols)
    for i, col in enumerate(pivots):
        right[i, : col + 1] = 0
        right[i, pivots] = 0
        right[i, col] = 1
    left = np.array(draw(st.lists(st.integers(-3, 3), min_size=n_rows * r, max_size=n_rows * r))).reshape(n_rows, r)
    placed = draw(st.permutations(range(n_rows)))[:r]
    left[placed] = np.tril(left[placed], -1) + np.eye(r, dtype=left.dtype)
    return left @ right


class TestCertifiedRank:
    """The modular elimination against the Bareiss reference."""

    @settings(max_examples=40, deadline=None)
    @given(small_rref_products())
    def test_full_reduction_branch(self, a):
        # with one column per panel and the largest prime below 2**27, one
        # panel of products fills the float64 budget, so every later panel
        # with a pivot reduces the block from the panel on first; left
        # unreduced, entries would pass 2**53 within a few panels
        p = (1 << 27) - 39
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(incidence, "_PANEL", 1)
            assert ((1 << 52) - p) // (p // 2 + 2) ** 2 == 1
            pivots, free, residues = incidence._rref_mod(a, p)
        assert pivots == bareiss_pivot_columns(a.tolist())
        assert incidence._certify(a, pivots, free, residues, p)

    @staticmethod
    def _check_dtypes(monkeypatch) -> list:
        """The dtype of every product ``_certify`` compares."""
        dtypes, equal = [], np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda x, y: dtypes.append(y.dtype) or equal(x, y))
        return dtypes

    def test_float_certificate_is_strict(self, monkeypatch):
        a = build_incidence(gen_bipartite(9).network).bits
        pivots, free, residues = incidence._rref_mod(a, PRIME)
        dtypes = self._check_dtypes(monkeypatch)
        assert incidence._certify(a, pivots, free, residues, PRIME)
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}
        # one RREF entry off by one: it still lifts, and the product differs
        residues[-1, -1] = (residues[-1, -1] + 1) % PRIME
        dtypes.clear()
        assert not incidence._certify(a, pivots, free, residues, PRIME)
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}

    def test_wide_bound_certified_on_python_integers(self, monkeypatch):
        # entries past 2**53, so no product may run in float64
        rows = [[1 << 60, 1, 3], [5, 7, (1 << 60) + 2]]
        dtypes = self._check_dtypes(monkeypatch)
        assert _pivot_columns(rows) == bareiss_pivot_columns(rows) == [0, 1]
        assert dtypes and set(dtypes) == {np.dtype(object)}

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_matches_bareiss(self, rows):
        expected = bareiss_pivot_columns(rows)
        assert _pivot_columns(rows) == expected
        assert integer_rank(rows) == len(expected)

    @pytest.mark.parametrize(
        "rows, pivots",
        [
            ([[PRIME]], [0]),  # vanishes mod the first prime
            ([[PRIME, 1]], [0]),  # pivot {1} mod the first prime, {0} over Q
            ([[BIG_PRIME, 1]], [0]),  # the RREF entry 1/BIG_PRIME needs CRT
            ([[PRIME, 1], [2 * PRIME, 2]], [0]),
            ([[PRIME, 0], [0, PRIME]], [0, 1]),
            ([[1, 2], [2, 4]], [0]),
            ([[0, 0], [0, 0]], []),
            ([], []),
            ([[]], []),
            ([[], []], []),
        ],
    )
    def test_known_pivots(self, rows, pivots):
        assert bareiss_pivot_columns(rows) == pivots
        assert _pivot_columns(rows) == pivots

    def test_primes_match_trial_division(self):
        expected = []
        for n in range((1 << 21) - 1, 1 << 20, -2):
            if all(n % d for d in range(3, isqrt(n) + 1, 2)):
                expected.append(n)
                if len(expected) == 50:
                    break
        assert list(itertools.islice(incidence._primes(), 50)) == expected

    def test_numpy_input(self):
        bits = np.array([[1, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=np.uint8)
        assert _pivot_columns(bits) == [0, 2]
        assert _pivot_columns(np.zeros((0, 4), dtype=np.uint8)) == []
        assert _pivot_columns(np.array([[1 << 63]], dtype=np.uint64)) == [0]

    @pytest.mark.parametrize(
        "family, k", [("bipartite", 6), ("bipartite", 9)] + [("grid", k) for k in range(3, 8)]
    )
    def test_family_matrices(self, family, k):
        fam = gen_bipartite(k) if family == "bipartite" else gen_grid(k)
        mat = build_incidence(fam.network)
        expected = bareiss_pivot_columns(mat.bits.tolist())
        assert _pivot_columns(mat.bits) == expected
        assert integer_rank(mat.bits) == len(expected)

    @pytest.mark.parametrize("family, k", [("grid", 4), ("bipartite", 6)])
    def test_pivots_alike_on_every_form(self, family, k):
        # the bool cut matrix (verify_rank_bounds), its uint8 view
        # (build_incidence) and its rows as Python lists give one answer
        fam = gen_bipartite(k) if family == "bipartite" else gen_grid(k)
        cut = terminal_cuts(fam.network).cut_matrix
        expected = _pivot_columns(cut)
        assert _pivot_columns(cut.view(np.uint8)) == expected
        assert _pivot_columns(cut.tolist()) == expected
        assert expected == bareiss_pivot_columns(cut.tolist())

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_matrices(self, seed):
        net = gen_grid(3).network if seed == 3 else random_planar_network(10, 4, seed=500 + seed)[0]
        pert = perturb(net, seed=seed)
        expected = bareiss_pivot_columns(pert.cuts.cut_matrix.tolist())
        assert _pivot_columns(pert.cuts.cut_matrix) == expected
        assert integer_rank(pert.cuts.cut_matrix) == len(expected)

    def test_rank_certificate_mismatch_raises(self, monkeypatch):
        # a check that never passes must end in InternalError, not a rank
        monkeypatch.setattr(incidence, "_certify", lambda *args: False)
        with pytest.raises(InternalError):
            integer_rank([[1, 2], [3, 4]])

    def test_gram_certificate_mismatch_raises(self, monkeypatch):
        # the budget is the eliminated matrix's: here the 18 x 18 Gram matrix
        budgets = []
        prime_budget = incidence._prime_budget
        monkeypatch.setattr(incidence, "_prime_budget", lambda e: budgets.append(e.shape) or prime_budget(e))
        monkeypatch.setattr(incidence, "_certify", lambda *args: False)
        with pytest.raises(InternalError):
            integer_rank(terminal_cuts(gen_grid(3).network).cut_matrix)
        assert budgets == [(18, 18)]


def _eliminated(monkeypatch) -> list:
    """The shape of every matrix ``_rref_mod`` eliminates."""
    shapes, rref = [], incidence._rref_mod
    monkeypatch.setattr(incidence, "_rref_mod", lambda e, p: shapes.append(e.shape) or rref(e, p))
    return shapes


# tall bool matrices of up to 6 columns, so the Gram route
TALL_BOOL = st.integers(1, 6).flatmap(
    lambda c: st.lists(st.lists(st.booleans(), min_size=c, max_size=c), min_size=c + 1, max_size=12)
)


class TestPanels:
    """The column-panel elimination and the Gram route, against the
    Bareiss reference."""

    @pytest.mark.parametrize("width", [1, 3])
    @settings(max_examples=100, deadline=None)
    @given(rows=integer_matrices())
    def test_panel_widths(self, width, rows):
        # one column per panel, and panels that end inside the matrix
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(incidence, "_PANEL", width)
            assert _pivot_columns(rows) == bareiss_pivot_columns(rows)

    @pytest.mark.parametrize("width", [1, 7, 64, 100])
    def test_rref_alike_at_every_width(self, monkeypatch, width):
        # the RREF mod p is unique, so every panel width gives the same
        # residues; 7 ends inside the matrix, 100 is one panel
        a = build_incidence(gen_bipartite(6).network).bits
        want = incidence._rref_mod(a, PRIME)
        monkeypatch.setattr(incidence, "_PANEL", width)
        pivots, free, residues = incidence._rref_mod(a, PRIME)
        assert pivots == want[0] == bareiss_pivot_columns(a.tolist()) and free == want[1]
        assert np.array_equal(residues, want[2])

    def test_panel_without_pivot(self, monkeypatch):
        # 2-column panels: the first holds no pivot, the third's columns
        # depend on the second's, the fourth has one pivot
        rows = [[0, 0, 1, 0, 1, 2, 0], [0, 0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 0, 5]]
        found, panel = [], incidence._panel

        def counting(block, p):
            pivots, k_inv = panel(block, p)
            found.append(len(pivots))
            return pivots, k_inv

        monkeypatch.setattr(incidence, "_panel", counting)
        monkeypatch.setattr(incidence, "_PANEL", 2)
        assert _pivot_columns(rows) == bareiss_pivot_columns(rows) == [2, 3, 6]
        assert found == [0, 2, 0, 1]

    @settings(max_examples=150, deadline=None)
    @given(TALL_BOOL)
    def test_tall_bool_through_gram(self, rows):
        with pytest.MonkeyPatch.context() as patch:
            shapes = _eliminated(patch)
            assert _pivot_columns(np.array(rows, dtype=bool)) == bareiss_pivot_columns(rows)
        width = len(rows[0])
        assert shapes and set(shapes) == {(width, width)}

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64),  # not bool
            np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8),  # not bool
            np.array([[1 << 70, 1], [1, 0], [0, 1]], dtype=object),  # big integers
            # A^T A would reach 2**80, past exact float64
            np.array([[1 << 40, 1], [1, 1 << 40], [3, 5]], dtype=np.int64),
        ],
        ids=["int64", "uint8", "object", "inexact-product"],
    )
    def test_tall_without_gram(self, monkeypatch, rows):
        shapes = _eliminated(monkeypatch)
        assert _pivot_columns(rows) == bareiss_pivot_columns(rows.tolist())
        assert shapes and set(shapes) == {rows.shape}

    def test_unlucky_gram_prime(self, monkeypatch):
        # mod 2 a column with an even number of ones is self-orthogonal, so
        # the Gram matrix loses rank: that prime's certificate fails, and
        # the next prime gives the pivots
        a = terminal_cuts(gen_grid(4).network).cut_matrix
        expected = bareiss_pivot_columns(a.tolist())
        assert len(incidence._rref_mod(incidence._gram(a), 2)[0]) < len(expected)
        primes, certify = incidence._primes, incidence._certify
        verdicts = []
        monkeypatch.setattr(incidence, "_primes", lambda: itertools.chain([2], primes()))
        monkeypatch.setattr(incidence, "_certify", lambda *args: verdicts.append(certify(*args)) or verdicts[-1])
        assert _pivot_columns(a) == expected
        assert verdicts == [False, True]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-(1 << 52), 1 << 52), min_size=1, max_size=40),
        st.sampled_from([2, 3, PRIME, (1 << 25) - 39]),
    )
    def test_balanced_residues(self, xs, p):
        got = incidence._balanced(np.array(xs, dtype=np.float64), p).tolist()
        assert all(r == int(r) and int(r) % p == x % p for r, x in zip(got, xs))
        assert max(map(abs, got)) <= p // 2 + 2

    def test_prime_too_large_rejected(self):
        with pytest.raises(InvalidParameterError):
            incidence._rref_mod(np.eye(2, dtype=np.int64), (1 << 31) - 1)


class TestPerturb:
    def test_zero_perturbation_grid(self):
        fam = gen_grid(3)
        base = terminal_cuts(fam.network)
        pert = perturb(fam.network, seed=1, resolution=1)
        assert all(w == 0 for w in pert.w)
        after = terminal_cuts(pert.network)
        assert np.array_equal(after.cut_matrix, base.cut_matrix) and after.values == base.values

    @pytest.mark.parametrize(
        "net",
        [gen_grid(3).network, Network(5, [(0, 4, 1), (1, 4, 2), (2, 4, 4), (3, 4, 8)], [0, 1, 2, 3])],
        ids=["grid3", "weighted-star"],
    )
    def test_one_shape_per_perturb(self, monkeypatch, net):
        # the gap (from the oracle on the grid, in closed form on the
        # star), the base table and each copy's table read one reduction
        # shape; the copy's table equals a fresh one
        built = []
        shape_of = mincut._shape_of
        monkeypatch.setattr(mincut, "_shape_of", lambda net: built.append(net) or shape_of(net))
        pert = perturb(net, seed=2)
        monkeypatch.undo()
        assert built == [net]
        fresh = terminal_cuts(pert.network)
        assert np.array_equal(pert.cuts.cut_matrix, fresh.cut_matrix) and pert.cuts.values == fresh.values
        assert pert.cuts == fresh

    def test_path_cut_row_stays(self):
        net = Network(3, [(0, 1, 3), (1, 2, 5)], [0, 2])
        for seed in range(5):
            pert = perturb(net, seed=seed)
            fresh = terminal_cuts(pert.network)
            assert fresh.cut_matrix.tolist() == [[1, 0]]
            assert np.array_equal(pert.cuts.cut_matrix, fresh.cut_matrix) and pert.cuts.values == fresh.values
            assert pert.cuts == fresh

    def test_deterministic_given_seed(self):
        net = Network(3, [(0, 1, 3), (1, 2, 5)], [0, 2])
        assert perturb(net, seed=9).w == perturb(net, seed=9).w

    def test_w_within_stated_range(self):
        # every w(e) lies inside the stated interval [0, 1/(gap * |E|)]
        fam = gen_grid(3)
        delta = global_gap(fam.network)
        pert = perturb(fam.network, seed=3, delta=delta)
        limit = Fraction(1, delta * fam.network.m)
        assert all(0 <= w <= limit for w in pert.w)

    def test_values_shift_up_but_bounded(self):
        fam = gen_grid(3)
        base = build_incidence(fam.network)
        delta = global_gap(fam.network)
        pert = perturb(fam.network, seed=4, delta=delta)
        after = build_incidence(pert.network)
        for before, now in zip(base.values, after.values):
            assert before <= now <= before + 1 / delta

    def test_nonunique_cuts_rejected(self):
        with pytest.raises(NonUniqueCutsError):
            perturb(gen_bipartite(6).network, seed=0)

    def test_tied_simple_cycle_rejected(self):
        net = Network(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], [0, 2])
        with pytest.raises(NonUniqueCutsError):
            perturb(net, seed=0)


class TestRankBoundExperiment:
    # the paper's rank bound: any network reproducing every terminal cut
    # value of the perturbed instance has at least rank(A) edges
    def test_single_edge(self):
        pert = perturb(Network(2, [(0, 1, 5)], [0, 1]), seed=2)
        assert integer_rank(pert.cuts.cut_matrix) == 1

    def test_grid3(self):
        assert integer_rank(perturb(gen_grid(3).network, seed=2).cuts.cut_matrix) >= 4

    def test_weighted_star(self):
        # costs 1,2,4,8: all cuts unique; the cost-8 edge never enters a
        # minimum cutset (the other three sum to 7), so the rank is 3
        net = Network(5, [(0, 4, 1), (1, 4, 2), (2, 4, 4), (3, 4, 8)], [0, 1, 2, 3])
        assert integer_rank(perturb(net, seed=6).cuts.cut_matrix) == 3

    def test_unit_star_refused_nonunique(self):
        net, _ = star_network(4)  # pair splits tie at 2 vs 2
        with pytest.raises(NonUniqueCutsError):
            perturb(net, seed=6)

    def test_one_flow_per_row_and_network(self, solved):
        # the base matrix and the validated perturbed matrix, nothing more;
        # the star's spokes are paths, so its walk runs flows (a plain
        # star reduces to a core with no arcs, where no flow runs)
        edges = [(i, 5 + i, 1) for i in range(5)] + [(5 + i, 10, 2) for i in range(5)]
        pert = perturb(Network(11, edges, range(5)), seed=0)
        assert integer_rank(pert.cuts.cut_matrix) == 5 and len(pert.cuts.values) == 15
        assert len(solved) == 30
        # one residual network per table
        assert len(set(map(id, solved))) == 2

    def test_bipartite_refused_nonunique(self):
        # the family's odd-size splits tie, so the uniqueness precondition fails
        with pytest.raises(NonUniqueCutsError):
            perturb(gen_bipartite(6).network, seed=0)
