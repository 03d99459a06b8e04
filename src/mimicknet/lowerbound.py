"""Extremal families for mimicking-network size lower bounds.

* Complete bipartite family: one non-terminal per terminal subset of size
  2k/3, edges of cost 1 into the subset and 2 + 1/k outside it.  Each
  subset's minimum cut isolates its own non-terminal with the complement
  terminals, and the incidence matrix has rank >= C(k, 2k/3).

* Grid family: a k x k grid with 2k degree-one terminals on the first
  column and row, heavy (k^4) boundary and attachment edges, unit vertical
  interior edges, and horizontal interior edges of cost 1 - j/k^4.  The
  staircase cuts give an exactly lower-triangular submatrix of the
  incidence matrix, so its rank is at least (k-1)^2.

Experiment runners re-derive the claimed cut structure numerically and
flag any violation; the collision experiment demonstrates that distinct
small cost functions keep distinct cut-value vectors (the injectivity a
2^Omega(k)-word storage bound rests on).  Every non-terminal of the
bipartite family is a satellite, so the lemma and the collision
experiment read the rows they need, values, sides, cuts and gaps, in
closed form from the network's satellite core
(:meth:`mincut._Reduced.satellite_rows`, certified row by row), with no
terminal-cut table and no oracle: the lemma its subset rows alone, the
collision experiment every perturbed copy in one pass, each copy a row
of integer costs in one stack on that core, never a :class:`Network`.
They run past the exhaustive oracle's capacity, and the lemma runs at
k=15, where the full table's cut matrix alone would take 738 MB.  A
network that is not terminals and satellites alone is refused.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import mincut
from .errors import InvalidParameterError
from .incidence import _pivot_columns, integer_rank
from .mimick import terminal_cuts
from .mincut import min_cut_and_uniqueness, oracle_enumeration
from .network import Bipartition, Network, enumerate_bipartitions
from .planar import PlaneEmbedding


# --- bipartite family -------------------------------------------------------


@dataclass(frozen=True)
class BipartiteFamily:
    k: int
    l: int
    epsilon: Fraction
    subsets: tuple[tuple[int, ...], ...]
    network: Network

    def u_vertex(self, i: int) -> int:
        """Non-terminal for the i-th subset (0-based)."""
        return self.k + i

    def edge_id(self, i: int, q: int) -> int:
        return i * self.k + q


def gen_bipartite(k: int) -> BipartiteFamily:
    """Complete bipartite lower-bound family; k must be >= 6 and divisible
    by 3 (subset size 2k/3 is taken literally, never rounded)."""
    if k % 3 != 0:
        raise InvalidParameterError(f"k must be divisible by 3, got {k}")
    if k < 6:
        raise InvalidParameterError(f"k must be at least 6, got {k}")
    eps = Fraction(1, k)
    subsets = tuple(combinations(range(k), 2 * k // 3))
    edges = []
    for i, subset in enumerate(subsets):
        inside = set(subset)
        for q in range(k):
            cost = Fraction(1) if q in inside else 2 + eps
            edges.append((k + i, q, cost))
    net = Network(k + len(subsets), edges, terminals=range(k))
    return BipartiteFamily(k, len(subsets), eps, subsets, net)


@dataclass(frozen=True)
class BipartiteCutRecord:
    subset: tuple[int, ...]
    value: Fraction
    side_ok: bool
    unique: bool
    inequalities_ok: bool

    @property
    def ok(self) -> bool:
        return self.side_ok and self.unique and self.inequalities_ok


@dataclass(frozen=True)
class BipartiteLemmaReport:
    k: int
    checked: tuple[BipartiteCutRecord, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.checked)


def verify_bipartite_lemma(
    fam: BipartiteFamily, spot_check: int | None = None, seed: int = 0
) -> BipartiteLemmaReport:
    """Check, for every (or a sample of) size-2k/3 subset(s), that the
    minimum cut isolates exactly that subset's non-terminal with the
    complement terminals, uniquely, and that the proof's per-non-terminal
    cost comparisons hold exactly on the network's costs (edge
    ``edge_id(i, q)`` joins subset i's non-terminal to terminal q).  Every
    non-terminal is a satellite, so the sides, values and uniqueness of
    the subset rows alone are read in closed form from the network's
    satellite core, certified row by row
    (:meth:`mincut._Reduced.satellite_rows`); a network of another shape
    raises ``InvalidParameterError``."""
    if spot_check is not None and spot_check < 1:
        raise InvalidParameterError(f"spot-check size must be >= 1, got {spot_check}")
    net = fam.network
    core = mincut._satellite_core(net)
    indices = list(range(fam.l))
    if spot_check is not None and spot_check < fam.l:
        indices = sorted(random.Random(seed).sample(indices, spot_check))
    # the proof's comparisons for the checked subsets, one integer product:
    # d[j, c] is u_j's cost to subset i = indices[c]'s terminals less its
    # cost to the others (scaled), and subset i holds iff d[i, c] < 0 <
    # d[j, c] for every j != i
    sign = np.array([[1 if q in fam.subsets[i] else -1 for q in range(fam.k)] for i in indices])
    d = core.costs.reshape(fam.l, fam.k) @ sign.T
    ineq = (d[indices, range(len(indices))] < 0) & ((d > 0).sum(axis=0) == fam.l - 1)
    masks = [Bipartition.from_indices(fam.k, fam.subsets[i]).mask for i in indices]
    # the terminals' sides are the mask's, so the canonical side (terminal
    # 0's, complemented when 0 is in the subset) holds the complement
    # terminals by construction: it is the expected one iff u_i alone of
    # the satellites is on it.  A row is unique iff no satellite ties.
    sat_vertex = core.shape.sat_vertex
    records = []
    for part in core.satellite_rows(masks):
        for pos, (value, delta, on) in enumerate(zip(part.values, part.deltas, part.on), part.lo):
            i = indices[pos]
            subset = fam.subsets[i]
            side_ok = np.array_equal(on != (0 in subset), sat_vertex == fam.u_vertex(i))
            records.append(BipartiteCutRecord(subset, Fraction(value, core.den), side_ok, delta != 0, bool(ineq[pos])))
    return BipartiteLemmaReport(fam.k, tuple(records))


# --- grid family ------------------------------------------------------------


@dataclass(frozen=True)
class GridFamily:
    k: int
    heavy_cost: Fraction
    network: Network
    embedding: PlaneEmbedding

    # terminal indices: v_j -> j-1, h_i -> k + i - 1 (1-based i, j)
    def v_terminal_index(self, j: int) -> int:
        return j - 1

    def h_terminal_index(self, i: int) -> int:
        return self.k + i - 1

    def u_vertex(self, i: int, j: int) -> int:
        """Grid vertex at column i, row j (1-based)."""
        return 2 * self.k + (j - 1) * self.k + (i - 1)

    def horizontal_edge_id(self, i: int, j: int) -> int:
        """Interior edge of cost 1 - j/k^4 between rows j and j+1 in column i."""
        return (i - 1) * (self.k - 1) + (j - 1)

    def vertical_edge_id(self, i: int, j: int) -> int:
        """Interior unit edge between columns i and i+1 in row j."""
        return (self.k - 1) ** 2 + (i - 1) * (self.k - 1) + (j - 1)

    def subset_mask(self, i: int, j: int) -> int:
        mask = 0
        for jj in range(1, j + 1):
            mask |= 1 << self.v_terminal_index(jj)
        for ii in range(1, i + 1):
            mask |= 1 << self.h_terminal_index(ii)
        return mask

    def expected_cut_value(self, i: int, j: int) -> Fraction:
        return i + j - Fraction(i * j, self.k**4)

    def expected_side(self, i: int, j: int) -> frozenset[int]:
        side = {self.v_terminal_index(jj) for jj in range(1, j + 1)}
        side |= {self.h_terminal_index(ii) for ii in range(1, i + 1)}
        side |= {self.u_vertex(a, b) for a in range(1, i + 1) for b in range(1, j + 1)}
        return frozenset(side)

    def expected_cutset(self, i: int, j: int) -> frozenset[int]:
        horiz = {self.horizontal_edge_id(a, j) for a in range(1, i + 1)}
        vert = {self.vertical_edge_id(i, b) for b in range(1, j + 1)}
        return frozenset(horiz | vert)


def gen_grid(k: int) -> GridFamily:
    """Planar lower-bound grid with 2k terminals, including a rotation
    system for duality checks."""
    if k < 3:
        raise InvalidParameterError(f"k must be at least 3, got {k}")
    heavy = Fraction(k**4)
    n = 2 * k + k * k

    def u(i, j):
        return 2 * k + (j - 1) * k + (i - 1)

    edges: list[tuple[int, int, Fraction]] = []
    # horizontal interior first: their ids form the triangular submatrix columns
    for i in range(1, k):
        for j in range(1, k):
            edges.append((u(i, j), u(i, j + 1), 1 - Fraction(j, k**4)))
    for i in range(1, k):
        for j in range(1, k):
            edges.append((u(i, j), u(i + 1, j), Fraction(1)))
    for j in range(1, k):  # heavy last-column horizontal run
        edges.append((u(k, j), u(k, j + 1), heavy))
    for i in range(1, k):  # heavy last-row vertical run
        edges.append((u(i, k), u(i + 1, k), heavy))
    for j in range(1, k + 1):  # v_j hangs off column 1
        edges.append((j - 1, u(1, j), heavy))
    for i in range(1, k + 1):  # h_i hangs off row 1
        edges.append((k + i - 1, u(i, 1), heavy))

    net = Network(n, edges, terminals=range(2 * k))

    # rotation system from grid coordinates: u(i,j) at (i, j), v_j at (0, j),
    # h_i at (i, 0); at each vertex order darts east, north, west, south.
    pos: dict[int, tuple[int, int]] = {}
    for j in range(1, k + 1):
        pos[j - 1] = (0, j)
        pos[k + j - 1] = (j, 0)
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            pos[u(i, j)] = (i, j)
    slot_of = {(1, 0): 0, (0, -1): 1, (-1, 0): 2, (0, 1): 3}
    slots: list[list[int | None]] = [[None] * 4 for _ in range(n)]
    for eid, (a, b, _) in enumerate(edges):
        ax, ay = pos[a]
        bx, by = pos[b]
        d = (bx - ax, by - ay)
        slots[a][slot_of[d]] = 2 * eid
        slots[b][slot_of[(-d[0], -d[1])]] = 2 * eid + 1
    rotations = [tuple(d for d in sl if d is not None) for sl in slots]
    emb = PlaneEmbedding(net, rotations)
    return GridFamily(k, heavy, net, emb)


@dataclass(frozen=True)
class GridCutRecord:
    i: int
    j: int
    value: Fraction
    expected: Fraction
    value_ok: bool
    side_ok: bool
    cutset_ok: bool
    unique: bool
    oracle_ok: bool | None

    @property
    def ok(self) -> bool:
        return (
            self.value_ok
            and self.side_ok
            and self.cutset_ok
            and self.unique
            and self.oracle_ok is not False
        )


@dataclass(frozen=True)
class GridLemmaReport:
    k: int
    checked: tuple[GridCutRecord, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.checked)


def verify_grid_lemma(fam: GridFamily, oracle: bool = False) -> GridLemmaReport:
    """Check that every staircase bipartition cut has value
    i + j - i*j/k^4, the expected side and cutset (exactly i horizontal and
    j vertical interior edges), and is unique; optionally cross-check the
    whole thing against the exhaustive oracle."""
    net = fam.network
    records = []
    for i in range(1, fam.k):
        for j in range(1, fam.k):
            bp = Bipartition.from_mask(2 * fam.k, fam.subset_mask(i, j))
            cut, unique = min_cut_and_uniqueness(net, bp)
            expected = fam.expected_cut_value(i, j)
            side_ok = cut.side == fam.expected_side(i, j)
            cutset_ok = cut.cutset == fam.expected_cutset(i, j)
            oracle_ok = None
            if oracle:
                res = oracle_enumeration(net, bp)
                oracle_ok = (
                    res.value == expected
                    and len(res.min_cutsets) == 1
                    and next(iter(res.min_cutsets)) == cut.cutset
                )
            records.append(
                GridCutRecord(i, j, cut.value, expected, cut.value == expected, side_ok, cutset_ok, unique, oracle_ok)
            )
    return GridLemmaReport(fam.k, tuple(records))


# --- rank bounds ------------------------------------------------------------


@dataclass(frozen=True)
class RankReport:
    family: str
    k: int
    rank: int
    bound: int
    rank_ok: bool
    submatrix_ok: bool | None

    @property
    def ok(self) -> bool:
        return self.rank_ok and self.submatrix_ok is not False


def verify_rank_bounds(fam: BipartiteFamily | GridFamily) -> RankReport:
    """Exact incidence rank against the family's lower bound; for grids the
    (k-1)^2 staircase-rows x interior-horizontal-columns submatrix is also
    verified entrywise to be lower triangular with unit diagonal."""
    cut = terminal_cuts(fam.network).cut_matrix
    r = integer_rank(cut)
    if isinstance(fam, BipartiteFamily):
        return RankReport("bipartite", fam.k, r, fam.l, r >= fam.l, None)
    bound = (fam.k - 1) ** 2
    rows = [
        Bipartition.from_mask(2 * fam.k, fam.subset_mask(i, j)).row_index
        for i in range(1, fam.k)
        for j in range(1, fam.k)
    ]
    side = fam.k - 1
    # row (i, j) against column (ic, jc), both in row-major order, is 1
    # exactly when jc == j and ic <= i: blocks eye(side) on and below the
    # block diagonal, a lower triangle with a unit diagonal
    expected = np.kron(np.tril(np.ones((side, side))), np.eye(side))
    sub_ok = np.array_equal(cut[rows][:, : side * side], expected)
    return RankReport("grid", fam.k, r, bound, r >= bound, sub_ok)


# --- storage collision experiment -------------------------------------------


@dataclass(frozen=True)
class CollisionReport:
    k: int
    l: int
    gap: Fraction
    step: Fraction
    columns: tuple[int, ...]
    first_l_columns_independent: bool
    min_subset_row_gap: Fraction
    total_mass_below_gap: bool
    pairs_checked: int
    collisions: tuple[tuple[int, int], ...]
    subset_rows_stable: bool
    full_matrix_changes: int

    @property
    def ok(self) -> bool:
        return not self.collisions and self.subset_rows_stable and self.total_mass_below_gap


def tc_collision_family(fam: BipartiteFamily, sample_count: int, seed: int) -> CollisionReport:
    """Sample pairs of two-valued cost functions supported on independent
    incidence columns and check that every pair is distinguished by some
    terminal cut value.

    Also records that the subset rows (whose gaps exceed the total
    perturbation mass) keep their cutsets; the full matrix may legitimately
    change at rows with tied minimum cuts, which this family has.

    Every non-terminal is a satellite, so every row is read in closed form
    from the network's satellite core (:meth:`mincut._Reduced.satellite_rows`,
    certified row by row), with no table: the subset rows' cut, whose
    pivots are the columns, and the values and satellite sides of every
    copy, whose first copy, the base costs, also gives every row's gap
    (the closed form of :func:`mincut._closed_gaps`).  A copy is the core's
    costs over the family's one denominator with the step added at its
    columns, so two copies hold the same values iff their integer values
    are equal.  The base costs and each distinct sampled pattern's are one
    copy each, stacked and read in one pass, each (copy, row) certified
    once against that copy's own edge costs.  With the ends fixed, two
    copies cut a row alike iff they put every satellite on the same side
    of it, as each satellite has an edge.  A network of another shape
    raises ``InvalidParameterError``.
    """
    if sample_count < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {sample_count}")
    net = fam.network
    core = mincut._satellite_core(net)
    link_eid = core.shape.link_eid
    masks = [bp.mask for bp in enumerate_bipartitions(fam.k)]
    subset_rows = [Bipartition.from_indices(fam.k, s).row_index for s in fam.subsets]
    subset_cut = np.zeros((fam.l, net.m), dtype=bool)
    for part in core.satellite_rows([masks[row] for row in subset_rows]):
        subset_cut[part.lo : part.lo + len(part.values), link_eid] = part.cut
    columns = _pivot_columns(subset_cut)[: fam.l]
    if len(columns) < fam.l:
        raise InvalidParameterError("could not find enough independent columns")
    first_l = columns == list(range(fam.l))
    step = Fraction(1, 6 * fam.k * fam.k * fam.l)

    rng = random.Random(seed)
    space = 1 << fam.l
    pairs = []
    for _ in range(sample_count):
        a = rng.randrange(space)
        b = rng.randrange(space)
        while b == a:
            b = rng.randrange(space)
        pairs.append((a, b))

    # one copy per distinct pattern, the base costs (pattern 0) first, as
    # scaled costs over one denominator: the base costs and the step are
    # integers over it, and a copy's costs sum to the base's plus one step
    # per set bit.  Bit pos of a pattern adds the step at columns[pos].
    den = math.lcm(net.cost_denominator, step.denominator)
    base_costs = [c * (den // net.cost_denominator) for c in net.scaled_costs]
    step_scaled = step.numerator * (den // step.denominator)
    copy_of = {bits: i for i, bits in enumerate(dict.fromkeys([0, *(bits for pair in pairs for bits in pair)]))}
    dtype = mincut._cost_dtype(sum(base_costs) + step_scaled * max(bits.bit_count() for bits in copy_of))
    width = (fam.l + 7) // 8
    patterns = np.frombuffer(b"".join(bits.to_bytes(width, "little") for bits in copy_of), dtype=np.uint8)
    flags = np.unpackbits(patterns.reshape(len(copy_of), width), axis=1, count=fam.l, bitorder="little")
    stack = np.tile(np.array(base_costs, dtype=dtype), (len(copy_of), 1))
    stack[:, columns] += flags.astype(dtype) * step_scaled

    # every copy's rows in one certified read, copy by copy, so the base
    # copy's sides are known before any other copy's are compared to them
    rows = len(masks)
    in_subset = np.zeros(rows, dtype=bool)
    in_subset[subset_rows] = True
    base_on = np.zeros((rows, len(core.shape.satellites)), dtype=bool)
    changed = np.zeros(len(stack), dtype=bool)
    unstable = np.zeros(len(stack), dtype=bool)
    # each copy's values, a row of the stack's dtype, and the base copy's
    # gaps: its deltas, the cost of each row's cheapest satellite flip
    values = np.empty((len(stack), rows), dtype=stack.dtype)
    base_deltas: list[int | None] = []
    for part in core.satellite_rows(masks, stack):
        entries = np.arange(part.lo, part.lo + len(part.values))
        values.flat[entries] = part.values
        base_deltas += part.deltas[: max(0, rows - part.lo)]
        copy, row = np.divmod(entries, rows)
        base_on[row[copy == 0]] = part.on[copy == 0]
        differs = (part.on != base_on[row]).any(axis=1)
        changed[copy[differs]] = True
        unstable[copy[differs & in_subset[row]]] = True
        # the next block is built while this name still holds this one
        del part
    # one report per bipartition, shared by the global and row gaps
    reports = [mincut._gap_report(v, d, den) for v, d in zip(values[0].tolist(), base_deltas)]
    family_gap = mincut._min_gap(reports) or Fraction(0)
    min_row_gap = min(d for d in (reports[row].delta for row in subset_rows) if d is not None)
    first, second = np.array([[copy_of[a], copy_of[b]] for a, b in pairs]).T
    same = (values[first] == values[second]).all(axis=1)
    collisions = [pair for pair, equal in zip(pairs, same) if equal]
    return CollisionReport(
        k=fam.k,
        l=fam.l,
        gap=family_gap,
        step=step,
        columns=tuple(columns),
        first_l_columns_independent=first_l,
        min_subset_row_gap=min_row_gap,
        total_mass_below_gap=fam.l * step < min_row_gap,
        pairs_checked=sample_count,
        collisions=tuple(collisions),
        subset_rows_stable=not unstable.any(),
        full_matrix_changes=int(changed.sum()),
    )
