"""Instance generators: random connected plane multigraphs and stars.

The random generator grows a plane embedding directly: start from a random
spanning tree (any rotation system of a tree is genus zero, and it has one
face), then repeatedly pick a face and connect two of its corners, which
splits that face and keeps the embedding planar.  Self-loops and parallel
edges arise naturally and are kept.

Each split is done in place, in time linear in the chosen face: the new
edge's two darts go into a rotation successor map, and the face orbit is
cut into the two new orbits.  The face list keeps the order that
``PlaneEmbedding`` traces (faces sorted by their smallest dart, each orbit
starting at that dart), so every random choice picks what a re-traced
embedding would give.  The network and its embedding are built, and fully
validated, once at the end, and their traced faces must equal the list.
"""

from __future__ import annotations

import random
from bisect import insort
from fractions import Fraction

from .errors import InternalError, InvalidParameterError
from .network import Network
from .planar import PlaneEmbedding


def _random_cost(rng: random.Random) -> Fraction:
    # small denominators keep oracle enumeration inside the int64 kernels
    return Fraction(rng.randint(1, 40), rng.randint(1, 12))


def _from_smallest(orbit: tuple[int, ...]) -> tuple[int, ...]:
    i = orbit.index(min(orbit))
    return orbit[i:] + orbit[:i]


def _split_face(orbit: tuple[int, ...], a: int, b: int, eid: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two faces left when edge ``eid`` joins the corners after darts
    ``orbit[a]`` and ``orbit[b]`` (a loop when ``a == b``), each starting at
    its smallest dart.  Dart ``2*eid`` follows ``orbit[a]`` and dart
    ``2*eid + 1`` follows ``orbit[b]``."""
    if a == b:
        return _from_smallest((2 * eid,) + orbit[a + 1 :] + orbit[: a + 1]), (2 * eid + 1,)
    # the corners cut the orbit into the darts after b up to a, and after a up to b
    if a < b:
        to_a, to_b = orbit[b + 1 :] + orbit[: a + 1], orbit[a + 1 : b + 1]
    else:
        to_a, to_b = orbit[b + 1 : a + 1], orbit[a + 1 :] + orbit[: b + 1]
    return _from_smallest((2 * eid,) + to_a), _from_smallest((2 * eid + 1,) + to_b)


def random_planar_network(
    n: int,
    k: int,
    seed: int,
    extra_edges: int | None = None,
    loop_prob: float = 0.05,
) -> tuple[Network, PlaneEmbedding]:
    """Random connected plane-embedded network with ``k`` terminals.

    Deterministic given the parameters and seed.  ``extra_edges`` counts
    edges beyond the spanning tree; the default picks a moderate density.
    Each added edge costs time linear in the length of the face it
    splits, and validation is linear in the size of the result.
    """
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    if not (2 <= k <= n):
        raise InvalidParameterError(f"need 2 <= k <= n, got k={k}, n={n}")
    if extra_edges is not None and extra_edges < 0:
        raise InvalidParameterError(f"need extra_edges >= 0, got {extra_edges}")
    rng = random.Random(seed)

    edges: list[tuple[int, int, Fraction]] = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v, _random_cost(rng)))
    # dart 2e runs from edges[e][0] to edges[e][1], dart 2e + 1 back
    head = [end for u, v, _ in edges for end in (v, u)]

    rotations: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v, _) in enumerate(edges):
        rotations[u].append(2 * eid)
        rotations[v].append(2 * eid + 1)
    for rot in rotations:
        rng.shuffle(rot)
    # rotation successor of every dart; a new dart never goes first in its
    # vertex's list, so each list is read back from its first dart
    nxt = [0] * len(head)
    for rot in rotations:
        for i, d in enumerate(rot):
            nxt[d] = rot[(i + 1) % len(rot)]
    firsts = [rot[0] for rot in rotations]

    if extra_edges is None:
        cap = max(0, (3 * n - 6) - (n - 1)) if n >= 3 else 0
        extra_edges = rng.randint(min(cap, n // 2), min(cap, n)) if cap else 0

    # faces follow dart d to the successor of its reverse
    orbit, d = [0], nxt[1]
    while d != 0:
        orbit.append(d)
        d = nxt[d ^ 1]
    faces = [tuple(orbit)]
    for _ in range(extra_edges):
        f = rng.randrange(len(faces))
        orbit = faces[f]
        if rng.random() < loop_prob or len(orbit) == 1:
            a = b = rng.randrange(len(orbit))
        else:
            a, b = rng.sample(range(len(orbit)), 2)
        u, w = head[orbit[a]], head[orbit[b]]
        eid = len(edges)
        edges.append((u, w, _random_cost(rng)))
        head += (w, u)
        # the corner after dart d sits right after its reverse in the rotation
        x, y = orbit[a] ^ 1, orbit[b] ^ 1
        if a == b:
            nxt += (2 * eid + 1, nxt[x])
        else:
            nxt += (nxt[x], nxt[y])
            nxt[y] = 2 * eid + 1
        nxt[x] = 2 * eid
        kept, new = _split_face(orbit, a, b, eid)
        if kept[0] != orbit[0]:
            kept, new = new, kept
        # orbits start at distinct darts, so tuples sort by their first dart
        faces[f] = kept
        insort(faces, new)

    for v, first in enumerate(firsts):
        rot, d = [first], nxt[first]
        while d != first:
            rot.append(d)
            d = nxt[d]
        rotations[v] = rot
    terminals = sorted(rng.sample(range(n), k))
    net = Network(n, edges, terminals)
    emb = PlaneEmbedding(net, rotations)
    if list(emb.faces) != faces:
        raise InternalError("faces split in place differ from the traced faces")
    return net, emb


def star_network(k: int, cost: Fraction | int = 1) -> tuple[Network, PlaneEmbedding]:
    """Star with k terminal leaves around a non-terminal center."""
    if k < 2:
        raise InvalidParameterError(f"need k >= 2 leaves, got {k}")
    center = k
    edges = [(i, center, Fraction(cost)) for i in range(k)]
    net = Network(k + 1, edges, terminals=range(k))
    rotations = [[2 * i] for i in range(k)] + [[2 * i + 1 for i in range(k)]]
    return net, PlaneEmbedding(net, rotations)
