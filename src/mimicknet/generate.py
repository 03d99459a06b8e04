"""Instance generators: random connected plane multigraphs and stars.

The random generator grows a plane embedding directly: start from a random
spanning tree (any rotation system of a tree is genus zero), then
repeatedly pick a face and connect two of its corners, which splits that
face and keeps the embedding planar.  Self-loops and parallel edges arise
naturally and are kept.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InvalidParameterError
from .network import Network
from .planar import PlaneEmbedding


def _random_cost(rng: random.Random) -> Fraction:
    # small denominators keep oracle enumeration inside the int64 kernels
    return Fraction(rng.randint(1, 40), rng.randint(1, 12))


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

    rotations: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v, _) in enumerate(edges):
        rotations[u].append(2 * eid)
        rotations[v].append(2 * eid + 1)
    for rot in rotations:
        rng.shuffle(rot)

    if extra_edges is None:
        cap = max(0, (3 * n - 6) - (n - 1)) if n >= 3 else 0
        extra_edges = rng.randint(min(cap, n // 2), min(cap, n)) if cap else 0

    net = Network(n, edges, terminals=())
    emb = PlaneEmbedding(net, rotations)
    for _ in range(extra_edges):
        faces = emb.faces
        orbit = faces[rng.randrange(len(faces))]
        if rng.random() < loop_prob or len(orbit) == 1:
            a = b = rng.randrange(len(orbit))
        else:
            a, b = rng.sample(range(len(orbit)), 2)
        head = net.arcs()[0]
        u, w = head[orbit[a]], head[orbit[b]]
        eid = len(edges)
        edges.append((u, w, _random_cost(rng)))
        rotations = [list(rot) for rot in emb.rotations]
        # corner after dart d sits right after its reverse in the rotation
        if a == b:
            pos = rotations[u].index(orbit[a] ^ 1)
            rotations[u][pos + 1 : pos + 1] = [2 * eid, 2 * eid + 1]
        else:
            rotations[u].insert(rotations[u].index(orbit[a] ^ 1) + 1, 2 * eid)
            rotations[w].insert(rotations[w].index(orbit[b] ^ 1) + 1, 2 * eid + 1)
        net = Network(n, edges, terminals=())
        emb = PlaneEmbedding(net, rotations)

    terminals = sorted(rng.sample(range(n), k))
    net = Network(n, edges, terminals)
    return net, PlaneEmbedding(net, emb.rotations)


def star_network(k: int, cost: Fraction | int = 1) -> tuple[Network, PlaneEmbedding]:
    """Star with k terminal leaves around a non-terminal center."""
    if k < 2:
        raise InvalidParameterError(f"need k >= 2 leaves, got {k}")
    center = k
    edges = [(i, center, Fraction(cost)) for i in range(k)]
    net = Network(k + 1, edges, terminals=range(k))
    rotations = [[2 * i] for i in range(k)] + [[2 * i + 1 for i in range(k)]]
    return net, PlaneEmbedding(net, rotations)
