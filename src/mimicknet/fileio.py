"""Text format for networks and optional plane embeddings.

::

    c free-form comment
    p mimick <n> <m> <k>
    t <v1> ... <vk>
    e <u> <v> <num>/<den>
    r <v> <edgeId>:<end> ...

Edge ids are assigned in file order (0-based); dart end 0 is the first
endpoint of the ``e`` line.  Rotation lines, when present, must cover every
dart exactly once and describe a genus-zero embedding.  Serialization is
canonical, so ``parse(serialize(x)) == x`` byte for byte.

Parsing costs time and memory linear in the input: a header that declares
more vertices than the input has bytes (UTF-8) raises ``ParseError``
before anything is built for them.  A valid file names each vertex that
has an edge, so this refuses only files of mostly isolated vertices, such
as a 52-byte one whose header reads ``p mimick 200000 1 2``.  Costs whose
scaled form would outgrow the input by more than a fixed ratio (many
coprime denominators; see :func:`mimicknet.network._scaled`) raise
``ParseError`` too.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import CostSizeError, InvalidParameterError, ParseError
from .network import Network
from .planar import PlaneEmbedding


def _parse_cost(token: str, lineno: int) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"line {lineno}: bad cost {token!r}") from exc


def parse_network(text: str) -> tuple[Network, PlaneEmbedding | None]:
    header = None
    terminals: list[int] | None = None
    edges: list[tuple[int, int, Fraction]] = []
    rotations: dict[int, list[int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(fields) != 5 or fields[1] != "mimick":
                raise ParseError(f"line {lineno}: expected 'p mimick <n> <m> <k>'")
            try:
                header = tuple(int(x) for x in fields[2:5])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad header numbers") from exc
            if header[0] > len(text) and header[0] > len(text.encode("utf-8")):
                raise ParseError(f"line {lineno}: header declares n={header[0]}, more than the input's bytes")
        elif tag == "t":
            if header is None:
                raise ParseError(f"line {lineno}: 't' before header")
            if terminals is not None:
                raise ParseError(f"line {lineno}: duplicate terminal line")
            try:
                terminals = [int(x) for x in fields[1:]]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad terminal id") from exc
        elif tag == "e":
            if header is None:
                raise ParseError(f"line {lineno}: 'e' before header")
            if len(fields) != 4:
                raise ParseError(f"line {lineno}: expected 'e <u> <v> <cost>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad endpoint") from exc
            edges.append((u, v, _parse_cost(fields[3], lineno)))
        elif tag == "r":
            if header is None:
                raise ParseError(f"line {lineno}: 'r' before header")
            try:
                v = int(fields[1])
            except (IndexError, ValueError) as exc:
                raise ParseError(f"line {lineno}: bad rotation vertex") from exc
            if v in rotations:
                raise ParseError(f"line {lineno}: duplicate rotation for vertex {v}")
            darts = []
            for dart_spec in fields[2:]:
                try:
                    eid, end = dart_spec.split(":")
                    eid, end = int(eid), int(end)
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: bad dart {dart_spec!r}") from exc
                if end not in (0, 1):
                    raise ParseError(f"line {lineno}: dart end must be 0 or 1")
                darts.append(2 * eid + end)
            rotations[v] = darts
        else:
            raise ParseError(f"line {lineno}: unknown record {tag!r}")

    if header is None:
        raise ParseError("missing 'p mimick' header")
    n, m, k = header
    if terminals is None:
        raise ParseError("missing terminal line")
    if len(terminals) != k:
        raise ParseError(f"header declares k={k}, terminal line has {len(terminals)}")
    if len(edges) != m:
        raise ParseError(f"header declares m={m}, found {len(edges)} edges")
    try:
        net = Network(n, edges, terminals)
    except CostSizeError as exc:
        raise ParseError(str(exc)) from None

    if not rotations:
        return net, None
    rotation_lists = [rotations.pop(v, []) for v in range(n)]
    if rotations:
        raise ParseError(f"rotation lines for unknown vertices {sorted(rotations)}")
    return net, PlaneEmbedding(net, rotation_lists)


def format_value(value: Fraction) -> str:
    """``num/den``, or ``InvalidParameterError`` past the int-to-str digit
    limit (4300 by default), which stays: without it, printing a value
    from untrusted input takes time quadratic in its size."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        digits = sys.get_int_max_str_digits()
        raise InvalidParameterError(f"an exact value has more than {digits} digits, too many to print") from None


def serialize_network(net: Network, emb: PlaneEmbedding | None = None, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p mimick {net.n} {net.m} {net.k}")
    lines.append("t " + " ".join(str(t) for t in net.terminals))
    for e in net.edges:
        lines.append(f"e {e.u} {e.v} {format_value(e.cost)}")
    if emb is not None:
        for v, rot in enumerate(emb.rotations):
            if rot:
                lines.append(f"r {v} " + " ".join(f"{d >> 1}:{d & 1}" for d in rot))
    return "\n".join(lines) + "\n"


def load_network(path) -> tuple[Network, PlaneEmbedding | None]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_network(text)

