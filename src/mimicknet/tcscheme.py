"""Terminal-cuts store: preprocess once, answer any bipartition without
the network.

Values are kept exact as integers over one shared denominator.  The
explicit table of all 2**(k-1) - 1 values is order-optimal (no scheme can
beat 2**Omega(k) words), so no compression is attempted.  Storage is
accounted in raw value bits and in 64-bit machine words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InvalidQueryError, ParseError
from .mimick import terminal_cuts
from .network import Bipartition, Network

MAGIC = b"TCS1"
WORD_BITS = 64


@dataclass(frozen=True)
class TCStore:
    k: int
    denominator: int
    scaled_values: tuple[int, ...]

    @property
    def entries(self) -> int:
        return len(self.scaled_values)

    @property
    def value_bits(self) -> int:
        return max(1, max(self.scaled_values, default=0).bit_length())

    def value(self, row: int) -> Fraction:
        return Fraction(self.scaled_values[row], self.denominator)


def preprocess(net: Network) -> TCStore:
    """Build the full cut-value table in canonical bipartition order,
    over the values' least common denominator."""
    den, scaled = terminal_cuts(net).lowest_terms
    return TCStore(net.k, den, scaled)


def query(store: TCStore, subset: Iterable[int]) -> Fraction:
    """Exact minimum cut value separating the given terminal indices from
    the rest.  Either side of a split may be passed; trivial subsets are
    rejected."""
    mask = 0
    for i in subset:
        if not (0 <= i < store.k):
            raise InvalidQueryError(f"terminal index {i} out of range for k={store.k}")
        mask |= 1 << i
    full = (1 << store.k) - 1
    if mask == 0 or mask == full:
        raise InvalidQueryError("subset must be nonempty and proper")
    return store.value(Bipartition.from_mask(store.k, mask).row_index)


@dataclass(frozen=True)
class StorageReport:
    entries: int
    value_bits: int
    words: int
    bound_words: int
    within_bound: bool


def storage_report(store: TCStore) -> StorageReport:
    """Value words used versus the trivial 2**k-word bound."""
    words_per_value = max(1, -(-store.value_bits // WORD_BITS))
    words = store.entries * words_per_value
    bound = 1 << store.k
    return StorageReport(store.entries, store.value_bits, words, bound, words <= bound)


# --- serialization ----------------------------------------------------------


def _write_varint(out: bytearray, value: int) -> None:
    """Appends ``value`` as 7-bit groups, least significant first, each
    but the last with its high bit set.  Past 64 groups the value is split
    by halving, mirroring :func:`_read_varint`, so n bytes encode in
    O(n log n) time rather than the O(n^2) of shifting the whole value
    once per group."""
    if value < 0:
        raise ValueError("varints are unsigned")
    if value >> 64 * 7:
        groups = _split_groups(value)
        out += bytes(g | 0x80 for g in groups[:-1])
        out.append(groups[-1])
        return
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _split_groups(value: int) -> list[int]:
    """The 7-bit groups of a ``value`` of two groups or more, least
    significant first, up to its highest nonzero group: each round splits
    every piece in two halves of ``step`` bits, halving the step down to 7."""
    count = -(-value.bit_length() // 7)
    step = 7 << ((count - 1).bit_length() - 1)
    pieces = [value]
    while step >= 7:
        mask = (1 << step) - 1
        pieces = [half for piece in pieces for half in (piece & mask, piece >> step)]
        step >>= 1
    return pieces[:count]


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """The varint at ``pos`` and the position after it.  Past its first 64
    groups, the 7-bit groups are combined in pairs, doubling the shift
    each round, so n bytes decode in O(n log n) time rather than the
    O(n^2) of ORing each group into one growing integer."""
    result = shift = 0
    while shift < 64 * 7:
        if pos >= len(data):
            raise ParseError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
    end = pos
    while end < len(data) and data[end] & 0x80:
        end += 1
    if end >= len(data):
        raise ParseError("truncated varint")
    groups = [byte & 0x7F for byte in data[pos : end + 1]]
    step = 7
    while len(groups) > 1:
        if len(groups) & 1:
            groups.append(0)
        groups = [lo | hi << step for lo, hi in zip(groups[0::2], groups[1::2])]
        step <<= 1
    return result | groups[0] << shift, end + 1


def serialize(store: TCStore) -> bytes:
    """Binary form: magic ``TCS1``, k (u32 LE), value bits (u32 LE), shared
    denominator (varint), then the scaled values as varints."""
    out = bytearray(MAGIC)
    out += store.k.to_bytes(4, "little")
    out += store.value_bits.to_bytes(4, "little")
    _write_varint(out, store.denominator)
    for v in store.scaled_values:
        _write_varint(out, v)
    return bytes(out)


def deserialize(data: bytes) -> TCStore:
    if data[:4] != MAGIC:
        raise ParseError(f"bad magic {data[:4]!r}")
    if len(data) < 12:
        raise ParseError("truncated header")
    k = int.from_bytes(data[4:8], "little")
    if k < 2:
        raise ParseError(f"bad terminal count {k}")
    value_bits = int.from_bytes(data[8:12], "little")
    pos = 12
    den, pos = _read_varint(data, pos)
    if den <= 0:
        raise ParseError("denominator must be positive")
    # every value takes at least one byte: bound k by the payload before
    # building the 2**(k-1) entry count
    if k - 1 >= (len(data) - pos + 1).bit_length():
        raise ParseError(f"terminal count {k} needs more values than {len(data) - pos} payload bytes hold")
    values = []
    for _ in range((1 << (k - 1)) - 1):
        v, pos = _read_varint(data, pos)
        values.append(v)
    if pos != len(data):
        raise ParseError(f"{len(data) - pos} trailing bytes")
    store = TCStore(k, den, tuple(values))
    if store.value_bits != value_bits:
        raise ParseError(f"header value bits {value_bits} differ from the stored values' {store.value_bits}")
    return store
