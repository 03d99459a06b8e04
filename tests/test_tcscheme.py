import time
from fractions import Fraction

import pytest

from mimicknet.errors import InvalidQueryError, ParseError
from mimicknet.generate import random_planar_network
from mimicknet.mincut import min_separating_cut
from mimicknet.network import Network, enumerate_bipartitions
from mimicknet.tcscheme import (
    MAGIC,
    TCStore,
    deserialize,
    preprocess,
    query,
    serialize,
    storage_report,
)


class TestPreprocessAndQuery:
    def test_single_edge(self):
        store = preprocess(Network(2, [(0, 1, 7)], [0, 1]))
        assert store.scaled_values == (7,) and store.denominator == 1
        assert query(store, [1]) == 7

    def test_star3_values(self):
        # all three canonical cuts cost 1 (the pair split is answered by the
        # complement singleton side)
        store = preprocess(Network(4, [(0, 3, 1), (1, 3, 1), (2, 3, 1)], [0, 1, 2]))
        assert [str(store.value(i)) for i in range(3)] == ["1", "1", "1"]

    def test_complement_symmetry(self):
        net, _ = random_planar_network(12, 4, seed=1300)
        store = preprocess(net)
        for bp in enumerate_bipartitions(4):
            s = bp.side_indices()
            sbar = bp.coside_indices()
            assert query(store, s) == query(store, sbar)

    def test_rational_costs_shared_denominator(self):
        net = Network(3, [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 5))], [0, 2])
        store = preprocess(net)
        assert query(store, [1]) == Fraction(1, 5)

    def test_trivial_queries_rejected(self):
        store = preprocess(Network(2, [(0, 1, 7)], [0, 1]))
        with pytest.raises(InvalidQueryError):
            query(store, [])
        with pytest.raises(InvalidQueryError):
            query(store, [0, 1])
        with pytest.raises(InvalidQueryError):
            query(store, [5])

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_against_flow(self, seed):
        net, _ = random_planar_network(13, 4, seed=1400 + seed)
        store = preprocess(net)
        for bp in enumerate_bipartitions(4):
            assert query(store, bp.side_indices()) == min_separating_cut(net, bp).value


class TestSerialization:
    def test_byte_stable_round_trip(self):
        net, _ = random_planar_network(11, 3, seed=1500)
        store = preprocess(net)
        blob = serialize(store)
        assert blob[:4] == b"TCS1"
        again = deserialize(blob)
        assert serialize(again) == blob
        for bp in enumerate_bipartitions(3):
            assert query(again, bp.side_indices()) == query(store, bp.side_indices())

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            deserialize(b"NOPE" + bytes(16))

    def test_truncated(self):
        net = Network(2, [(0, 1, 7)], [0, 1])
        blob = serialize(preprocess(net))
        with pytest.raises(ParseError):
            deserialize(blob[:-1])

    def test_trailing_garbage(self):
        net = Network(2, [(0, 1, 7)], [0, 1])
        blob = serialize(preprocess(net))
        with pytest.raises(ParseError):
            deserialize(blob + b"\x00")

    def test_terminal_count_bounded_by_payload(self):
        blob = MAGIC + (1 << 31).to_bytes(4, "little") + (1).to_bytes(4, "little") + b"\x01\x00"
        assert len(blob) == 14
        with pytest.raises(ParseError, match="payload"):
            deserialize(blob)

    def test_header_value_bits_checked(self):
        blob = bytearray(serialize(TCStore(3, 1, (5, 6, 7))))
        blob[8:12] = (999).to_bytes(4, "little")
        with pytest.raises(ParseError, match="value bits"):
            deserialize(bytes(blob))

    def test_large_values_varint(self):
        store = TCStore(2, 1, (10**30,))
        assert deserialize(serialize(store)).scaled_values == (10**30,)

    @pytest.mark.parametrize("groups", [64, 65, 200])
    def test_varint_past_the_short_loop(self, groups):
        # values whose varints end just inside, just past and well past the
        # 64 groups read and written one at a time; the bytes are those of
        # one group at a time, least significant first
        for value in ((1 << 7 * groups) - 1, 3 ** (4 * groups) % (1 << 7 * groups), 1 << 7 * (groups - 1)):
            store = TCStore(2, value, (value,))
            blob = serialize(store)
            assert deserialize(blob) == store
            assert blob.endswith(_varint_one_group_at_a_time(value) * 2)

    @pytest.mark.parametrize("groups", [32768, 1 << 17])
    def test_long_varint_encodes_in_near_linear_time(self, groups):
        # shifting the whole value once per group took 0.17-0.24 s for
        # 32768 groups and 3.0-3.4 s for 2**17 on a 2-core Xeon, halving
        # 0.01 and 0.05 s
        value = (1 << 7 * groups) - 1
        started = time.perf_counter()
        blob = serialize(TCStore(2, value, (1,)))
        assert time.perf_counter() - started < 1
        assert deserialize(blob).denominator == value

    def test_long_varint_decodes_in_near_linear_time(self):
        # a 2**20-byte denominator: ORing each group into one growing
        # integer takes about a minute on a 2-core Xeon, pairwise combining
        # under a second
        size = 1 << 20
        blob = MAGIC + (2).to_bytes(4, "little") + (3).to_bytes(4, "little") + b"\xff" * (size - 1) + b"\x01\x05"
        started = time.perf_counter()
        store = deserialize(blob)
        assert time.perf_counter() - started < 20
        assert store.denominator == (1 << 7 * (size - 1) + 1) - 1 and store.scaled_values == (5,)
        with pytest.raises(ParseError, match="truncated varint"):
            deserialize(blob[:-2])


def _varint_one_group_at_a_time(value: int) -> bytes:
    out = bytearray()
    while True:
        out.append(value & 0x7F | (0x80 if value >> 7 else 0))
        value >>= 7
        if not value:
            return bytes(out)


class TestStorage:
    def test_k2_single_word(self):
        rep = storage_report(preprocess(Network(2, [(0, 1, 7)], [0, 1])))
        assert rep.entries == 1 and rep.words == 1 and rep.within_bound

    def test_k6_entry_count(self):
        store = TCStore(6, 1, tuple(range(1, 32)))
        rep = storage_report(store)
        assert rep.entries == 31 and rep.words == 31 and rep.bound_words == 64

    def test_k10_entry_count(self):
        store = TCStore(10, 1, tuple(range(1, 512)))
        rep = storage_report(store)
        assert rep.entries == 511 and rep.words == 511
        assert rep.within_bound  # 511 <= 1024

    def test_wide_values_word_accounting(self):
        store = TCStore(2, 1, (1 << 100,))
        rep = storage_report(store)
        assert rep.value_bits == 101 and rep.words == 2
