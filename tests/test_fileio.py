from fractions import Fraction

import pytest

from mimicknet.errors import InvalidEmbeddingError, ParseError
from mimicknet.fileio import load_network, parse_network, serialize_network
from mimicknet.generate import random_planar_network, star_network
from mimicknet.lowerbound import gen_bipartite, gen_grid


class TestRoundTrip:
    def test_plain_network(self):
        net = gen_bipartite(6).network
        text = serialize_network(net)
        back, emb = parse_network(text)
        assert back == net and emb is None
        assert serialize_network(back) == text

    def test_with_rotations(self):
        net, emb = random_planar_network(14, 4, seed=1600)
        text = serialize_network(net, emb)
        back, back_emb = parse_network(text)
        assert back == net
        assert back_emb is not None and back_emb.rotations == emb.rotations
        assert serialize_network(back, back_emb) == text

    def test_comments_ignored(self):
        text = "c header comment\nc\np mimick 2 1 2\nc middle\nt 0 1\ne 0 1 3/2\n"
        net, _ = parse_network(text)
        assert net.edges[0].cost == Fraction(3, 2)

    def test_integer_cost_accepted(self):
        net, _ = parse_network("p mimick 2 1 2\nt 0 1\ne 0 1 4\n")
        assert net.edges[0].cost == 4

    def test_grid_file_carries_rotations(self):
        fam = gen_grid(3)
        text = serialize_network(fam.network, fam.embedding)
        assert any(line.startswith("r ") for line in text.splitlines())
        _, emb = parse_network(text)
        assert emb is not None and emb.face_count == fam.embedding.face_count


class TestErrors:
    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_network("t 0 1\ne 0 1 1/1\n")

    def test_record_before_header(self):
        with pytest.raises(ParseError):
            parse_network("e 0 1 1/1\np mimick 2 1 2\nt 0 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_network("p mimick 2 2 2\nt 0 1\ne 0 1 1/1\n")

    def test_terminal_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_network("p mimick 2 1 1\nt 0 1\ne 0 1 1/1\n")

    def test_bad_cost(self):
        with pytest.raises(ParseError):
            parse_network("p mimick 2 1 2\nt 0 1\ne 0 1 1/0\n")

    def test_unknown_record(self):
        with pytest.raises(ParseError):
            parse_network("p mimick 2 1 2\nt 0 1\ne 0 1 1/1\nx what\n")

    def test_bad_dart_spec(self):
        with pytest.raises(ParseError):
            parse_network("p mimick 2 1 2\nt 0 1\ne 0 1 1/1\nr 0 0:2\n")

    def test_incomplete_rotation_system(self):
        with pytest.raises(InvalidEmbeddingError):
            parse_network("p mimick 2 1 2\nt 0 1\ne 0 1 1/1\nr 0 0:0\n")

    def test_duplicate_rotation_line(self):
        with pytest.raises(ParseError):
            parse_network(
                "p mimick 2 1 2\nt 0 1\ne 0 1 1/1\nr 0 0:0\nr 0 0:1\n"
            )

    def test_header_larger_than_input_raises(self, tmp_path):
        path = tmp_path / "hostile.net"
        path.write_bytes(b"p mimick 200000 1 2\nt 0 1\ne 0 1 1/1\nr 0 0:0\nr 1 0:1\n")
        assert path.stat().st_size == 52
        with pytest.raises(ParseError, match="n=200000"):
            load_network(path)

    def test_header_bound_is_the_input_length_in_bytes(self):
        text = "p mimick 32 1 2\nt 0 1\ne 0 1 1/1\n"
        assert len(text) == 32
        net, _ = parse_network(text)
        assert net.n == 32
        with pytest.raises(ParseError):
            parse_network(text.replace("32", "33"))
        # two characters, four bytes: n may reach the byte count
        net, _ = parse_network("c \u00e9\u00e9\n" + text.replace("32", "38"))
        assert net.n == 38


class TestDartConvention:
    def test_end_zero_is_first_endpoint(self):
        net, emb = star_network(3)
        text = serialize_network(net, emb)
        # leaf i carries dart i:0 since edges are written (leaf, center)
        lines = [l for l in text.splitlines() if l.startswith("r 0")]
        assert lines == ["r 0 0:0"]
