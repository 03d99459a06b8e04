"""Fuzz targets for the two file parsers: on any input they either return
or raise a ``MimicknetError`` subclass, and serializing what they return
reproduces the input byte for byte."""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mimicknet.errors import MimicknetError
from mimicknet.fileio import parse_network, serialize_network
from mimicknet.generate import random_planar_network
from mimicknet.network import Network
from mimicknet.tcscheme import TCStore, deserialize, serialize

FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def networks(draw):
    """Small multigraphs with loops, bundles and rational costs."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, n))
    cost = st.builds(Fraction, st.integers(1, 10**20), st.integers(1, 12))
    end = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(end, end, cost), max_size=12))
    return Network(n, edges, draw(st.permutations(range(n)))[:k])


@st.composite
def net_texts(draw, comment=st.none()):
    """A ``.net`` file: a multigraph's, or a plane network's with rotation
    lines."""
    if draw(st.booleans()):
        return serialize_network(draw(networks()), comment=draw(comment))
    net, emb = random_planar_network(draw(st.integers(4, 12)), draw(st.integers(2, 4)), draw(st.integers(0, 99)))
    return serialize_network(net, emb)


@st.composite
def mutated(draw, inputs, alphabet):
    """An input with a few characters (or bytes) replaced, inserted or
    deleted, and perhaps truncated."""
    data = draw(inputs)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        piece = draw(alphabet)
        data = draw(st.sampled_from([data[:i] + piece + data[i + 1 :], data[:i] + piece + data[i:], data[:i] + data[i + 1 :]]))
    return data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


@st.composite
def stores(draw):
    k = draw(st.integers(2, 7))
    value = st.one_of(st.integers(0, 300), st.integers(0, 1 << 200))
    values = draw(st.lists(value, min_size=(1 << (k - 1)) - 1, max_size=(1 << (k - 1)) - 1))
    return TCStore(k, draw(st.one_of(st.integers(1, 300), st.integers(1, 1 << 200))), tuple(values))


NET_ALPHABET = st.text(alphabet="0123456789 -/:\npterc mimick", min_size=1, max_size=3)
TCS_ALPHABET = st.binary(min_size=1, max_size=3)


@FUZZ
@given(st.one_of(st.text(), mutated(net_texts(st.sampled_from([None, "x", "a\nb"])), NET_ALPHABET)))
def test_parse_network_raises_only_library_errors(text):
    try:
        parse_network(text)
    except MimicknetError:
        pass


@FUZZ
@given(st.one_of(st.binary(), mutated(stores().map(serialize), TCS_ALPHABET)))
def test_deserialize_raises_only_library_errors(data):
    try:
        deserialize(data)
    except MimicknetError:
        pass


@FUZZ
@given(net_texts())
def test_net_round_trip_is_byte_stable(text):
    assert serialize_network(*parse_network(text)) == text


@FUZZ
@given(stores())
def test_tcs_round_trip_is_byte_stable(store):
    data = serialize(store)
    assert deserialize(data) == store
    assert serialize(deserialize(data)) == data
