"""Random planar generator: its output pinned byte for byte, and built once.

The digests are SHA-256 of ``serialize_network(*random_planar_network(...))``.
The campaign and the perfbench inputs are derived from this output, so any
change to it (one more random draw, another face order) shows here first.
"""

import hashlib

import pytest

from mimicknet import generate
from mimicknet.errors import InternalError
from mimicknet.fileio import serialize_network
from mimicknet.generate import random_planar_network

from conftest import CAMPAIGN_SIZE, campaign_params

# all 200 campaign instances, serialized one after another
CAMPAIGN_DIGEST = "94c9259cd2baaae9e6d205530decbba32d3eb77111334846b313d339a4f332b3"

# (n, k, seed, extra_edges, loop_prob) -> digest
DIGESTS = {
    # the perfbench planar size, raw seeds 1-10
    (200, 8, 1, 180, 0.05): "0c0c25d73cfdbb8dc09fbbd9d28aeabf1cb7c284992a899756c0ebfe0cb18475",
    (200, 8, 2, 180, 0.05): "9fb9ada98dd61f6130329939c3d1f3d0137aa84faa91a7cbb47c1749f6e62d7f",
    (200, 8, 3, 180, 0.05): "e594f709aafbf7cd4af797008f4e7f6b45bd12940398ad2f5c74ea354f921f30",
    (200, 8, 4, 180, 0.05): "9af6104679a5e0444b0f0f32a3706c52e6e58c18df9d6afff99c4c153114a38f",
    (200, 8, 5, 180, 0.05): "2add0b01c3f2518d9f0389aebb740288d19b0d7cb0f8877158453f129e2106b5",
    (200, 8, 6, 180, 0.05): "45cef281c8bec6f76a28143ecd4166212502eb76b05b687ff6436cf1bb8db809",
    (200, 8, 7, 180, 0.05): "71b574291871f4f059f2393227ff81b9c7e485ad23a08816d9fc3838441c8ccd",
    (200, 8, 8, 180, 0.05): "97a119c5f1cee627a9913d82efab1cff9fbe15e3e53cce97682956461bdf7cbb",
    (200, 8, 9, 180, 0.05): "79feaf7aeb28c3b7d7e8a843183020f3260c4668e95d3573bd440ecc0bb18859",
    (200, 8, 10, 180, 0.05): "f0698be1e604714d2190b9fa7bf849b92ca370bf753b62bf108701720303cad3",
    # default extra_edges
    (30, 4, 1, None, 0.05): "e1bf20eb18f5fcf8c1db9b85a773778a81f0fad73b45ec0ea78df4a1ce6983f2",
    (60, 5, 11, None, 0.05): "eb0061200d057fc872f815ce062bdcde27d3edf825f32ea6e12ce8dbe9d9640e",
    (120, 8, 3, None, 0.05): "b5cb7c1f212dd1a2d1700ea5b9c29593a69ebbd102c5168752953c492e6e30c5",
    # the loop-heavy networks of test_kernels.py
    (9, 2, 320, None, 0.3): "ca6efdc5fd8b177f1cac9a3bf33bb1767a02e06ce57218f3dfc61673963bcc1b",
    (9, 2, 321, None, 0.3): "66cb23fa23a91c6adf2bdb332068bdc651eb956fb5dc6dab4f8587375748ce4d",
    (9, 2, 322, None, 0.3): "bc40c64e57d164b8e814513adbad912279f05b60a416d61ab33bcddff39caf46",
    (9, 2, 323, None, 0.3): "ca1a1c0d9ea814da3f8deae9dbb4895a058472a7ddf3ee321c7ab130fd5bc33f",
    (10, 3, 330, None, 0.3): "beb887a67b2645d0ff7c3539fafd9f3db86a8c9ee2cc6e2c9cd7967a21ddfd40",
    (10, 3, 331, None, 0.3): "21ae1be5392f3a5c7650adaf1b19e96228264788f5dd5c9b01eb5b7ede42b1d3",
    (10, 3, 332, None, 0.3): "93719d3b6d6c85baa005db148aa09d68b2a7f5b22bc7e4bdb68888866e47336a",
    (10, 3, 333, None, 0.3): "2075172d06b78ff141b32bc2e142db31619fba23970a0f4c9a74d6af9fccf2ab",
    (11, 4, 340, None, 0.3): "1b0e03f1aafb7b99e70177d4eeecd06af50d4e2dbf6bfb0dcaf3908cd74cd94e",
    (11, 4, 341, None, 0.3): "5d36e63f00818f3dce6b1d11fd38fce08025b7491deaf6dd10cf0b707a473256",
    (11, 4, 342, None, 0.3): "c5d10601c31b7c531093b7d30e603f9c824be36a7d53a5231a229e350f1a1a2b",
    (11, 4, 343, None, 0.3): "1f6d69ffb9e0a3d47af6dd6bb620d3583ecbfd270633e67869bf3dcbbe824d09",
    # the smallest networks: no extra edge by default, then loops and parallels only
    (2, 2, 1, None, 0.05): "c6c65a9f7dd607421aac0a2301353f34a43f0fe4b6aa21a92e249898630efca6",
    (2, 2, 5, 6, 0.05): "4ea54e5ce4de4bd2ee6a4616c78d562ab734177078e1d86bd05f45504f843654",
    (3, 2, 2, None, 0.05): "d1648a645a0398747db93bd2e3bae82269e6503728356843ee4e6b88ff2067b3",
    (3, 3, 9, 5, 0.05): "2b6df8d95ca840933c6908e6e351a076733ab59cba5100cb917679fbde92e804",
    (3, 2, 4, 8, 0.5): "bbc398a9cd4cd2dd756569d622ac636cc62e4444c1f5a731f47f1b4f4243fa6c",
}


def _text(n, k, seed, extra_edges=None, loop_prob=0.05) -> bytes:
    return serialize_network(*random_planar_network(n, k, seed, extra_edges, loop_prob)).encode()


@pytest.mark.parametrize("params", sorted(DIGESTS, key=str), ids=str)
def test_output_digest(params):
    assert hashlib.sha256(_text(*params)).hexdigest() == DIGESTS[params]


def test_campaign_digest():
    h = hashlib.sha256()
    for idx in range(CAMPAIGN_SIZE):
        h.update(_text(*campaign_params(idx)))
    assert h.hexdigest() == CAMPAIGN_DIGEST


def test_network_and_embedding_built_once(monkeypatch):
    built = {"Network": 0, "PlaneEmbedding": 0}

    def counting(name):
        cls = getattr(generate, name)

        def build(*args, **kwargs):
            built[name] += 1
            return cls(*args, **kwargs)

        monkeypatch.setattr(generate, name, build)

    counting("Network")
    counting("PlaneEmbedding")
    random_planar_network(200, 8, 1, 180)
    assert built == {"Network": 1, "PlaneEmbedding": 1}


def test_face_list_mismatch_raises(monkeypatch):
    split = generate._split_face
    calls = []

    def dropping(orbit, a, b, eid):
        first, second = split(orbit, a, b, eid)
        calls.append(eid)
        # lose the last dart of one face once: the traced faces must disagree
        return (first[:-1] if len(calls) == 1 else first), second

    monkeypatch.setattr(generate, "_split_face", dropping)
    with pytest.raises(InternalError):
        random_planar_network(30, 4, 1, 20)
    assert calls
