import pytest

from mimicknet import mincut
from mimicknet.mimick import TerminalCuts
from mimicknet.generate import random_planar_network

CAMPAIGN_SIZE = 200
CAMPAIGN_KS = (2, 3, 4, 5)
MAX_N = 30


def campaign_params(idx: int) -> tuple[int, int, int]:
    """Deterministic (n, k, seed) for campaign instance idx."""
    import random

    k = CAMPAIGN_KS[idx % len(CAMPAIGN_KS)]
    n = random.Random(9000 + idx).randint(k + 2, MAX_N)
    return n, k, 77_000 + idx


@pytest.fixture(scope="session")
def campaign():
    """200 random connected plane-embedded networks, k in {2,3,4,5}, n <= 30."""
    instances = []
    for idx in range(CAMPAIGN_SIZE):
        n, k, seed = campaign_params(idx)
        net, emb = random_planar_network(n, k, seed)
        instances.append((net, emb))
    return instances


@pytest.fixture()
def solved(monkeypatch):
    """The residual network of every maximum flow, one entry per flow: a
    table's walk solves all its flows on one ``mincut._Dinic``, and each
    single-bipartition flow builds its own."""
    residuals = []
    max_flow = mincut._Dinic.max_flow

    def counting(self, s, t):
        residuals.append(self)
        return max_flow(self, s, t)

    monkeypatch.setattr(mincut._Dinic, "max_flow", counting)
    return residuals


@pytest.fixture()
def certified(monkeypatch):
    """Every table whose certificate ran, one entry per
    ``TerminalCuts.certify`` call (the list keeps the tables alive, so
    distinct tables have distinct ids)."""
    tables = []
    certify = TerminalCuts.certify

    def counting(self, net):
        tables.append(self)
        return certify(self, net)

    monkeypatch.setattr(TerminalCuts, "certify", counting)
    return tables
