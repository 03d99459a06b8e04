import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import mimicknet
from mimicknet import mimick, network, planar
from mimicknet.cli import main
from mimicknet.errors import ParseError
from mimicknet.fileio import load_network, parse_network
from mimicknet.mimick import terminal_cuts
from mimicknet.mincut import min_separating_cut
from mimicknet.network import enumerate_bipartitions
from mimicknet.planar import build_dual, check_component_bounds
from mimicknet.tcscheme import TCStore, serialize


def run(*argv) -> int:
    return main([str(a) for a in argv])


def python(code: str, **env) -> list[str]:
    """The stdout lines of ``code`` in a fresh interpreter that imports
    this package, with OPENBLAS_NUM_THREADS unset unless given."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.path.dirname(os.path.dirname(mimicknet.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True, check=True)
    return proc.stdout.split()


# the console script's entry: run with --version, then report the variable
ENTRY = """
import os, sys
from mimicknet.__main__ import main
print("numpy" in sys.modules)
sys.argv = ["mimicknet", "--version"]
try:
    main()
except SystemExit:
    pass
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


class TestConsoleEntry:
    def test_import_loads_no_numpy(self):
        code = (
            "import sys, mimicknet; print('numpy' in sys.modules); "
            "from mimicknet import Network; print('numpy' in sys.modules); "
            "print(all(hasattr(mimicknet, name) for name in mimicknet.__all__))"
        )
        assert python(code) == ["False", "True", "True"]

    def test_library_leaves_threads_alone(self):
        assert python("import os, mimicknet.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))") == ["None"]

    @pytest.mark.parametrize("preset, pinned", [(None, "1"), ("3", "3")])
    def test_entry_pins_blas_threads(self, preset, pinned):
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        assert python(ENTRY, **env) == ["False", "mimicknet", mimicknet.__version__, pinned]

    def test_lazy_exports(self):
        assert mimicknet.Network is network.Network
        with pytest.raises(AttributeError):
            mimicknet.gap


class TestGen:
    def test_bipartite_k6_file(self, tmp_path, capsys):
        out = tmp_path / "b6.net"
        assert run("gen", "bipartite", "--k", 6, "-o", out) == 0
        net, emb = load_network(out)
        assert net.n == 21 and emb is None

    def test_grid_k4_file_with_rotations(self, tmp_path):
        out = tmp_path / "g4.net"
        assert run("gen", "grid", "--k", 4, "-o", out) == 0
        net, emb = load_network(out)
        assert net.n == 24 and emb is not None

    def test_random_planar_valid_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.net", tmp_path / "b.net"
        assert run("gen", "random-planar", "--n", 20, "--k", 4, "--seed", 1, "-o", a) == 0
        assert run("gen", "random-planar", "--n", 20, "--k", 4, "--seed", 1, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()
        net, emb = load_network(a)
        assert net.n == 20 and net.k == 4 and emb is not None

    def test_random_planar_needs_seed(self):
        assert run("gen", "random-planar", "--n", 10, "--k", 3) == 2

    def test_star(self, capsys):
        assert run("gen", "star", "--k", 4) == 0
        net, emb = parse_network(capsys.readouterr().out)
        assert net.n == 5 and emb is not None

    def test_bad_params_exit_2(self):
        assert run("gen", "bipartite", "--k", 5) == 2

    def test_negative_extra_edges_exit_2(self):
        assert run("gen", "random-planar", "--n", 10, "--k", 3, "--seed", 1, "--extra-edges", -4) == 2

    @pytest.mark.parametrize(
        "family, k, flag",
        [("bipartite", 6, "--extra-edges"), ("grid", 3, "--n"), ("star", 4, "--seed")],
    )
    def test_random_planar_flags_rejected_for_fixed_families(self, capsys, family, k, flag):
        assert run("gen", family, "--k", k, flag, 4) == 2
        assert flag in capsys.readouterr().err


class TestCompressVerify:
    @pytest.fixture()
    def path_file(self, tmp_path):
        p = tmp_path / "p.net"
        p.write_text("p mimick 3 2 2\nt 0 2\ne 0 1 3/1\ne 1 2 5/1\n")
        return p

    def test_compress_path(self, tmp_path, path_file):
        out = tmp_path / "p.mim"
        sidecar = tmp_path / "p.map"
        assert run("compress", path_file, "-o", out, "--map-out", sidecar) == 0
        net, _ = load_network(out)
        assert net.n == 2 and net.edges[0].cost == 3
        assert sidecar.read_text().splitlines() == ["class 0 0", "class 1 1 2"]

    @pytest.mark.parametrize(
        "flag, target",
        [("--map-out", "adir"), ("-o", "adir"), ("-o", "none/p.mim")],
        ids=["map-out-directory", "out-directory", "out-missing-directory"],
    )
    def test_no_partial_output(self, tmp_path, path_file, capsys, flag, target):
        # one target cannot be written: exit 2 with one error line naming
        # it, and neither file lands, nor any temporary file
        (tmp_path / "adir").mkdir()
        paths = {"-o": tmp_path / "p.mim", "--map-out": tmp_path / "p.map", flag: tmp_path / target}
        assert run("compress", path_file, *[x for pair in paths.items() for x in pair]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: [Errno ") and err[0].endswith(f"'{tmp_path / target}'")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "p.net"]
        assert list((tmp_path / "adir").iterdir()) == []

    def test_verify_pass_and_fail(self, tmp_path, path_file):
        good = tmp_path / "good.net"
        good.write_text("p mimick 2 1 2\nt 0 1\ne 0 1 3/1\n")
        bad = tmp_path / "bad.net"
        bad.write_text("p mimick 2 1 2\nt 0 1\ne 0 1 4/1\n")
        assert run("verify", path_file, good) == 0
        assert run("verify", path_file, bad) == 1

    def test_single_edge_unchanged(self, tmp_path):
        src = tmp_path / "e.net"
        src.write_text("p mimick 2 1 2\nt 0 1\ne 0 1 7/2\n")
        out = tmp_path / "e.mim"
        assert run("compress", src, "--method", "signature", "-o", out) == 0
        net, _ = load_network(out)
        assert net.n == 2 and net.edges[0].cost == Fraction(7, 2)

    def test_compress_grid_verifies(self, tmp_path):
        g = tmp_path / "g3.net"
        assert run("gen", "grid", "--k", 3, "-o", g) == 0
        out = tmp_path / "g3.mim"
        assert run("compress", g, "-o", out) == 0
        orig, _ = load_network(g)
        mim, _ = load_network(out)
        for bp in enumerate_bipartitions(orig.k):
            assert (
                min_separating_cut(orig, bp).value == min_separating_cut(mim, bp).value
            )

    def test_generalized_flag(self, tmp_path, path_file):
        good = tmp_path / "good.net"
        good.write_text("p mimick 2 1 2\nt 0 1\ne 0 1 3/1\n")
        assert run("verify", path_file, good, "--generalized") == 0

    def test_parse_error_exit_2(self, tmp_path):
        broken = tmp_path / "broken.net"
        broken.write_text("p mimick 2 1 2\nt 0 1\ne 0 1 0/1\n")
        assert run("verify", broken, broken) == 2

    @pytest.mark.parametrize("case", ["binary-input", "directory-input", "directory-out"])
    def test_unreadable_file_exit_2(self, tmp_path, path_file, capsys, case):
        # exit 1 is kept for a failed verification or a violated claim
        if case == "binary-input":
            binary = tmp_path / "p.bin"
            binary.write_bytes(bytes(range(256)))
            argv = ("compress", binary)
        elif case == "directory-input":
            argv = ("compress", tmp_path)
        else:
            argv = ("compress", path_file, "-o", tmp_path)
        assert run(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


def test_coprime_cost_denominators_exit_2(tmp_path, capsys):
    """A path with costs 1/p over the first 5133 primes: over their common
    denominator (about 72 000 bits) the costs would take 46 MB, so the
    file is refused while the denominator is still small."""
    sieve = bytearray([1]) * 50_000
    sieve[:2] = b"\0\0"
    for i in range(2, 224):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, len(sieve), i)))
    primes = [i for i, flag in enumerate(sieve) if flag]
    m = len(primes)
    path = tmp_path / "coprime.net"
    path.write_text(f"p mimick {m + 1} {m} 2\nt 0 {m}\n" + "".join(f"e {i} {i + 1} 1/{p}\n" for i, p in enumerate(primes)))
    assert 95_000 < path.stat().st_size < 105_000
    with pytest.raises(ParseError, match="common denominator"):
        load_network(path)
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run("compress", path) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert peak < 8 << 20


class TestWideValues:
    """A value with more digits than the interpreter's int-to-str limit
    (4300 by default) cannot be printed: exit 2 with one ``error:`` line,
    nothing on stdout and no ``-o`` file.  Exit 1 is kept for a failed
    check."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no int-to-str digit limit in this interpreter")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(limit)

    @pytest.fixture
    def wide_net(self, tmp_path):
        # each cost's denominator has 2201 digits, so the file parses; the
        # bundle 0-1 costs their sum, whose denominator has 4401
        a, b = 10**2200 + 1, 10**2200 + 3
        path = tmp_path / "w.net"
        path.write_text(f"p mimick 3 3 2\nt 0 1\ne 0 1 1/{a}\ne 0 1 1/{b}\ne 0 2 1\n")
        return path

    def assert_refused(self, argv, capsys, out=None):
        assert run(*argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "4300 digits" in err[0]
        assert captured.out == ""
        assert out is None or not out.exists()

    def test_compress(self, tmp_path, wide_net, capsys):
        out = tmp_path / "w.mim"
        self.assert_refused(("compress", wide_net, "-o", out, "--map-out", tmp_path / "w.map"), capsys, out)
        assert not (tmp_path / "w.map").exists()

    @pytest.mark.parametrize("flags", [(), ("--generalized",)], ids=["plain", "generalized"])
    def test_verify(self, wide_net, capsys, flags):
        self.assert_refused(("verify", wide_net, wide_net, *flags), capsys)

    def test_query_of_built_store(self, tmp_path, wide_net, capsys):
        # the store is binary, so building it prints no value
        store = tmp_path / "w.tcs"
        assert run("tc", "build", wide_net, "-o", store) == 0
        capsys.readouterr()
        self.assert_refused(("tc", "query", store, "--set", "q2"), capsys)

    def test_query_of_crafted_store(self, tmp_path, capsys):
        store = tmp_path / "c.tcs"
        store.write_bytes(serialize(TCStore(2, 1, (1 << 20000,))))
        assert store.stat().st_size < 3000
        self.assert_refused(("tc", "query", store, "--set", "q2"), capsys)


class TestExperiments:
    def test_rank_grid(self, capsys):
        assert run("experiment", "rank", "--family", "grid", "--k", 3) == 0
        out = capsys.readouterr().out
        assert "rank >= 4" in out and "PASS" in out

    def test_rank_needs_family(self):
        assert run("experiment", "rank", "--k", 3) == 2

    def test_grid_lemma_records(self, tmp_path, capsys):
        rec = tmp_path / "rec.jsonl"
        assert run("experiment", "grid-lemma", "--k", 3, "--records", rec) == 0
        lines = rec.read_text().splitlines()
        assert len(lines) == 1 + 4  # header + one record per staircase cut
        assert '"verdict": "PASS"' in lines[1]

    def test_bounds(self, tmp_path):
        net_file = tmp_path / "rp.net"
        assert run("gen", "random-planar", "--n", 16, "--k", 3, "--seed", 2, "-o", net_file) == 0
        assert run("experiment", "bounds", "--input", net_file, "--seed", 0, "--pairs", 10) == 0

    @pytest.mark.parametrize("pairs", [0, 30])
    def test_bounds_no_search_per_cutset_or_pair(self, tmp_path, monkeypatch, pairs):
        # the only search with edges removed is the contraction's, on the
        # union of all cutsets; every count is read on its quotient
        net_file = tmp_path / "rp.net"
        assert run("gen", "random-planar", "--n", 30, "--k", 5, "--seed", 3, "-o", net_file) == 0
        searches = []
        components = network.connected_components

        def counting(net, removed_edges=frozenset()):
            if removed_edges:
                searches.append(frozenset(removed_edges))
            return components(net, removed_edges)

        for module in (network, mimick, planar):
            monkeypatch.setattr(module, "connected_components", counting)
        assert run("experiment", "bounds", "--input", net_file, "--seed", 0, "--pairs", pairs) == 0
        net, _ = load_network(net_file)
        assert searches == [terminal_cuts(net).union]

    @pytest.mark.parametrize("gen_seed, pairs", [(2, 10), (3, 40), (7, 0)])
    def test_bounds_records_equal_search_reference(self, tmp_path, gen_seed, pairs):
        # every record against check_component_bounds, which searches the
        # network once per cutset and once per union, on the same samples
        net_file, rec = tmp_path / "rp.net", tmp_path / "rec.jsonl"
        assert run("gen", "random-planar", "--n", 40, "--k", 5, "--seed", gen_seed, "-o", net_file) == 0
        assert run("experiment", "bounds", "--input", net_file, "--seed", 9, "--pairs", pairs, "--records", rec) == 0
        net, emb = load_network(net_file)
        dual = build_dual(emb)
        bps = enumerate_bipartitions(net.k)
        cutsets = [cut.cutset for cut in terminal_cuts(net)]
        want = []
        for bp, cutset in zip(bps, cutsets):
            rep = check_component_bounds(emb, dual, cutset)
            want.append(("single-cutset-components", f"mask={bp.mask:b}", f"<= {net.k}", str(rep.cc_single[0]), rep.ok))
        rng = random.Random(9)
        for _ in range(pairs):
            a, b = rng.randrange(len(bps)), rng.randrange(len(bps))
            rep = check_component_bounds(emb, dual, cutsets[a], cutsets[b])
            want.append((
                "two-cutset-components-and-meeting-vertices",
                f"masks={bps[a].mask:b},{bps[b].mask:b}",
                f"cc <= {rep.cc_single[0]}+{rep.cc_single[1]}+{net.k}, meeting <= {6 * net.k}",
                f"cc={rep.cc_union} meeting={rep.meeting_vertices}",
                rep.ok,
            ))
        rows = [json.loads(line) for line in rec.read_text().splitlines()[1:]]
        got = [(r["claim"], r["instance"], r["expected"], r["observed"], r["verdict"] == "PASS") for r in rows]
        assert got[:-1] == want
        assert got[-1][0] == "component-face-correspondence"

    def test_bounds_needs_seed(self, tmp_path):
        net_file = tmp_path / "rp.net"
        run("gen", "random-planar", "--n", 10, "--k", 3, "--seed", 2, "-o", net_file)
        assert run("experiment", "bounds", "--input", net_file) == 2

    def test_bounds_negative_pairs_exit_2(self, tmp_path):
        net_file = tmp_path / "rp.net"
        run("gen", "random-planar", "--n", 10, "--k", 3, "--seed", 2, "-o", net_file)
        assert run("experiment", "bounds", "--input", net_file, "--seed", 0, "--pairs", -3) == 2

    def test_negative_spot_check_exit_2(self):
        assert run("experiment", "bipartite-lemma", "--k", 6, "--spot-check", -1, "--seed", 1) == 2

    def test_negative_samples_exit_2(self):
        assert run("experiment", "tc-collision", "--k", 6, "--samples", -1, "--seed", 7) == 2

    def test_zero_spot_check_exit_2(self):
        assert run("experiment", "bipartite-lemma", "--k", 6, "--spot-check", 0, "--seed", 1) == 2

    def test_zero_samples_exit_2(self):
        assert run("experiment", "tc-collision", "--k", 6, "--samples", 0, "--seed", 7) == 2

    def test_tc_collision_small(self, capsys):
        assert run("experiment", "tc-collision", "--k", 6, "--samples", 5, "--seed", 7) == 0
        assert "PASS" in capsys.readouterr().out


def runs(solved) -> list[int]:
    """Lengths of the runs of one residual network in the solved list: a
    table's walk solves every flow on one residual, built once per
    table."""
    lengths: list[int] = []
    for prev, graph in zip([None, *solved], solved):
        if graph is prev:
            lengths[-1] += 1
        else:
            lengths.append(1)
    return lengths


class TestFlowCounts:
    """Each command solves the input network's 2**(k-1) - 1 flows once."""

    @pytest.fixture()
    def net_file(self, tmp_path):
        path = tmp_path / "rp.net"
        assert run("gen", "random-planar", "--n", 30, "--k", 5, "--seed", 3, "-o", path) == 0
        return path

    @pytest.mark.parametrize("method", ["contract", "signature"])
    def test_compress(self, tmp_path, net_file, solved, method):
        out = tmp_path / "rp.mim"
        assert run("compress", net_file, "--method", method, "-o", out) == 0
        orig, _ = load_network(net_file)
        mim, _ = load_network(out)
        assert mim.n < orig.n
        rows = 2 ** (orig.k - 1) - 1
        # the input's table, then the verification table of the output
        assert runs(solved) == [rows, rows]
        assert len(solved) == 2 * rows

    def test_bounds(self, net_file, solved):
        assert run("experiment", "bounds", "--input", net_file, "--seed", 0, "--pairs", 10) == 0
        orig, _ = load_network(net_file)
        assert len(solved) == 2 ** (orig.k - 1) - 1
        assert runs(solved) == [len(solved)]

    def test_verify_generalized(self, tmp_path, net_file, solved):
        # pair values come from the two tables, with no flow per pair
        out = tmp_path / "rp.mim"
        assert run("compress", net_file, "-o", out) == 0
        solved.clear()
        assert run("verify", net_file, out, "--generalized") == 0
        orig, _ = load_network(net_file)
        rows = 2 ** (orig.k - 1) - 1
        assert runs(solved) == [rows, rows]
        assert len(solved) == 2 * rows

    def test_grid_lemma(self, solved):
        # one flow per staircase cut, uniqueness read from the same residual
        assert run("experiment", "grid-lemma", "--k", 4) == 0
        assert len(solved) == 9


class TestTC:
    def test_build_query_round_trip(self, tmp_path, capsys):
        g = tmp_path / "g3.net"
        run("gen", "grid", "--k", 3, "-o", g)
        store = tmp_path / "g3.tcs"
        assert run("tc", "build", g, "-o", store) == 0
        net, _ = load_network(g)
        bp = enumerate_bipartitions(net.k)[0]
        expected = min_separating_cut(net, bp).value
        capsys.readouterr()
        assert run("tc", "query", store, "--set", "q2") == 0
        printed = capsys.readouterr().out.strip()
        assert printed == f"{expected.numerator}/{expected.denominator}"

    def test_query_complement_same(self, tmp_path, capsys):
        e = tmp_path / "e.net"
        e.write_text("p mimick 2 1 2\nt 0 1\ne 0 1 7/1\n")
        store = tmp_path / "e.tcs"
        run("tc", "build", e, "-o", store)
        capsys.readouterr()
        assert run("tc", "query", store, "--set", "q2") == 0
        first = capsys.readouterr().out
        assert run("tc", "query", store, "--set", "q1") == 0
        assert capsys.readouterr().out == first == "7/1\n"

    def test_trivial_query_usage_error(self, tmp_path):
        e = tmp_path / "e.net"
        e.write_text("p mimick 2 1 2\nt 0 1\ne 0 1 7/1\n")
        store = tmp_path / "e.tcs"
        run("tc", "build", e, "-o", store)
        assert run("tc", "query", store, "--set", "q1,q2") == 2
