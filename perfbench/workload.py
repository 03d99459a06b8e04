#!/usr/bin/env python3
"""One benchmark run of one workload, in its own fresh interpreter.

Started by ``perfbench/run.py`` with the checkout's ``src`` on
``PYTHONPATH``; prints one JSON object on stdout.  The program only ever
sees the generated inputs; the workload seed stays here.

Every workload runs the same three step families each pass, one at full
size (the workload's subject) and the other two at probe size, so every
metric named in ``BENCHMARK.json`` is measured on every workload while
nearly all of a workload's time stays in its own family:

* ``planar``: ``mimicknet.cli.main`` in-process on a random planar network:
  ``compress``, ``verify``, ``tc build``, ``tc query`` for every
  bipartition, ``experiment bounds``.  Nearly all Dinic flows.
* ``crosscheck``: flow against the exhaustive oracle on every bipartition
  of an int64 instance and of a perturbed big-integer instance, with exact
  equality asserted.  Nearly all oracle kernel / Gray walk.
* ``lowerbound``: ``experiment rank`` on the bipartite and grid families
  and ``experiment tc-collision``.  Bareiss rank and many small flows.

With ``--trace 0`` each CLI call (or cross-check) is one timed operation.
With ``--trace 1`` the same inputs are replayed as direct calls into each
module's public functions, wrapped in spans recorded here; nothing inside
``src`` is traced.  Replays alternate between tracing on and off so the
tracing overhead is measured too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import time

import numpy as np

from mimicknet import _kernels, cli
from mimicknet.errors import NonUniqueCutsError, PerturbationFailedError
from mimicknet.fileio import parse_network, serialize_network
from mimicknet.generate import random_planar_network
from mimicknet.incidence import build_incidence, integer_rank, perturb
from mimicknet.lowerbound import gen_bipartite, gen_grid, tc_collision_family, verify_rank_bounds
from mimicknet.mimick import terminal_cuts, verify
from mimicknet.mincut import (
    _edge_tables,
    global_gap,
    min_separating_cut,
    oracle_enumeration,
    uniqueness_by_flow,
)
from mimicknet.network import ContractionMap, connected_components, contract, enumerate_bipartitions
from mimicknet.planar import build_dual, check_component_bounds, faces_of_subgraph
from mimicknet.tcscheme import deserialize, preprocess, query, serialize
from speed import SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Full sizes are the workload's subject; probe sizes keep the other two
# families measurable at a few percent of the pass.  ``repeat`` runs a
# family's steps on that many distinct inputs per pass (``rank_repeat``
# repeats the rank steps; ``bigints`` is the number of big-integer
# instances per int64 one) so steps get enough distinct inputs for a
# steady median.  Random planar networks get a fixed number of edges
# beyond the spanning tree (``extra*``), so flow and kernel costs do not
# swing with a random edge count.
FULL = {
    "planar": {"n": 200, "k": 8, "extra": 180, "pairs": 50, "repeat": 1},
    "crosscheck": {"k": 4, "p_int64": 20, "extra_int64": 18, "p_bigint": 14, "extra_bigint": 12, "bigints": 4, "repeat": 1},
    "lowerbound": {"bipartite_k": 9, "grid_k": 6, "rank_repeat": 1, "collision_k": 6, "samples": 100, "repeat": 1},
}
PROBE = {
    "planar": {"n": 40, "k": 4, "extra": 30, "pairs": 10, "repeat": 8},
    "crosscheck": {"k": 4, "p_int64": 10, "extra_int64": 10, "p_bigint": 10, "extra_bigint": 10, "bigints": 1, "repeat": 6},
    "lowerbound": {"bipartite_k": 6, "grid_k": 3, "rank_repeat": 4, "collision_k": 6, "samples": 5, "repeat": 1},
}
SMOKE = {
    "planar": {"n": 20, "k": 3, "extra": 15, "pairs": 5, "repeat": 1},
    "crosscheck": {"k": 3, "p_int64": 6, "extra_int64": 6, "p_bigint": 6, "extra_bigint": 6, "bigints": 1, "repeat": 1},
    "lowerbound": {"bipartite_k": 6, "grid_k": 3, "rank_repeat": 1, "collision_k": 6, "samples": 2, "repeat": 1},
}
SUBJECT = {"planar-pipeline": "planar", "oracle-crosscheck": "crosscheck", "lowerbound-rank": "lowerbound"}
FAMILY_ORDER = ("planar", "crosscheck", "lowerbound")

STEP_METRICS = (
    "compress_s", "verify_s", "tc_build_s", "tc_query_s", "bounds_s",
    "crosscheck_int64_s", "crosscheck_bigint_s",
    "rank_bipartite_s", "rank_grid_s", "tc_collision_s",
)

# per-layer metric -> (unit, source): ("self", span) is busy self time per
# pass, ("count", counter) is work per pass.
LAYER_METRICS = {
    "generate.random_planar_network_s": ("s", "self", "generate.random_planar_network"),
    "fileio.parse_network_s": ("s", "self", "fileio.parse_network"),
    "fileio.serialize_network_s": ("s", "self", "fileio.serialize_network"),
    "mincut.min_separating_cut_s": ("s", "self", "mincut.min_separating_cut"),
    "mincut.min_separating_cut_calls": ("count", "calls", "mincut.min_separating_cut"),
    "mimick.terminal_cuts_s": ("s", "self", "mimick.terminal_cuts"),
    "mimick.verify_s": ("s", "self", "mimick.verify"),
    "network.connected_components_s": ("s", "self", "network.connected_components"),
    "network.contract_s": ("s", "self", "network.contract"),
    "tcscheme.preprocess_s": ("s", "self", "tcscheme.preprocess"),
    "tcscheme.serialize_s": ("s", "self", "tcscheme.serialize"),
    "tcscheme.store_bytes": ("bytes", "count", "tcscheme.store_bytes"),
    "cli.build_parser_s": ("s", "self", "cli.build_parser"),
    "tcscheme.deserialize_s": ("s", "self", "tcscheme.deserialize"),
    "tcscheme.query_s": ("s", "self", "tcscheme.query"),
    "planar.build_dual_s": ("s", "self", "planar.build_dual"),
    "planar.check_component_bounds_s": ("s", "self", "planar.check_component_bounds"),
    "planar.faces_of_subgraph_s": ("s", "self", "planar.faces_of_subgraph"),
    "mincut.oracle_enumeration_s.int64": ("s", "self", "mincut.oracle_enumeration.int64"),
    "mincut.oracle_enumeration_s.bigint": ("s", "self", "mincut.oracle_enumeration.bigint"),
    "mincut.oracle_masks": ("count", "count", "mincut.oracle_masks"),
    "kernels.cut_values_s": ("s", "self", "kernels.cut_values"),
    "mincut.uniqueness_by_flow_s": ("s", "self", "mincut.uniqueness_by_flow"),
    "mincut.global_gap_s": ("s", "self", "mincut.global_gap"),
    "incidence.perturb_s": ("s", "self", "incidence.perturb"),
    "incidence.build_incidence_s": ("s", "self", "incidence.build_incidence"),
    "incidence.integer_rank_s": ("s", "self", "incidence.integer_rank"),
    "incidence.integer_rank_cells": ("count", "count", "incidence.integer_rank_cells"),
    "lowerbound.verify_rank_bounds_s": ("s", "self", "lowerbound.verify_rank_bounds"),
    "lowerbound.tc_collision_family_s": ("s", "self", "lowerbound.tc_collision_family"),
}

RANK_LINE = re.compile(r"rank >= (\d+): observed (\d+) -> PASS")
MAX_PERTURB_ATTEMPTS = 40
# Finer than perturb's default grid (2**40), so perturbed costs almost
# always push the scaled totals past the int64 kernel's limit.
PERTURB_RESOLUTION = 1 << 60


def derive(seed: int, *parts) -> int:
    """Deterministic sub-seed for one input of one pass."""
    return random.Random(":".join(str(p) for p in (seed, *parts))).randrange(1 << 31)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``mimicknet.cli.main`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, amount: int) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time (duration minus the time covered
        by child spans) and number of spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            total[name] = total.get(name, 0.0) + (end - start) - child
            calls[name] = calls.get(name, 0) + 1
        return total, calls


# --- step families -----------------------------------------------------------
#
# A family builds its inputs for one pass (``prepare``), then yields
# operations for the CLI run (``ops``: metric, call, check) or replays the
# same inputs through direct calls (``replay``).  Checks run after the timer.


class PlanarFamily:
    """Random planar network through the CLI pipeline, files in a fixed
    working directory under fixed relative names (compress writes the
    input path into its output, so the digest depends on it)."""

    def __init__(self, size: dict, seed: int):
        self.size, self.seed = size, seed

    def prepare(self, index: int, slot: int, tr: Tracer) -> dict:
        n, k, extra = self.size["n"], self.size["k"], self.size["extra"]
        s = derive(self.seed, index, "planar")
        stem = f"net{slot}"
        if tr.enabled:
            with tr.span("generate.random_planar_network"):
                net, emb = random_planar_network(n, k, s, extra)
            with tr.span("fileio.serialize_network"):
                text = serialize_network(net, emb, comment=f"random planar n={n} k={k} seed={s}")
            with open(f"{stem}.net", "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            rc, _ = run_cli(["gen", "random-planar", "--n", str(n), "--k", str(k), "--seed", str(s),
                             "--extra-edges", str(extra), "-o", f"{stem}.net"])
            if rc != 0:
                raise RuntimeError(f"gen random-planar exited {rc}")
        return {"k": k, "stem": stem, "bounds_seed": derive(self.seed, index, "bounds"), "verify": {}}

    def ops(self, inp: dict):
        k, stem = inp["k"], inp["stem"]
        net, mim, tcs = f"{stem}.net", f"{stem}.mim", f"{stem}.tcs"
        yield "compress_s", lambda: run_cli(
            ["compress", net, "--method", "contract", "-o", mim, "--map-out", f"{stem}.map"]
        ), lambda r: r[0] == 0
        yield "verify_s", lambda: run_cli(["verify", net, mim]), lambda r: self._check_verify(r, inp)
        yield "tc_build_s", lambda: run_cli(["tc", "build", net, "-o", tcs]), lambda r: r[0] == 0
        for bp in enumerate_bipartitions(k):
            terms = ",".join(f"q{i + 1}" for i in bp.side_indices())
            yield "tc_query_s", lambda terms=terms: run_cli(["tc", "query", tcs, "--set", terms]), (
                lambda r, mask=bp.mask: r[0] == 0 and r[1].strip() == inp["verify"].get(mask)
            )
        yield "bounds_s", lambda: run_cli(
            ["experiment", "bounds", "--input", net, "--seed", str(inp["bounds_seed"]),
             "--pairs", str(self.size["pairs"])]
        ), lambda r: r[0] == 0 and "experiment bounds: PASS" in r[1]

    @staticmethod
    def _check_verify(result, inp) -> bool:
        rc, out = result
        values = {}
        for line in out.splitlines():
            if line.startswith("bipartition mask="):
                fields = dict(f.split("=", 1) for f in line.split()[1:4])
                if not line.endswith(" ok") or fields["original"] != fields["candidate"]:
                    return False
                values[int(fields["mask"], 2)] = fields["original"]
        # tc query answers are checked against these values
        inp["verify"] = values
        return rc == 0 and out.rstrip().endswith("verify: PASS") and len(values) == (1 << (inp["k"] - 1)) - 1

    @staticmethod
    def output_bytes(inp: dict) -> bytes:
        data = b""
        for ext in ("mim", "map", "tcs"):
            name = f"{inp['stem']}.{ext}"
            try:
                with open(name, "rb") as fh:
                    data += name.encode() + b"\0" + fh.read()
            except FileNotFoundError:  # its step already counted as failed
                data += name.encode() + b"\0missing"
        return data

    def replay(self, inp: dict, tr: Tracer):
        with open(f"{inp['stem']}.net", encoding="utf-8") as fh:
            text = fh.read()
        bps = enumerate_bipartitions(inp["k"])
        with tr.span("step.compress"):
            with tr.span("fileio.parse_network"):
                net, emb = parse_network(text)
            with tr.span("mimick.terminal_cuts"):
                cuts = terminal_cuts(net)
            union = frozenset().union(*(c.cutset for c in cuts))
            with tr.span("network.connected_components"):
                classes = connected_components(net, union)
            with tr.span("network.contract"):
                mim = contract(net, ContractionMap(net, classes))
            with tr.span("mimick.verify"):
                ok = verify(net, mim).all_equal
            with tr.span("fileio.serialize_network"):
                mim_text = serialize_network(mim, None, comment=f"mimicking network of {inp['stem']}.net")
        yield "compress", ok
        with tr.span("step.verify"):
            with tr.span("fileio.parse_network"):
                net, emb = parse_network(text)
            with tr.span("fileio.parse_network"):
                mim, _ = parse_network(mim_text)
            with tr.span("mimick.verify"):
                report = verify(net, mim)
        yield "verify", report.all_equal
        with tr.span("step.tc_build"):
            with tr.span("fileio.parse_network"):
                net, emb = parse_network(text)
            with tr.span("tcscheme.preprocess"):
                store = preprocess(net)
            with tr.span("tcscheme.serialize"):
                blob = serialize(store)
        tr.count("tcscheme.store_bytes", len(blob))
        yield "tc_build", True
        expected = {row.bipartition.mask: row.value_original for row in report.rows}
        ok = True
        with tr.span("step.tc_query"):
            for bp in bps:
                terms = ",".join(f"q{i + 1}" for i in bp.side_indices())
                with tr.span("cli.build_parser"):
                    args = cli.build_parser().parse_args(["tc", "query", f"{inp['stem']}.tcs", "--set", terms])
                with tr.span("tcscheme.deserialize"):
                    loaded = deserialize(blob)
                with tr.span("tcscheme.query"):
                    value = query(loaded, [int(t[1:]) - 1 for t in args.set.split(",")])
                ok &= value == expected[bp.mask]
        yield "tc_query", ok
        with tr.span("step.bounds"):
            with tr.span("fileio.parse_network"):
                net, emb = parse_network(text)
            with tr.span("planar.build_dual"):
                dual = build_dual(emb)
            cutsets = []
            for bp in bps:
                with tr.span("mincut.min_separating_cut"):
                    cutsets.append(min_separating_cut(net, bp).cutset)
            ok = True
            for cutset in cutsets:
                with tr.span("planar.check_component_bounds"):
                    ok &= check_component_bounds(emb, dual, cutset).ok
            rng = random.Random(inp["bounds_seed"])
            for _ in range(self.size["pairs"]):
                a, b = rng.randrange(len(bps)), rng.randrange(len(bps))
                with tr.span("planar.check_component_bounds"):
                    ok &= check_component_bounds(emb, dual, cutsets[a], cutsets[b]).ok
            with tr.span("mimick.terminal_cuts"):
                union = frozenset().union(*(c.cutset for c in terminal_cuts(net)))
            with tr.span("network.connected_components"):
                cc = len(connected_components(net, union))
            with tr.span("planar.faces_of_subgraph"):
                faces = faces_of_subgraph(dual.embedding, union)
        yield "bounds", ok and cc == faces


def scaled_total(net, bp) -> int:
    """Largest scaled cut value the oracle can meet for ``bp``: the sum over
    every edge whose crossing state is not fixed to 'uncut'.  The oracle
    takes the int64 kernel exactly when this is below the kernel's limit."""
    den = net.cost_denominator
    terms = set(net.terminals)
    side = set(bp.side_vertices(net))
    total = 0
    for e in net.edges:
        if e.u == e.v or (e.u in terms and e.v in terms and (e.u in side) == (e.v in side)):
            continue
        total += e.cost.numerator * (den // e.cost.denominator)
    return total


def fits_int64(net, bp) -> bool:
    return scaled_total(net, bp) < _kernels.INT64_SAFE_LIMIT


class CrosscheckFamily:
    """Flow vs oracle on an int64 instance and ``bigints`` perturbed
    big-integer ones."""

    def __init__(self, size: dict, seed: int):
        self.size, self.seed = size, seed
        # perturbed candidates: crossed to big integers / stayed int64 /
        # refused (tied minimum cuts or failed validation)
        self.perturbed = {"bigint": 0, "int64": 0, "refused": 0}

    def prepare(self, index: int, slot: int, tr: Tracer) -> dict:
        k = self.size["k"]
        with tr.span("generate.random_planar_network"):
            int64_net, _ = random_planar_network(
                k + self.size["p_int64"], k, derive(self.seed, index, "int64"), self.size["extra_int64"]
            )
        bigints = [self._bigint_instance(index, i, tr) for i in range(self.size["bigints"])]
        return {"int64": [int64_net], "bigint": bigints}

    def _bigint_instance(self, index: int, i: int, tr: Tracer):
        k = self.size["k"]
        for attempt in range(MAX_PERTURB_ATTEMPTS):
            s = derive(self.seed, index, "bigint" if i == 0 else f"bigint{i}", attempt)
            with tr.span("generate.random_planar_network"):
                base, _ = random_planar_network(k + self.size["p_bigint"], k, s, self.size["extra_bigint"])
            try:
                if tr.enabled:
                    with tr.span("mincut.global_gap"):
                        delta = global_gap(base)
                    with tr.span("incidence.perturb"):
                        pert = perturb(base, s, PERTURB_RESOLUTION, delta=delta)
                else:
                    pert = perturb(base, s, PERTURB_RESOLUTION)
            except (NonUniqueCutsError, PerturbationFailedError):
                self.perturbed["refused"] += 1
                continue
            if any(fits_int64(pert.network, bp) for bp in enumerate_bipartitions(k)):
                self.perturbed["int64"] += 1
                continue
            self.perturbed["bigint"] += 1
            return pert.network
        raise RuntimeError(f"no big-integer instance in {MAX_PERTURB_ATTEMPTS} perturbations")

    @staticmethod
    def _instances(inp: dict) -> list:
        return [(cls, net) for cls in ("int64", "bigint") for net in inp[cls]]

    @staticmethod
    def _crosscheck(net, bp):
        return min_separating_cut(net, bp), oracle_enumeration(net, bp), uniqueness_by_flow(net, bp)

    @staticmethod
    def _agrees(result, want_int64: bool, fits: bool) -> bool:
        # oracle path guard: int64-class instances must fit, big-integer ones must not
        flow, res, unique = result
        return (
            fits == want_int64
            and flow.value == res.value
            and flow.cutset in res.min_cutsets
            and unique == (len(res.min_cutsets) == 1)
        )

    def ops(self, inp: dict):
        for cls, net in self._instances(inp):
            for bp in enumerate_bipartitions(net.k):
                fits = fits_int64(net, bp)
                yield f"crosscheck_{cls}_s", lambda net=net, bp=bp: self._crosscheck(net, bp), (
                    lambda r, cls=cls, fits=fits: self._agrees(r, cls == "int64", fits)
                )

    def replay(self, inp: dict, tr: Tracer):
        for cls, net in self._instances(inp):
            p = net.n - net.k
            ok = True
            with tr.span(f"step.crosscheck_{cls}"):
                for bp in enumerate_bipartitions(net.k):
                    fits = fits_int64(net, bp)
                    with tr.span("mincut.min_separating_cut"):
                        flow = min_separating_cut(net, bp)
                    with tr.span(f"mincut.oracle_enumeration.{cls}"):
                        res = oracle_enumeration(net, bp)
                    tr.count("mincut.oracle_masks", 1 << p)
                    with tr.span("mincut.uniqueness_by_flow"):
                        unique = uniqueness_by_flow(net, bp)
                    ok &= self._agrees((flow, res, unique), cls == "int64", fits)
                    if cls == "int64":
                        # the int64 kernel alone, on the oracle's own edge tables
                        _, den, base, ones, twos = _edge_tables(net, bp)
                        with tr.span("kernels.cut_values"):
                            values = _kernels.cut_values(1 << p, base, *ones, *twos)
                        tr.count("kernels.masks", 1 << p)
                        ok &= int(values.min()) == res.value * den
            yield f"crosscheck_{cls}", ok


class LowerboundFamily:
    """Rank lower bounds on the two extremal families and the storage
    collision experiment, through the CLI."""

    def __init__(self, size: dict, seed: int, reference: dict):
        self.size, self.seed = size, seed
        self.ranks = reference["ranks"]

    def prepare(self, index: int, slot: int, tr: Tracer) -> dict:
        return {"collision_seed": derive(self.seed, index, "collision")}

    def _rank_ok(self, result, family: str, k: int) -> bool:
        rc, out = result
        found = RANK_LINE.search(out)
        if rc != 0 or found is None or "experiment rank: PASS" not in out:
            return False
        if family == "grid" and "lower-triangular submatrix: PASS" not in out:
            return False
        return int(found.group(2)) == self.ranks[f"{family}-{k}"]

    def ops(self, inp: dict):
        ranks = (("bipartite", "bipartite_k", "rank_bipartite_s"), ("grid", "grid_k", "rank_grid_s"))
        for family, key, metric in ranks * self.size["rank_repeat"]:
            k = self.size[key]
            yield metric, lambda family=family, k=k: run_cli(
                ["experiment", "rank", "--family", family, "--k", str(k)]
            ), lambda r, family=family, k=k: self._rank_ok(r, family, k)
        yield "tc_collision_s", lambda: run_cli(
            ["experiment", "tc-collision", "--k", str(self.size["collision_k"]),
             "--samples", str(self.size["samples"]), "--seed", str(inp["collision_seed"])]
        ), lambda r: r[0] == 0 and ", 0 collisions," in r[1] and "experiment tc-collision: PASS" in r[1]

    def replay(self, inp: dict, tr: Tracer):
        for family, key in (("bipartite", "bipartite_k"), ("grid", "grid_k")) * self.size["rank_repeat"]:
            k = self.size[key]
            with tr.span(f"step.rank_{family}"):
                fam = gen_bipartite(k) if family == "bipartite" else gen_grid(k)
                if family == "grid":
                    for bp in enumerate_bipartitions(fam.network.k):
                        with tr.span("mincut.min_separating_cut"):
                            min_separating_cut(fam.network, bp)
                with tr.span("incidence.build_incidence"):
                    mat = build_incidence(fam.network)
                with tr.span("incidence.integer_rank"):
                    r = integer_rank(mat.bits.tolist())
                tr.count("incidence.integer_rank_cells", mat.rows * mat.cols)
                with tr.span("lowerbound.verify_rank_bounds"):
                    rep = verify_rank_bounds(fam)
            yield f"rank_{family}", rep.ok and rep.rank == r == self.ranks[f"{family}-{k}"]
        with tr.span("step.tc_collision"):
            fam = gen_bipartite(self.size["collision_k"])
            with tr.span("lowerbound.tc_collision_family"):
                rep = tc_collision_family(fam, self.size["samples"], inp["collision_seed"])
        yield "tc_collision", rep.ok


# --- run ---------------------------------------------------------------------


def percentile_summary(samples: list[float]) -> dict:
    """Median, the highest listed percentile with at least ten samples
    beyond it, and the sample count."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "count": len(ordered)}
    for q in (99.9, 99, 90, 75):
        if len(ordered) * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = ordered[min(len(ordered) - 1, int(len(ordered) * q / 100))]
            break
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def metadata(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "sizes": args.sizes,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": _kernels.kernel_backend,
        "MIMICKNET_KERNEL": os.environ.get("MIMICKNET_KERNEL"),
        "src_sha256": source_digest(),
    }


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}

    def record(self, name: str, ok: bool, error: BaseException | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            key = f"{name}: {type(error).__name__ if error else 'wrong output'}"
            self.errors[key] = self.errors.get(key, 0) + 1


def build_families(args, reference: dict):
    table = SMOKE if args.sizes == "smoke" else None
    subject = SUBJECT[args.workload]

    def size(family):
        if table is not None:
            return table[family]
        return FULL[family] if family == subject else PROBE[family]

    return {
        "planar": PlanarFamily(size("planar"), args.seed),
        "crosscheck": CrosscheckFamily(size("crosscheck"), args.seed),
        "lowerbound": LowerboundFamily(size("lowerbound"), args.seed, reference),
    }


def prepare_pass(families, pass_i: int, tr: Tracer) -> dict:
    """Inputs of one pass: ``repeat`` distinct inputs per family."""
    return {
        name: [fam.prepare(pass_i * fam.size["repeat"] + slot, slot, tr) for slot in range(fam.size["repeat"])]
        for name, fam in families.items()
    }


def measure_cli(families, inputs, deadline: float, counter: Counter, reference_digests: list[str]):
    """Closed loop, one caller: run passes until the next operation would
    end after the deadline.  Every operation runs at least once.  Returns
    raw seconds and ``perf_counter`` intervals per metric, and the digest
    of each completed pass."""
    samples: dict[str, list[float]] = {m: [] for m in STEP_METRICS}
    intervals: dict[str, list[tuple[float, float]]] = {m: [] for m in STEP_METRICS}
    digests: list[str] = []
    pass_i = 0
    while True:
        h = hashlib.sha256()
        for name in FAMILY_ORDER:
            fam = families[name]
            for inp in inputs[name]:
                for metric, call, check in fam.ops(inp):
                    times = samples[metric]
                    if times and time.perf_counter() + times[-1] > deadline and all(samples.values()):
                        return samples, intervals, digests
                    error, result = None, None
                    t0 = time.perf_counter()
                    try:
                        result = call()
                    except Exception as exc:  # counted, never fatal: RecursionError included
                        error = exc
                    t1 = time.perf_counter()
                    times.append(t1 - t0)
                    intervals[metric].append((t0, t1))
                    try:
                        ok = error is None and bool(check(result))
                    except Exception as exc:
                        error, ok = exc, False
                    counter.record(metric, ok, error)
                    h.update(repr((metric, result if name != "crosscheck" else _cut_repr(result))).encode())
                if name == "planar":
                    h.update(PlanarFamily.output_bytes(inp))
        digests.append(h.hexdigest())
        if pass_i < len(reference_digests):
            counter.record("reference digest", digests[-1] == reference_digests[pass_i])
        pass_i += 1
        if time.perf_counter() >= deadline:
            return samples, intervals, digests
        inputs = prepare_pass(families, pass_i, Tracer(False))


def _cut_repr(result):
    if result is None:
        return None
    flow, res, unique = result
    return (str(flow.value), sorted(flow.cutset), str(res.value), len(res.min_cutsets), unique)


def measure_traced(families, inputs, tracer: Tracer, deadline: float, counter: Counter):
    """Replay passes through direct calls until the next pass would end
    after the deadline (at least one).  Every input is replayed twice,
    traced and untraced, in alternating order; returns the pass count and
    the total traced and untraced replay times."""
    off = Tracer(False)
    totals = {True: 0.0, False: 0.0}
    traced_first = True
    pass_i = 0
    while True:
        pass_start = time.perf_counter()
        for name in FAMILY_ORDER:
            fam = families[name]
            for inp in inputs[name]:
                for tr in (tracer, off) if traced_first else (off, tracer):
                    t0 = time.perf_counter()
                    try:
                        for step, ok in fam.replay(inp, tr):
                            counter.record(step, ok)
                    except Exception as exc:
                        counter.record(f"replay {name}", False, exc)
                    totals[tr.enabled] += time.perf_counter() - t0
                traced_first = not traced_first
        pass_i += 1
        if 2 * time.perf_counter() - pass_start > deadline:
            return pass_i, totals[True], totals[False]
        inputs = prepare_pass(families, pass_i, tracer)


def layer_metrics(tracer: Tracer, passes: int, traced, untraced) -> dict:
    self_time, calls = tracer.self_times()
    out = {}
    for metric, (unit, kind, key) in LAYER_METRICS.items():
        if kind == "self":
            value = self_time.get(key, 0.0) / passes
        elif kind == "calls":
            value = calls.get(key, 0) / passes
        else:
            value = tracer.counts.get(key, 0) / passes
        out[metric] = {"value": value, "unit": unit}
    kernel_s = self_time.get("kernels.cut_values", 0.0)
    out["kernels.masks_per_s"] = {
        "value": tracer.counts.get("kernels.masks", 0) / kernel_s if kernel_s else 0.0,
        "unit": "1/s",
    }
    out["trace.overhead_ratio"] = {
        "value": traced / untraced,
        "unit": "ratio",
    }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(SUBJECT), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--sizes", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up (set-up time sample)")
    args = ap.parse_args()

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    work = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    os.chdir(work)
    sampler = SpeedSampler()
    try:
        counter = Counter()
        families = build_families(args, reference)
        tracer = Tracer(bool(args.trace))
        with contextlib.ExitStack() as stack:
            if not args.trace:
                stack.enter_context(sampler)
            started = time.perf_counter()
            inputs = prepare_pass(families, 0, tracer)
            setup_end = time.time()
            result = {"setup_end": setup_end}
            if not args.trace:
                rate, handler_s = sampler.rate(started, time.perf_counter())
                result["setup_rate"], result["setup_handler_s"] = rate, handler_s
            if not args.setup_only:
                deadline = time.perf_counter() + args.seconds
                if args.trace:
                    passes, traced, untraced = measure_traced(families, inputs, tracer, deadline, counter)
                    result["metrics"] = layer_metrics(tracer, passes, traced, untraced)
                    result["passes"] = passes
                    self_time, calls = tracer.self_times()
                    result["spans"] = {name: {"self_s": self_time[name], "calls": calls[name]} for name in sorted(calls)}
                    spans_path = os.path.join(ROOT, ".perfbench-work", f"spans-{args.workload}-seed{args.seed}.json")
                    result["spans_file"] = os.path.relpath(spans_path, ROOT)
                    with open(spans_path, "w", encoding="utf-8") as fh:
                        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
                else:
                    key = f"{args.workload}:{args.seed}" if args.sizes == "full" else None
                    samples, intervals, digests = measure_cli(
                        families, inputs, deadline, counter, reference["digests"].get(key, [])
                    )
        if not args.setup_only:
            if not args.trace:
                result["metrics"] = {
                    m: {"value": statistics.median(sampler.normalize(*iv) for iv in v), "unit": "s"}
                    for m, v in intervals.items()
                }
                result["timings"] = {m: percentile_summary(v) for m, v in samples.items()}
                result["speed_samples"] = {
                    "count": len(sampler.durations),
                    "median_s": statistics.median(sampler.durations),
                }
                result["digests"] = digests
            result["perturbed"] = families["crosscheck"].perturbed
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["attempted"] = counter.attempted
            result["failed"] = counter.failed
            result["errors"] = counter.errors
            result["meta"] = metadata(args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
