"""Command-line interface.

Subcommands: ``gen`` (instance generators), ``compress`` (build and verify a
mimicking network), ``verify`` (compare two networks), ``experiment``
(lemma/bound/collision checks), ``tc`` (terminal-cuts store build/query).

Exit codes: 0 success or all checks PASS, 1 verification failure or a
violated claim, 2 usage or parse errors.  Every randomized command takes an
explicit ``--seed``; reports embed seed and parameters, and identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import random
import sys

import numpy as np

from . import __version__
from .errors import MimicknetError
from .fileio import format_value, load_network, serialize_network
from .generate import random_planar_network, star_network
from .lowerbound import (
    gen_bipartite,
    gen_grid,
    tc_collision_family,
    verify_bipartite_lemma,
    verify_grid_lemma,
    verify_rank_bounds,
)
from .mimick import build_by_contraction, build_by_signature, verify, verify_cuts, verify_generalized
from .network import Quotient, enumerate_bipartitions
from .planar import BoundReport, build_dual, faces_of_subgraph, meeting_vertices
from .tcscheme import deserialize, preprocess, query, serialize, storage_report

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class _Records:
    """Line-oriented machine-readable claim log."""

    def __init__(self, path: str | None, command: str, params: dict):
        self.path = path
        self.header = {"command": command, "format_version": FORMAT_VERSION, **params}
        self.rows: list[dict] = []

    def add(self, claim: str, instance: str, expected, observed, ok: bool) -> None:
        self.rows.append(
            {
                "claim": claim,
                "instance": instance,
                "expected": str(expected),
                "observed": str(observed),
                "verdict": "PASS" if ok else "FAIL",
            }
        )

    def flush(self) -> None:
        if self.path is None:
            return
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.header) + "\n")
            for row in self.rows:
                fh.write(json.dumps({**self.header, **row}) + "\n")


def _emit(*outputs: tuple[str, str | None]) -> None:
    """Write each ``(text, path)``, a path of None to stdout.  No output
    lands unless every file can be written: each is written to a temporary
    file beside its target, and all are moved into place after the last
    write succeeds."""
    staged: list[tuple[str, str]] = []
    try:
        for text, path in outputs:
            if not path:
                continue
            staged.append((f"{path}.{os.getpid()}.tmp", path))
            try:
                if os.path.isdir(path):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                with open(staged[-1][0], "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
    sys.stdout.write("".join(text for text, path in outputs if not path))


# --- gen ---------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.family == "bipartite":
        fam = gen_bipartite(args.k)
        text = serialize_network(fam.network, None, comment=f"bipartite family k={args.k}")
    elif args.family == "grid":
        fam = gen_grid(args.k)
        text = serialize_network(fam.network, fam.embedding, comment=f"grid family k={args.k}")
    elif args.family == "star":
        net, emb = star_network(args.k)
        text = serialize_network(net, emb, comment=f"star k={args.k}")
    else:  # random-planar
        if args.seed is None:
            raise MimicknetError("gen random-planar requires --seed")
        net, emb = random_planar_network(args.n, args.k, args.seed, args.extra_edges)
        text = serialize_network(
            net, emb, comment=f"random planar n={args.n} k={args.k} seed={args.seed}"
        )
    _emit((text, args.out))
    return EXIT_OK


# --- compress ----------------------------------------------------------------


def _cmd_compress(args) -> int:
    net, _ = load_network(args.input)
    build = build_by_contraction if args.method == "contract" else build_by_signature
    result = build(net)
    report = verify_cuts(result.cuts, result.network)
    comment = f"mimicking network ({result.construction}) of {args.input}"
    outputs = [(serialize_network(result.network, None, comment=comment), args.out)]
    if args.map_out:
        classes = enumerate(result.contraction_map.classes)
        outputs.append(("".join(f"class {cid} " + " ".join(map(str, vs)) + "\n" for cid, vs in classes), args.map_out))
    _emit(*outputs)
    s = result.stats
    print(
        f"compress: {net.n} -> {s.vertices} vertices, {net.m} -> {s.edges} edges, "
        f"{s.class_count} classes ({s.dropped_classes} dropped), "
        f"size bound k^2*4^k = {s.size_bound} ({'within' if s.within_size_bound else 'above'})",
        file=sys.stderr,
    )
    if not report.all_equal:
        print("compress: internal verification FAILED", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# --- verify ------------------------------------------------------------------


def _cmd_verify(args) -> int:
    orig, _ = load_network(args.original)
    cand, _ = load_network(args.candidate)
    report = verify_generalized(orig, cand) if args.generalized else verify(orig, cand)
    k, pairs = orig.k, report.generalized or ()
    heads = [f"bipartition mask={row.bipartition.mask:0{k}b}" for row in report.rows]
    heads += [f"pair S={row.source_mask:0{k}b} T={row.sink_mask:0{k}b}" for row in pairs]
    # every line is formatted before any is printed, so a value too wide
    # to print leaves no partial report
    lines = [
        f"{head} original={format_value(row.value_original)} candidate={format_value(row.value_candidate)} "
        + ("ok" if row.equal else "MISMATCH")
        for head, row in zip(heads, report.rows + pairs)
    ]
    print("\n".join([*lines, f"verify: {'PASS' if report.all_equal else 'FAIL'}"]))
    return EXIT_OK if report.all_equal else EXIT_FAIL


# --- experiment --------------------------------------------------------------


def _experiment_bipartite_lemma(args, rec: _Records) -> bool:
    fam = gen_bipartite(args.k)
    if args.spot_check is not None and args.seed is None:
        raise MimicknetError("--spot-check sampling requires --seed")
    rep = verify_bipartite_lemma(fam, args.spot_check, args.seed or 0)
    for r in rep.checked:
        rec.add(
            "bipartite-min-cut-side-and-uniqueness",
            f"k={args.k} subset={r.subset}",
            "side={u_S} U complement, unique",
            f"side_ok={r.side_ok} unique={r.unique} ineq={r.inequalities_ok} value={format_value(r.value)}",
            r.ok,
        )
        print(f"subset {r.subset}: value {format_value(r.value)} {'PASS' if r.ok else 'FAIL'}")
    return rep.ok


def _experiment_grid_lemma(args, rec: _Records) -> bool:
    fam = gen_grid(args.k)
    rep = verify_grid_lemma(fam, oracle=args.oracle)
    for r in rep.checked:
        rec.add(
            "grid-staircase-cut",
            f"k={args.k} i={r.i} j={r.j}",
            format_value(r.expected),
            f"value={format_value(r.value)} side_ok={r.side_ok} cutset_ok={r.cutset_ok} unique={r.unique}",
            r.ok,
        )
        print(f"cut ({r.i},{r.j}): value {format_value(r.value)} {'PASS' if r.ok else 'FAIL'}")
    return rep.ok


def _experiment_rank(args, rec: _Records) -> bool:
    fam = gen_bipartite(args.k) if args.family == "bipartite" else gen_grid(args.k)
    rep = verify_rank_bounds(fam)
    rec.add(
        "incidence-rank-bound",
        f"{rep.family} k={rep.k}",
        f">= {rep.bound}",
        f"rank={rep.rank} submatrix_ok={rep.submatrix_ok}",
        rep.ok,
    )
    print(f"rank >= {rep.bound}: observed {rep.rank} -> {'PASS' if rep.ok else 'FAIL'}")
    if rep.submatrix_ok is not None:
        print(f"lower-triangular submatrix: {'PASS' if rep.submatrix_ok else 'FAIL'}")
    return rep.ok


def _experiment_bounds(args, rec: _Records) -> bool:
    """The planar structural bounds on every canonical cutset, on sampled
    pairs of them, and the class-face correspondence.  Each row's cutset
    is its row of the table's cut matrix.  Every cutset and pair union is a
    subset of the union U of all of them, whose components
    ``build_by_contraction`` already found with one search: the components
    of the network minus any C ⊆ U are those of the quotient by those
    classes minus C (:class:`network.Quotient`), so no count searches the
    network itself."""
    net, emb = load_network(args.input)
    if emb is None:
        raise MimicknetError("bounds experiment needs rotation lines in the input")
    dual = build_dual(emb)
    bps = enumerate_bipartitions(net.k)
    result = build_by_contraction(net)
    cut = result.cuts.cut_matrix
    quotient = Quotient(net, result.contraction_map)
    singles = quotient.component_counts(cut)
    ok = True
    for bp, cc in zip(bps, singles):
        rep = BoundReport.of(net.k, (cc,))
        ok &= rep.ok
        rec.add("single-cutset-components", f"mask={bp.mask:b}", f"<= {net.k}", cc, rep.ok)
    rng = random.Random(args.seed)
    pairs = [(rng.randrange(len(bps)), rng.randrange(len(bps))) for _ in range(args.pairs)]
    unions = cut[[a for a, _ in pairs]] | cut[[b for _, b in pairs]]
    for (a, b), union, cc in zip(pairs, unions, quotient.component_counts(unions)):
        meeting = meeting_vertices(dual, np.flatnonzero(union).tolist())
        rep = BoundReport.of(net.k, (singles[a], singles[b]), cc, meeting)
        ok &= rep.ok
        rec.add(
            "two-cutset-components-and-meeting-vertices",
            f"masks={bps[a].mask:b},{bps[b].mask:b}",
            f"cc <= {singles[a]}+{singles[b]}+{net.k}, meeting <= {6 * net.k}",
            f"cc={cc} meeting={meeting}",
            rep.ok,
        )
    faces = faces_of_subgraph(dual.embedding, result.cuts.union)
    size_ok = result.stats.class_count == faces
    ok &= size_ok
    rec.add(
        "component-face-correspondence",
        args.input,
        "classes == dual faces",
        f"{result.stats.class_count} == {faces}",
        size_ok,
    )
    print(f"bounds: {'PASS' if ok else 'FAIL'} ({len(rec.rows)} claims)")
    return ok


def _experiment_tc_collision(args, rec: _Records) -> bool:
    if args.seed is None:
        raise MimicknetError("tc-collision requires --seed")
    fam = gen_bipartite(args.k)
    rep = tc_collision_family(fam, args.samples, args.seed)
    rec.add(
        "distinct-cost-functions-distinguished",
        f"bipartite k={args.k} samples={args.samples} seed={args.seed}",
        "no cut-value collisions",
        f"collisions={len(rep.collisions)} subset_rows_stable={rep.subset_rows_stable} "
        f"gap={format_value(rep.gap)} step={format_value(rep.step)}",
        rep.ok,
    )
    print(
        f"tc-collision: {rep.pairs_checked} pairs, {len(rep.collisions)} collisions, "
        f"subset rows stable: {rep.subset_rows_stable} -> {'PASS' if rep.ok else 'FAIL'}"
    )
    return rep.ok


def _cmd_experiment(args) -> int:
    params = {k: v for k, v in vars(args).items() if k not in ("func", "records") and v is not None}
    rec = _Records(args.records, f"experiment {args.name}", params)
    runner = {
        "bipartite-lemma": _experiment_bipartite_lemma,
        "grid-lemma": _experiment_grid_lemma,
        "rank": _experiment_rank,
        "bounds": _experiment_bounds,
        "tc-collision": _experiment_tc_collision,
    }[args.name]
    ok = runner(args, rec)
    rec.flush()
    print(f"experiment {args.name}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


# --- tc ----------------------------------------------------------------------


def _parse_terminal_set(text: str, k: int) -> list[int]:
    indices = []
    for token in text.replace(",", " ").split():
        token = token.strip()
        if token.startswith("q"):
            token = token[1:]
        try:
            pos = int(token)
        except ValueError as exc:
            raise MimicknetError(f"bad terminal {token!r} (use q1..q{k})") from exc
        if not (1 <= pos <= k):
            raise MimicknetError(f"terminal q{pos} out of range 1..{k}")
        indices.append(pos - 1)
    return indices


def _cmd_tc(args) -> int:
    if args.action == "build":
        net, _ = load_network(args.input)
        store = preprocess(net)
        with open(args.out, "wb") as fh:
            fh.write(serialize(store))
        rep = storage_report(store)
        print(
            f"tc build: {rep.entries} values, {rep.value_bits} bits each, "
            f"{rep.words} words (bound {rep.bound_words})",
            file=sys.stderr,
        )
        return EXIT_OK
    with open(args.store, "rb") as fh:
        store = deserialize(fh.read())
    indices = _parse_terminal_set(args.set, store.k)
    value = query(store, indices)
    print(format_value(value))
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimicknet",
        description="Compress k-terminal networks into cut-preserving mimicking networks "
        "and run the structural and lower-bound experiments.",
    )
    parser.add_argument("--version", action="version", version=f"mimicknet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("family", choices=["bipartite", "grid", "star", "random-planar"])
    p_gen.add_argument("--k", type=int, required=True, help="terminal count (grid: side length)")
    p_gen.add_argument("--n", type=int, help="vertex count (random-planar)")
    p_gen.add_argument("--seed", type=int, help="rng seed (random-planar)")
    p_gen.add_argument("--extra-edges", type=int, help="edges beyond the spanning tree")
    p_gen.add_argument("-o", "--out", help="output file (default stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_comp = sub.add_parser("compress", help="build a verified mimicking network")
    p_comp.add_argument("input")
    p_comp.add_argument("--method", choices=["contract", "signature"], default="contract")
    p_comp.add_argument("-o", "--out", help="output network file (default stdout)")
    p_comp.add_argument("--map-out", help="contraction-map sidecar file")
    p_comp.set_defaults(func=_cmd_compress)

    p_ver = sub.add_parser("verify", help="compare terminal cut values of two networks")
    p_ver.add_argument("original")
    p_ver.add_argument("candidate")
    p_ver.add_argument("--generalized", action="store_true", help="also check disjoint subset pairs")
    p_ver.set_defaults(func=_cmd_verify)

    p_exp = sub.add_parser("experiment", help="run a verification experiment")
    p_exp.add_argument(
        "name", choices=["bipartite-lemma", "grid-lemma", "rank", "bounds", "tc-collision"]
    )
    p_exp.add_argument("--k", type=int, help="family parameter")
    p_exp.add_argument("--family", choices=["bipartite", "grid"], help="for: rank")
    p_exp.add_argument("--input", help="network file (for: bounds)")
    p_exp.add_argument("--pairs", type=int, default=50, help="sampled cutset pairs (bounds)")
    p_exp.add_argument("--samples", type=int, default=100, help="sampled pairs (tc-collision)")
    p_exp.add_argument("--spot-check", type=int, help="sample size (bipartite-lemma)")
    p_exp.add_argument("--oracle", action="store_true", help="exhaustive cross-check (grid-lemma)")
    p_exp.add_argument("--seed", type=int, help="rng seed for sampling commands")
    p_exp.add_argument("--records", help="write machine-readable claim records (JSON lines)")
    p_exp.set_defaults(func=_cmd_experiment)

    p_tc = sub.add_parser("tc", help="terminal-cuts store")
    tc_sub = p_tc.add_subparsers(dest="action", required=True)
    tc_build = tc_sub.add_parser("build", help="preprocess a network into a store")
    tc_build.add_argument("input")
    tc_build.add_argument("-o", "--out", required=True)
    tc_build.set_defaults(func=_cmd_tc)
    tc_query = tc_sub.add_parser("query", help="answer one terminal subset")
    tc_query.add_argument("store")
    tc_query.add_argument("--set", required=True, help="comma-separated terminals, e.g. q2,q3")
    tc_query.set_defaults(func=_cmd_tc)

    return parser


def _validate(args) -> None:
    if args.command == "gen":
        if args.family == "random-planar":
            if args.n is None:
                raise MimicknetError("gen random-planar requires --n")
        else:
            for flag in ("n", "seed", "extra_edges"):
                if getattr(args, flag) is not None:
                    raise MimicknetError(f"gen {args.family} does not take --{flag.replace('_', '-')}")
    if args.command == "experiment":
        if args.name in ("bipartite-lemma", "grid-lemma", "rank", "tc-collision") and args.k is None:
            raise MimicknetError(f"experiment {args.name} requires --k")
        if args.name == "rank" and args.family is None:
            raise MimicknetError("experiment rank requires --family")
        if args.name == "bounds":
            if args.input is None:
                raise MimicknetError("experiment bounds requires --input")
            if args.seed is None:
                raise MimicknetError("experiment bounds requires --seed")
            if args.pairs < 0:
                raise MimicknetError(f"--pairs must be >= 0, got {args.pairs}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except (MimicknetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
