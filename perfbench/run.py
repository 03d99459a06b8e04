#!/usr/bin/env python3
"""Benchmark entry point: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload planar-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The workloads, metrics and bounds are in ``BENCHMARK.json``.  Each run
starts the workload in fresh single-threaded interpreters
(``perfbench/workload.py``) with the checkout's ``src`` on ``PYTHONPATH``:
two that only set up, then the measured one, so ``setup_s`` is the median
of three set-ups from interpreter start and ``peak_rss_mb`` belongs to the
workload alone.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  End-to-end times are normalized for machine-speed
drift (see ``perfbench/speed.py``); raw ones are in the detail line.

Output: a line of run metadata, a line of detail (percentiles and sample
counts of every timing, per-pass output digests, failures by kind, the
big-integer share of perturbed instances; with ``--trace 1`` self time and
calls per span name, and the file under ``.perfbench-work/`` holding every
span), then the result line.

``--smoke`` runs every workload in both modes at tiny sizes and checks that
each metric named in ``BENCHMARK.json`` is produced with its unit and that
no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[knob] = "1"
    return env


def spawn(args: list[str], timeout: float) -> dict:
    """Run the workload script; returns its JSON, with ``setup_s``: set-up
    seconds from interpreter start, normalized by the child's speed
    samples (end-to-end runs only)."""
    started = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workload.py"), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise RunError(f"workload did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"workload exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    if "setup_rate" in out:
        out["setup_s"] = (out["setup_end"] - started - out["setup_handler_s"]) * out["setup_rate"]
    return out


def expected_metrics(bench: dict, trace: int) -> dict[str, str]:
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run_once(bench: dict, workload: str, seed: int, seconds: float, trace: int, sizes: str) -> tuple[dict, dict]:
    """One measured run; returns (result line, detail)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--sizes", sizes]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(base + ["--setup-only"], deadline - time.monotonic())["setup_s"])
    out = spawn(base, deadline - time.monotonic())
    if not trace:
        setups.append(out["setup_s"])

    metrics = dict(out["metrics"])
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": out["peak_rss_mb"], "unit": "MB"}
    want = expected_metrics(bench, trace)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        raise RunError(f"metrics differ from BENCHMARK.json: produced {sorted(got.items())}")
    detail = {
        "setup_samples_s": setups,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "errors": out["errors"],
        "perturbed": out["perturbed"],
        "timings": out.get("timings"),
        "speed_samples": out.get("speed_samples"),
        "digests": out.get("digests"),
        "passes": out.get("passes"),
        "spans": out.get("spans"),
        "spans_file": out.get("spans_file"),
    }
    line = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: metrics[name] for name in want},
    }
    return {"meta": out["meta"], "line": line}, detail


def smoke(bench: dict) -> int:
    bad = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            try:
                result, detail = run_once(bench, w["name"], 1, 1, trace, "smoke")
                line = result["line"]
                if not line["correct"]:
                    raise RunError(f"{line['failed']} of {line['attempted']} operations failed: {detail['errors']}")
                print(f"smoke {w['name']} trace={trace}: ok ({line['attempted']} operations)")
            except RunError as exc:
                bad += 1
                print(f"smoke {w['name']} trace={trace}: FAILED {exc}")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "mimicknet", "__init__.py")):
        print(f"error: no mimicknet sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.smoke:
        return smoke(bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must be in (0, 60]")
    try:
        result, detail = run_once(bench, args.workload, args.seed, args.seconds, args.trace, "full")
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": result["meta"]}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
