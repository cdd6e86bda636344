"""FMore end-to-end benchmark: one command, three workloads, a traced run.

Run one workload, one fresh process per run::

    python3 perfbench/run.py --workload flat_cnn --seed 0 --seconds 30 --trace 0

or every workload in turn, each in its own fresh process::

    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload twice — half the budget untraced, half with every hook in
``layers.HOOKS`` installed — and prints the per-layer metrics plus the
tracing overhead.  Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, preceded by a
readable table and an ``env`` line (CPU count, BLAS and its thread count,
Python/numpy versions, commit, a fixed calibration timing).  BLAS is
pinned to one thread before numpy loads, and the service worker inherits
the pin, so at most two processes are busy at once.

Exit codes: 0 with a result (``correct`` says whether the output checks
passed), 2 when the program's source tree is missing, 1 on a crash.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: Pinned before numpy loads; child processes inherit them.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("flat_cnn", "hier_1e5", "service_lstm")
#: A round-latency percentile is reported with this many samples beyond it.
TAIL_SAMPLES = 10


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports (None when not found)."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for path in {line.split()[-1] for line in maps if "openblas" in line.lower()}:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _calibration() -> dict[str, float]:
    """Fixed work timed once per run: a drift diagnostic, not a metric."""
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    python_s = time.perf_counter() - t0
    a = np.random.default_rng(0).standard_normal((256, 256))
    t0 = time.perf_counter()
    for _ in range(50):
        a @ a
    return {"python_loop_s": python_s, "gemm_256_x50_s": time.perf_counter() - t0}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "calibration": _calibration(),
    }


# ----------------------------------------------------------------------
# Segments -> metrics
# ----------------------------------------------------------------------
def end_to_end(seg) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced segment, plus sample counts."""
    import numpy as np

    from workloads import peak_rss_mb

    rounds_ms = 1000.0 * np.asarray(seg.round_s)
    # The auction cells carry the accuracy signal: a baseline cell's final
    # accuracy (RandFL, FixFL) is a seed lottery on the LSTM workload.
    fmore = [acc for cell, acc in seg.final_accuracy.items() if cell.startswith("FMore-")]
    p90 = float(np.percentile(rounds_ms, 90))
    metrics = {
        "setup_s": (float(np.median(seg.setup_s)), "s"),
        "rounds_per_s": (seg.rounds / seg.busy_s, "rounds/s"),
        "round_p50_ms": (float(np.percentile(rounds_ms, 50)), "ms"),
        "round_p90_ms": (p90, "ms"),
        "cell_p50_s": (float(np.median(seg.cell_s)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "final_accuracy": (float(np.mean(fmore)), "fraction"),
    }
    samples = {
        "setups": len(seg.setup_s),
        "rounds": len(seg.round_s),
        "rounds_beyond_p90": int((rounds_ms > p90).sum()),
        "cells": len(seg.cell_s),
        "final_accuracy": seg.final_accuracy,
        "digests": {cell: digest[:16] for cell, digest in seg.digests.items()},
    }
    if seg.drain_s:
        samples["drain_s"] = seg.drain_s
    if samples["rounds_beyond_p90"] < TAIL_SAMPLES:
        print(f"perfbench: round_p90_ms has only {samples['rounds_beyond_p90']} samples "
              f"beyond it (< {TAIL_SAMPLES}); the tail is not resolved", file=sys.stderr)
    return metrics, samples


def per_layer(workload: str, plain, traced) -> tuple[dict, dict]:
    """Per-layer metrics of a traced segment, with overhead and coverage."""
    from statistics import median

    from layers import EXPECTED, PER_LAYER
    from tracing import layer_metrics, top_level_coverage

    # On the service workload the worker traces come first and the last
    # trace is this process's (its history loads only), so coverage is
    # judged on the processes that do the work.
    working = traced.traces[:-1] if workload == "service_lstm" else traced.traces
    coverage = min(top_level_coverage(t) for t in working)
    external = {
        "trace.overhead_pct": 100.0 * (median(traced.round_s) / median(plain.round_s) - 1.0),
        "trace.top_level_coverage_pct": 100.0 * coverage,
        "coordinator.first_claim_s": 0.0,
        "coordinator.drain_s": 0.0,
        "coordinator.requeue_n": float(plain.requeues + traced.requeues),
    }
    if workload == "service_lstm":
        external["coordinator.first_claim_s"] = median(traced.setup_s)
        external["coordinator.drain_s"] = median(plain.drain_s + traced.drain_s)
    metrics, absent = layer_metrics(traced.traces, PER_LAYER, EXPECTED[workload], external)
    if coverage < 0.9:
        print(f"perfbench: top-level spans cover only {100 * coverage:.1f}% of the "
              "traced wall time", file=sys.stderr)
    return metrics, {"absent": absent, "spans": sum(len(t["spans"]) for t in traced.traces)}


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run the workload; returns ``(segments, metrics, diagnostics)``."""
    import workloads
    from tracing import Tracer, write_trace

    if workload == "service_lstm":
        def body(budget, tracer, first_pass):
            return workloads.run_service(seed, budget, work, tracer, first_pass)
    else:
        make = workloads.flat_scenario if workload == "flat_cnn" else workloads.hier_scenario

        def body(budget, tracer, first_pass):
            return workloads.run_sessions(make, seed, budget, tracer, first_pass)

    if not trace:
        seg = body(seconds, None, True)
        metrics, diag = end_to_end(seg)
        return [seg], metrics, diag
    # The traced run reports no accuracy, so its halves need not cover
    # every seed; that keeps it near the untraced run's length.
    plain = body(seconds / 2.0, None, False)
    traced = body(seconds / 2.0, Tracer(), False)
    if any(traced.digests[k] != plain.digests[k] for k in traced.digests.keys() & plain.digests):
        traced.problems.append("the traced half produced different results than the untraced half")
    metrics, diag = per_layer(workload, plain, traced)
    for i, t in enumerate(traced.traces):
        write_trace(WORK / "traces" / f"{workload}-{i}.json", t)
    return [plain, traced], metrics, diag


def run_one(args) -> int:
    work = WORK / f"run-{os.getpid()}"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        segments, metrics, diag = measure(
            args.workload, args.seed, float(args.seconds), bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = [p for seg in segments for p in seg.problems]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for name in diag.get("absent", ()):
        print(f"perfbench: per-layer metric absent: {name}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print("samples " + json.dumps(diag))
    print("env " + json.dumps(environment()))
    result = {
        "correct": not problems,
        "attempted": sum(seg.attempted for seg in segments),
        "failed": sum(seg.failed for seg in segments),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; prints a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="FMore end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
