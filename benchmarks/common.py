"""Shared helpers for the figure-regeneration benchmarks.

Every ``bench_figXX`` module regenerates one figure of the paper's
evaluation at ``bench`` scale: it runs the experiment once inside
pytest-benchmark (so the harness reports its cost), prints the same series
the paper plots, and appends a paper-vs-measured block.  All output is also
written to ``results/<name>.txt`` so the series survive pytest's output
capture; EXPERIMENTS.md indexes those files.

Scale note: the synthetic datasets reproduce the paper's *relative*
behaviour (scheme ordering, speed-ups, monotonicities), not its absolute
accuracies; each bench therefore reports rounds-to-target at targets picked
on our tasks' accuracy scale, next to the paper's own numbers.
"""

from __future__ import annotations

import os
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"

# Seeds averaged by the heavy FL benches.  The paper averages five runs;
# default to two here for bench-time sanity, override with REPRO_BENCH_SEEDS.
BENCH_SEEDS = tuple(
    int(s) for s in os.environ.get("REPRO_BENCH_SEEDS", "1,2").split(",")
)


def emit(name: str, text: str) -> None:
    """Print a report block and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n"
    print(banner + text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, fn):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def fmt_curve(values, digits: int = 3):
    return [round(float(v), digits) for v in values]
