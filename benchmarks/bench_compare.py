"""Perf-trajectory gate: compare two benchmark JSON artifacts.

The ``bench-smoke`` CI job uploads the execution-layer timings of every
commit (``BENCH_grid_build.json`` and ``BENCH_hier_round.json``); this
script turns that stream of artifacts into a *tracked trajectory* by
comparing the current run against the previous one and failing on a
regression beyond the allowed band.

The gated sections are the pure-NumPy hot paths, the stablest timings in
each artifact:

* ``grid_build.<family>.batch_seconds`` — the vectorised strategy-table
  build per closed-form family and for the multilinear corner search
  (``vertex``),
* ``bid_batch.batch_seconds`` — whole-population bid pricing,
* ``round.seconds`` — one full auction round through the mechanism,
* ``hier_round.<n>.seconds`` — one full two-tier hierarchical round per
  population size (``bench_hierarchical.py``),
* ``learn.<name>.seconds`` — a fixed-episode learned-bidder training run
  per ``BID_LEARNERS`` entry (``bench_learner.py``).

Artifacts with a ``coordinator`` section (``bench_coordinator.py``) get
the ``coord:*`` gates: the warm service sweep must stay under 2x warm
serial, and every non-serial tier must have landed byte-identical
manifests.  These are *absolute* bounds on the current artifact (the
tiers train models, so their raw seconds are too noisy for the relative
trajectory band); the per-tier overheads are still printed against the
previous artifact so the trajectory stays visible.

The sweep section trains neural nets and the flat-round baseline of the
hierarchical bench walks agents in Python — both are reported but not
gated.  A missing/corrupt previous artifact is not an error: the first
run of a branch has nothing to compare against, and a newly-added gate
starts its own trajectory.

Usage::

    python benchmarks/bench_compare.py PREVIOUS.json CURRENT.json \
        [--max-regression 0.20]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_MAX_REGRESSION = 0.20
# Millisecond-scale timings swing wildly across hosted runners; below this
# absolute slack a relative band alone would flake on machine noise.
DEFAULT_ABS_EPSILON_SECONDS = 0.01


def load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"note: cannot read {path}: {exc}")
        return None


def _gated_timings(data: dict) -> dict[str, float]:
    """The gated ``label -> seconds`` entries present in an artifact.

    Labels are stable across commits so old and new artifacts align:
    ``grid:<family>`` per grid-build family, plus ``bid_batch`` and
    ``round``, plus ``hier:<n>`` per population size of the hierarchical
    bench and ``learn:<name>`` per trained ``BID_LEARNERS`` entry
    (absent in pre-extension artifacts — tolerated, each gate starts its
    own trajectory).
    """
    out: dict[str, float] = {}
    for family, row in sorted(data.get("grid_build", {}).items()):
        out[f"grid:{family}"] = float(row["batch_seconds"])
    if "bid_batch" in data:
        out["bid_batch"] = float(data["bid_batch"]["batch_seconds"])
    if "round" in data:
        out["round"] = float(data["round"]["seconds"])
    for n, row in sorted(
        data.get("hier_round", {}).items(), key=lambda kv: int(kv[0])
    ):
        out[f"hier:{n}"] = float(row["seconds"])
    for name, row in sorted(data.get("learn", {}).items()):
        out[f"learn:{name}"] = float(row["seconds"])
    return out


def compare(
    previous: dict,
    current: dict,
    max_regression: float,
    abs_epsilon: float = DEFAULT_ABS_EPSILON_SECONDS,
) -> list[str]:
    """Human-readable comparison rows; returns the list of failures.

    A gated timing regresses when it exceeds the relative band *and* the
    absolute slack: ``cur > prev * (1 + max_regression) + abs_epsilon``.
    The epsilon keeps millisecond-scale timings from flaking on runner
    noise (the bench itself already takes best-of-N per artifact).
    """
    failures: list[str] = []
    prev_gated = _gated_timings(previous)
    cur_gated = _gated_timings(current)
    print(f"{'timing':<16} {'previous':>10} {'current':>10} {'ratio':>7}  verdict")
    for label, cur_s in cur_gated.items():
        prev_s = prev_gated.get(label)
        if prev_s is None:
            print(f"{label:<16} {'-':>10} {cur_s:>10.4f} {'-':>7}  new gate")
            continue
        ratio = cur_s / prev_s if prev_s > 0 else float("inf")
        regressed = cur_s > prev_s * (1.0 + max_regression) + abs_epsilon
        verdict = "REGRESSED" if regressed else "ok"
        print(f"{label:<16} {prev_s:>10.4f} {cur_s:>10.4f} {ratio:>7.2f}  {verdict}")
        if regressed:
            failures.append(
                f"{label}: {prev_s:.4f}s -> {cur_s:.4f}s "
                f"({ratio:.2f}x > {1 + max_regression:.2f}x allowed "
                f"+ {abs_epsilon}s slack)"
            )
    # Sweep timings: reported for the trajectory, never gated (they train
    # models and swing with CI machine load).
    for name, row in sorted(current.get("sweep", {}).items()):
        prev_row = previous.get("sweep", {}).get(name, {})
        prev_s = prev_row.get("seconds")
        prev_txt = f"{prev_s:.3f}s" if isinstance(prev_s, (int, float)) else "-"
        print(f"sweep:{name:<11} {prev_txt:>9} -> {row['seconds']:.3f}s (informational)")
    # Coordination tiers (bench_coordinator.py): overhead-vs-serial per
    # tier, with the absolute coord:* bounds checked on the current run.
    coord = current.get("coordinator", {})
    prev_coord = previous.get("coordinator", {})
    for name, row in sorted(coord.items()):
        if not isinstance(row, dict) or "overhead" not in row:
            continue
        prev = prev_coord.get(name, {}).get("overhead")
        prev_txt = f"{prev:.2f}x" if isinstance(prev, (int, float)) else "-"
        print(
            f"coord:{name:<13} {prev_txt:>8} -> {row['overhead']:.2f}x serial "
            f"({row['seconds']:.3f}s)"
        )
    if coord:
        from bench_coordinator import gate_failures

        failures.extend(gate_failures(coord))
    # The hierarchical bench's flat baseline walks agents in Python —
    # reported so the speedup stays visible, never gated.
    flat = current.get("flat_round")
    if flat is not None:
        prev_s = previous.get("flat_round", {}).get("seconds")
        prev_txt = f"{prev_s:.3f}s" if isinstance(prev_s, (int, float)) else "-"
        print(
            f"flat_round:{flat['n']:<6} {prev_txt:>9} -> "
            f"{flat['seconds']:.3f}s (informational)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("previous", type=Path, help="previous BENCH_grid_build.json")
    parser.add_argument("current", type=Path, help="current BENCH_grid_build.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        help="allowed fractional slowdown of grid-build batch_seconds "
        f"(default {DEFAULT_MAX_REGRESSION:.0%})",
    )
    parser.add_argument(
        "--abs-epsilon",
        type=float,
        default=DEFAULT_ABS_EPSILON_SECONDS,
        help="absolute slack in seconds added to the relative band "
        f"(default {DEFAULT_ABS_EPSILON_SECONDS}s; deflakes ms-scale timings)",
    )
    args = parser.parse_args(argv)
    if args.max_regression < 0:
        parser.error("--max-regression must be >= 0")
    if args.abs_epsilon < 0:
        parser.error("--abs-epsilon must be >= 0")

    current = load(args.current)
    if current is None:
        print("FAILED: current benchmark artifact is unreadable", file=sys.stderr)
        return 1
    previous = load(args.previous)
    if previous is None:
        print("no previous artifact; trajectory starts at this commit")
        return 0

    failures = compare(
        previous, current, args.max_regression, abs_epsilon=args.abs_epsilon
    )
    if failures:
        print("\nFAILED perf trajectory:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nperf trajectory ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
