"""Execution-layer benchmark: grid build, bid batching, round loop, sweeps.

Four timings feed the performance trajectory of the execution layer (the
first three are *gated* by ``bench_compare.py`` — a >20% regression
against the previous CI artifact fails the build; the sweep section is
informational):

* **grid build** — ``optimize_quality_batch`` versus a per-point loop at
  the paper's ``grid_size=257``: for each closed-form family (additive
  scoring with linear/quadratic/power costs) against ``optimize_quality``,
  and for the paper's multilinear Section V-A game (``vertex``: ``25 q1
  q2 - theta (4 q1 + 2 q2)`` on the paper preset's box) against the
  multi-start L-BFGS-B optimiser the corner search replaced.  The batch
  pass must be bitwise-identical and at least 5x faster — that bound is
  *asserted*, not just reported.
* **bid batch** — ``EquilibriumSolver.bid_batch`` pricing a whole
  population's capacity-capped bids in one call, versus the per-agent
  ``bid_with_capacity`` loop, at the paper's population (N=100, K=20).
* **round** — one full auction round (bid ask, batched bid collection,
  winner determination, payments) through ``FMoreMechanism.run_round``
  with solver-backed agents.  Pure NumPy — the steadiest end-to-end
  protocol timing we can gate.
* **sweep** — one tiny multi-seed scenario run through each registered
  executor (serial/process/service — the last queued in a throwaway
  store, timing the full enqueue + spawned-worker path), recording
  wall-clock seconds and verifying the histories agree.

Run standalone (writes ``BENCH_grid_build.json`` for the CI artifact)::

    PYTHONPATH=src python benchmarks/bench_grid_build.py --quick

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_grid_build.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_grid_build.json"

GRID_SIZE = 257
MIN_SPEEDUP = 5.0


def _families():
    """``(name, rule, cost, bounds, per-point reference)`` per gated row."""
    from repro.core.costs import LinearCost, PowerCost, QuadraticCost
    from repro.core.equilibrium import _multi_start_quality, optimize_quality
    from repro.core.scoring import AdditiveScore, MultiplicativeScore

    rule = AdditiveScore([0.4, 0.3, 0.3])
    unit_cube = np.asarray([[0.0, 1.0]] * 3, dtype=float)
    closed_forms = [
        ("linear", LinearCost([0.25, 0.25, 0.5])),
        ("quadratic", QuadraticCost([0.25, 0.25, 0.5])),
        ("power", PowerCost([0.25, 0.25, 0.5], [1.0, 1.5, 2.5])),
    ]
    rows = [
        (name, rule, cost, unit_cube, optimize_quality) for name, cost in closed_forms
    ]
    # The paper's default game on the paper preset's box, against the
    # multi-start optimiser its corner search replaced.
    rows.append(
        (
            "vertex",
            MultiplicativeScore(2, 25.0),
            LinearCost([4.0, 2.0]),
            np.asarray([[0.01, 5.0], [0.05, 1.0]], dtype=float),
            _multi_start_quality,
        )
    )
    return rows


def time_grid_build(repeats: int = 5) -> dict:
    """Loop-vs-batch timings per gated family (best of ``repeats``)."""
    from repro.core.equilibrium import optimize_quality_batch

    thetas = np.linspace(0.1, 1.0, GRID_SIZE)
    out: dict[str, dict] = {}
    for name, rule, cost, bounds, per_point in _families():
        batch = optimize_quality_batch(rule, cost, thetas, bounds)
        loop = np.stack([per_point(rule, cost, float(t), bounds) for t in thetas])
        bitwise_equal = bool((batch == loop).all())

        def best_of(fn):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        loop_s = best_of(
            lambda: [per_point(rule, cost, float(t), bounds) for t in thetas]
        )
        batch_s = best_of(lambda: optimize_quality_batch(rule, cost, thetas, bounds))
        out[name] = {
            "grid_size": GRID_SIZE,
            "loop_seconds": loop_s,
            "batch_seconds": batch_s,
            "speedup": loop_s / batch_s,
            "bitwise_equal": bitwise_equal,
        }
    return out


def _best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _population(n_agents: int):
    """A deterministic (thetas, capacities) population of the paper's game."""
    from repro.api import Scenario, build_solver
    from repro.sim.rng import rng_from

    solver = build_solver(
        Scenario.from_preset("bench", "mnist_o"), n_clients=100, k_winners=20
    )
    rng = rng_from(0, "bench-bid-batch")
    thetas = rng.uniform(0.1, 1.0, n_agents)
    capacities = np.column_stack(
        [rng.uniform(0.2, 5.0, n_agents), rng.uniform(0.05, 1.0, n_agents)]
    )
    return solver, thetas, capacities


def time_bid_batch(repeats: int = 5, n_agents: int = 100) -> dict:
    """Vectorised population pricing vs the per-agent loop (best of N).

    ``batch_seconds`` is the gated trajectory number; the loop timing is
    recorded so the artifact also tracks the speedup.
    """
    solver, thetas, capacities = _population(n_agents)
    solver.bid_batch(thetas, capacities, with_costs=True)  # warm the tables

    def loop():
        for theta, cap in zip(thetas, capacities):
            solver.bid_with_capacity(float(theta), cap)

    loop_s = _best_of(loop, repeats)
    batch_s = _best_of(
        lambda: solver.bid_batch(thetas, capacities, with_costs=True), repeats
    )
    return {
        "n_agents": n_agents,
        "loop_seconds": loop_s,
        "batch_seconds": batch_s,
        "speedup": loop_s / batch_s,
    }


def time_round(repeats: int = 5, n_agents: int = 100) -> dict:
    """One full protocol round (steps 1-3 of Algorithm 1), best of N.

    Model-free: solver-backed agents bid through the batched collection
    path and the auction determines winners/payments, so the timing
    tracks the whole per-round auction hot path without FL training
    noise.
    """
    from repro.core.auction import MultiDimensionalProcurementAuction
    from repro.core.mechanism import FMoreMechanism
    from repro.mec.node import EdgeNode
    from repro.mec.resources import ResourceProfile, UniformAvailabilityDynamics
    from repro.sim.rng import rng_from

    solver, thetas, _ = _population(n_agents)
    data_rng = rng_from(0, "bench-round-data")
    agents = [
        EdgeNode(
            node_id=i,
            theta=float(t),
            solver=solver,
            profile=ResourceProfile(
                data_size=int(data_rng.integers(200, 5000)),
                category_proportion=float(data_rng.uniform(0.05, 1.0)),
            ),
            dynamics=UniformAvailabilityDynamics(0.35),
            theta_jitter=0.2,
        )
        for i, t in enumerate(thetas)
    ]
    auction = MultiDimensionalProcurementAuction(solver.quality_rule, 20)

    def one_round():
        # Fresh mechanism + fresh rng per call: identical draws every
        # repeat, and the mechanism history never grows across timings.
        FMoreMechanism(auction).run_round(agents, 1, rng_from(0, "bench-round"))

    one_round()  # warm any lazy state
    seconds = _best_of(one_round, repeats)
    return {"n_agents": n_agents, "k_winners": 20, "seconds": seconds}


def time_sweeps(quick: bool = True) -> dict:
    """Wall-clock of one multi-seed plan per executor (identical results)."""
    from repro.api import EXECUTORS, FMoreEngine, Scenario

    scenario = Scenario.from_preset(
        "smoke",
        "mnist_o",
        schemes=("FMore", "RandFL"),
        seeds=(0, 1) if quick else (0, 1, 2, 3),
        n_rounds=1 if quick else 3,
    )
    out: dict[str, dict] = {}
    reference = None
    # Serial first: it is the bitwise reference the others must match.
    names = ["serial"] + [n for n in EXECUTORS.names() if n != "serial"]
    for name in names:
        execution: dict = {"executor": name, "max_workers": 2}
        run_kwargs: dict = {}
        tmp_store = None
        if name == "service":
            # The store-coordinated executor schedules through a store;
            # give it a throwaway one so the timing covers the whole
            # enqueue -> spawn workers -> manifests path.
            execution["poll_interval"] = 0.1
            tmp_store = tempfile.TemporaryDirectory(prefix=f"bench-{name}-store-")
            run_kwargs["store"] = tmp_store.name
        plan = scenario.with_(execution=execution)
        try:
            t0 = time.perf_counter()
            result = FMoreEngine().run(plan, **run_kwargs)
            seconds = time.perf_counter() - t0
        finally:
            if tmp_store is not None:
                tmp_store.cleanup()
        flat = {
            scheme: [record for h in hists for record in h.records]
            for scheme, hists in result.histories.items()
        }
        if reference is None:
            reference = flat
        out[name] = {
            "seconds": seconds,
            "cells": len(plan.schemes) * len(plan.seeds),
            "matches_serial": flat == reference,
        }
    return out


def run(quick: bool = True, out_path: Path | None = None) -> dict:
    repeats = 3 if quick else 7
    grid = time_grid_build(repeats=repeats)
    bid_batch = time_bid_batch(repeats=repeats)
    round_timing = time_round(repeats=repeats)
    sweep = time_sweeps(quick=quick)
    payload = {
        "bench": "grid_build",
        "quick": quick,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "grid_build": grid,
        "bid_batch": bid_batch,
        "round": round_timing,
        "sweep": sweep,
    }
    if out_path is not None:
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_grid_build_batch_5x_and_bitwise():
    """Acceptance: >=5x at grid_size=257 and bitwise-equal, every family."""
    grid = time_grid_build(repeats=3)
    for name, row in grid.items():
        assert row["bitwise_equal"], f"{name}: batch differs from loop"
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{name}: {row['speedup']:.1f}x < {MIN_SPEEDUP}x "
            f"(loop {row['loop_seconds']:.4f}s vs batch {row['batch_seconds']:.4f}s)"
        )


def test_sweep_executors_agree():
    sweep = time_sweeps(quick=True)
    assert set(sweep) >= {"serial", "process", "service"}
    for name, row in sweep.items():
        assert row["matches_serial"], f"{name} diverged from serial"


def test_bid_batch_section_tracks_speedup():
    """The gated bid-batch timing exists and the batch path stays >=5x."""
    row = time_bid_batch(repeats=3)
    assert row["batch_seconds"] > 0
    assert row["speedup"] >= MIN_SPEEDUP, (
        f"bid_batch {row['speedup']:.1f}x < {MIN_SPEEDUP}x (loop "
        f"{row['loop_seconds']:.4f}s vs batch {row['batch_seconds']:.4f}s)"
    )


def test_round_section_measures_full_protocol_round():
    row = time_round(repeats=3)
    assert row["seconds"] > 0
    assert row["n_agents"] == 100 and row["k_winners"] == 20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke settings")
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="artifact path (JSON)"
    )
    args = parser.parse_args(argv)
    payload = run(quick=args.quick, out_path=args.out)
    print(json.dumps(payload, indent=2))
    failures = []
    for name, row in payload["grid_build"].items():
        if not row["bitwise_equal"] or row["speedup"] < MIN_SPEEDUP:
            failures.append(name)
    if payload["bid_batch"]["speedup"] < MIN_SPEEDUP:
        failures.append("bid_batch")
    for name, row in payload["sweep"].items():
        if not row["matches_serial"]:
            failures.append(f"sweep:{name}")
    if failures:
        print(f"FAILED: {failures}", file=sys.stderr)
        return 1
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
