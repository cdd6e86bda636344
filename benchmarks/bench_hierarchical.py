"""Two-tier auction latency: million-bidder rounds through the shards.

The flat ``FMoreMechanism.run_round`` walks every agent in Python — fine
at the paper's N~100, hopeless at MEC scale.  The hierarchical variant
(:mod:`repro.core.hierarchy`) prices the whole sharded population in one
``bid_batch`` call (margins per run of equal-size clusters), ranks every
cluster at once with a segmented top-``k_local`` and builds the head tier
from row sums of a ``(heads, k)`` gather, so one two-tier round has no
Python loop over clusters and stays within seconds at N=10^5-10^6.
This bench tracks that claim as numbers:

* **hier round** — one complete two-tier round (availability/type draws,
  equilibrium pricing, local winner determination, head auction,
  payments) at N = 10^4 / 10^5 / 10^6 (quick mode: 10^4 and 10^5).
* **flat round** — the flat single-auction protocol round at N = 10^4,
  the baseline the tentpole speedup gate compares against.
* **speedup gate** — hierarchical must beat flat by >= 5x at N = 10^4
  (*asserted*, like the grid-build and bid-batch gates).

The ``hier:<n>`` round timings join ``bench_compare.py``'s >20%
perf-trajectory gate through the ``BENCH_hier_round.json`` CI artifact.

Run standalone (writes ``BENCH_hier_round.json`` for the CI artifact)::

    PYTHONPATH=src python benchmarks/bench_hierarchical.py --quick

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_hierarchical.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_hier_round.json"

K_WINNERS = 20
MIN_SPEEDUP = 5.0
#: Mean bidders per edge cluster; C = N / this.
CLUSTER_SIZE = 100


def _scenario(n: int):
    """The bench game at population ``n``, sharded into N/100 clusters."""
    from repro.api import Scenario

    count = max(2, n // CLUSTER_SIZE)
    return Scenario.from_preset(
        "bench",
        "mnist_o",
        schemes=("FMore",),
        name=f"bench-hier-{n}",
        variant="hierarchical",
        n_clients=n,
        k_winners=K_WINNERS,
        clusters={
            "count": count,
            "k_clusters": min(10, count),
            "k_local": 2,
            "size_dist": "lognormal",
        },
    )


def _best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _hier_mechanism(n: int):
    """A ready-to-run :class:`HierarchicalMechanism` at population ``n``.

    Model-free, like the flat ``round`` gate in ``bench_grid_build.py``:
    the sharded population and the mechanism are built exactly as the
    engine builds them, but no FL clients or datasets exist — the timing
    is the auction hot path alone.
    """
    from repro.api import build_solver
    from repro.api.engine import SAMPLES_PER_QUALITY_UNIT
    from repro.core.auction import MultiDimensionalProcurementAuction
    from repro.core.hierarchy import HierarchicalMechanism, build_population
    from repro.core.registry import THETA_DISTRIBUTIONS, WINNER_SELECTIONS
    from repro.sim.rng import rng_from

    scenario = _scenario(n)
    solver = build_solver(scenario)
    distribution = THETA_DISTRIBUTIONS.create(scenario.theta)
    thetas = distribution.sample(rng_from(0, f"theta-{scenario.name}"), n)
    population = build_population(
        n,
        np.asarray(thetas),
        scenario.size_range,
        scenario.clusters,
        rng_from(0, f"hier-pop-{scenario.name}"),
        rng_from(
            scenario.clusters["assignment_seed"],
            f"hier-clusters-{scenario.name}",
        ),
        category_floor=0.05,
        availability_min_fraction=scenario.availability_min_fraction,
        theta_jitter=scenario.theta_jitter,
        theta_support=(distribution.lo, distribution.hi),
        samples_per_quality_unit=SAMPLES_PER_QUALITY_UNIT,
    )
    auction = MultiDimensionalProcurementAuction(
        solver.quality_rule,
        scenario.clusters["k_clusters"],
        selection=WINNER_SELECTIONS.create("top_k"),
    )
    return scenario, HierarchicalMechanism(
        auction, population, solver, k_local=scenario.clusters["k_local"]
    )


def time_hier_round(n: int, repeats: int = 3) -> dict:
    """One full two-tier round at population ``n`` (best of ``repeats``).

    The mechanism is reused across repeats so the per-cluster-size solver
    clones (memoised on the solver) stay warm, the steady state of a
    multi-round run; its history
    is cleared per call, and a fresh seeded RNG makes every repeat draw
    identically.
    """
    from repro.sim.rng import rng_from

    scenario, mechanism = _hier_mechanism(n)

    def one_round():
        mechanism.history.clear()
        mechanism.run_round((), 1, rng_from(0, "bench-hier-round"))

    one_round()  # warm the solver clones and the score tables
    seconds = _best_of(one_round, repeats)
    record = mechanism.history[-1]
    return {
        "n": n,
        "clusters": scenario.clusters["count"],
        "k_clusters": scenario.clusters["k_clusters"],
        "k_local": scenario.clusters["k_local"],
        "n_winners": len(record.outcome.winners),
        "seconds": seconds,
    }


def time_flat_round(n: int, repeats: int = 3) -> dict:
    """The flat single-auction protocol round at population ``n``.

    Solver-backed :class:`~repro.mec.node.EdgeNode` agents through
    ``FMoreMechanism.run_round`` — the exact baseline the hierarchical
    variant replaces, with the same type prior and resource laws.
    """
    from repro.api import build_solver
    from repro.core.auction import MultiDimensionalProcurementAuction
    from repro.core.mechanism import FMoreMechanism
    from repro.core.registry import THETA_DISTRIBUTIONS
    from repro.mec.node import EdgeNode
    from repro.mec.resources import ResourceProfile, UniformAvailabilityDynamics
    from repro.sim.rng import rng_from

    scenario = _scenario(n)
    solver = build_solver(scenario)
    distribution = THETA_DISTRIBUTIONS.create(scenario.theta)
    thetas = np.asarray(
        distribution.sample(rng_from(0, f"theta-{scenario.name}"), n)
    )
    lo, hi = scenario.size_range
    data_rng = rng_from(0, "bench-hier-flat-data")
    sizes = np.round(np.exp(data_rng.uniform(np.log(lo), np.log(hi), n)))
    cats = data_rng.uniform(0.05, 1.0, n)
    agents = [
        EdgeNode(
            node_id=i,
            theta=float(t),
            solver=solver,
            profile=ResourceProfile(int(sizes[i]), float(cats[i])),
            dynamics=UniformAvailabilityDynamics(
                scenario.availability_min_fraction
            ),
            theta_jitter=scenario.theta_jitter,
        )
        for i, t in enumerate(thetas)
    ]
    auction = MultiDimensionalProcurementAuction(solver.quality_rule, K_WINNERS)

    def one_round():
        FMoreMechanism(auction).run_round(
            agents, 1, rng_from(0, "bench-hier-round")
        )

    one_round()
    seconds = _best_of(one_round, repeats)
    return {"n": n, "k_winners": K_WINNERS, "seconds": seconds}


def run(quick: bool = True, out_path: Path | None = None) -> dict:
    repeats = 3 if quick else 5
    sizes = [10_000, 100_000] if quick else [10_000, 100_000, 1_000_000]
    hier = {str(n): time_hier_round(n, repeats=repeats) for n in sizes}
    flat = time_flat_round(10_000, repeats=repeats)
    speedup = flat["seconds"] / hier["10000"]["seconds"]
    payload = {
        "bench": "hier_round",
        "quick": quick,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "hier_round": hier,
        "flat_round": flat,
        "speedup_n1e4": speedup,
    }
    if out_path is not None:
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_hier_round_beats_flat_5x_at_1e4():
    """Acceptance: the two-tier round >= 5x over flat at N=10^4."""
    hier = time_hier_round(10_000, repeats=3)
    flat = time_flat_round(10_000, repeats=3)
    speedup = flat["seconds"] / hier["seconds"]
    assert hier["n_winners"] > 0
    assert speedup >= MIN_SPEEDUP, (
        f"hierarchical speedup {speedup:.1f}x < {MIN_SPEEDUP}x (flat "
        f"{flat['seconds']:.3f}s vs hier {hier['seconds']:.3f}s at N=10^4)"
    )


def test_hier_round_completes_1e5_within_seconds():
    """Acceptance: one full two-tier round at N=10^5 in seconds, not minutes."""
    row = time_hier_round(100_000, repeats=1)
    assert row["n_winners"] > 0
    assert row["seconds"] < 10.0, f"N=10^5 round took {row['seconds']:.1f}s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke settings")
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="artifact path (JSON)"
    )
    args = parser.parse_args(argv)
    payload = run(quick=args.quick, out_path=args.out)
    print(json.dumps(payload, indent=2))
    if payload["speedup_n1e4"] < MIN_SPEEDUP:
        print(
            f"FAILED: hierarchical speedup {payload['speedup_n1e4']:.1f}x "
            f"< {MIN_SPEEDUP}x at N=10^4",
            file=sys.stderr,
        )
        return 1
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
