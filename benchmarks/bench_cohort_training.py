"""Cohort training: one round's winners stacked against one at a time.

The six winners of one bench ``hpnews`` round (the LSTM task, the
``service_lstm`` perfbench workload's model) draw their plans from the
round stream, then train through one function,
:func:`repro.fl.client.train_cohort`, twice: as one cohort, and as six
one-member cohorts in winner order, which is how a round trained before
cohorts.  Each side is timed ``REPEATS`` times, alternating, on plans
drawn afresh from the same stream state; the median is reported.

The gate: the six updates must be byte-equal between the two sides, and
the cohort must be at least ``MIN_SPEEDUP`` times faster.  The
``cohort.seconds`` row feeds ``bench_compare.py``'s trajectory gate
(``cohort`` label, ±20 %).

Run standalone (writes ``BENCH_cohort_training.json`` for the CI artifact)::

    PYTHONPATH=src python benchmarks/bench_cohort_training.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_cohort_training.py -q
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT = REPO_ROOT / "BENCH_cohort_training.json"

#: The cohort must train the round at least this much faster than its
#: members one at a time (the go/no-go of the cohort-batched design).
MIN_SPEEDUP = 1.5

#: Timed runs of each side; the medians are compared.
REPEATS = 5


def _round(seed: int = 0):
    """The model replica, weights, clients and round stream of one round."""
    from repro.api import Scenario
    from repro.api.engine import build_federation
    from repro.fl.client import FLClient
    from repro.fl.models import build_model
    from repro.sim.rng import rng_from

    scenario = Scenario.from_preset("bench", "hpnews")
    federation = build_federation(scenario, seed)
    generator = federation.generator
    model = build_model(
        "hpnews", generator.input_shape, generator.n_classes, rng_from(seed, "bench-model"),
        width=scenario.model_width, lr=scenario.lr, vocab_size=generator.spec.vocab_size,
    )
    stream = rng_from(seed, "bench-cohort")
    winners = stream.choice(scenario.n_clients, size=scenario.k_winners, replace=False)
    clients = [
        FLClient(federation.clients_data[w], batch_size=scenario.batch_size) for w in winners
    ]
    return model.clone_architecture(stream), model.get_weights(), clients, stream.bit_generator.state


def _plans(scratch, clients, state):
    stream = np.random.default_rng()
    stream.bit_generator.state = state
    return [client.train(scratch, stream) for client in clients]


def time_cohort() -> dict:
    """Median seconds of the round as one cohort and one member at a time."""
    from repro.fl.client import train_cohort

    scratch, weights, clients, state = _round()
    sides = {
        "cohort": lambda plans: train_cohort(scratch, weights, plans),
        "one_at_a_time": lambda plans: [
            u for p in plans for u in train_cohort(scratch, weights, [p])
        ],
    }
    seconds: dict[str, list[float]] = {name: [] for name in sides}
    updates = {}
    for _ in range(REPEATS):
        for name, train in sides.items():
            plans = _plans(scratch, clients, state)
            t0 = time.perf_counter()
            updates[name] = train(plans)
            seconds[name].append(time.perf_counter() - t0)
    equal = all(
        a.n_samples == b.n_samples
        and a.train_loss == b.train_loss
        and all(x.tobytes() == y.tobytes() for x, y in zip(a.weights, b.weights))
        for a, b in zip(updates["cohort"], updates["one_at_a_time"])
    )
    cohort = statistics.median(seconds["cohort"])
    alone = statistics.median(seconds["one_at_a_time"])
    return {
        "members": len(clients),
        "batches": sum(len(p.batches) for p in _plans(scratch, clients, state)),
        "repeats": REPEATS,
        "seconds": cohort,
        "one_at_a_time_seconds": alone,
        "speedup": alone / cohort,
        "byte_equal": equal,
    }


def gate_failures(cohort: dict) -> list[str]:
    failures = []
    if not cohort["byte_equal"]:
        failures.append("cohort: updates differ from one-member cohorts")
    if cohort["speedup"] < MIN_SPEEDUP:
        failures.append(f"cohort: {cohort['speedup']:.2f}x < {MIN_SPEEDUP}x one at a time")
    return failures


def run() -> dict:
    payload = {
        "bench": "cohort_training",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cohort": time_cohort(),
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_cohort_is_byte_equal_and_faster():
    failures = gate_failures(time_cohort())
    assert not failures, failures


def main() -> int:
    payload = run()
    print(json.dumps(payload, indent=2))
    failures = gate_failures(payload["cohort"])
    if failures:
        print(f"FAILED: {failures}", file=sys.stderr)
        return 1
    print(f"\nwrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
