"""Coordination-tier benchmark: serial vs store-queued vs coordinator sweeps.

One 4-cell reference sweep (smoke preset, ``FMore``/``RandFL`` x seeds
0,1, 3 rounds in ``--quick`` mode and 6 otherwise) is timed through the
coordination tiers:

* **serial** — the in-process reference (and the byte-identity anchor).
  Timed twice: a cold first run and a warm ``force=True`` re-run on the
  same engine, so the gated number excludes one-time solver-table
  builds, symmetrically with the warm service tier.
* **service** — the store-queued ``service`` executor with 2 spawned
  workers (``--exit-when-idle``) against a throwaway store, cold by
  construction: its workers leave once the queue drains.
* **service_cold / service_warm** — the warm fleet a user runs: a
  coordinator (:func:`repro.api.start_coordinator`) plus two
  ``python -m repro worker --coordinator URL --store DIR`` processes
  that this bench starts itself, fed by a coordinate-only ``service``
  sweep (``max_workers=0``, ``coordinator_url``).  The first sweep pays
  for the workers' start-up; the ``force=True`` re-sweep is pushed to
  the same, warm fleet — the number the coordinator tier exists to
  optimise, and the gated one.

The gate (asserted here and by ``bench_compare.py``'s ``coord:*``
checks): the warm service sweep stays under ``2x`` the warm serial
sweep, and every non-serial tier lands byte-identical manifests.  Run it
with ``OPENBLAS_NUM_THREADS=1`` (CI does): with a multi-threaded BLAS in
each of the serial process and the two workers, the ratio measures core
oversubscription rather than the coordinator.

Run standalone (writes ``BENCH_coordinator.json`` for the CI artifact)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_coordinator.py --quick

or through pytest::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/bench_coordinator.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_coordinator.json"

#: The warm service sweep must stay under this multiple of warm serial.
MAX_SERVICE_OVERHEAD = 2.0
#: Absolute slack on the 2x bound: the quick-mode serial sweep is
#: sub-second, so a relative band alone would flake on runner noise
#: (same rationale as ``bench_compare.DEFAULT_ABS_EPSILON_SECONDS``).
ABS_EPSILON_SECONDS = 0.25


def _scenario(quick: bool):
    from repro.api import Scenario

    return Scenario.from_preset(
        "smoke",
        "mnist_o",
        schemes=("FMore", "RandFL"),
        seeds=(0, 1),
        n_rounds=3 if quick else 6,
    )


def _start_worker(url: str, store: Path) -> subprocess.Popen:
    """One ``repro worker`` attached to the coordinator at ``url``."""
    src_dir = str(REPO_ROOT / "src")
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([src_dir, existing]) if existing else src_dir
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--coordinator", url,
         "--store", str(store), "--poll-interval", "0.1"],
        env=env,
        stdout=subprocess.DEVNULL,
    )


def _manifest_bytes(root: Path) -> dict[str, bytes]:
    runs = Path(root) / "runs"
    return {
        str(p.relative_to(runs)): p.read_bytes()
        for p in sorted(runs.rglob("*.json"))
    }


def time_coordination_tiers(quick: bool = True) -> dict:
    """Wall-clock of the reference sweep per tier (+ overhead vs serial)."""
    from repro.api import FMoreEngine, start_coordinator

    scenario = _scenario(quick)
    out: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench-coord-") as tmp:
        tmp = Path(tmp)
        # -- serial: the byte reference; warm re-run is the gated anchor.
        engine = FMoreEngine()
        t0 = time.perf_counter()
        engine.run(scenario, store=tmp / "serial")
        serial_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        engine.run(scenario, store=tmp / "serial", force=True)
        serial_s = time.perf_counter() - t0
        reference = _manifest_bytes(tmp / "serial")
        out["serial"] = {"seconds": serial_s, "cold_seconds": serial_cold}

        # -- service, store-queued: 2 spawned workers, cold.
        plan = scenario.with_(
            execution={"executor": "service", "max_workers": 2, "poll_interval": 0.1}
        )
        t0 = time.perf_counter()
        FMoreEngine().run(plan, store=tmp / "service")
        queued_s = time.perf_counter() - t0
        out["service"] = {
            "seconds": queued_s,
            "overhead": queued_s / serial_s,
            "matches_serial": _manifest_bytes(tmp / "service") == reference,
        }

        # -- service through a running coordinator and its 2 attached
        # workers; the warm force re-sweep reuses the fleet.
        store = tmp / "coordinator"
        coordinator = start_coordinator(store, poll_interval=0.1)
        workers = [_start_worker(coordinator.url, store) for _ in range(2)]
        plan = scenario.with_(
            execution={
                "executor": "service",
                "max_workers": 0,
                "poll_interval": 0.1,
                "coordinator_url": coordinator.url,
            }
        )
        try:
            t0 = time.perf_counter()
            FMoreEngine().run(plan, store=store)
            service_cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            FMoreEngine().run(plan, store=store, force=True)
            service_warm = time.perf_counter() - t0
        finally:
            for proc in workers:
                proc.terminate()
            for proc in workers:
                proc.wait(timeout=30)
            coordinator.stop()
        out["service_cold"] = {
            "seconds": service_cold,
            "overhead": service_cold / serial_s,
        }
        out["service_warm"] = {
            "seconds": service_warm,
            "overhead": service_warm / serial_s,
            "matches_serial": _manifest_bytes(store) == reference,
        }
    return out


def gate_failures(coordinator: dict) -> list[str]:
    """The ``coord:*`` gate verdicts over one artifact's tier timings."""
    failures: list[str] = []
    for name in ("service", "service_warm"):
        row = coordinator.get(name, {})
        if row.get("matches_serial") is False:
            failures.append(f"coord:{name}: manifests diverged from serial")
    warm = coordinator.get("service_warm", {})
    serial = coordinator.get("serial", {})
    if "seconds" in warm and "seconds" in serial:
        bound = serial["seconds"] * MAX_SERVICE_OVERHEAD + ABS_EPSILON_SECONDS
        if warm["seconds"] > bound:
            failures.append(
                f"coord:service_warm: {warm['seconds']:.3f}s > "
                f"{MAX_SERVICE_OVERHEAD:.0f}x serial "
                f"({serial['seconds']:.3f}s) + {ABS_EPSILON_SECONDS}s slack"
            )
    return failures


def run(quick: bool = True, out_path: Path | None = None) -> dict:
    payload = {
        "bench": "coordinator",
        "quick": quick,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cells": 4,
        "coordinator": time_coordination_tiers(quick=quick),
    }
    if out_path is not None:
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_service_tier_under_2x_serial_and_bitwise():
    """Acceptance: warm service sweep <2x warm serial, byte-identical."""
    coordinator = time_coordination_tiers(quick=True)
    assert coordinator["service_warm"]["matches_serial"]
    assert coordinator["service"]["matches_serial"]
    failures = gate_failures(coordinator)
    assert not failures, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke settings")
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="artifact path (JSON)"
    )
    args = parser.parse_args(argv)
    payload = run(quick=args.quick, out_path=args.out)
    print(json.dumps(payload, indent=2))
    failures = gate_failures(payload["coordinator"])
    if failures:
        print(f"FAILED: {failures}", file=sys.stderr)
        return 1
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
