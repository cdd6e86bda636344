"""The benchmark's three workloads, their measurements and output checks.

* ``flat_cnn`` — 24-round flat FMore cells on the bench-scale ``mnist_o``
  CNN (N=30, K=6, grid 129) with local steps capped at 4 batches, so a
  run holds many short rounds.  Local training (conv backward, col2im, GEMM,
  maxpool) dominates; evaluation is the next phase; the auction is ~1%.
* ``hier_1e5`` — 20-round ``variant="hierarchical"`` FMore cells over
  N=10^5 bidders in 1,000 lognormal clusters, 8 clusters x 1 local
  winner, four local batches each: the two-tier auction (grouped
  ``bid_batch`` pricing, per-cluster winner loops, ``with_population``
  clones) is ~40% of each round, training ~55%.
* ``service_lstm`` — sweeps of bench-scale ``hpnews`` LSTM cells (FMore
  and RandFL on one seed, three seeds in turn) through the
  ``service`` executor: a coordinator the benchmark starts, the one
  worker process the executor spawns, an ``ExperimentStore`` with
  checkpoints every 4 rounds.  The only workload on the recurrent
  kernels and on the coordinator/store path.

Flat and hierarchical runs are closed loops over a fixed set of
``CELL_SEEDS`` cells: a cold set-up of each (fresh engine, so the solver
tables, federation and model are all built), then warm replays of the
cells until the run's time is spent, with more cold set-ups on fresh
seeds between the cells of the first pass; the median of all ``SETUPS``
set-ups is ``setup_s``.  Every replay of a cell must reproduce its first
digest bit for bit.  Service runs sweep ``SWEEP_SEEDS`` seeds in turn, each
sweep from a cold start (new store, coordinator and worker process); a
repeated sweep must land byte-identical manifests.

Each measurement function returns a :class:`Segment`; ``run.py`` turns
segments into the printed metrics.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.api.engine as engine_mod
from repro.api import ExperimentStore, FMoreEngine, Scenario, WorkerClient, start_coordinator

from tracing import Tracer

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

#: Distinct cells per flat/hierarchical run; final accuracy is their mean.
CELL_SEEDS = 5
#: Cold set-ups per flat/hierarchical run, each on its own cell seed (the
#: first ``CELL_SEEDS`` are the replayed cells); ``setup_s`` is their
#: median.  The federation build alone takes 0.13-0.37 s depending on the
#: seed, so set-ups over few seeds would move the median with the seed.
#: Two follow each cell of the first pass.
SETUPS = 15
#: Cluster partition of every hierarchical run: an experiment constant,
#: so each run prices the same cluster sizes and only the cells vary.
ASSIGNMENT_SEED = 0
#: Seeds a service run sweeps in turn, one cold-start sweep each.  The
#: mean final accuracy of three FMore cells spread 0.01-0.04 over ten
#: runs, of two 0.10.
SWEEP_SEEDS = 3
#: Service sweeps checkpoint each in-flight cell every this many rounds.
CHECKPOINT_EVERY = 4
#: /health polling period while waiting for a sweep's first claim.
HEALTH_POLL_S = 0.01
#: Hard limit on one sweep; a stuck sweep fails the run instead of hanging.
SWEEP_TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# Scenarios (the program receives only these generated inputs)
# ----------------------------------------------------------------------
def flat_scenario(seed: int) -> Scenario:
    # 24 rounds: a 12-round cell's final accuracy still moves ~10% with
    # the seed, 24 rounds halve that.
    return Scenario.from_preset("bench", "mnist_o", schemes=("FMore",)).with_(
        n_rounds=24, max_batches_per_round=4
    )


def hier_scenario(seed: int) -> Scenario:
    # Four local batches, 20 rounds and IID client data: with one batch and
    # 12 rounds a cell's final accuracy swings 0.2-0.75 between seeds; with
    # two batches and 24 rounds it still ends anywhere from 0.3 to 0.97, on
    # the preset's non-IID data (at most 5 classes per client) or IID, at
    # lr 0.08-0.25.
    return Scenario.from_preset("bench", "mnist_o", schemes=("FMore",)).with_(
        name="bench-hier-1e5",
        variant="hierarchical",
        n_clients=100_000,
        k_winners=8,
        n_rounds=20,
        test_per_class=20,
        max_batches_per_round=4,
        max_classes=None,
        clusters={
            "count": 1000,
            "k_clusters": 8,
            "k_local": 1,
            "size_dist": "lognormal",
            "fl_pool": 16,
            "assignment_seed": ASSIGNMENT_SEED,
        },
    )


def service_scenario(seed: int) -> Scenario:
    # On the preset's non-IID data (at most 5 classes per client, lr 0.3)
    # an FMore LSTM cell is still learning after 24 rounds and ends at
    # 0.41-0.78 depending on the seed; on IID data at lr 0.5 it ends at
    # 0.90-0.995.  Local training is uncapped (capped at 8 batches the
    # cell ends at 0.51-0.82), so a round's cost follows its winners' data:
    # with the preset's 80-1200 samples per client a cell's median round
    # took 66-220 ms by seed and scheme; 400-800 narrows that.  FixFL is
    # left out so that three seeds' sweeps fit a run of about 40 s; it
    # runs the same code as RandFL with a fixed winner set.
    return Scenario.from_preset(
        "bench", "hpnews", schemes=("FMore", "RandFL"), seeds=(seed,)
    ).with_(n_rounds=24, max_classes=None, lr=0.5, size_range=(400, 800))


def winners_per_round(scenario: Scenario) -> int:
    if scenario.variant == "hierarchical":
        return scenario.clusters["k_clusters"] * scenario.clusters["k_local"]
    return scenario.k_winners


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def bad_rounds(history, scenario: Scenario, where: str) -> tuple[int, list[str]]:
    """Rounds of one cell that fail the output checks, with reasons.

    Every round must be present, seat exactly the expected winner count,
    charge finite non-negative payments and report a finite accuracy in
    [0, 1].  Missing rounds count as failed.
    """
    problems: list[str] = []
    failed = max(0, scenario.n_rounds - len(history.records))
    if failed:
        problems.append(f"{where}: {len(history.records)} of {scenario.n_rounds} rounds")
    winners = winners_per_round(scenario)
    for record in history.records:
        issues = []
        if len(record.winner_ids) != winners:
            issues.append(f"{len(record.winner_ids)} winners, expected {winners}")
        payments = [record.total_payment, *record.payments.values()]
        if not all(math.isfinite(p) and p >= 0.0 for p in payments):
            issues.append("non-finite or negative payment")
        if not (math.isfinite(record.accuracy) and 0.0 <= record.accuracy <= 1.0):
            issues.append(f"accuracy {record.accuracy!r}")
        if issues:
            failed += 1
            problems.append(f"{where} round {record.round_index}: {'; '.join(issues)}")
    return failed, problems


def above_chance(accuracies: list[float], n_classes: int, where: str) -> list[str]:
    mean = float(np.mean(accuracies)) if accuracies else float("nan")
    if not (math.isfinite(mean) and mean > 1.0 / n_classes):
        return [f"{where}: mean final accuracy {mean:.4f} not above chance 1/{n_classes}"]
    return []


def cell_digest(history, weights=None) -> str:
    """SHA-256 of a cell's round records (and final weights, when given)."""
    h = hashlib.sha256(json.dumps(history.to_dict(), sort_keys=True).encode())
    for w in weights or ():
        h.update(np.ascontiguousarray(w).tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6


@dataclass
class Segment:
    """What one measured stretch of a workload saw."""

    setup_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    cell_s: list[float] = field(default_factory=list)
    rounds: int = 0
    busy_s: float = 0.0  # wall time the rounds_per_s rate is taken over
    final_accuracy: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    drain_s: list[float] = field(default_factory=list)
    requeues: int = 0

    def record_digest(self, key: str, digest: str) -> None:
        first = self.digests.setdefault(key, digest)
        if first != digest:
            self.problems.append(f"{key}: replay digest {digest[:12]} != first {first[:12]}")


def _within(start: float, seconds: float) -> bool:
    return time.perf_counter() - start < seconds


# ----------------------------------------------------------------------
# flat_cnn / hier_1e5: closed loop over warm-replayed cells
# ----------------------------------------------------------------------
def _cold_setup(scenario: Scenario, cell_seed: int, seg: Segment):
    """One timed set-up: a fresh engine, so every sample builds the solver
    tables, the federation (or sharded population) and the model."""
    gc.collect()
    t0 = time.perf_counter()
    engine = FMoreEngine()
    federation = engine_mod.build_federation(scenario, cell_seed)
    engine.session(scenario, "FMore", cell_seed, federation=federation)
    seg.setup_s.append(time.perf_counter() - t0)
    return engine, federation


def run_sessions(
    make_scenario, seed: int, seconds: float, tracer: Tracer | None = None,
    first_pass: bool = True,
) -> Segment:
    """A cold set-up of each of ``CELL_SEEDS`` cells, then warm replays of
    the cells in turn until ``seconds`` run out.  With ``first_pass`` (the
    end-to-end run) there is at least one pass over every cell (what the
    accuracy is taken over) and one replay that must repeat its cell's
    digest, and each cell of the first pass is followed by more cold
    set-ups on fresh seeds, ``SETUPS`` in all: spread over the run, they
    meet the same machine as the rounds do.  Otherwise at least one cell
    is replayed."""
    scenario = make_scenario(seed)
    setup_seeds = [SETUPS * seed + i for i in range(SETUPS)]
    seeds = setup_seeds[:CELL_SEEDS]
    extra = iter(setup_seeds[CELL_SEEDS:] if first_pass else ())
    per_cell = (SETUPS - CELL_SEEDS) // CELL_SEEDS
    n_classes = None
    seg = Segment()
    if tracer is not None:
        from layers import HOOKS

        tracer.install(HOOKS)
    try:
        federations = {}
        for cell_seed in seeds:
            engine, federations[cell_seed] = _cold_setup(scenario, cell_seed, seg)
            n_classes = federations[cell_seed].generator.n_classes
        start = time.perf_counter()
        done = 0
        least = len(seeds) + 1 if first_pass else 1
        while done < least or _within(start, seconds):
            cell_seed = seeds[done % len(seeds)]
            done += 1
            t0 = time.perf_counter()
            session = engine.session(
                scenario, "FMore", cell_seed, federation=federations[cell_seed]
            )
            seg.attempted += scenario.n_rounds
            try:
                for _ in range(scenario.n_rounds):
                    r0 = time.perf_counter()
                    next(session)
                    seg.round_s.append(time.perf_counter() - r0)
            except Exception:
                seg.problems.append(f"seed {cell_seed}: {traceback.format_exc()}")
            seg.cell_s.append(time.perf_counter() - t0)
            history = session.history
            seg.rounds += len(history.records)
            failed, problems = bad_rounds(history, scenario, f"seed {cell_seed}")
            seg.failed += failed
            seg.problems += problems
            key = f"FMore-seed{cell_seed}"
            seg.final_accuracy.setdefault(key, history.final_accuracy)
            seg.record_digest(key, cell_digest(history, session.trainer.server.model.get_weights()))
            for setup_seed in itertools.islice(extra, per_cell):
                _cold_setup(scenario, setup_seed, seg)
        # The rate is taken over the cells alone, not the set-ups between them.
        seg.busy_s = sum(seg.cell_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
            seg.traces.append(tracer.export())
    seg.problems += above_chance(list(seg.final_accuracy.values()), n_classes, "cells")
    return seg


# ----------------------------------------------------------------------
# service_lstm: cold-start sweeps through the service executor
# ----------------------------------------------------------------------
class CoordinatorLog:
    """Cells dispatched and heartbeats received, as the coordinator sees them.

    Wraps the claim and heartbeat handlers of a coordinator running in
    this process, so the worker's round latency is measured outside the
    worker: the gap between the heartbeats of two consecutive rounds of
    one cell (the round, its heartbeat and, every ``CHECKPOINT_EVERY``
    rounds, its checkpoint).
    """

    def __init__(self, service) -> None:
        self.claims: list[float] = []
        self.beats: list[tuple[float, str, int, int]] = []
        next_claim, heartbeat = service._next_claim, service._heartbeat

        def claim(worker):
            job = next_claim(worker)
            if job is not None:
                self.claims.append(time.time())
            return job

        def beat(payload):
            self.beats.append((time.time(), str(payload.get("scheme")),
                               int(payload.get("seed", -1)), int(payload.get("round", 0))))
            return heartbeat(payload)

        service._next_claim, service._heartbeat = claim, beat

    def round_gaps(self) -> list[float]:
        last: dict[tuple[str, int], tuple[float, int]] = {}
        gaps = []
        for t, scheme, seed, rnd in self.beats:
            prev = last.get((scheme, seed))
            if prev is not None and rnd == prev[1] + 1:
                gaps.append(t - prev[0])
            last[(scheme, seed)] = (t, rnd)
        return gaps


def _await_first_claim(url: str, alive, deadline: float) -> float:
    """Poll ``/health`` until the fleet holds its first claim (set-up only)."""
    probe = WorkerClient(url, "perfbench-probe")
    while True:
        health = probe.health()
        if health["claimed"] or health["rounds_seen"]:
            return time.time()
        if not alive():
            raise RuntimeError("the sweep ended before any cell was claimed")
        if time.time() > deadline:
            raise TimeoutError("no claim before the sweep deadline")
        time.sleep(HEALTH_POLL_S)


def _stop_worker(worker: subprocess.Popen) -> None:
    """Wait for the worker to leave; SIGTERM, then SIGKILL, if it lingers."""
    for stop in (None, worker.terminate, worker.kill):
        if stop is not None:
            stop()
        try:
            worker.wait(timeout=15)
            return
        except subprocess.TimeoutExpired:
            continue


def _child_pids() -> list[int]:
    me, pids = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(stat.parent.name))
    return pids


def _stop_children() -> int:
    """Kill and reap child processes still running; returns how many."""
    left = 0
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            left += 1
        except (ProcessLookupError, ChildProcessError):
            pass
    return left


def run_sweep(scenario: Scenario, root: Path, traced: bool, seg: Segment) -> None:
    """One cold-start sweep; appends its measurements to ``seg``.

    Untraced, the sweep runs the way a user runs one: ``FMoreEngine.run``
    with ``execution={"executor": "service", "max_workers": 1, ...}``, so
    the executor spawns its worker, waits on ``/status`` and tears the
    worker down before returning.  Traced, the executor is coordinate-only
    and the fleet is the benchmark's launcher (``worker.py``), which runs
    the same ``run_worker`` behind every hook.  Either way the coordinator
    is one this process starts, and the timeline is taken from outside
    the worker: ``t0`` (before the coordinator starts) -> first claim
    (``/health`` polling, set-up only) -> per-round heartbeats
    (:class:`CoordinatorLog`) -> manifest landings (store file mtimes) ->
    ``FMoreEngine.run`` returning (the drain).
    """
    store = ExperimentStore(root / "store")
    worker_out = root / "worker.json"
    cells = [(s, d) for d in scenario.seeds for s in scenario.schemes]
    outcome: dict = {}
    t0 = time.time()
    coordinator = start_coordinator(store)
    log = CoordinatorLog(coordinator.service)
    plan = scenario.with_(execution={
        "executor": "service", "max_workers": 0 if traced else 1,
        "coordinator_url": coordinator.url,
    })

    def drive() -> None:
        try:
            outcome["result"] = FMoreEngine().run(
                plan, store=store, checkpoint_every=CHECKPOINT_EVERY
            )
        except Exception:
            outcome["error"] = traceback.format_exc()
        outcome["end"] = time.time()

    # Daemon: if the sweep wedges, the run fails by timeout instead of hanging.
    sweep = threading.Thread(target=drive, name="perfbench-sweep", daemon=True)
    worker = None
    try:
        sweep.start()
        if traced:
            worker = subprocess.Popen(
                [sys.executable, str(WORKER), "--coordinator", coordinator.url,
                 "--store", str(store.root), "--out", str(worker_out),
                 "--max-cells", str(len(cells))],
                stdout=subprocess.DEVNULL,
            )
        first_claim = _await_first_claim(
            coordinator.url, sweep.is_alive, t0 + SWEEP_TIMEOUT_S
        )
        sweep.join(max(0.0, t0 + SWEEP_TIMEOUT_S - time.time()))
        if sweep.is_alive():
            raise TimeoutError(f"sweep did not finish within {SWEEP_TIMEOUT_S:.0f} s")
        health = WorkerClient(coordinator.url, "perfbench-probe").health()
    finally:
        # Our launcher leaves by itself after its last cell; stop it before
        # the coordinator so no long-poll is cut off mid-request.
        if worker is not None:
            _stop_worker(worker)
        left = _stop_children()
        coordinator.stop()
    if "error" in outcome:
        raise RuntimeError(f"service sweep failed:\n{outcome['error']}")
    if left:
        print(f"perfbench: {left} worker process(es) still ran after the sweep "
              "returned; killed", file=sys.stderr)
    if traced:
        seg.traces.append(json.loads(worker_out.read_text()))
    seg.round_s += log.round_gaps()

    # Landings and the drain, from the store's file timestamps.
    manifests = sorted(store.root.glob("runs/*/*.json"))
    landings = sorted(p.stat().st_mtime for p in manifests)
    digest = hashlib.sha256()
    for path in manifests:
        digest.update(path.name.encode() + path.read_bytes())
    seg.record_digest(f"manifests-seed{scenario.seeds[0]}", digest.hexdigest())
    seg.setup_s.append(first_claim - t0)
    if landings:
        seg.cell_s += [float(g) for g in np.diff([first_claim, *landings])]
        seg.busy_s += landings[-1] - first_claim
        seg.drain_s.append(outcome["end"] - landings[-1])

    # Output checks: every cell landed once, every round valid, the
    # coordinator drained and saw one heartbeat per round run.
    result = outcome["result"]
    finals = []
    rounds = 0
    for scheme, cell_seed in cells:
        history = result.history(scheme, cell_seed)
        where = f"{scheme} seed {cell_seed}"
        rounds += len(history.records)
        failed, problems = bad_rounds(history, scenario, where)
        seg.failed += min(failed, 1)
        seg.problems += problems
        finals.append(history.final_accuracy)
        seg.final_accuracy.setdefault(f"{scheme}-seed{cell_seed}", history.final_accuracy)
    seg.rounds += rounds
    seg.problems += above_chance(finals, _n_classes(scenario), "sweep")
    if len(landings) != len(cells):
        seg.problems.append(f"{len(landings)} of {len(cells)} manifests landed")
    if health["outstanding"] or health["claimed"] or health["pending"]:
        seg.problems.append(f"coordinator not drained: {health}")
    requeued = max(0, len(log.claims) - len(landings))
    if not requeued and len(log.beats) != rounds:
        seg.problems.append(f"coordinator saw {len(log.beats)} heartbeats for {rounds} rounds")
    seg.requeues += requeued
    seg.attempted += max(len(log.claims), len(cells))
    seg.failed += requeued + (len(cells) - min(len(landings), len(cells)))


def _n_classes(scenario: Scenario) -> int:
    from repro.fl.datasets import make_generator

    return make_generator(scenario.dataset, seed=scenario.data_seed).n_classes


def run_service(
    seed: int, seconds: float, work: Path, tracer: Tracer | None = None,
    first_pass: bool = True,
) -> Segment:
    """Cold-start sweeps over ``SWEEP_SEEDS`` seeds in turn until the budget
    is spent: at least one sweep per seed with ``first_pass``, else one.

    With a ``tracer`` the worker runs every hook and this process traces
    its own side of the sweep (the history loads).
    """
    seeds = [SWEEP_SEEDS * seed + i for i in range(SWEEP_SEEDS)]
    tag = "traced" if tracer is not None else "plain"
    seg = Segment()
    if tracer is not None:
        from layers import HOOKS

        tracer.install(HOOKS)
    try:
        start = time.perf_counter()
        done = 0
        least = len(seeds) if first_pass else 1
        while done < least or _within(start, seconds):
            run_sweep(service_scenario(seeds[done % len(seeds)]), work / f"{tag}-{done}",
                      tracer is not None, seg)
            done += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
            seg.traces.append(tracer.export())
    return seg
