"""The event-driven coordination service: coordinator, links, fallback.

The contracts under test (ISSUE 8 acceptance):

* the ``service`` executor produces **byte-identical** manifests versus
  the serial executor — through an external coordinator with
  push-attached workers, and through every degraded mode below (its
  store-queued path is pinned in ``tests/test_distributed.py``);
* the coordinator keeps no queue of its own: every ``/claim`` is a
  :meth:`JobQueue.claim` under the worker's label, so it serves cells
  that anyone queued in its store, and the cell's lock is the only
  lease;
* a coordinator crash mid-sweep never loses work: the executor falls
  back to the filesystem protocol, attached workers claim from the
  store's queue themselves, and a restarted coordinator serves the same
  queue — a worker that kept renewing its lock stays the cell's owner;
* a worker that disconnects (stops heartbeating) has its claim
  re-queued by lease expiry, exactly like the polling protocol;
* mixed fleets — a push-attached service worker plus a plain
  filesystem worker on the same store — drain a sweep without double
  execution;
* ``repro run`` turns SIGTERM into an orderly exit that stops the
  workers its service executor spawned;
* workers shut down gracefully: SIGTERM/SIGINT (or the ``stop_event``
  test hook) releases the in-flight claim, checkpointing first when the
  job asked for ``checkpoint_every``; idle filesystem scans back off
  exponentially with per-worker jitter.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import (
    EXECUTORS,
    CoordinatorError,
    ExperimentStore,
    FMoreEngine,
    JobQueue,
    Scenario,
    ServiceExecutor,
    WorkerClient,
    idle_backoff,
    run_worker,
    scenario_hash,
    start_coordinator,
)
from repro.api.coordinator import _request
from repro.api.distributed import _BACKOFF_START_FRACTION

POLICIES = {
    "churn": {"departure_prob": 0.25, "arrival_prob": 0.6},
    "audit_blacklist": {
        "defect_fraction": 0.3,
        "shortfall": 0.5,
        "strikes_to_ban": 1,
    },
}

#: Nothing listens here: port 9 (discard) refuses on any sane test host.
DEAD_URL = "http://127.0.0.1:9"


def _paper_scenario(**overrides) -> Scenario:
    """The paper preset's component mix at test scale, with policies."""
    defaults = dict(
        n_clients=8,
        k_winners=3,
        n_rounds=3,
        test_per_class=6,
        size_range=(60, 240),
        grid_size=17,
        model_width=0.12,
        image_size=14,
        batch_size=16,
        policies=POLICIES,
    )
    return Scenario.from_preset(
        "paper",
        "mnist_o",
        schemes=("FMore", "RandFL"),
        seeds=overrides.pop("seeds", (0,)),
        **{**defaults, **overrides},
    )


def _cells(scenario: Scenario) -> list[tuple[str, int]]:
    return [(s, d) for d in scenario.seeds for s in scenario.schemes]


def _service(scenario: Scenario, **execution) -> Scenario:
    spec = {
        "executor": "service",
        "max_workers": 0,
        "lease_seconds": 30.0,
        "poll_interval": 0.05,
    }
    spec.update(execution)
    return scenario.with_(execution=spec)


def _assert_manifests_bitwise(reference_root: Path, other_root: Path) -> None:
    """Every manifest under ``reference_root`` must match byte-for-byte."""
    ref_runs = Path(reference_root) / "runs"
    manifests = sorted(ref_runs.rglob("*.json"))
    assert manifests, f"no reference manifests under {ref_runs}"
    for ref in manifests:
        other = Path(other_root) / "runs" / ref.relative_to(ref_runs)
        assert other.exists(), f"missing manifest {other}"
        assert ref.read_bytes() == other.read_bytes(), f"manifest drift: {other}"


def _sweep_payload(scenario: Scenario, cells, **extra) -> dict:
    payload = {"scenario": scenario.to_dict(), "cells": [[s, d] for s, d in cells]}
    payload.update(extra)
    return payload


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src_dir
        if not env.get("PYTHONPATH")
        else os.pathsep.join([src_dir, env["PYTHONPATH"]])
    )
    return env


@pytest.fixture(scope="module")
def paper_reference(tmp_path_factory):
    scenario = _paper_scenario()
    root = tmp_path_factory.mktemp("coord-serial")
    result = FMoreEngine().run(scenario, store=root)
    return scenario, result, root


@pytest.fixture()
def coordinator(tmp_path):
    """A coordinator on an ephemeral port over a fresh store, auto-stopped."""
    handle = start_coordinator(tmp_path, poll_interval=0.05)
    yield handle, ExperimentStore(tmp_path)
    handle.stop()


# ----------------------------------------------------------------------
# Scenario spec surface
# ----------------------------------------------------------------------
class TestServiceExecutionSpec:
    def test_registered(self):
        assert "service" in EXECUTORS
        executor = EXECUTORS.create({"name": "service", "max_workers": 2})
        assert isinstance(executor, ServiceExecutor)
        assert executor.needs_store
        assert not executor.in_process

    def test_spec_canonicalised_with_defaults_and_round_trips(self):
        scenario = Scenario(execution={"executor": "service"})
        assert scenario.execution == {
            "executor": "service",
            "max_workers": None,
            "lease_seconds": 300.0,
            "poll_interval": 1.0,
            "coordinator_url": None,
        }
        again = Scenario.from_json(scenario.to_json())
        assert again.execution == scenario.execution

    def test_coordinator_url_only_for_service(self):
        with pytest.raises(ValueError, match="coordinator_url"):
            Scenario(
                execution={"executor": "process", "coordinator_url": "http://x:1"}
            )
        with pytest.raises(ValueError, match="coordinator_url"):
            Scenario(
                execution={"executor": "serial", "coordinator_url": "http://x:1"}
            )

    def test_coordinator_url_must_be_http(self):
        with pytest.raises(ValueError, match="http"):
            Scenario(
                execution={"executor": "service", "coordinator_url": "ftp://x"}
            )
        spec = Scenario(
            execution={"executor": "service", "coordinator_url": "http://h:7464"}
        )
        assert spec.execution["coordinator_url"] == "http://h:7464"

    def test_zero_workers_means_coordinate_only(self):
        scenario = Scenario(execution={"executor": "service", "max_workers": 0})
        assert scenario.execution["max_workers"] == 0

    def test_execution_spec_still_outside_the_content_address(self):
        scenario = _paper_scenario()
        assert scenario_hash(scenario) == scenario_hash(
            _service(scenario, coordinator_url="http://127.0.0.1:7464")
        )

    def test_map_is_not_the_interface(self):
        with pytest.raises(RuntimeError, match="execute_plan"):
            ServiceExecutor(max_workers=0).map(abs, [1])

    def test_cli_coordinator_flag_implies_service(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                [
                    "scenario",
                    "--preset",
                    "smoke",
                    "--coordinator",
                    "http://127.0.0.1:7464",
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["execution"]["executor"] == "service"
        assert out["execution"]["coordinator_url"] == "http://127.0.0.1:7464"
        # --executor pointing elsewhere contradicts --coordinator.
        with pytest.raises(SystemExit, match="coordinator"):
            main(
                [
                    "scenario",
                    "--preset",
                    "smoke",
                    "--executor",
                    "serial",
                    "--coordinator",
                    "http://127.0.0.1:7464",
                ]
            )


# ----------------------------------------------------------------------
# Idle backoff (satellite: jittered exponential polling)
# ----------------------------------------------------------------------
class TestIdleBackoff:
    def test_doubles_per_pass_and_caps_at_poll_interval(self):
        class NoJitter(random.Random):
            def random(self):  # jitter factor 1.0: the nominal delay
                return 1.0 - 1e-12

        rng = NoJitter()
        poll = 2.0
        delays = [idle_backoff(p, poll, rng) for p in range(1, 12)]
        start = poll * _BACKOFF_START_FRACTION
        for i, delay in enumerate(delays):
            assert delay == pytest.approx(min(poll, start * 2**i), rel=1e-6)
        assert delays[-1] == pytest.approx(poll, rel=1e-6)  # capped

    def test_jitter_stays_in_half_to_full_band(self):
        rng = random.Random("idle:test-worker")
        for passes in range(1, 20):
            nominal = min(1.0, _BACKOFF_START_FRACTION * 2 ** (passes - 1))
            for _ in range(25):
                delay = idle_backoff(passes, 1.0, rng)
                assert 0.5 * nominal <= delay < nominal

    def test_jitter_is_per_worker_deterministic(self):
        a = [idle_backoff(p, 1.0, random.Random("idle:w1")) for p in (1, 2, 3)]
        b = [idle_backoff(p, 1.0, random.Random("idle:w1")) for p in (1, 2, 3)]
        c = [idle_backoff(p, 1.0, random.Random("idle:w2")) for p in (1, 2, 3)]
        assert a == b
        assert a != c

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError, match="idle_passes"):
            idle_backoff(0, 1.0, rng)
        with pytest.raises(ValueError, match="poll_interval"):
            idle_backoff(1, 0.0, rng)


# ----------------------------------------------------------------------
# The coordinator protocol (no cells actually run)
# ----------------------------------------------------------------------
class TestCoordinatorProtocol:
    def test_register_advertises_resolved_store(self, coordinator):
        handle, store = coordinator
        client = WorkerClient(handle.url, "w0")
        reply = client.register()
        assert reply["ok"] is True
        # Absolute: workers on other cwds must agree on the location.
        assert Path(reply["store"]).is_absolute()
        assert Path(reply["store"]) == store.root.resolve()
        health = client.health()
        assert health["ok"] is True and health["workers"] == 1

    def test_sweep_mirrors_jobs_and_is_idempotent(self, coordinator):
        handle, store = coordinator
        scenario = _paper_scenario()
        cells = _cells(scenario)
        reply = _request(
            handle.url, "POST", "/sweep", _sweep_payload(scenario, cells)
        )
        assert reply["queued"] == 2 and reply["outstanding"] == 2
        assert reply["hash"] == scenario_hash(scenario)
        # The store mirror is the durable queue: one spec per cell.
        assert len(JobQueue(store).pending()) == 2
        # Re-submitting a live sweep queues nothing new.
        again = _request(
            handle.url, "POST", "/sweep", _sweep_payload(scenario, cells)
        )
        assert again["queued"] == 0 and again["outstanding"] == 2

    def test_claim_locks_under_the_workers_own_label(self, coordinator):
        handle, store = coordinator
        scenario = _paper_scenario()
        _request(
            handle.url,
            "POST",
            "/sweep",
            _sweep_payload(scenario, _cells(scenario)[:1]),
        )
        client = WorkerClient(handle.url, "the-worker")
        job = client.claim(long_poll=5.0)
        assert job is not None
        h, scheme, seed = job["scenario_hash"], job["scheme"], job["seed"]
        queue = JobQueue(store)
        lock = JobQueue.lock_path_for(queue.job_path(h, scheme, seed))
        # The mirror lock carries the *worker's* label, so the worker can
        # heartbeat it directly if this coordinator dies.
        assert json.loads(lock.read_text())["worker"] == "the-worker"
        assert client.heartbeat(h, scheme, seed, rounds_done=1) is True
        client.release(h, scheme, seed)
        assert not lock.exists()
        reclaimed = client.claim(long_poll=5.0)
        assert reclaimed is not None
        assert (reclaimed["scheme"], reclaimed["seed"]) == (scheme, seed)

    def test_complete_without_manifest_requeues(self, coordinator):
        handle, store = coordinator
        scenario = _paper_scenario()
        _request(
            handle.url,
            "POST",
            "/sweep",
            _sweep_payload(scenario, _cells(scenario)[:1]),
        )
        client = WorkerClient(handle.url, "liar")
        job = client.claim(long_poll=5.0)
        assert job is not None
        reply = client.complete(job["scenario_hash"], job["scheme"], job["seed"])
        assert reply["ok"] is False  # no manifest: a phantom completion
        again = client.claim(long_poll=5.0)
        assert again is not None and again["scheme"] == job["scheme"]

    def test_disconnected_worker_requeued_by_lease_expiry(self, coordinator):
        handle, store = coordinator
        scenario = _paper_scenario()
        _request(
            handle.url,
            "POST",
            "/sweep",
            _sweep_payload(
                scenario, _cells(scenario)[:1], lease_seconds=0.2
            ),
        )
        ghost = WorkerClient(handle.url, "ghost")
        job = ghost.claim(long_poll=5.0)
        assert job is not None
        # The ghost never heartbeats: the janitor must expire the claim
        # and re-queue the cell for someone else.
        rescuer = WorkerClient(handle.url, "rescuer")
        stolen = rescuer.claim(long_poll=10.0)
        assert stolen is not None
        assert (stolen["scheme"], stolen["seed"]) == (job["scheme"], job["seed"])
        # ...and the ghost's next heartbeat learns it lost the cell.
        assert (
            ghost.heartbeat(
                job["scenario_hash"], job["scheme"], job["seed"], rounds_done=2
            )
            is False
        )

    def test_restarted_coordinator_rebuilds_queue_from_mirror(self, tmp_path):
        scenario = _paper_scenario()
        first = start_coordinator(tmp_path, poll_interval=0.05)
        try:
            _request(
                first.url,
                "POST",
                "/sweep",
                _sweep_payload(scenario, _cells(scenario)),
            )
        finally:
            first.stop()
        # The in-memory queue died with the coordinator; the mirror did not.
        second = start_coordinator(tmp_path, poll_interval=0.05)
        try:
            health = WorkerClient(second.url, "w").health()
            assert health["pending"] == 2 and health["outstanding"] == 2
            job = WorkerClient(second.url, "w").claim(long_poll=5.0)
            assert job is not None
        finally:
            second.stop()

    def test_restarted_coordinator_adopts_heartbeating_worker(self, tmp_path):
        scenario = _paper_scenario()
        first = start_coordinator(tmp_path, poll_interval=0.05)
        try:
            _request(
                first.url,
                "POST",
                "/sweep",
                _sweep_payload(scenario, _cells(scenario)[:1]),
            )
            survivor = WorkerClient(first.url, "survivor")
            job = survivor.claim(long_poll=5.0)
            assert job is not None
        finally:
            first.stop()
        # The worker still owns the cell's lock (under its label), and the
        # lock is the only lease: a restarted coordinator counts the cell
        # as claimed, hands it to nobody else, and keeps the survivor alive.
        second = start_coordinator(tmp_path, poll_interval=0.05)
        try:
            health = WorkerClient(second.url, "x").health()
            assert health["claimed"] == 1 and health["pending"] == 0
            assert health["outstanding"] == 1
            assert WorkerClient(second.url, "intruder").claim(long_poll=0.3) is None
            adopted = WorkerClient(second.url, "survivor")
            assert (
                adopted.heartbeat(
                    job["scenario_hash"], job["scheme"], job["seed"], rounds_done=1
                )
                is True
            )
        finally:
            second.stop()

    def test_running_coordinator_serves_jobs_it_did_not_submit(self, coordinator):
        """A cell queued straight into the store — by a store-queued
        ``service`` sweep or a SLURM-style submitter — is claimable over
        ``/claim``."""
        handle, store = coordinator
        scenario = _paper_scenario()
        JobQueue(store).enqueue(scenario, _cells(scenario)[:1])
        job = WorkerClient(handle.url, "pushed").claim(long_poll=1.0)
        assert job is not None
        assert (job["scheme"], job["seed"]) == _cells(scenario)[0]

    def test_claim_wakes_for_a_job_queued_during_the_long_poll(self, coordinator):
        handle, store = coordinator
        scenario = _paper_scenario()
        enqueue = threading.Timer(
            0.3, JobQueue(store).enqueue, args=(scenario, _cells(scenario)[:1])
        )
        enqueue.start()
        try:
            job = WorkerClient(handle.url, "waiting").claim(long_poll=5.0)
        finally:
            enqueue.join()
        assert job is not None

    def test_claim_of_a_foreign_job_fails_like_a_filesystem_claim(
        self, coordinator, tmp_path_factory
    ):
        handle, store = coordinator
        scenario = _paper_scenario()
        # Job specs copied in from a store that registered their scenario.
        other = ExperimentStore(tmp_path_factory.mktemp("other-store"))
        JobQueue(other).enqueue(scenario, _cells(scenario)[:1])
        shutil.copytree(other.root / "jobs", store.root / "jobs")
        with pytest.raises(CoordinatorError, match="StoreMismatchError"):
            WorkerClient(handle.url, "lost").claim(long_poll=0.2)


# ----------------------------------------------------------------------
# End-to-end sweeps — always byte-identical to serial
# ----------------------------------------------------------------------
class TestServiceEngine:
    def test_external_coordinator_with_attached_worker_bitwise(
        self, coordinator, paper_reference
    ):
        """Coordinate-only submission to a running service, one push worker."""
        scenario, reference, ref_root = paper_reference
        handle, store = coordinator
        plan = _service(scenario, coordinator_url=handle.url)
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(
                store=store.root,
                coordinator=handle.url,
                poll_interval=0.05,
                max_cells=2,
                worker_id="pushed",
            ),
            daemon=True,
        )
        worker.start()
        result = FMoreEngine().run(plan, store=store.root)
        worker.join(timeout=120)
        assert not worker.is_alive()
        for scheme in scenario.schemes:
            assert (
                result.histories[scheme][0].records
                == reference.histories[scheme][0].records
            )
        _assert_manifests_bitwise(ref_root, store.root)
        health = WorkerClient(handle.url, "probe").health()
        assert health["outstanding"] == 0 and health["pending"] == 0
        # Round-completion events streamed: one per round per cell.
        assert health["rounds_seen"] >= scenario.n_rounds * 2

    def test_coordinator_crash_falls_back_to_filesystem_bitwise(
        self, tmp_path, paper_reference
    ):
        """An unreachable coordinator degrades to the polling protocol."""
        scenario, reference, ref_root = paper_reference
        plan = _service(scenario, coordinator_url=DEAD_URL)
        drain = threading.Thread(
            target=run_worker,
            kwargs=dict(
                store=tmp_path,
                poll_interval=0.05,
                max_cells=2,
                worker_id="fs-rescue",
            ),
            daemon=True,
        )
        drain.start()
        result = FMoreEngine().run(plan, store=tmp_path)
        drain.join(timeout=120)
        assert not drain.is_alive()
        for scheme in scenario.schemes:
            assert (
                result.histories[scheme][0].records
                == reference.histories[scheme][0].records
            )
        _assert_manifests_bitwise(ref_root, tmp_path)

    def test_mixed_fleet_drains_without_double_execution(
        self, coordinator, paper_reference
    ):
        """One push-attached worker + one plain filesystem worker."""
        scenario, _, ref_root = paper_reference
        handle, store = coordinator
        _request(
            handle.url,
            "POST",
            "/sweep",
            _sweep_payload(scenario, _cells(scenario), lease_seconds=30.0),
        )
        completions: dict[str, int] = {}

        def _drain(name: str, **kwargs) -> None:
            completions[name] = run_worker(
                store.root, poll_interval=0.05, worker_id=name, **kwargs
            )

        service_worker = threading.Thread(
            target=_drain,
            args=("svc",),
            kwargs=dict(coordinator=handle.url, exit_when_idle=True),
            daemon=True,
        )
        fs_worker = threading.Thread(
            target=_drain,
            args=("fs",),
            kwargs=dict(exit_when_idle=True),
            daemon=True,
        )
        service_worker.start()
        fs_worker.start()
        # exit_when_idle: each worker leaves once every cell is either
        # manifested or claimed by the other, so joining both means the
        # sweep drained.
        service_worker.join(timeout=120)
        fs_worker.join(timeout=120)
        assert not service_worker.is_alive() and not fs_worker.is_alive()
        # Exactly two executions across the whole fleet: no double runs.
        assert completions["svc"] + completions["fs"] == 2
        _assert_manifests_bitwise(ref_root, store.root)
        assert JobQueue(store.root).pending() == []
        health = WorkerClient(handle.url, "probe").health()
        assert health["outstanding"] == 0


# ----------------------------------------------------------------------
# Graceful shutdown (satellite: SIGTERM releases or checkpoints)
# ----------------------------------------------------------------------
def _stop_at_renewal(monkeypatch, n: int) -> threading.Event:
    """A stop event the worker's ``n``-th lease renewal sets: a SIGTERM
    landing mid-cell, after round ``n``.  The filesystem and the service
    claim paths both renew through :meth:`JobQueue.heartbeat`."""
    stop = threading.Event()
    renew = JobQueue.heartbeat
    renewals = itertools.count(1)

    def heartbeat(self, job):
        if next(renewals) == n:
            stop.set()
        return renew(self, job)

    monkeypatch.setattr(JobQueue, "heartbeat", heartbeat)
    return stop


class TestGracefulShutdown:
    def test_preset_stop_event_exits_before_claiming(self, tmp_path, paper_reference):
        scenario, _, _ = paper_reference
        queue = JobQueue(tmp_path)
        queue.enqueue(scenario, _cells(scenario))
        stop = threading.Event()
        stop.set()
        assert run_worker(tmp_path, stop_event=stop, worker_id="halted") == 0
        assert len(queue.pending()) == 2  # nothing claimed, nothing lost

    def test_midcell_stop_checkpoints_then_releases(
        self, tmp_path, paper_reference, monkeypatch
    ):
        """SIGTERM mid-cell on a checkpointing job: progress persists."""
        scenario, _, ref_root = paper_reference
        store = ExperimentStore(tmp_path)
        queue = JobQueue(store)
        cell = _cells(scenario)[:1]
        queue.enqueue(scenario, cell, resume=True, checkpoint_every=1)
        h = scenario_hash(scenario)
        scheme, seed = cell[0]
        completed = run_worker(
            store,
            exit_when_idle=True,
            worker_id="leaver",
            stop_event=_stop_at_renewal(monkeypatch, 1),
        )
        assert completed == 0
        # The claim was released (no lock) and round 1 was checkpointed.
        assert not list((store.root / "jobs").rglob("*.lock"))
        checkpoint = store.load_checkpoint(h, scheme, seed)
        assert checkpoint is not None and checkpoint.round_index == 1
        # A successor resumes from the checkpoint and lands the
        # byte-identical manifest (the resume contract).
        assert run_worker(store, exit_when_idle=True, worker_id="successor") == 1
        ref = ref_root / "runs" / h / f"{scheme}-seed{seed}.json"
        mine = store.root / "runs" / h / f"{scheme}-seed{seed}.json"
        assert mine.read_bytes() == ref.read_bytes()
        assert store.load_checkpoint(h, scheme, seed) is None

    def test_midcell_stop_without_checkpointing_just_releases(
        self, tmp_path, paper_reference, monkeypatch
    ):
        scenario, _, ref_root = paper_reference
        store = ExperimentStore(tmp_path)
        queue = JobQueue(store)
        cell = _cells(scenario)[:1]
        queue.enqueue(scenario, cell)  # no checkpoint_every
        h = scenario_hash(scenario)
        scheme, seed = cell[0]
        assert (
            run_worker(
                store,
                exit_when_idle=True,
                worker_id="leaver",
                stop_event=_stop_at_renewal(monkeypatch, 2),
            )
            == 0
        )
        assert not list((store.root / "jobs").rglob("*.lock"))
        assert store.load_checkpoint(h, scheme, seed) is None
        assert len(queue.pending()) == 1  # the cell is immediately claimable
        # The successor restarts from round zero — slower, never different.
        assert run_worker(store, exit_when_idle=True, worker_id="successor") == 1
        ref = ref_root / "runs" / h / f"{scheme}-seed{seed}.json"
        mine = store.root / "runs" / h / f"{scheme}-seed{seed}.json"
        assert mine.read_bytes() == ref.read_bytes()

    def test_midcell_stop_releases_through_the_coordinator(
        self, coordinator, paper_reference, monkeypatch
    ):
        """The service path: a stopping push worker hands its claim back."""
        scenario, _, ref_root = paper_reference
        handle, store = coordinator
        cell = _cells(scenario)[:1]
        _request(
            handle.url,
            "POST",
            "/sweep",
            _sweep_payload(
                scenario, cell, resume=True, checkpoint_every=1
            ),
        )
        completed = run_worker(
            store.root,
            coordinator=handle.url,
            poll_interval=0.05,
            exit_when_idle=True,
            worker_id="svc-leaver",
            stop_event=_stop_at_renewal(monkeypatch, 1),
        )
        assert completed == 0
        health = WorkerClient(handle.url, "probe").health()
        assert health["claimed"] == 0  # released, not leaked until lease
        assert health["pending"] == 1
        h = scenario_hash(scenario)
        scheme, seed = cell[0]
        assert store.load_checkpoint(h, scheme, seed) is not None
        # A fresh push worker resumes and completes byte-identically.
        assert (
            run_worker(
                store.root,
                coordinator=handle.url,
                poll_interval=0.05,
                exit_when_idle=True,
                worker_id="svc-successor",
            )
            == 1
        )
        ref = ref_root / "runs" / h / f"{scheme}-seed{seed}.json"
        mine = store.root / "runs" / h / f"{scheme}-seed{seed}.json"
        assert mine.read_bytes() == ref.read_bytes()


# ----------------------------------------------------------------------
# CLI: the coordinator command
# ----------------------------------------------------------------------
class TestCoordinatorCLI:
    def test_coordinator_needs_a_store(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="--store"):
            main(["coordinator"])

    def test_cli_coordinator_serves_and_exits_cleanly_on_sigterm(self, tmp_path):
        """``python -m repro coordinator``: announce, serve, clean SIGTERM."""
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "coordinator",
                "--store",
                str(tmp_path),
                "--port",
                "0",
            ],
            env=_src_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            announce = proc.stdout.readline()
            assert "coordinator: http://" in announce
            url = announce.split()[1]
            health = WorkerClient(url, "probe").health()
            assert health["ok"] is True
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
            assert code == 0
            assert "stopped" in proc.stdout.read()
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait(timeout=10)


# ----------------------------------------------------------------------
# SIGTERM to a service run takes its spawned worker down with it
# ----------------------------------------------------------------------
def _children(pid: int) -> dict[int, str]:
    """``{pid: command line}`` of the live child processes of ``pid``."""
    children = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            if int(fields[1]) == pid and fields[0] != "Z":
                cmdline = (stat.parent / "cmdline").read_bytes()
                children[int(stat.parent.name)] = cmdline.replace(b"\0", b" ").decode()
        except (OSError, IndexError, ValueError):
            continue
    return children


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"  # a zombie has exited


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigterm_to_a_service_run_stops_its_worker(tmp_path):
    """``run`` exits 143 on SIGTERM, closing the executor, whose worker
    must not drain the queue on its own after the run is gone."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "run", "--preset", "smoke",
            "--set", "n_rounds=30", "--set", "schemes=FMore,RandFL",
            "--set", "seeds=0,1", "--store", str(tmp_path / "store"),
            "--executor", "service", "--parallel", "1",
        ],
        env=_src_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    worker = None
    try:
        deadline = time.time() + 60.0
        while worker is None and time.time() < deadline and proc.poll() is None:
            workers = [p for p, cmd in _children(proc.pid).items() if " worker " in cmd]
            worker = workers[0] if workers else None
            time.sleep(0.1)
        assert worker is not None, "the service run never spawned its worker"
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        deadline = time.time() + 15.0
        while _alive(worker) and time.time() < deadline:
            time.sleep(0.1)
        assert not _alive(worker), "the worker outlived its run"
        assert code == 128 + signal.SIGTERM
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait(timeout=10)
        if worker is not None and _alive(worker):  # pragma: no cover
            os.kill(worker, signal.SIGKILL)
