"""The distributed sweep backend: job queue, workers, coordinator, scripts.

The contracts under test (ISSUE 5 acceptance):

* the ``service`` executor, queueing in the store without a
  coordinator, produces **bitwise-identical**
  ``RunResult``s — histories, payments, and byte-for-byte manifests —
  versus the serial executor, on the paper-preset simulation game (with
  a policy pipeline) and the Section V-C cluster testbed;
* a worker killed after claiming a cell is handled by lease expiry: the
  stale lock is stolen, the cell re-queued and completed identically
  (restarted from round zero, or resumed from its checkpoint when the
  run asked for ``resume``);
* store-sharing edge cases: concurrent manifest writes to one cell are
  last-writer-wins over identical bytes, a worker pointed at a foreign
  store dies with ``StoreMismatchError``, and stale locks are reclaimed;
* claims stay exclusive across processes: claimers released together
  by a barrier never take one cell twice, neither a fresh one nor one
  whose lock expired;
* ``scenario --emit-jobs`` writes runnable SLURM-style per-cell scripts
  speaking the same store protocol.
"""

from __future__ import annotations

import json
import multiprocessing
import re
import shutil
import threading
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.api import (
    EXECUTORS,
    ExperimentStore,
    FMoreEngine,
    JobQueue,
    RunResult,
    Scenario,
    ServiceExecutor,
    StoreError,
    StoreMismatchError,
    emit_job_scripts,
    run_worker,
    scenario_hash,
)

POLICIES = {
    "churn": {"departure_prob": 0.25, "arrival_prob": 0.6},
    "audit_blacklist": {
        "defect_fraction": 0.3,
        "shortfall": 0.5,
        "strikes_to_ban": 1,
    },
}


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


def _cluster_scenario(**overrides) -> Scenario:
    return Scenario.from_preset(
        "cluster_cifar10",
        seeds=(0,),
        n_clients=6,
        k_winners=2,
        n_rounds=2,
        test_per_class=6,
        size_range=(40, 120),
        model_width=0.12,
        grid_size=17,
        **overrides,
    )


def _cells(scenario: Scenario) -> list[tuple[str, int]]:
    return [(s, d) for d in scenario.seeds for s in scenario.schemes]


def _store_queued(scenario: Scenario, **execution) -> Scenario:
    """``scenario`` as a ``service`` sweep queued in the store."""
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


def _drain_in_thread(store_root: Path, n_cells: int, worker_id: str) -> threading.Thread:
    """A background worker that completes exactly ``n_cells`` then exits."""
    thread = threading.Thread(
        target=run_worker,
        kwargs=dict(
            store=store_root,
            poll_interval=0.02,
            max_cells=n_cells,
            worker_id=worker_id,
        ),
        daemon=True,
    )
    thread.start()
    return thread


@pytest.fixture(scope="module")
def paper_reference(tmp_path_factory):
    scenario = _paper_scenario()
    root = tmp_path_factory.mktemp("paper-serial")
    result = FMoreEngine().run(scenario, store=root)
    return scenario, result, root


@pytest.fixture(scope="module")
def cluster_reference(tmp_path_factory):
    scenario = _cluster_scenario()
    root = tmp_path_factory.mktemp("cluster-serial")
    result = FMoreEngine().run(scenario, store=root)
    return scenario, result, root


# ----------------------------------------------------------------------
# Scenario spec surface
# ----------------------------------------------------------------------
class TestDistributedExecutionSpec:
    """The ``service`` spec without a ``coordinator_url``: a sweep queued
    in the store (its ``coordinator_url`` keys are covered in
    ``tests/test_coordinator.py``)."""

    def test_registered(self):
        assert "distributed" not in EXECUTORS
        executor = EXECUTORS.create(
            {"name": "service", "max_workers": 2, "lease_seconds": 5}
        )
        assert isinstance(executor, ServiceExecutor)
        assert executor.coordinator_url is None
        assert executor.needs_store
        assert not executor.in_process

    def test_spec_canonicalised_with_defaults_and_round_trips(self):
        scenario = Scenario(
            execution={
                "executor": "service",
                "lease_seconds": 30,
                "poll_interval": 0.5,
            }
        )
        assert scenario.execution == {
            "executor": "service",
            "max_workers": None,
            "lease_seconds": 30.0,
            "poll_interval": 0.5,
            "coordinator_url": None,
        }
        again = Scenario.from_json(scenario.to_json())
        assert again.execution == scenario.execution

    def test_lease_keys_rejected_for_pool_executors(self):
        with pytest.raises(ValueError, match="only apply to"):
            Scenario(execution={"executor": "serial", "lease_seconds": 5})
        with pytest.raises(ValueError, match="only apply to"):
            Scenario(execution={"executor": "process", "poll_interval": 1})

    def test_zero_workers_means_coordinate_only(self):
        scenario = _store_queued(_paper_scenario())
        assert scenario.execution["max_workers"] == 0
        assert scenario.execution["coordinator_url"] is None
        with pytest.raises(ValueError, match="max_workers"):
            Scenario(execution={"executor": "process", "max_workers": 0})

    def test_bad_lease_and_poll_rejected(self):
        # A NaN or inf lease never expires, so a crashed claimant would
        # strand its cell for good.
        for key, bad in (
            ("lease_seconds", -1),
            ("lease_seconds", float("nan")),
            ("lease_seconds", float("inf")),
            ("lease_seconds", True),
            ("poll_interval", 0),
            ("poll_interval", float("nan")),
            ("poll_interval", float("inf")),
            ("poll_interval", True),
        ):
            with pytest.raises(ValueError, match=key):
                Scenario(execution={"executor": "service", key: bad})

    def test_execution_spec_still_outside_the_content_address(self):
        scenario = _paper_scenario()
        assert scenario_hash(scenario) == scenario_hash(_store_queued(scenario))

    def test_map_is_not_the_interface(self):
        executor = ServiceExecutor(
            max_workers=2, lease_seconds=30.0, poll_interval=0.2
        )
        with pytest.raises(RuntimeError, match="execute_plan"):
            executor.map(abs, [1])

    def test_cli_executor_flag_switches_off_distributed(self, tmp_path, capsys):
        """--executor serial on a store-queued scenario must drop the
        store-only keys instead of tripping validation."""
        spec_path = tmp_path / "dist.json"
        spec_path.write_text(
            Scenario(execution={"executor": "service"}).to_json()
        )
        assert (
            main(["scenario", "--scenario", str(spec_path), "--executor", "serial"])
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["execution"] == {"executor": "serial", "max_workers": None}
        # --parallel alone keeps the service executor (N local workers).
        assert main(["scenario", "--scenario", str(spec_path), "--parallel", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["execution"]["executor"] == "service"
        assert out["execution"]["max_workers"] == 3


# ----------------------------------------------------------------------
# The filesystem job queue
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_enqueue_skips_done_and_queued_cells(self, tmp_path, paper_reference):
        scenario, _, _ = paper_reference
        store = ExperimentStore(tmp_path)
        queue = JobQueue(store)
        written = queue.enqueue(scenario, _cells(scenario))
        assert len(written) == 2
        # Idempotent: nothing new on a re-enqueue.
        assert queue.enqueue(scenario, _cells(scenario)) == []
        assert len(queue.pending()) == 2
        # A landed manifest retires the cell from future enqueues.
        history = FMoreEngine().session(scenario, "FMore", 0).run()
        store.save_history(scenario, "FMore", 0, history)
        for path in written:
            path.unlink()
        assert [p.name for p in queue.enqueue(scenario, _cells(scenario))] == [
            "RandFL-seed0.json"
        ]

    def test_claim_is_exclusive_and_ordered(self, tmp_path, paper_reference):
        scenario, _, _ = paper_reference
        queue = JobQueue(tmp_path)
        queue.enqueue(scenario, _cells(scenario))
        first = queue.claim("w1")
        second = queue.claim("w2")
        assert first is not None and second is not None
        assert {first.cell, second.cell} == set(_cells(scenario))
        assert first.worker == "w1" and second.worker == "w2"
        assert queue.claim("w3") is None  # everything locked
        queue.release(first)
        stolen = queue.claim("w3")
        assert stolen is not None and stolen.cell == first.cell

    def test_heartbeat_detects_a_stolen_lease(self, tmp_path, paper_reference):
        scenario, _, _ = paper_reference
        queue = JobQueue(tmp_path)
        # A single cell, so the steal is the thief's only option whatever
        # its shuffled scan order.
        queue.enqueue(scenario, _cells(scenario)[:1], lease_seconds=0.0)
        victim = queue.claim("victim")
        assert victim is not None
        # lease_seconds=0: instantly stale, so another worker steals it.
        thief = queue.claim("thief")
        assert thief is not None and thief.cell == victim.cell
        assert queue.heartbeat(victim) is False
        assert queue.heartbeat(thief) is True

    def test_reclaim_stale_requeues_dead_claims(self, tmp_path, paper_reference):
        scenario, _, _ = paper_reference
        queue = JobQueue(tmp_path)
        queue.enqueue(scenario, _cells(scenario), lease_seconds=0.0)
        job = queue.claim("dead")
        assert job is not None
        assert job.lock_path.exists()
        reclaimed = queue.reclaim_stale()
        assert job.lock_path in reclaimed
        assert not job.lock_path.exists()
        # Live claims survive a reclaim pass.
        queue2 = JobQueue(tmp_path / "live")
        queue2.enqueue(scenario, _cells(scenario), lease_seconds=300.0)
        live = queue2.claim("alive")
        assert queue2.reclaim_stale() == []
        assert live.lock_path.exists()

    def test_payload_less_lock_ages_out_by_mtime(self, tmp_path, paper_reference):
        """A worker killed between creating a lock and writing its payload
        leaves a 0-byte file with no recorded lease; it must age out by
        mtime instead of wedging the cell forever."""
        import os
        import time

        scenario, _, _ = paper_reference
        queue = JobQueue(tmp_path)
        written = queue.enqueue(scenario, _cells(scenario))
        empty_lock = JobQueue.lock_path_for(written[0])
        empty_lock.touch()
        # Fresh payload-less locks are treated as live (mid-write race)...
        assert queue.claim("wary") is not None  # the *other* cell
        assert queue.claim("wary") is None
        # ...but once older than the default lease they are stealable.
        old = time.time() - 10_000
        os.utime(empty_lock, (old, old))
        stolen = queue.claim("janitor")
        assert stolen is not None
        assert stolen.path == written[0]

    def test_reclaim_stale_removes_old_heartbeat_temp_files(
        self, tmp_path, paper_reference
    ):
        """A worker killed mid-heartbeat leaves ``<lock>.<pid>.<tid>.tmp``;
        the janitor removes it once older than the default lease."""
        import os
        import time

        scenario, _, _ = paper_reference
        queue = JobQueue(tmp_path)
        job = queue.enqueue(scenario, _cells(scenario))[0]
        lock = JobQueue.lock_path_for(job)
        old_debris = lock.with_name(f"{lock.name}.4242.139.tmp")
        fresh_debris = lock.with_name(f"{lock.name}.4243.139.tmp")
        for debris in (old_debris, fresh_debris):
            debris.write_text("{}")
        old = time.time() - 10_000
        os.utime(old_debris, (old, old))
        queue.reclaim_stale()
        assert not old_debris.exists()
        assert fresh_debris.exists()  # may be a live replace mid-race

    def test_worker_on_a_foreign_store_fails_fast(self, tmp_path, paper_reference):
        scenario, _, _ = paper_reference
        # Store A queues our scenario's jobs...
        store_a = ExperimentStore(tmp_path / "a")
        JobQueue(store_a).enqueue(scenario, _cells(scenario))
        # ...store B was populated by a *different* scenario.
        store_b = ExperimentStore(tmp_path / "b")
        store_b.register_scenario(scenario.with_(name="somebody-else"))
        shutil.copytree(store_a.root / "jobs", store_b.root / "jobs")
        with pytest.raises(StoreMismatchError, match="foreign store"):
            JobQueue(store_b).claim("lost-worker")
        # The CLI surfaces it as a clean error, not a traceback.
        with pytest.raises(SystemExit, match="foreign store"):
            main(["worker", "--store", str(store_b.root), "--exit-when-idle"])


# ----------------------------------------------------------------------
# Claims racing across processes
# ----------------------------------------------------------------------
def _claimer(label: str, barrier, conn) -> None:
    """A claimer process: per ``(command, store root)`` it waits at the
    barrier, then claims once (``"once"``) or until the queue is empty
    (``"drain"``), and sends back the cells it got."""
    for command, root in iter(conn.recv, None):
        queue = JobQueue(root)
        barrier.wait(timeout=60)
        cells = []
        while (job := queue.claim(label)) is not None:
            cells.append(job.cell)
            if command == "once":
                break
        conn.send(cells)


class TestClaimRaces:
    N_CLAIMERS = 4

    @pytest.fixture(scope="class")
    def claimers(self):
        """Claimer processes shared by every trial: one pipe end each."""
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(self.N_CLAIMERS)
        pipes, procs = [], []
        for i in range(self.N_CLAIMERS):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(
                target=_claimer, args=(f"racer-{i}", barrier, theirs), daemon=True
            )
            proc.start()
            theirs.close()  # a dead claimer then reads as EOF, not a hang
            pipes.append(mine)
            procs.append(proc)
        yield pipes
        for pipe in pipes:
            pipe.send(None)
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - cleanup on failure
                proc.kill()

    @staticmethod
    def _race(claimers, command: str, root: Path) -> list[list[tuple[str, int]]]:
        for pipe in claimers:
            pipe.send((command, root))
        assert all(pipe.poll(60) for pipe in claimers), "a claimer hung"
        return [pipe.recv() for pipe in claimers]

    def test_exactly_one_claimer_steals_an_expired_lock(self, tmp_path, claimers):
        scenario = _paper_scenario()
        queue = JobQueue(tmp_path)
        for trial in range(100):
            [path] = queue.enqueue(scenario, [("FMore", trial)], lease_seconds=60.0)
            lock = JobQueue.lock_path_for(path)
            expired = {"worker": "dead", "heartbeat": time.time() - 120.0,
                       "lease_seconds": 60.0}
            lock.write_text(json.dumps(expired))
            got = [cells for cells in self._race(claimers, "once", tmp_path) if cells]
            assert len(got) == 1, f"trial {trial}: {got}"
            path.unlink()
            lock.unlink()

    def test_every_cell_claimed_exactly_once(self, tmp_path, claimers):
        scenario = _paper_scenario()
        cells = [(scheme, seed) for seed in range(20) for scheme in scenario.schemes]
        JobQueue(tmp_path).enqueue(scenario, cells)
        claimed = [
            cell for got in self._race(claimers, "drain", tmp_path) for cell in got
        ]
        assert sorted(claimed) == sorted(cells)


# ----------------------------------------------------------------------
# Workers: drain, steal, resume — always bitwise
# ----------------------------------------------------------------------
class TestWorker:
    def test_drains_queue_bitwise_paper_preset(self, tmp_path, paper_reference):
        scenario, reference, ref_root = paper_reference
        store = ExperimentStore(tmp_path)
        queue = JobQueue(store)
        queue.enqueue(scenario, _cells(scenario))
        completed = run_worker(store, exit_when_idle=True, worker_id="w0")
        assert completed == 2
        assert queue.pending() == []
        result = RunResult.load(store, scenario)
        for scheme in scenario.schemes:
            assert (
                result.histories[scheme][0].records
                == reference.histories[scheme][0].records
            )
        _assert_manifests_bitwise(ref_root, tmp_path)

    def test_drains_queue_bitwise_cluster_preset(self, tmp_path, cluster_reference):
        scenario, reference, ref_root = cluster_reference
        store = ExperimentStore(tmp_path)
        JobQueue(store).enqueue(scenario, _cells(scenario))
        assert run_worker(store, exit_when_idle=True) == 2
        result = RunResult.load(store, scenario)
        for scheme in scenario.schemes:
            mine = result.histories[scheme][0]
            ref = reference.histories[scheme][0]
            assert mine.records == ref.records
            assert mine.cumulative_seconds == ref.cumulative_seconds
        _assert_manifests_bitwise(ref_root, tmp_path)

    def test_killed_worker_requeued_via_lease_and_completed_bitwise(
        self, tmp_path, paper_reference
    ):
        scenario, _, ref_root = paper_reference
        store = ExperimentStore(tmp_path)
        queue = JobQueue(store)
        queue.enqueue(scenario, _cells(scenario), lease_seconds=0.0)
        # The victim claims a cell and "dies" — lock left behind, no
        # manifest, exactly what kill -9 mid-cell leaves on disk.
        assert queue.claim("victim") is not None
        locks = list((store.root / "jobs").rglob("*.lock"))
        assert len(locks) == 1
        assert not list((store.root / "runs").rglob("*.json"))
        # A surviving worker steals the expired lease and finishes all.
        assert run_worker(store, exit_when_idle=True, worker_id="thief") == 2
        assert queue.pending() == []
        _assert_manifests_bitwise(ref_root, tmp_path)

    def test_stolen_cell_resumes_from_checkpoint_bitwise(
        self, tmp_path, paper_reference
    ):
        scenario, _, ref_root = paper_reference
        store = ExperimentStore(tmp_path)
        queue = JobQueue(store)
        queue.enqueue(
            scenario, _cells(scenario), resume=True, lease_seconds=0.0
        )
        # Simulate a worker that ran one round, checkpointed, then died.
        victim = queue.claim("victim")
        assert victim is not None
        engine = FMoreEngine()
        session = engine.session(scenario, victim.scheme, victim.seed)
        next(session)
        store.save_checkpoint(session.snapshot())
        del session  # lock stays: the victim never released or completed
        # The thief must pick the cell up from round 1, not round 0, and
        # still land the byte-identical manifest.
        assert run_worker(store, exit_when_idle=True, worker_id="thief") == 2
        _assert_manifests_bitwise(ref_root, tmp_path)
        assert not list((store.root / "checkpoints").rglob("state.json"))

    @pytest.mark.parametrize(
        "name, damaged",
        [
            ("state.json", lambda data: b"{not json"),
            ("state.json", lambda data: b'{"format": 1}'),
            ("weights.npz", lambda data: data[:100]),
            ("weights.npz", lambda data: b"garbage"),
        ],
        ids=["state-not-json", "state-no-keys", "weights-cut", "weights-garbage"],
    )
    def test_setup_failure_releases_the_claim(
        self, tmp_path, paper_reference, name, damaged
    ):
        """A cell that fails before its first round (here on a damaged
        checkpoint file) hands its claim back at once, instead of holding
        it until the lease expires."""
        scenario, _, _ = paper_reference
        store = ExperimentStore(tmp_path)
        queue = JobQueue(store)
        queue.enqueue(scenario, [("FMore", 0)], resume=True)
        session = FMoreEngine().session(scenario, "FMore", 0)
        next(session)
        path = store.save_checkpoint(session.snapshot()) / name
        assert path.parent.name == "round-1"
        path.write_bytes(damaged(path.read_bytes()))
        with pytest.raises(StoreError, match=re.escape(f"corrupt store file {path}: ")):
            run_worker(store, exit_when_idle=True)
        assert not list((store.root / "jobs").rglob("*.lock"))
        assert queue.unclaimed() == [
            queue.job_path(scenario_hash(scenario), "FMore", 0)
        ]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("data_seed", 3.7),
            ("execution.local_training", {"executor": "thread", "max_workers": 2}),
        ],
        ids=["data_seed", "local_training"],
    )
    def test_unloadable_scenario_releases_the_claim(
        self, tmp_path, paper_reference, key, value
    ):
        """A registered spec that no longer validates (a fractional
        ``data_seed`` or an ``execution.local_training`` sub-spec, both of
        which older versions wrote) fails the claim and leaves no lock
        behind."""
        scenario, _, _ = paper_reference
        store = ExperimentStore(tmp_path)
        queue = JobQueue(store)
        queue.enqueue(scenario, [("FMore", 0)])
        path = store.scenario_path(scenario)
        registered = json.loads(path.read_text())
        *parents, field = key.split(".")
        spec = registered["scenario"]
        for part in parents:
            spec = spec[part]
        spec[field] = value
        path.write_text(json.dumps(registered))
        with pytest.raises(ValueError, match=field):
            run_worker(store, exit_when_idle=True)
        assert not list((store.root / "jobs").rglob("*.lock"))
        assert len(queue.unclaimed()) == 1

    def test_worker_skips_cell_completed_elsewhere(self, tmp_path, paper_reference):
        scenario, reference, _ = paper_reference
        store = ExperimentStore(tmp_path)
        queue = JobQueue(store)
        queue.enqueue(scenario, _cells(scenario))
        # Another worker (on another machine) finished FMore but crashed
        # before retiring the job file.
        store.save_history(
            scenario, "FMore", 0, reference.histories["FMore"][0]
        )
        completed = run_worker(store, exit_when_idle=True)
        assert completed == 1  # only RandFL actually ran
        assert queue.pending() == []

    def test_concurrent_manifest_writes_last_writer_wins(
        self, tmp_path, paper_reference
    ):
        scenario, reference, _ = paper_reference
        store = ExperimentStore(tmp_path)
        history = reference.histories["FMore"][0]
        first = store.save_history(scenario, "FMore", 0, history).read_bytes()
        # A racing worker re-writes the same cell: atomic replace, and the
        # deterministic cell contract makes the bytes identical.
        second = store.save_history(scenario, "FMore", 0, history).read_bytes()
        assert first == second
        assert store.load_history(scenario, "FMore", 0).records == history.records


# ----------------------------------------------------------------------
# The coordinator (engine integration)
# ----------------------------------------------------------------------
class TestDistributedEngine:
    def test_needs_a_store(self):
        scenario = _store_queued(_paper_scenario())
        with pytest.raises(ValueError, match="store"):
            FMoreEngine().run(scenario)

    def test_rejects_stop_after(self, tmp_path):
        scenario = _store_queued(_paper_scenario())
        with pytest.raises(ValueError, match="stop_after"):
            FMoreEngine().run(scenario, store=tmp_path, stop_after=1)

    def test_coordinate_only_run_with_external_worker_bitwise(
        self, tmp_path, paper_reference
    ):
        scenario, reference, ref_root = paper_reference
        plan = _store_queued(scenario)
        thread = _drain_in_thread(tmp_path, n_cells=2, worker_id="external")
        result = FMoreEngine().run(plan, store=tmp_path)
        thread.join(timeout=120)
        assert not thread.is_alive()
        for scheme in scenario.schemes:
            assert (
                result.histories[scheme][0].records
                == reference.histories[scheme][0].records
            )
        _assert_manifests_bitwise(ref_root, tmp_path)
        assert JobQueue(tmp_path).pending() == []

    def test_completed_cells_load_instead_of_requeue(
        self, tmp_path, paper_reference
    ):
        scenario, reference, _ = paper_reference
        store = ExperimentStore(tmp_path)
        reference.save(store)
        # Every cell has a manifest: no workers exist, yet the run returns
        # immediately with the stored histories.
        result = FMoreEngine().run(_store_queued(scenario), store=store)
        for scheme in scenario.schemes:
            assert (
                result.histories[scheme][0].records
                == reference.histories[scheme][0].records
            )
        assert JobQueue(store).pending() == []

    def test_force_recomputes_through_workers_bitwise(
        self, tmp_path, paper_reference
    ):
        scenario, reference, ref_root = paper_reference
        store = ExperimentStore(tmp_path)
        reference.save(store)
        thread = _drain_in_thread(tmp_path, n_cells=2, worker_id="forcer")
        result = FMoreEngine().run(_store_queued(scenario), store=store, force=True)
        thread.join(timeout=120)
        assert not thread.is_alive()
        for scheme in scenario.schemes:
            assert (
                result.histories[scheme][0].records
                == reference.histories[scheme][0].records
            )
        _assert_manifests_bitwise(ref_root, tmp_path)

    def test_spawned_local_workers_bitwise(self, tmp_path, paper_reference):
        """The full subprocess path: the executor spawns 2 real workers."""
        scenario, reference, ref_root = paper_reference
        plan = _store_queued(scenario, max_workers=2, poll_interval=0.2)
        result = FMoreEngine().run(plan, store=tmp_path)
        for scheme in scenario.schemes:
            assert (
                result.histories[scheme][0].records
                == reference.histories[scheme][0].records
            )
        _assert_manifests_bitwise(ref_root, tmp_path)
        # The sweep retired every job spec and lock on completion.
        assert JobQueue(tmp_path).pending() == []
        assert not list((Path(tmp_path) / "jobs").rglob("*.lock"))

    def test_spawned_workers_leave_when_the_queue_drains(
        self, tmp_path, paper_reference, monkeypatch
    ):
        """Without a coordinator the spawned workers scan the store and
        exit by themselves once it is drained; close() only stops
        stragglers."""
        scenario, _, ref_root = paper_reference
        spawned = []
        spawn = ServiceExecutor._spawn_worker

        def record(self, store):
            spawned.append(spawn(self, store))
            return spawned[-1]

        monkeypatch.setattr(ServiceExecutor, "_spawn_worker", record)
        executor = ServiceExecutor(max_workers=2, lease_seconds=30.0, poll_interval=0.2)
        try:
            executor.execute_plan(scenario, _cells(scenario), ExperimentStore(tmp_path))
            assert len(spawned) == 2
            for proc in spawned:
                assert "--store" in proc.args and "--exit-when-idle" in proc.args
                assert "--coordinator" not in proc.args
                assert proc.wait(timeout=5) == 0
        finally:
            executor.close()
        _assert_manifests_bitwise(ref_root, tmp_path)

    def test_store_naming_the_retired_executor_fails_until_resubmitted(
        self, tmp_path, paper_reference
    ):
        """A scenario file whose plan names the retired ``distributed``
        executor no longer loads: a worker fails on it naming the file and
        keeps no claim, and the next submission rewrites the file."""
        scenario, _, ref_root = paper_reference
        store = ExperimentStore(tmp_path)
        queue = JobQueue(store)
        plan = _store_queued(scenario, max_workers=1, poll_interval=0.2)
        queue.enqueue(plan, _cells(scenario))
        path = store.scenario_path(scenario)
        registered = json.loads(path.read_text())
        # The spec the retired executor wrote: the service one without
        # coordinator_url.
        execution = registered["scenario"]["execution"]
        del execution["coordinator_url"]
        execution["executor"] = "distributed"
        path.write_text(json.dumps(registered))
        with pytest.raises(StoreError, match=re.escape(f"stored scenario {path}")):
            run_worker(store, exit_when_idle=True)
        assert not list((store.root / "jobs").rglob("*.lock"))
        assert len(queue.unclaimed()) == 2
        FMoreEngine().run(plan, store=store)
        _assert_manifests_bitwise(ref_root, tmp_path)
        assert store.load_scenario(scenario_hash(scenario)).execution == plan.execution
        assert queue.pending() == []


# ----------------------------------------------------------------------
# CLI worker + batch job emission
# ----------------------------------------------------------------------
class TestWorkerCLI:
    def test_worker_needs_a_store(self):
        with pytest.raises(SystemExit, match="--store"):
            main(["worker"])

    def test_worker_drains_and_reports(self, tmp_path, paper_reference, capsys):
        scenario, _, ref_root = paper_reference
        JobQueue(tmp_path).enqueue(scenario, _cells(scenario))
        code = main(
            [
                "worker",
                "--store",
                str(tmp_path),
                "--exit-when-idle",
                "--worker-id",
                "cli-worker",
            ]
        )
        assert code == 0
        assert "completed 2 cell(s)" in capsys.readouterr().out
        _assert_manifests_bitwise(ref_root, tmp_path)

    def test_max_cells_bounds_the_lifetime(self, tmp_path, paper_reference, capsys):
        scenario, _, _ = paper_reference
        JobQueue(tmp_path).enqueue(scenario, _cells(scenario))
        assert main(["worker", "--store", str(tmp_path), "--max-cells", "1"]) == 0
        assert "completed 1 cell(s)" in capsys.readouterr().out
        assert len(JobQueue(tmp_path).pending()) == 1


class TestEmitJobs:
    def test_emits_scenario_scripts_array_and_readme(self, tmp_path):
        scenario = _paper_scenario(seeds=(0, 1))
        written = emit_job_scripts(scenario, tmp_path / "sweep")
        names = {p.name for p in written}
        assert "scenario.json" in names
        assert "submit_array.sh" in names
        assert "README.md" in names
        # One executable script per (scheme, seed) cell, each referenced
        # by the array wrapper, all addressing the same scenario hash.
        cells = _cells(scenario)
        scripts = sorted((tmp_path / "sweep" / "jobs").glob("cell-*.sh"))
        assert len(scripts) == len(cells)
        array_text = (tmp_path / "sweep" / "submit_array.sh").read_text()
        assert f"--array=0-{len(cells) - 1}" in array_text
        for scheme, seed in cells:
            script = tmp_path / "sweep" / "jobs" / f"cell-{scheme}-seed{seed}.sh"
            assert script.stat().st_mode & 0o111, "cell script not executable"
            text = script.read_text()
            assert f"--set schemes={scheme}" in text
            assert f"--set seeds={seed}" in text
            assert f"jobs/{script.name}" in array_text
        spec = Scenario.from_json(
            (tmp_path / "sweep" / "scenario.json").read_text()
        )
        assert spec == scenario

    def test_cli_emit_jobs_flag(self, tmp_path, capsys):
        code = main(
            [
                "scenario",
                "--preset",
                "smoke",
                "--set",
                "n_rounds=2",
                "--emit-jobs",
                str(tmp_path / "sweep"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "submit_array.sh" in out
        assert (tmp_path / "sweep" / "scenario.json").exists()

    def test_emitted_script_runs_one_cell_bitwise(self, tmp_path, paper_reference):
        """A cell script is the store protocol with a scheduler as the
        coordinator: running it must land the byte-identical manifest."""
        import os
        import subprocess
        import sys

        scenario, _, ref_root = paper_reference
        emit_job_scripts(scenario, tmp_path / "sweep")
        script = tmp_path / "sweep" / "jobs" / "cell-FMore-seed0.sh"
        store_root = tmp_path / "store"
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["STORE"] = str(store_root)
        env["PYTHONPATH"] = (
            src_dir
            if not env.get("PYTHONPATH")
            else os.pathsep.join([src_dir, env["PYTHONPATH"]])
        )
        proc = subprocess.run(
            ["bash", str(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        h = scenario_hash(scenario)
        cell = f"runs/{h}/FMore-seed0.json"
        assert (store_root / cell).read_bytes() == (ref_root / cell).read_bytes()
