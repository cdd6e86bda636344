"""Distributed sweeps: a work-stealing job queue over the experiment store.

The ``(scheme, seed)`` cells of a :class:`~repro.api.scenario.Scenario`
plan are pure functions of ``(scenario, scheme, seed)`` — every cell
derives its randomness from named seed streams, and a completed cell is
one content-addressed manifest in an
:class:`~repro.api.store.ExperimentStore`.  That makes the store itself a
results bus: this module adds the matching *job* bus, so a sweep can fan
out across processes and machines that share nothing but a filesystem.

Three cooperating roles, socket-free unless a coordinator is named:

* **Submitter** — the registry-registered ``"service"`` executor
  (:class:`repro.api.coordinator.ServiceExecutor`).  ``FMoreEngine.run``
  hands it the pending cells; it registers the scenario once under
  ``<store>/scenarios/<hash>.json`` and enqueues one *job spec* per cell
  (the cell address plus the scenario hash — specs reference the
  registered scenario rather than embedding it) under
  ``<store>/jobs/<scenario-hash>/``,
  optionally spawns local worker processes, and then just polls the store
  until every cell's manifest exists.  Worker death is handled by *lease
  timeouts*: a claimed job whose lock stops heartbeating is re-queued
  (its lock reclaimed) so surviving workers steal the cell.  Given a
  ``coordinator_url`` it submits through the event-driven coordinator
  (:mod:`repro.api.coordinator`) instead, which claims from this same
  queue on its workers' behalf.
* **Workers** — ``python -m repro worker --store DIR`` (or
  :func:`run_worker`).  Each worker scans the job directory, claims cells
  with atomic ``O_CREAT | O_EXCL`` lock files (work-stealing: whoever
  creates the lock first owns the cell), runs the cell through the
  ordinary engine session path, heartbeats its lock every round, writes
  the cell's manifest and removes the job.  Workers are interchangeable
  and stateless between cells — point any number of them, on any machine,
  at the shared store.
* **Batch clusters** — :func:`emit_job_scripts` (CLI: ``python -m repro
  scenario --emit-jobs DIR``) writes one SLURM-style shell script per
  cell plus an array-job wrapper.  Each script runs its single cell as a
  plain serial ``python -m repro run`` against ``$STORE``; because the
  manifest address excludes the run plan, all cells land under one
  scenario hash and the full ``RunResult`` assembles from any machine —
  the same store protocol, with the scheduler playing coordinator.

Determinism contract: however a cell is executed — serially, stolen after
a worker crash, restarted from scratch or resumed from a checkpoint — its
manifest is byte-identical to the serial executor's, because the engine
path and the RNG streams are the same (pinned in
``tests/test_distributed.py``).  Duplicate execution (two workers racing
one cell across a lease expiry) is therefore harmless: manifest writes
are atomic and last-writer-wins over identical bytes.

Queue layout under the store root::

    jobs/<hash>/<scheme>-seed<seed>.json        # job spec (removed when done)
    jobs/<hash>/<scheme>-seed<seed>.lock        # claim: owner + heartbeat
    jobs/<hash>/<scheme>-seed<seed>.lock.steal  # takeover mutex (transient)

The lock protocol is plain-POSIX: claims use ``O_CREAT | O_EXCL``
(atomic on local filesystems and on NFSv3+), heartbeats rewrite the lock
via temp-file + ``os.replace``, and stale-lock takeover happens under a
per-cell ``.lock.steal`` mutex (also ``O_EXCL``) that re-judges the lock
before removing it, so exactly one of any number of racing claimers
takes an expired cell.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import stat
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from ..fl.serialize import atomic_write

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> scenario)
    from .scenario import Scenario
    from .store import ExperimentStore

__all__ = [
    "JobQueue",
    "Job",
    "run_worker",
    "emit_job_scripts",
    "idle_backoff",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_POLL_INTERVAL",
]

# Format 2 job specs reference the registered ``scenarios/<hash>.json``
# by hash instead of embedding the full scenario JSON (one copy per sweep
# rather than one per cell).  Every job is claimed through that file, so
# a spec whose scenario the store never registered (format 1 specs
# embedded theirs) is a foreign-store job.
JOB_FORMAT = 2

#: How long a claimed cell may go without a heartbeat before any other
#: worker (or the coordinator) may re-queue it.  Workers heartbeat once
#: per protocol round, so the lease must comfortably exceed the slowest
#: round — see docs/deployment.md for sizing guidance.
DEFAULT_LEASE_SECONDS = 300.0

#: How often idle workers re-scan the queue and a store-queued ``service``
#: sweep re-polls the store for finished manifests.
DEFAULT_POLL_INTERVAL = 1.0


def _now() -> float:
    return time.time()


def _worker_label(worker_id: str | None = None) -> str:
    """A globally-unique worker identity (host + pid + nonce by default)."""
    if worker_id:
        return str(worker_id)
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


#: First idle-poll delay of the exponential backoff, as a fraction of the
#: configured ``poll_interval`` (the cap).  Eight consecutive empty scans
#: walk the delay from ``poll_interval / 128`` up to the full interval.
_BACKOFF_START_FRACTION = 1.0 / 128.0


def idle_backoff(
    idle_passes: int, poll_interval: float, rng: random.Random
) -> float:
    """Jittered exponential idle delay, capped at ``poll_interval``.

    A fleet of workers that all find the queue empty on the same scan
    must not re-scan in lockstep forever — a fixed-interval sleep
    synchronizes the herd, so every poll hammers the shared filesystem
    at once.  Instead the delay doubles per consecutive empty pass
    (``idle_passes`` >= 1), capped at ``poll_interval``, and each worker
    draws a uniform jitter in ``[0.5, 1.0)`` of the nominal delay from
    its own RNG — fresh work is picked up quickly, and steady-state
    idlers spread across the interval.
    """
    if idle_passes < 1:
        raise ValueError("idle_passes counts from 1")
    if poll_interval <= 0.0:
        raise ValueError("poll_interval must be > 0")
    nominal = min(
        poll_interval,
        poll_interval * _BACKOFF_START_FRACTION * (2.0 ** (idle_passes - 1)),
    )
    return nominal * (0.5 + 0.5 * rng.random())


class _StopFlag:
    """The worker's shutdown latch: a threading.Event plus signal wiring.

    ``install()`` registers SIGTERM/SIGINT handlers that merely set the
    event (safe to call from a signal context); the worker loop checks it
    between claims and between rounds, so a killed fleet releases (or
    checkpoints) its claims instead of stranding leases until expiry.
    Handlers are only installed in the main thread (Python forbids
    ``signal.signal`` elsewhere) and always restored on ``uninstall()``.
    """

    def __init__(self, event: threading.Event | None = None):
        self.event = event if event is not None else threading.Event()
        self._previous: dict[int, Any] = {}

    def install(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass

    def _handle(self, signum, frame) -> None:
        self.event.set()

    def uninstall(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
        self._previous.clear()

    def is_set(self) -> bool:
        return self.event.is_set()

    def wait(self, timeout: float) -> bool:
        return self.event.wait(timeout)


# ----------------------------------------------------------------------
# Job specs and the filesystem queue
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One claimed ``(scheme, seed)`` cell, as read from its job spec.

    ``scenario`` is the full scenario dict, resolved at claim time from
    the store's ``scenarios/<hash>.json`` registry, so a worker needs
    nothing but the shared store to run the cell; ``worker`` is the
    claiming worker's label (set by :meth:`JobQueue.claim`).
    """

    path: Path
    lock_path: Path
    scenario: dict
    scenario_hash: str
    scheme: str
    seed: int
    resume: bool
    checkpoint_every: int | None
    lease_seconds: float
    worker: str | None = None

    @property
    def cell(self) -> tuple[str, int]:
        return (self.scheme, self.seed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job({self.scheme!r}, seed={self.seed}, "
            f"hash={self.scenario_hash[:12]}…, worker={self.worker!r})"
        )


class JobQueue:
    """The shared-filesystem job queue inside an experiment store.

    Every operation is a plain file operation under
    ``<store>/jobs/<scenario-hash>/`` — no sockets, no daemons — so any
    process that can see the store can enqueue, claim, steal and complete
    cells.  See the module docstring for the lock protocol.
    """

    def __init__(self, store: "ExperimentStore | str | Path"):
        from .store import ExperimentStore

        self.store = ExperimentStore.coerce(store)
        self._claim_passes = 0

    # -- paths ----------------------------------------------------------
    def jobs_dir(self, scenario_hash: str) -> Path:
        return self.store.root / "jobs" / scenario_hash

    def job_path(self, scenario_hash: str, scheme: str, seed: int) -> Path:
        return self.jobs_dir(scenario_hash) / f"{scheme}-seed{int(seed)}.json"

    @staticmethod
    def lock_path_for(job_path: Path) -> Path:
        return job_path.with_suffix(".lock")

    # -- enqueue --------------------------------------------------------
    def enqueue(
        self,
        scenario: "Scenario",
        cells: Sequence[tuple[str, int]],
        *,
        resume: bool = False,
        checkpoint_every: int | None = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        force: bool = False,
    ) -> list[Path]:
        """Write one job spec per cell; returns the paths actually written.

        Registers the scenario in the store first — that single
        ``scenarios/<hash>.json`` is the sweep's one copy of the spec;
        job specs reference it by hash — then skips cells whose manifest
        already exists and cells already queued, so re-enqueueing a
        partially-finished plan is idempotent.  With ``force`` the cells'
        manifests are dropped first, so every cell is queued again and
        "manifest exists" once more means "recomputed".
        """
        from .store import _write_json

        h = self.store.register_scenario(scenario)
        if force:
            for scheme, seed in cells:
                self._remove(self.store.manifest_path(h, scheme, seed))
        written: list[Path] = []
        for scheme, seed in cells:
            if self.store.has_cell(h, scheme, seed):
                continue
            path = self.job_path(h, scheme, seed)
            if path.exists():
                continue
            _write_json(
                path,
                {
                    "format": JOB_FORMAT,
                    "scenario_hash": h,
                    "scheme": str(scheme),
                    "seed": int(seed),
                    "resume": bool(resume),
                    "checkpoint_every": (
                        None if checkpoint_every is None else int(checkpoint_every)
                    ),
                    "lease_seconds": float(lease_seconds),
                },
            )
            written.append(path)
        return written

    # -- inspection -----------------------------------------------------
    def _job_paths(self) -> list[Path]:
        root = self.store.root / "jobs"
        if not root.is_dir():
            return []
        out: list[Path] = []
        for hash_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            out.extend(sorted(hash_dir.glob("*.json")))
        return out

    def pending(self) -> list[tuple[str, str, int]]:
        """Queued ``(hash, scheme, seed)`` cells (claimed or not)."""
        out = []
        for path in self._job_paths():
            data = self._peek(path)
            if data is not None:
                out.append(
                    (str(data["scenario_hash"]), str(data["scheme"]), int(data["seed"]))
                )
        return out

    def unclaimed(self) -> list[Path]:
        """Job specs not currently covered by a live (non-stale) lock."""
        return [path for path in self._job_paths() if self._claimable(path)]

    def _claimable(self, path: Path) -> bool:
        lock = self.lock_path_for(path)
        return not lock.exists() or self._is_stale(lock)

    # -- claiming (work-stealing) ---------------------------------------
    def claim(self, worker_id: str | None = None) -> Job | None:
        """Claim the first available cell, or ``None`` when none is.

        Scans job specs in a per-worker, per-pass shuffled order (seeded
        from the worker label and a pass counter — deterministic for a
        given worker, different across workers), so a fleet of workers
        arriving at a freshly-enqueued plan fans out across the queue
        instead of all contending for the lexicographically-first lock.
        A cell is available when its lock does not exist (never claimed,
        or released) or exists but has outlived its lease (the previous
        worker died — the lock is atomically renamed aside and
        re-created, i.e. the cell is *stolen*).  Cells whose manifest
        already landed are garbage collected on the way.

        Raises :class:`~repro.api.store.StoreMismatchError` when a job
        spec addresses a scenario this store has never registered — the
        signature of a worker pointed at the wrong ``--store`` (or of job
        files copied between stores).
        """
        from .store import StoreMismatchError

        label = _worker_label(worker_id)
        self._claim_passes += 1
        paths = self._job_paths()
        # str seeding is stable (unlike hash(), which is salted per run).
        random.Random(f"{label}:{self._claim_passes}").shuffle(paths)
        for path in paths:
            data = self._peek(path)
            if data is None:
                continue
            h = str(data["scenario_hash"])
            scheme, seed = str(data["scheme"]), int(data["seed"])
            if not self.store.scenario_path(h).exists():
                # A job is meaningless without its registered scenario
                # file: it was copied away from the store it was enqueued
                # into.
                raise StoreMismatchError(
                    f"job {path.name} references scenario {h[:12]}… but "
                    f"store {self.store.root} has no scenarios/{h[:12]}….json; "
                    "job specs only run against the store they were enqueued "
                    "into — this worker is pointed at a foreign store, check "
                    "--store"
                )
            if self.store.has_cell(h, scheme, seed):
                # Another worker finished it but died before cleaning up.
                self.retire(path)
                continue
            lock = self.lock_path_for(path)
            lease = float(data.get("lease_seconds", DEFAULT_LEASE_SECONDS))
            if self._acquire(lock, label, lease):
                try:
                    spec = self.store.load_scenario(h).to_dict()
                except BaseException:
                    self._remove(lock)  # a spec that does not load keeps no claim
                    raise
                return Job(
                    path=path,
                    lock_path=lock,
                    scenario=spec,
                    scenario_hash=h,
                    scheme=scheme,
                    seed=seed,
                    resume=bool(data.get("resume", False)),
                    checkpoint_every=data.get("checkpoint_every"),
                    lease_seconds=lease,
                    worker=label,
                )
        return None

    def _acquire(self, lock: Path, label: str, lease_seconds: float) -> bool:
        """Try to own ``lock``; steals it first if its lease expired."""
        payload = self._lock_payload(label, lease_seconds)
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if not self._is_stale(lock) or not self._steal(lock):
                return False
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        return True

    def _steal(self, lock: Path) -> bool:
        """Remove an expired lock race-safely; ``True`` for the one winner.

        Between judging a lock stale and removing it, a racing stealer
        may already have replaced it with its own fresh lock.  So
        stealers take the cell's ``<lock>.steal`` mutex (``O_EXCL``) and
        remove the lock only if it is *still* stale; a claimer finding
        the mutex taken moves on.  A mutex left by a killed stealer ages
        out like the other lock debris.
        """
        mutex = lock.with_name(f"{lock.name}.steal")
        try:
            os.close(os.open(mutex, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            self._remove_debris(mutex)
            return False
        try:
            if not self._is_stale(lock):
                return False
            lock.unlink()
            return True
        except FileNotFoundError:
            return False
        finally:
            self._remove(mutex)

    @staticmethod
    def _lock_payload(label: str, lease_seconds: float) -> str:
        now = _now()
        return json.dumps(
            {
                "worker": label,
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "claimed_at": now,
                "heartbeat": now,
                "lease_seconds": float(lease_seconds),
            },
            sort_keys=True,
        )

    def _is_stale(self, lock: Path) -> bool:
        data = self._peek(lock)
        if data is None:
            # Unreadable: either a racing heartbeat replace (momentary)
            # or a worker killed between creating the lock and writing
            # its payload.  Fall back to file age under the default
            # lease so a payload-less lock cannot wedge its cell forever.
            try:
                mtime = lock.stat().st_mtime
            except OSError:
                return False  # vanished under us: nothing to steal
            return _now() > mtime + DEFAULT_LEASE_SECONDS
        lease = float(data.get("lease_seconds", DEFAULT_LEASE_SECONDS))
        return _now() > float(data.get("heartbeat", 0.0)) + lease

    # -- lease maintenance ---------------------------------------------
    def heartbeat(self, job: Job) -> bool:
        """Renew ``job``'s lease; ``False`` means the cell was stolen.

        A worker that misses its lease (a long GC pause, a suspended
        laptop) may find another worker's label in the lock — it must
        then abandon the cell: the thief owns it now, and the store's
        atomic, deterministic manifest writes make the duplicate rounds
        already run harmless.
        """
        current = self._peek(job.lock_path)
        if current is None or current.get("worker") != job.worker:
            return False
        current["heartbeat"] = _now()
        atomic_write(job.lock_path, json.dumps(current, sort_keys=True).encode())
        return True

    def release(self, job: Job) -> None:
        """Give the cell back (job spec stays queued for other workers)."""
        current = self._peek(job.lock_path)
        if current is not None and current.get("worker") == job.worker:
            self._remove(job.lock_path)

    def complete(self, job: Job) -> None:
        """Retire a finished cell: drop its lock, then its job spec."""
        self.retire(job.path)

    def retire(self, path: Path) -> None:
        """Drop the lock of the job spec at ``path``, then the spec (a
        spec a kill leaves unlocked is retired by the next claim)."""
        self._remove(self.lock_path_for(path))
        self._remove(path)

    def reclaim_stale(self) -> list[Path]:
        """Re-queue every lease-expired claim; returns the reclaimed locks.

        Workers steal lazily (at claim time); the ``service`` executor
        calls this each poll so that a dead worker's cells become claimable even
        when every surviving worker is busy elsewhere.  Locks whose cell
        already has a manifest are retired outright.
        """
        reclaimed: list[Path] = []
        root = self.store.root / "jobs"
        if not root.is_dir():
            return reclaimed
        for hash_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            for lock in sorted(hash_dir.glob("*.lock")):
                if not lock.with_suffix(".json").exists():
                    self._remove(lock)
                    continue
                if self._is_stale(lock) and self._steal(lock):
                    reclaimed.append(lock)
            # Debris of killed workers: heartbeat temp files and steal
            # mutexes (``<lock>.<pid>.<tid>.tmp``, ``<lock>.steal``).
            for junk in sorted(hash_dir.glob("*.lock.*")):
                self._remove_debris(junk)
        return reclaimed

    # -- small helpers --------------------------------------------------
    @staticmethod
    def _peek(path: Path) -> dict | None:
        """A job spec or lock, or ``None`` when a racing worker removed it
        or is mid-write."""
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    @staticmethod
    def _remove(path: Path) -> None:
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    @staticmethod
    def _remove_debris(path: Path) -> None:
        """Remove ``path`` once older than the default lease (a younger
        temp file or mutex may belong to a live operation mid-race)."""
        try:
            if _now() > path.stat().st_mtime + DEFAULT_LEASE_SECONDS:
                path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobQueue({str(self.store.root)!r})"


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
def run_worker(
    store: "ExperimentStore | str | Path | None" = None,
    *,
    coordinator: str | None = None,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    max_cells: int | None = None,
    exit_when_idle: bool = False,
    worker_id: str | None = None,
    stop_event: threading.Event | None = None,
) -> int:
    """Claim and run queued cells; returns the number of cells completed.

    The library form of ``python -m repro worker``.  Two claim paths
    share one loop:

    * **filesystem** (``store=DIR``, the default): scan the store's job
      directory and claim cells with lock files, stealing lease-expired
      ones — any process on the shared filesystem participates.  Idle
      scans back off exponentially with per-worker jitter (capped at
      ``poll_interval``) so a fleet that drains the queue does not
      re-scan in lockstep.
    * **service** (``coordinator=URL``): register with the event-driven
      coordinator (:mod:`repro.api.coordinator`) and long-poll it for
      pushed work — the coordinator claims from this same queue under the
      worker's label, so the worker never scans, and it stays warm
      between sweeps.  When the coordinator becomes unreachable the worker
      *falls back* to claiming from the store's queue itself and
      periodically tries to re-attach.

    Either way each cell runs through the ordinary engine session path
    with a heartbeat per round, lands its content-addressed manifest, and
    retires its job.  One engine (one equilibrium-solver cache) is shared
    across all cells this worker runs.

    The worker shuts down gracefully: SIGTERM/SIGINT set a stop flag
    checked between claims and between rounds — a stopping worker
    checkpoints its in-flight cell (when the job asked for
    ``checkpoint_every``) and releases its claim, so killed fleets never
    strand leases until expiry.

    Parameters
    ----------
    store:
        The shared experiment store.  Optional in service mode (the
        coordinator advertises its store), mandatory otherwise.
    coordinator:
        Coordinator base URL (``http://host:port``) for service mode.
    poll_interval:
        Cap on the idle backoff between filesystem queue scans, and the
        re-attach probe interval while falling back.
    max_cells:
        Stop after completing this many cells (``None`` = unbounded) —
        the batch-cluster-friendly lifetime bound.
    exit_when_idle:
        Return instead of waiting when nothing is claimable (used by the
        workers a store-queued ``service`` sweep spawns, and by one-shot
        scripts).
    worker_id:
        Stable label for locks and registration; default host-pid-nonce.
    stop_event:
        External stop flag (tests, embedding callers); SIGTERM/SIGINT
        set the same event when running in a main thread.
    """
    from .engine import FMoreEngine
    from .store import ExperimentStore

    label = _worker_label(worker_id)
    stop = _StopFlag(stop_event)
    stop.install()
    link = None
    try:
        if coordinator is not None:
            from .coordinator import ServiceLink

            link = ServiceLink(
                coordinator, label, poll_interval=poll_interval
            )
            if store is None:
                store = link.attach(required=True)
            else:
                link.attach(required=False)
        if store is None:
            raise ValueError(
                "run_worker needs a store (or a reachable coordinator "
                "that advertises one); pass store=DIR / --store DIR"
            )
        store = ExperimentStore.coerce(store)
        queue = JobQueue(store)
        if link is not None:
            link.bind(queue)
        engine = FMoreEngine()
        backoff_rng = random.Random(f"idle:{label}")
        completed = 0
        idle_passes = 0
        while not stop.is_set() and (max_cells is None or completed < max_cells):
            job, waited = _claim_next(queue, link, label, stop)
            if job is None:
                if exit_when_idle:
                    break
                if not waited:
                    idle_passes += 1
                    stop.wait(idle_backoff(idle_passes, poll_interval, backoff_rng))
                continue
            idle_passes = 0
            if _run_job(engine, store, queue, job, link=link, stop=stop):
                completed += 1
        return completed
    finally:
        if link is not None:
            link.close()
        stop.uninstall()


def _claim_next(
    queue: JobQueue, link, label: str, stop: _StopFlag
) -> tuple[Job | None, bool]:
    """One claim attempt via the coordinator link or the filesystem.

    Returns ``(job, waited)`` — ``waited`` is ``True`` when the attempt
    already blocked (a service long-poll), so the caller must not add its
    own idle backoff on top.
    """
    if link is not None and not link.attached and not stop.is_set():
        link.maybe_reattach()
    if link is not None and link.attached:
        job = link.claim()
        if job is not None or link.attached:
            return job, True
        # The coordinator vanished mid-claim: claim from the store's
        # queue this very pass (the coordinator's queue is that queue).
    return queue.claim(label), False


def _run_job(
    engine,
    store: "ExperimentStore",
    queue: JobQueue,
    job: Job,
    *,
    link=None,
    stop: _StopFlag,
) -> bool:
    """Run one claimed cell to completion; ``True`` when its manifest landed.

    The cell runs through the engine's cell driver, with the claim's
    bookkeeping as its per-round hook.  With ``job.resume`` the cell
    continues from its store checkpoint (a previous worker's partial
    progress) — bitwise-identical to a fresh run by the checkpoint
    contract; otherwise stolen cells restart from round zero, which is
    merely slower, never different.  After every round the worker renews
    its lease: a lost lease aborts the cell (another worker owns it now);
    a graceful stop (SIGTERM/SIGINT) checkpoints the cell when the job
    asked for ``checkpoint_every``, then releases the claim.  Any other
    failure, set-up included (a corrupt checkpoint, a scenario that does
    not build), releases the claim, so the cell is immediately re-queued.

    ``link`` (a :class:`repro.api.coordinator.ServiceLink`) routes
    heartbeats and completion through the coordinator — streaming one
    round-completion event per round — and transparently falls back to
    the filesystem lock protocol when the coordinator is unreachable.
    """
    from .engine import _drive_session
    from .scenario import Scenario

    linked = link is not None and link.owns(job)
    complete = link.complete if linked else queue.complete
    release = link.release if linked else queue.release
    if store.has_cell(job.scenario_hash, job.scheme, job.seed):
        complete(job)
        return False

    def after_round(session, advanced: int) -> bool:
        alive = link.heartbeat(job, advanced) if linked else queue.heartbeat(job)
        if not alive:
            return True  # stolen: the thief owns the cell now
        if stop.is_set() and session.rounds_remaining > 0:
            # Graceful shutdown mid-cell: persist the progress when the
            # job checkpoints, then hand the claim straight back.
            if job.checkpoint_every:
                store.save_checkpoint(session.snapshot())
            release(job)
            return True
        return False

    try:
        history = _drive_session(
            engine.session(Scenario.from_dict(job.scenario), job.scheme, job.seed),
            store,
            resume=job.resume,
            checkpoint_every=job.checkpoint_every,
            after_round=after_round,
        )
    except BaseException:
        release(job)
        raise
    if history is not None:
        complete(job)
    return history is not None


# ----------------------------------------------------------------------
# Batch-cluster job emission (SLURM-style, coordinator-free)
# ----------------------------------------------------------------------
def emit_job_scripts(scenario: "Scenario", directory: str | Path) -> list[Path]:
    """Write per-cell batch scripts for ``scenario`` under ``directory``.

    Emits ``scenario.json``, one ``jobs/cell-<scheme>-seed<seed>.sh`` per
    cell of the plan, a ``submit_array.sh`` SLURM array wrapper, and a
    ``README.md``.  Every cell script is self-contained: it runs its one
    cell as a plain serial ``python -m repro run`` against the shared
    store named by ``$STORE`` — the content address excludes the run
    plan, so all cells land under one scenario hash and the finished
    sweep assembles with ``python -m repro report --store $STORE`` (or an
    ordinary full-plan ``run``, which loads every manifest instead of
    recomputing).  Returns the written paths.
    """
    from .store import scenario_hash

    directory = Path(directory)
    jobs_dir = directory / "jobs"
    jobs_dir.mkdir(parents=True, exist_ok=True)
    h = scenario_hash(scenario)
    written: list[Path] = []

    spec_path = directory / "scenario.json"
    spec_path.write_text(scenario.to_json() + "\n")
    written.append(spec_path)

    safe_name = "".join(
        ch if ch.isalnum() or ch in "-_" else "-" for ch in scenario.name
    )
    cells = [
        (scheme, seed) for seed in scenario.seeds for scheme in scenario.schemes
    ]
    serial_spec = '\'execution={"executor":"serial","max_workers":null}\''
    scripts: list[str] = []
    for scheme, seed in cells:
        cell = f"{scheme}-seed{seed}"
        script = jobs_dir / f"cell-{cell}.sh"
        script.write_text(
            "#!/usr/bin/env bash\n"
            f"#SBATCH --job-name=fmore-{safe_name}-{cell}\n"
            "#SBATCH --output=fmore-%x-%j.out\n"
            f"# One ({scheme}, seed {seed}) cell of scenario "
            f"{scenario.name!r} (hash {h[:12]}…).\n"
            "# Usage: STORE=/shared/store bash "
            f"jobs/cell-{cell}.sh\n"
            "set -euo pipefail\n"
            ': "${STORE:?set STORE to the shared experiment-store directory}"\n'
            'SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"\n'
            "exec python -m repro run "
            '--scenario "$SCRIPT_DIR/../scenario.json" --store "$STORE" \\\n'
            f"    --set schemes={scheme} --set seeds={seed} \\\n"
            f"    --set {serial_spec}\n"
        )
        _make_executable(script)
        scripts.append(f"jobs/{script.name}")
        written.append(script)

    array = directory / "submit_array.sh"
    listing = "\n".join(f'  "{s}"' for s in scripts)
    array.write_text(
        "#!/usr/bin/env bash\n"
        f"#SBATCH --job-name=fmore-{safe_name}\n"
        f"#SBATCH --array=0-{len(scripts) - 1}\n"
        "#SBATCH --output=fmore-%x-%A_%a.out\n"
        f"# SLURM array over the {len(scripts)} (scheme, seed) cells of "
        f"scenario {scenario.name!r}.\n"
        "# Usage: STORE=/shared/store sbatch submit_array.sh\n"
        "set -euo pipefail\n"
        ': "${STORE:?set STORE to the shared experiment-store directory}"\n'
        "export STORE\n"
        'SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"\n'
        "CELLS=(\n"
        f"{listing}\n"
        ")\n"
        'exec bash "$SCRIPT_DIR/${CELLS[$SLURM_ARRAY_TASK_ID]}"\n'
    )
    _make_executable(array)
    written.append(array)

    readme = directory / "README.md"
    readme.write_text(
        f"# Batch jobs for scenario `{scenario.name}`\n\n"
        f"Scenario hash: `{h}`\n\n"
        f"{len(scripts)} cell scripts under `jobs/` — one per\n"
        "`(scheme, seed)` cell of the plan. Each runs its cell serially\n"
        "against the shared experiment store named by `$STORE`; the\n"
        "manifest address excludes the run plan, so every cell lands\n"
        "under the scenario hash above.\n\n"
        "```bash\n"
        "# SLURM array (one task per cell):\n"
        "STORE=/shared/store sbatch submit_array.sh\n\n"
        "# Any other scheduler / plain shells — cells are independent:\n"
        "STORE=/shared/store bash " + scripts[0] + "\n\n"
        "# Afterwards, assemble the sweep from any machine:\n"
        "python -m repro report --store /shared/store\n"
        "python -m repro run --scenario scenario.json --store /shared/store\n"
        "```\n\n"
        "Re-running a cell script is idempotent (completed cells load\n"
        "from their manifests). See docs/deployment.md in the repository\n"
        "for the full cookbook, including resume and `--force` semantics.\n"
    )
    written.append(readme)
    return written


def _make_executable(path: Path) -> None:
    mode = path.stat().st_mode
    path.chmod(mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
