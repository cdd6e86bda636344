"""Event-driven coordination service: push-based sweeps over the store.

The filesystem queue of :mod:`repro.api.distributed` coordinates by
*polling* — workers re-scan ``jobs/`` and the submitting executor
re-stats manifests every ``poll_interval`` — which is robust but slow:
startup and poll latency dominate small sweeps, exactly the regime
FMore's MEC aggregator lives in (one auction round per network beat,
PAPER.md §III).
This module adds the event-driven tier on top of the *same* queue:

* :class:`CoordinatorService` — an asyncio TCP server speaking a minimal
  hand-rolled HTTP/1.1 (stdlib only, JSON bodies, ``Connection: close``)
  that *wakes* workers instead of making them poll.  It keeps no queue of
  its own: ``/sweep`` enqueues job specs with
  :meth:`~repro.api.distributed.JobQueue.enqueue`, a long-poll ``/claim``
  takes the next cell with :meth:`~repro.api.distributed.JobQueue.claim`
  under the claiming worker's own label, and ``/heartbeat``,
  ``/release`` and ``/complete`` read and retire the same lock and job
  files.  The cell's lock is the only lease.  A janitor reclaims
  lease-expired locks, retires cells whose manifests landed, and wakes
  waiting claimers whenever claimable work sits in the store — so push
  workers, plain filesystem workers, store-queued sweeps and a restarted
  coordinator all drain one queue.
* :class:`WorkerClient` / :class:`ServiceLink` — the worker side:
  register (learning the store location), long-poll for pushed cells,
  stream one round-completion event per round through ``/heartbeat``,
  report ``/complete`` / ``/release``.  When the coordinator becomes
  unreachable the link detaches and :func:`repro.api.distributed.run_worker`
  claims from the store's queue itself, re-attaching when the
  coordinator returns.
* :class:`ServiceExecutor` — the registry-registered ``"service"``
  executor, the one that submits store-coordinated sweeps.  Without a
  ``coordinator_url`` it enqueues the cells straight into the store and
  looks for their manifests with the workers' idle backoff, capped at
  ``poll_interval``; with
  ``execution={"executor": "service", "coordinator_url":
  "http://host:port"}`` it submits the sweep to that running coordinator
  through ``/sweep`` and paces on the ``/status`` long-poll.  The
  executor never starts a coordinator itself: run one with ``python -m
  repro coordinator`` or :func:`start_coordinator`.

Determinism contract: the service tier schedules the *same* engine
session path as every other executor, so a service-executed sweep's
manifests are byte-identical to serial's (pinned in
``tests/test_coordinator.py``).  Protocol summary::

    POST /register   {worker}                          -> {store, poll_interval}
    POST /sweep      {scenario, cells, resume, ...}    -> {hash, queued}
    POST /claim      {worker, timeout}                 -> {job | null}   (long-poll)
    POST /heartbeat  {worker, scenario_hash, scheme, seed, round} -> {alive}
    POST /release    {worker, scenario_hash, scheme, seed}        -> {ok}
    POST /complete   {worker, scenario_hash, scheme, seed}        -> {ok, outstanding}
    GET  /status?hash=H&timeout=T                      -> {done, outstanding} (long-poll)
    GET  /health                                       -> {ok, counts...}
    POST /shutdown   {}                                -> {ok}
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..core.registry import EXECUTORS
from .distributed import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_POLL_INTERVAL,
    Job,
    JobQueue,
    idle_backoff,
)
from .executor import Executor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scenario import Scenario
    from .store import ExperimentStore

__all__ = [
    "CoordinatorService",
    "CoordinatorHandle",
    "CoordinatorError",
    "ServiceExecutor",
    "ServiceLink",
    "WorkerClient",
    "start_coordinator",
]

#: Server-side cap on long-poll hold times (claim and status); clients
#: simply re-issue the request, so the cap only bounds connection age.
MAX_LONG_POLL = 30.0

#: Errors that mean "the coordinator is unreachable or spoke garbage" —
#: every client falls back to the filesystem protocol on these.
_UNREACHABLE = (OSError, http.client.HTTPException, json.JSONDecodeError)


class CoordinatorError(RuntimeError):
    """The coordinator answered with an application-level error."""


def _long_poll_hold(poll_interval: float) -> float:
    """How long a client holds a ``/claim`` or ``/status`` long-poll: long
    enough to amortise connections, short enough that SIGTERM (which
    interrupts between requests) stays responsive."""
    return max(0.2, min(5.0, poll_interval * 4.0))


# ----------------------------------------------------------------------
# Minimal HTTP: client helper + server-side request framing
# ----------------------------------------------------------------------
def _request(
    base_url: str,
    method: str,
    path: str,
    payload: dict | None = None,
    *,
    timeout: float = 10.0,
) -> dict:
    """One JSON-over-HTTP exchange with the coordinator.

    Raises :class:`CoordinatorError` for non-200 answers and lets the
    transport errors in ``_UNREACHABLE`` propagate — callers distinguish
    "coordinator said no" from "coordinator is gone".
    """
    parsed = urllib.parse.urlsplit(base_url)
    conn = http.client.HTTPConnection(
        parsed.hostname or "127.0.0.1", parsed.port or 80, timeout=timeout
    )
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json", "Connection": "close"}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise CoordinatorError(
                f"{method} {path} -> {response.status}: "
                f"{data.decode(errors='replace')[:200]}"
            )
        return json.loads(data) if data else {}
    finally:
        conn.close()


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], dict]:
    """Parse one request: ``(method, path, query_params, json_body)``."""
    line = await reader.readline()
    if not line:
        raise ConnectionError("empty request")
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        raise ValueError(f"malformed request line {line!r}")
    method, target = parts[0].upper(), parts[1]
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    payload = json.loads(body) if body else {}
    path, _, query = target.partition("?")
    params = dict(urllib.parse.parse_qsl(query))
    return method, path, params, payload


def _response_bytes(status: int, payload: dict) -> bytes:
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(status, "Error")
    data = json.dumps(payload).encode()
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    return head + data


# ----------------------------------------------------------------------
# The coordinator service
# ----------------------------------------------------------------------
class CoordinatorService:
    """Long-poll wake-ups and notifications over the store's job queue.

    The queue, its claims and their leases are the store's ``jobs/``
    tree, exactly as filesystem workers see it; every route acts on those
    files inline on the event loop (each operation is a handful of
    small-file syscalls, far below the poll latency this service exists
    to remove).  In memory the service keeps only what the filesystem
    cannot push, all of it on the event-loop thread, so no locking beyond
    the two :class:`asyncio.Condition` wake-ups is needed:

    * each submitted sweep's outstanding cells, which ``/status``
      long-polls on (rebuilt from the job tree at startup);
    * the registered workers, with their last contact and completions;
    * ``rounds_seen``, the round-completion events streamed so far.
    """

    def __init__(
        self,
        store: "ExperimentStore | str | Path",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ):
        from .store import ExperimentStore

        self.store = ExperimentStore.coerce(store)
        self.queue = JobQueue(self.store)
        self.host = str(host)
        self.port = int(port)
        self.poll_interval = float(poll_interval)
        if self.poll_interval <= 0.0:
            raise ValueError("poll_interval must be > 0")
        # -- in-memory state (event-loop thread only) -------------------
        self._sweeps: dict[str, set[tuple[str, int]]] = {}  # hash -> outstanding
        self._workers: dict[str, dict] = {}
        self._rounds_seen = 0  # round-completion events streamed so far
        # -- loop plumbing ----------------------------------------------
        self._work_cond: asyncio.Condition | None = None
        self._status_cond: asyncio.Condition | None = None
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.ready = threading.Event()  # set once the port is bound
        self.error: BaseException | None = None

    # -- lifecycle ------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve(self, *, install_signal_handlers: bool = False) -> None:
        """Run the service until :meth:`request_stop` (or SIGTERM/SIGINT)."""
        self._loop = asyncio.get_running_loop()
        self._work_cond = asyncio.Condition()
        self._status_cond = asyncio.Condition()
        self._stop = asyncio.Event()
        if install_signal_handlers:
            import signal

            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, self._stop.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        try:
            # A restarted coordinator serves /status for the sweeps whose
            # job specs are still queued.
            for h, scheme, seed in self.queue.pending():
                self._sweeps.setdefault(h, set()).add((scheme, seed))
            self._retire_landed()
            server = await asyncio.start_server(self._handle, self.host, self.port)
        except BaseException as exc:  # pragma: no cover - bind failures
            self.error = exc
            self.ready.set()
            raise
        self.port = server.sockets[0].getsockname()[1]
        self.ready.set()
        janitor = asyncio.create_task(self._janitor())
        try:
            async with server:
                await self._stop.wait()
        finally:
            janitor.cancel()
            server.close()
            await server.wait_closed()

    def request_stop(self) -> None:
        """Thread-safe shutdown trigger (used by :class:`CoordinatorHandle`)."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)

    # -- request handling -----------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, params, payload = await _read_request(reader)
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except Exception as exc:
            writer.write(_response_bytes(400, {"error": str(exc)}))
            await writer.drain()
            writer.close()
            return
        try:
            status, reply = await self._dispatch(method, path, params, payload)
        except CoordinatorError as exc:
            status, reply = 400, {"error": str(exc)}
        except Exception as exc:  # handler bugs, and StoreMismatchError
            status, reply = 400, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            writer.write(_response_bytes(status, reply))
            await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            writer.close()

    async def _dispatch(
        self, method: str, path: str, params: dict, payload: dict
    ) -> tuple[int, dict]:
        route = (method, path)
        if route == ("GET", "/health"):
            return 200, self._health()
        if route == ("POST", "/register"):
            return 200, self._register(payload)
        if route == ("POST", "/sweep"):
            return 200, await self._sweep(payload)
        if route == ("POST", "/claim"):
            return 200, await self._claim(payload)
        if route == ("POST", "/heartbeat"):
            return 200, self._heartbeat(payload)
        if route == ("POST", "/release"):
            return 200, await self._release(payload)
        if route == ("POST", "/complete"):
            return 200, await self._complete(payload)
        if route == ("GET", "/status"):
            return 200, await self._status(params)
        if route == ("POST", "/shutdown"):
            assert self._stop is not None
            self._stop.set()
            return 200, {"ok": True}
        return 404, {"error": f"no route {method} {path}"}

    def _health(self) -> dict:
        jobs = self.queue._job_paths()
        pending = sum(map(self.queue._claimable, jobs))
        return {
            "ok": True,
            "store": str(self.store.root.resolve()),
            "pending": pending,
            "claimed": len(jobs) - pending,
            "outstanding": sum(map(len, self._sweeps.values())),
            "workers": len(self._workers),
            "rounds_seen": self._rounds_seen,
        }

    def _register(self, payload: dict) -> dict:
        worker = str(payload.get("worker", ""))
        if not worker:
            raise CoordinatorError("register needs a worker label")
        self._touch(worker)
        return {
            "ok": True,
            # Resolved: workers on other cwds (or machines mounting the
            # same share at the same absolute path) must agree on it.
            "store": str(self.store.root.resolve()),
            "poll_interval": self.poll_interval,
        }

    async def _sweep(self, payload: dict) -> dict:
        """Accept a sweep: enqueue its cells, track the unfinished ones."""
        from .scenario import Scenario

        scenario = Scenario.from_dict(payload["scenario"])
        cells = [(str(s), int(d)) for s, d in payload["cells"]]
        h = self.store.register_scenario(scenario)
        queued = self.queue.enqueue(
            scenario,
            cells,
            resume=bool(payload.get("resume", False)),
            checkpoint_every=payload.get("checkpoint_every"),
            lease_seconds=float(payload.get("lease_seconds", DEFAULT_LEASE_SECONDS)),
            force=bool(payload.get("force", False)),
        )
        outstanding = self._sweeps.setdefault(h, set())
        outstanding.update(c for c in cells if not self.store.has_cell(h, *c))
        if queued:
            await self._notify(self._work_cond)
        if not outstanding:
            await self._notify(self._status_cond)
        return {"ok": True, "hash": h, "queued": len(queued),
                "outstanding": len(outstanding)}

    async def _claim(self, payload: dict) -> dict:
        """Long-poll dispatch: hold until a cell is claimable or timeout."""
        worker = str(payload.get("worker", ""))
        if not worker:
            raise CoordinatorError("claim needs a worker label")
        timeout = min(float(payload.get("timeout", 1.0)), MAX_LONG_POLL)
        assert self._loop is not None and self._work_cond is not None
        deadline = self._loop.time() + timeout
        async with self._work_cond:
            while True:
                self._touch(worker)
                descriptor = self._next_claim(worker)
                if descriptor is not None:
                    return {"job": descriptor}
                remaining = deadline - self._loop.time()
                if remaining <= 0.0:
                    return {"job": None}
                try:
                    await asyncio.wait_for(self._work_cond.wait(), remaining)
                except asyncio.TimeoutError:
                    return {"job": None}

    def _next_claim(self, worker: str) -> dict | None:
        """Claim the next cell from the store's queue under ``worker``'s
        own label, so the worker renews the lock directly."""
        job = self.queue.claim(worker)
        if job is None:
            return None
        return {
            "scenario_hash": job.scenario_hash,
            "scheme": job.scheme,
            "seed": job.seed,
            "resume": job.resume,
            "checkpoint_every": job.checkpoint_every,
            "lease_seconds": job.lease_seconds,
        }

    def _heartbeat(self, payload: dict) -> dict:
        """Count one round-completion event; ``alive`` while the worker
        still owns the cell's lock (which the worker renews itself)."""
        worker = str(payload.get("worker", ""))
        self._touch(worker)
        self._rounds_seen += 1
        return {"alive": self._lock_owner(payload) == worker}

    async def _release(self, payload: dict) -> dict:
        if self._lock_owner(payload) != str(payload.get("worker", "")):
            return {"ok": False}
        self.queue._remove(self._lock_path(payload))
        await self._notify(self._work_cond)
        return {"ok": True}

    async def _complete(self, payload: dict) -> dict:
        h, scheme, seed = self._cell(payload)
        if not self.store.has_cell(h, scheme, seed):
            # "Done" without a manifest is a worker bug; requeue instead
            # of wedging the sweep on a phantom completion.
            await self._release(payload)
            return {"ok": False, "error": "no manifest for completed cell"}
        self._touch(str(payload.get("worker", "")))["completed"] += 1
        self._retire(h, scheme, seed)
        await self._notify(self._status_cond)
        return {"ok": True, "outstanding": len(self._sweeps.get(h, ()))}

    async def _status(self, params: dict) -> dict:
        """Long-poll a sweep: hold until its outstanding cells drain."""
        h = str(params.get("hash", ""))
        timeout = min(float(params.get("timeout", 0.0)), MAX_LONG_POLL)
        assert self._loop is not None and self._status_cond is not None
        deadline = self._loop.time() + timeout
        async with self._status_cond:
            while True:
                remaining = len(self._sweeps.get(h, ()))
                wait = deadline - self._loop.time()
                if remaining == 0 or wait <= 0.0:
                    return {"done": remaining == 0, "outstanding": remaining}
                try:
                    await asyncio.wait_for(self._status_cond.wait(), wait)
                except asyncio.TimeoutError:
                    pass

    # -- the janitor ----------------------------------------------------
    async def _janitor(self) -> None:
        """One tick per ``poll_interval`` — the event-driven replacement
        for every worker's own store polling."""
        assert self._stop is not None
        while not self._stop.is_set():
            try:
                await asyncio.wait_for(self._stop.wait(), self.poll_interval)
                return
            except asyncio.TimeoutError:
                pass
            try:
                await self._tick()
            except Exception:  # pragma: no cover - keep the janitor alive
                pass

    async def _tick(self) -> None:
        """Reclaim lease-expired claims, retire cells whose manifests
        landed, and wake claimers while claimable work waits — whoever
        enqueued, released or abandoned it."""
        self.queue.reclaim_stale()
        if self._retire_landed():
            await self._notify(self._status_cond)
        if self.queue.unclaimed():
            await self._notify(self._work_cond)

    # -- small helpers --------------------------------------------------
    def _touch(self, worker: str) -> dict:
        """``worker``'s registry entry, marked as seen just now."""
        entry = self._workers.setdefault(
            worker, {"registered_at": time.time(), "completed": 0}
        )
        entry["last_seen"] = time.time()
        return entry

    @staticmethod
    def _cell(payload: dict) -> tuple[str, str, int]:
        """The ``(hash, scheme, seed)`` a worker request names."""
        return (
            str(payload.get("scenario_hash", "")),
            str(payload.get("scheme", "")),
            int(payload.get("seed", -1)),
        )

    def _lock_path(self, payload: dict) -> Path:
        return self.queue.lock_path_for(self.queue.job_path(*self._cell(payload)))

    def _lock_owner(self, payload: dict) -> str | None:
        """The worker label holding the lock of the cell ``payload`` names."""
        lock = self.queue._peek(self._lock_path(payload))
        return None if lock is None else lock.get("worker")

    def _retire(self, h: str, scheme: str, seed: int) -> None:
        """A finished cell leaves the queue and its sweep's outstanding set."""
        self.queue.retire(self.queue.job_path(h, scheme, seed))
        self._sweeps.get(h, set()).discard((scheme, seed))

    def _retire_landed(self) -> bool:
        """Retire the outstanding cells whose manifests landed; any?"""
        landed = [
            (h, scheme, seed)
            for h, outstanding in self._sweeps.items()
            for scheme, seed in outstanding
            if self.store.has_cell(h, scheme, seed)
        ]
        for cell in landed:
            self._retire(*cell)
        return bool(landed)

    @staticmethod
    async def _notify(cond: asyncio.Condition | None) -> None:
        if cond is not None:
            async with cond:
                cond.notify_all()


# ----------------------------------------------------------------------
# Thread embedding
# ----------------------------------------------------------------------
class CoordinatorHandle:
    """A coordinator running on a daemon thread; ``stop()`` to shut down."""

    def __init__(self, service: CoordinatorService, thread: threading.Thread):
        self.service = service
        self.thread = thread

    @property
    def url(self) -> str:
        return self.service.url

    def stop(self, timeout: float = 10.0) -> None:
        self.service.request_stop()
        self.thread.join(timeout=timeout)


def start_coordinator(
    store: "ExperimentStore | str | Path",
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
) -> CoordinatorHandle:
    """Start a :class:`CoordinatorService` on a background thread.

    Blocks until the server socket is bound (so :attr:`CoordinatorHandle.url`
    is immediately usable); ``port=0`` picks an ephemeral port.
    """
    service = CoordinatorService(
        store, host=host, port=port, poll_interval=poll_interval
    )

    def _runner() -> None:
        try:
            asyncio.run(service.serve())
        except BaseException as exc:  # pragma: no cover - loop crash
            service.error = exc
            service.ready.set()

    thread = threading.Thread(target=_runner, name="fmore-coordinator", daemon=True)
    thread.start()
    service.ready.wait(timeout=30.0)
    if service.error is not None:
        raise CoordinatorError(
            f"coordinator failed to start: {service.error}"
        ) from service.error
    return CoordinatorHandle(service, thread)


# ----------------------------------------------------------------------
# The worker side
# ----------------------------------------------------------------------
class WorkerClient:
    """Thin, typed client over the coordinator's HTTP endpoints.

    Raises the transport errors in ``_UNREACHABLE`` when the coordinator
    is gone; :class:`ServiceLink` wraps this with detach/re-attach and
    filesystem fallback for the worker loop.
    """

    def __init__(self, base_url: str, worker: str):
        self.base_url = str(base_url).rstrip("/")
        self.worker = str(worker)

    def register(self, *, timeout: float = 5.0) -> dict:
        return _request(
            self.base_url, "POST", "/register",
            {"worker": self.worker}, timeout=timeout,
        )

    def claim(self, *, long_poll: float, timeout: float | None = None) -> dict | None:
        reply = _request(
            self.base_url,
            "POST",
            "/claim",
            {"worker": self.worker, "timeout": long_poll},
            timeout=timeout if timeout is not None else long_poll + 10.0,
        )
        return reply.get("job")

    def heartbeat(
        self, scenario_hash: str, scheme: str, seed: int, rounds_done: int
    ) -> bool:
        reply = _request(
            self.base_url,
            "POST",
            "/heartbeat",
            {
                "worker": self.worker,
                "scenario_hash": scenario_hash,
                "scheme": scheme,
                "seed": seed,
                "round": rounds_done,
            },
            timeout=5.0,
        )
        return bool(reply.get("alive"))

    def release(self, scenario_hash: str, scheme: str, seed: int) -> None:
        _request(
            self.base_url,
            "POST",
            "/release",
            {
                "worker": self.worker,
                "scenario_hash": scenario_hash,
                "scheme": scheme,
                "seed": seed,
            },
            timeout=5.0,
        )

    def complete(self, scenario_hash: str, scheme: str, seed: int) -> dict:
        return _request(
            self.base_url,
            "POST",
            "/complete",
            {
                "worker": self.worker,
                "scenario_hash": scenario_hash,
                "scheme": scheme,
                "seed": seed,
            },
            timeout=5.0,
        )

    def health(self, *, timeout: float = 5.0) -> dict:
        return _request(self.base_url, "GET", "/health", timeout=timeout)


class ServiceLink:
    """The worker loop's coordinator attachment, with filesystem fallback.

    Owned by :func:`repro.api.distributed.run_worker`.  While attached,
    cells are claimed over long-poll and per-round events stream through
    ``/heartbeat``.  The coordinator takes each cell's lock under this
    worker's label and the link renews that lock itself every round, so
    when the coordinator dies mid-cell the worker keeps the exact lease
    semantics of the polling protocol without missing a beat.  Detach
    happens on any transport error; :meth:`maybe_reattach` retries
    registration at most once per ``poll_interval``.
    """

    def __init__(
        self,
        base_url: str,
        worker: str,
        *,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ):
        self.client = WorkerClient(base_url, worker)
        self.worker = str(worker)
        self.poll_interval = float(poll_interval)
        self.attached = False
        self.queue: JobQueue | None = None
        self._owned: set[tuple[str, str, int]] = set()
        self._last_attach_attempt = float("-inf")
        self.claim_hold = _long_poll_hold(self.poll_interval)

    # -- attachment -----------------------------------------------------
    def attach(self, *, required: bool = False) -> str | None:
        """Register with the coordinator; returns its store root (a path).

        With ``required`` a dead coordinator raises
        :class:`CoordinatorError`; otherwise the link just stays detached
        (the caller falls back to filesystem polling).
        """
        self._last_attach_attempt = time.monotonic()
        try:
            reply = self.client.register()
        except _UNREACHABLE as exc:
            self.attached = False
            if required:
                raise CoordinatorError(
                    f"coordinator {self.client.base_url} is unreachable: {exc}"
                ) from exc
            return None
        self.attached = True
        return str(reply.get("store")) if reply.get("store") else None

    def bind(self, queue: JobQueue) -> None:
        """Give the link its filesystem fallback target."""
        self.queue = queue

    def maybe_reattach(self) -> None:
        """Rate-limited re-registration while detached."""
        if self.attached:
            return
        if time.monotonic() - self._last_attach_attempt < self.poll_interval:
            return
        self.attach(required=False)

    # -- the worker-loop protocol ---------------------------------------
    def owns(self, job: Job) -> bool:
        return (job.scenario_hash, job.scheme, job.seed) in self._owned

    def claim(self) -> Job | None:
        """Long-poll the coordinator for a pushed cell.

        ``None`` with ``attached`` still true means an idle hold expired;
        ``None`` with ``attached`` false means the coordinator vanished
        (the worker loop then claims from the store's queue itself).
        """
        assert self.queue is not None, "bind() the link before claiming"
        try:
            descriptor = self.client.claim(long_poll=self.claim_hold)
        except _UNREACHABLE:
            self.attached = False
            return None
        if descriptor is None:
            return None
        h = str(descriptor["scenario_hash"])
        scheme, seed = str(descriptor["scheme"]), int(descriptor["seed"])
        path = self.queue.job_path(h, scheme, seed)
        try:
            scenario = self.queue.store.load_scenario(h).to_dict()
        except Exception:
            # The scenario vanished under us (foreign store, manual rm):
            # give the cell back rather than dying with a claim held.
            self.release_key(h, scheme, seed)
            return None
        job = Job(
            path=path,
            lock_path=JobQueue.lock_path_for(path),
            scenario=scenario,
            scenario_hash=h,
            scheme=scheme,
            seed=seed,
            resume=bool(descriptor.get("resume", False)),
            checkpoint_every=descriptor.get("checkpoint_every"),
            lease_seconds=float(
                descriptor.get("lease_seconds", DEFAULT_LEASE_SECONDS)
            ),
            worker=self.worker,
        )
        self._owned.add((h, scheme, seed))
        return job

    def heartbeat(self, job: Job, rounds_done: int) -> bool:
        """Renew the cell's lock; stream one round-completion event.

        The lock is the only lease (exactly the polling protocol's
        semantics): if it was stolen the cell is abandoned, and the
        renewal's verdict is the answer.  Coordinator unreachability
        merely detaches the link — the lock keeps the cell owned.
        """
        assert self.queue is not None
        alive = self.queue.heartbeat(job)
        try:
            self.client.heartbeat(
                job.scenario_hash, job.scheme, job.seed, rounds_done
            )
        except _UNREACHABLE:
            self.attached = False
        return alive

    def complete(self, job: Job) -> None:
        self._owned.discard((job.scenario_hash, job.scheme, job.seed))
        assert self.queue is not None
        try:
            self.client.complete(job.scenario_hash, job.scheme, job.seed)
            return
        except _UNREACHABLE:
            self.attached = False
        self.queue.complete(job)

    def release(self, job: Job) -> None:
        self._owned.discard((job.scenario_hash, job.scheme, job.seed))
        assert self.queue is not None
        try:
            self.client.release(job.scenario_hash, job.scheme, job.seed)
            return
        except _UNREACHABLE:
            self.attached = False
        self.queue.release(job)

    def release_key(self, scenario_hash: str, scheme: str, seed: int) -> None:
        self._owned.discard((scenario_hash, scheme, seed))
        try:
            self.client.release(scenario_hash, scheme, seed)
        except _UNREACHABLE:
            self.attached = False

    def close(self) -> None:
        self.attached = False
        self._owned.clear()


# ----------------------------------------------------------------------
# The "service" executor
# ----------------------------------------------------------------------
@EXECUTORS.register("service")
class ServiceExecutor(Executor):
    """Coordinate cells through a shared store instead of running them.

    Unlike the pool executors this one never calls the work function: it
    puts one job spec per cell on the store's queue, optionally spawns
    ``max_workers`` local worker processes, and waits until every cell's
    manifest exists — re-queueing lease-expired claims and respawning
    crashed local workers along the way.  ``max_workers=0`` spawns
    nothing: *external* workers (other machines on the shared filesystem,
    a SLURM array, a coordinator's fleet) do the running.

    * Without ``coordinator_url`` the cells are enqueued straight into the
      store, the wait between looks backs off like an idle worker's
      (``idle_backoff``: from ``poll_interval / 128`` up to
      ``poll_interval``, from the start again whenever a cell lands), and
      the local workers run ``python -m repro worker --store DIR
      --exit-when-idle``, so each one leaves once the queue is empty.
    * With ``coordinator_url`` the plan is submitted to that running
      coordinator (``/sweep``), the wait long-polls its ``/status``, and
      the local workers attach to it (``--coordinator URL --store DIR``)
      until :meth:`close`.  The coordinator's queue is the store's, so
      when the coordinator is unreachable this executor enqueues and
      waits on the store itself, and the workers claim from it directly —
      the sweep still completes, byte-identically.

    Spawned workers outlive :meth:`execute_plan`; :meth:`close` stops
    them (``FMoreEngine.run`` calls it before it returns or raises).

    Scenario spec::

        {"executor": "service", "max_workers": 2,
         "coordinator_url": null,   # or "http://127.0.0.1:7464"
         "lease_seconds": 300.0, "poll_interval": 1.0}
    """

    in_process = False
    #: Engine capability flag: this executor schedules whole plans through
    #: an ExperimentStore (``execute_plan``) rather than mapping a
    #: function over cells.
    needs_store = True

    def __init__(
        self,
        max_workers: int | None = None,
        coordinator_url: str | None = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ):
        if max_workers is not None and int(max_workers) == 0:
            # Coordinate-only: rely entirely on external workers.
            self.max_workers = 0
        else:
            super().__init__(max_workers)
        lease_seconds = float(lease_seconds)
        poll_interval = float(poll_interval)
        if lease_seconds < 0.0:
            raise ValueError("lease_seconds must be >= 0")
        if poll_interval <= 0.0:
            raise ValueError("poll_interval must be > 0")
        self.coordinator_url = (
            str(coordinator_url).rstrip("/") if coordinator_url else None
        )
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self._workers: list[subprocess.Popen] = []

    # The Executor ABC's map contract cannot express a coordinator (the
    # work function never crosses the process/machine boundary).
    def map(self, fn, items):
        raise RuntimeError(
            "the service executor does not map functions over cells; "
            "run it through FMoreEngine.run(scenario, store=...) so it "
            "can schedule whole plans via execute_plan"
        )

    def close(self) -> None:
        """Stop the spawned local workers (SIGTERM, then SIGKILL after 10 s)."""
        workers, self._workers = self._workers, []
        for proc in workers:
            proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - safety
                proc.kill()

    def execute_plan(
        self,
        scenario: "Scenario",
        cells: Sequence[tuple[str, int]],
        store: "ExperimentStore",
        *,
        resume: bool = False,
        checkpoint_every: int | None = None,
        force: bool = False,
    ):
        """Queue ``cells``, wait for their manifests, load the histories.

        Returns histories aligned with ``cells`` (the engine's positional
        contract).  With ``force`` the cells' existing manifests are
        dropped first, so "manifest exists" is again synonymous with
        "recomputed".  Raises ``RuntimeError`` when spawned local workers
        keep dying (beyond ``max(3, 2 * workers)`` non-zero exits since
        the last cell landed).
        """
        from .store import ExperimentStore

        store = ExperimentStore.coerce(store)
        queue = JobQueue(store)
        # Hash once: the store API accepts the hash string everywhere, and
        # re-deriving it (a full canonical-JSON dump + SHA-256) per cell
        # per poll would dominate an idle wait loop.
        h = store.register_scenario(scenario)
        plan = {"resume": resume, "checkpoint_every": checkpoint_every, "force": force}
        # Pace on the coordinator's /status long-poll until it reports the
        # sweep drained (the loop then finds every manifest) or stops
        # answering; sleep between looks otherwise.
        long_poll = self.coordinator_url is not None and self._post_sweep(
            scenario, cells, plan
        )
        if not long_poll:
            queue.enqueue(scenario, cells, lease_seconds=self.lease_seconds, **plan)
        n_local = 0 if self.max_workers == 0 else self.worker_count(len(cells))
        self._workers = [p for p in self._workers if p.poll() is None]
        while len(self._workers) < n_local:
            self._workers.append(self._spawn_worker(store))
        failures = 0
        max_failures = max(3, 2 * n_local)
        landed = len(cells) - len(store.missing_cells(h, cells))
        started = time.monotonic()
        hinted = False
        idle_looks = 0
        backoff_rng = random.Random(f"submit:{h}")
        while True:
            done = len(cells) - len(store.missing_cells(h, cells))
            if done == len(cells):
                break
            if done > landed:
                # Cells are still landing: worker deaths so far were
                # absorbed by the lease/re-queue machinery.  Reset the
                # failure budget so a long sweep on flaky nodes is not
                # aborted by a lifetime body count while progressing, and
                # look again soon.
                landed, failures, idle_looks = done, 0, 0
            queue.reclaim_stale()
            if n_local:
                alive = []
                for proc in self._workers:
                    code = proc.poll()
                    if code is None:
                        alive.append(proc)
                    elif code != 0:
                        failures += 1
                        if failures > max_failures:
                            raise RuntimeError(
                                f"service workers keep failing (last exit "
                                f"code {code}, {failures} failures); see the "
                                "worker stderr above"
                            )
                self._workers = alive
                # Respawn only when claimable work is actually waiting
                # (idle exits while one worker finishes the tail cell
                # are normal and should not trigger churn).
                if len(self._workers) < n_local and queue.unclaimed():
                    self._workers.append(self._spawn_worker(store))
            elif not hinted and time.monotonic() - started > 30.0:
                hinted = True
                print(
                    f"[service] waiting for external workers on {store.root} "
                    f"— start some with: python -m repro worker --store "
                    f"{store.root}",
                    file=sys.stderr,
                )
            if long_poll:
                long_poll = self._await_status(h)
            else:
                idle_looks += 1
                time.sleep(idle_backoff(idle_looks, self.poll_interval, backoff_rng))
        return [store.load_history(h, s, d) for s, d in cells]

    # -- the coordinator's side of a plan --------------------------------
    def _post_sweep(
        self, scenario: "Scenario", cells: Sequence[tuple[str, int]], plan: dict
    ) -> bool:
        """POST the plan to ``/sweep``; ``False`` when the coordinator is
        unreachable (the caller then enqueues on the store directly)."""
        payload = {
            "scenario": scenario.to_dict(),
            "cells": [[s, int(d)] for s, d in cells],
            "lease_seconds": self.lease_seconds,
            **plan,
        }
        try:
            _request(self.coordinator_url, "POST", "/sweep", payload, timeout=30.0)
        except _UNREACHABLE:
            return False
        return True

    def _await_status(self, scenario_hash: str) -> bool:
        """One ``/status`` long-poll; ``True`` while it is worth another."""
        hold = _long_poll_hold(self.poll_interval)
        try:
            status = _request(
                self.coordinator_url,
                "GET",
                f"/status?hash={scenario_hash}&timeout={hold}",
                timeout=hold + 10.0,
            )
        except _UNREACHABLE:
            return False
        return not status.get("done")

    def _spawn_worker(self, store: "ExperimentStore") -> subprocess.Popen:
        """Start one local worker subprocess for this executor's queue.

        The repo's ``src`` directory is prepended to the child's
        ``PYTHONPATH`` so spawning works from a source checkout without an
        installed package.
        """
        if self.coordinator_url is None:
            target = ["--store", str(store.root), "--exit-when-idle"]
        else:
            # The store is passed too, not just learned from /register, so
            # the worker can claim from it directly the moment the
            # coordinator dies.
            target = [
                "--coordinator", self.coordinator_url,
                "--store", str(store.root.resolve()),
            ]
        src_dir = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not existing else os.pathsep.join([src_dir, existing])
        )
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            *target,
            "--poll-interval",
            str(self.poll_interval),
        ]
        return subprocess.Popen(cmd, env=env)
