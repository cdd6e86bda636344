"""Pluggable sweep executors: how ``(scheme, seed)`` cells get scheduled.

The cells of a :class:`~repro.api.scenario.Scenario` plan are
embarrassingly parallel — every cell derives its randomness from named,
per-cell seed streams (:func:`repro.sim.rng.rng_from`), so the histories a
cell produces do not depend on *where* or *in which order* it runs.  This
module turns that property into a registry-registered ``Executor`` family:

* ``serial``  — the plain in-order loop (the default; zero overhead).  It
  is the one in-process path: cells share the engine's solver cache and
  each seed's federation.
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`.  Each
  worker process rebuilds its cells' federations from the same seed
  streams and keeps its own per-process solver cache, so results are
  bitwise-identical to ``serial`` while multi-seed sweeps scale across
  cores.  Work submitted to it must be picklable (the engine submits a
  module-level function plus the frozen scenario).
* ``service`` — schedules cells across *machines* through a shared
  :class:`~repro.api.store.ExperimentStore`: job specs claimed by
  work-stealing workers (see :mod:`repro.api.distributed`), or, given a
  ``coordinator_url``, pushed to warm workers by a running event-driven
  coordinator (see :mod:`repro.api.coordinator`).  It sets
  :attr:`Executor.needs_store` and is driven through ``execute_plan``
  rather than :meth:`Executor.map`.

A scenario chooses its executor declaratively via the ``execution`` spec
(``{"executor": "process", "max_workers": 4}``), which the CLI exposes as
``run --parallel N``; programmatic callers can also instantiate executors
directly or register new ones (import the table via ``repro.api``, which
guarantees the built-in members are registered — the bare
``repro.core.registry.EXECUTORS`` table is only populated once this
module has been imported)::

    from repro.api import EXECUTORS, Executor

    @EXECUTORS.register("my_pool")
    class MyPool(Executor):
        def map(self, fn, items): ...
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

from ..core.registry import EXECUTORS

__all__ = [
    "EXECUTORS",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
]

class Executor(ABC):
    """Maps a work function over cells, preserving input order.

    Parameters
    ----------
    max_workers:
        Upper bound on concurrent workers (``None`` = one per CPU).  The
        effective pool never exceeds the number of submitted items.

    Attributes
    ----------
    in_process:
        ``True`` when cells run one after another inside the calling
        process and share its in-memory state (solver cache, each seed's
        federation).  ``False`` for the process pool, whose work function
        must be picklable and rebuilds shared state per worker.
    needs_store:
        ``True`` for executors that coordinate whole plans through a
        shared :class:`~repro.api.store.ExperimentStore` instead of
        mapping a function over cells.  The engine then requires a store
        and calls ``execute_plan(scenario, cells, store, ...)`` instead
        of :meth:`map`, then ``close()`` (see
        :class:`repro.api.coordinator.ServiceExecutor`).
    """

    in_process = True
    needs_store = False

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None:
            max_workers = int(max_workers)
            if max_workers < 1:
                raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers

    def worker_count(self, n_items: int) -> int:
        """The pool size actually used for ``n_items`` cells."""
        limit = self.max_workers if self.max_workers is not None else os.cpu_count() or 1
        return max(1, min(int(n_items), limit))

    @abstractmethod
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """``[fn(item) for item in items]``, possibly concurrently.

        Results are returned in input order regardless of completion
        order — callers rely on positional alignment with their cells.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_workers={self.max_workers})"


@EXECUTORS.register("serial")
class SerialExecutor(Executor):
    """The in-order loop every other executor must agree with bitwise."""

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        return [fn(item) for item in items]


@EXECUTORS.register("process")
class ProcessExecutor(Executor):
    """Cells on a process pool; ``fn`` and ``items`` must be picklable.

    Even a single cell goes through the pool: running it inline would
    leak worker-side state (per-process caches) into the caller and make
    "runs out of process" executor-dependent.
    """

    in_process = False

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        work: Sequence[Any] = list(items)
        if not work:
            return []
        with ProcessPoolExecutor(max_workers=self.worker_count(len(work))) as pool:
            return list(pool.map(fn, work))
