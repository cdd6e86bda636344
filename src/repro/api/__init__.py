"""Declarative public API: Scenario specs and the FMoreEngine façade.

The stable, registry-driven surface for running FMore experiments::

    from repro.api import FMoreEngine, Scenario

    scenario = Scenario.from_preset("smoke", "mnist_o", seeds=(0, 1, 2))
    result = FMoreEngine().run(scenario)
    frame = result.metrics()          # seed-averaged, one row per (scheme, round)
    print(frame.filter(scheme="FMore").column("accuracy_mean")[-1])

A :class:`Scenario` is a frozen, JSON-round-trippable description of an
entire experiment — including its per-round policy pipeline
(``policies`` spec: selection overrides with psi rank schedules,
guidance alpha retuning, delivery auditing with blacklists, node churn;
see :mod:`repro.core.policies`).  :class:`FMoreEngine` assembles
components from the :mod:`repro.core.registry` tables, caches the
equilibrium solver per advertised game, and collects all bids per round
through the vectorised ``EquilibriumSolver.bid_batch`` path.  Long runs
can be driven round by round: ``engine.session(scenario, scheme, seed)``
returns a :class:`Session` yielding structured :class:`RoundEvent`
values (``run`` is a consumer of sessions, bitwise-identical).

Results are durable: ``engine.run(scenario, store="runs/")`` writes every
``(scheme, seed)`` cell as a content-addressed manifest in an
:class:`ExperimentStore` and skips cells already on disk; sessions
checkpoint (``session.snapshot()``) and resume
(``engine.resume(checkpoint)``) bitwise-identically; and
``result.metrics()`` returns a :class:`MetricsFrame` of seed-averaged
training and policy trajectories (see :mod:`repro.api.store` and
:mod:`repro.api.metrics`), the one place seeds are averaged:
:func:`repro.analysis.summarize_schemes` reads per-scheme numbers off
it.

Sweeps also scale past one machine: the ``"service"`` executor turns the
store into a shared job bus (:mod:`repro.api.distributed`) — it enqueues
per-cell job specs, ``python -m repro worker`` processes on any machine
sharing the filesystem claim them with lease-guarded lock files
(work-stealing, crash re-queue), and the assembled ``RunResult`` is
bitwise-identical to a serial run.  Given a ``coordinator_url`` it
submits through the event-driven tier on the same queue
(:mod:`repro.api.coordinator`): an asyncio coordinator service claims
from the store's job queue on its workers' behalf and *pushes* cells to
warm workers over long-poll instead of every worker polling the
filesystem, so push and polling fleets drain one queue.  For batch
clusters without a resident coordinator, ``emit_job_scripts`` (CLI:
``python -m repro scenario --emit-jobs DIR``) writes SLURM-style
per-cell scripts speaking the same store protocol.

See ``docs/ARCHITECTURE.md`` for the layer map, ``docs/deployment.md``
for the distributed cookbook, and ``docs/scenario_reference.md`` for
every registered spec name (regenerable via ``python -m repro registry
--markdown``).
"""

from .engine import (
    Federation,
    FMoreEngine,
    RoundEvent,
    RunResult,
    Session,
    build_agents,
    build_federation,
    build_selection,
    build_solver,
    make_session,
    run_scheme,
)
from .coordinator import (
    CoordinatorError,
    CoordinatorHandle,
    CoordinatorService,
    ServiceExecutor,
    ServiceLink,
    WorkerClient,
    start_coordinator,
)
from .distributed import (
    Job,
    JobQueue,
    emit_job_scripts,
    idle_backoff,
    run_worker,
)
from .executor import (
    EXECUTORS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
)
from .metrics import MetricsFrame, build_metrics_frame
from .scenario import SCHEME_NAMES, VARIANT_NAMES, Scenario
from .store import (
    Checkpoint,
    ExperimentStore,
    IncompleteRunError,
    StoreError,
    StoreMismatchError,
    scenario_hash,
)

__all__ = [
    "Scenario",
    "SCHEME_NAMES",
    "VARIANT_NAMES",
    "FMoreEngine",
    "RunResult",
    "RoundEvent",
    "Session",
    "Federation",
    "build_federation",
    "build_solver",
    "build_agents",
    "build_selection",
    "make_session",
    "run_scheme",
    "EXECUTORS",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "ServiceExecutor",
    "CoordinatorService",
    "CoordinatorHandle",
    "CoordinatorError",
    "ServiceLink",
    "WorkerClient",
    "start_coordinator",
    "JobQueue",
    "Job",
    "run_worker",
    "emit_job_scripts",
    "idle_backoff",
    "ExperimentStore",
    "Checkpoint",
    "StoreError",
    "StoreMismatchError",
    "IncompleteRunError",
    "scenario_hash",
    "MetricsFrame",
    "build_metrics_frame",
]
