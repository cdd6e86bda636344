"""The :class:`FMoreEngine` façade: scenario in, training histories out.

This module is the assembly path of the simulator.  From a
:class:`~repro.api.scenario.Scenario` it builds

* the **federation** — synthetic dataset generator, heterogeneous non-IID
  clients, held-out test set shared across schemes,
* the **auction environment** — every component created from the
  :mod:`repro.core.registry` tables named by the scenario's specs, with
  the :class:`~repro.core.equilibrium.EquilibriumSolver` *cached per
  advertised game* ``(s, c, F, N, K)`` so parameter sweeps and multi-seed
  runs reuse one grid solve,
* the **schemes** — RandFL / FixFL / FMore / psi-FMore wired into
  :class:`~repro.fl.trainer.FederatedTrainer` instances sharing initial
  global weights,

and runs every ``(scheme, seed)`` cell of the scenario's plan, returning
a :class:`RunResult`.
"""

from __future__ import annotations

import copy
import functools
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.auction import MultiDimensionalProcurementAuction
from ..core.equilibrium import EquilibriumSolver
from ..core.hierarchy import (
    HierarchicalMechanism,
    ShardedPopulation,
    build_population,
)
from ..core.mechanism import FMoreMechanism
from ..core.policies import PolicyAction, build_policy_pipeline
from ..core.registry import (
    COST_MODELS,
    EXECUTORS,
    SCORING_RULES,
    THETA_DISTRIBUTIONS,
    WINNER_SELECTIONS,
)
from ..core.valuation import PrivateValueModel
from ..fl.client import FLClient
from ..fl.datasets import DataGenerator, make_generator
from ..fl.models import build_model
from ..fl.partition import ClientData, heterogeneous_specs, materialize_clients
from ..fl.selection import (
    AuctionSelection,
    FixedSelection,
    RandomSelection,
    SelectionStrategy,
)
from ..fl.server import FedAvgServer
from ..fl.trainer import FederatedTrainer, RoundRecord, RoundTimer, TrainingHistory
from ..mec.cluster import (
    ClusterNodeSpec,
    SimulatedCluster,
    build_cluster_specs,
    cluster_quality_extractor,
)
from ..mec.node import EdgeNode
from ..mec.resources import ResourceProfile, UniformAvailabilityDynamics
from ..sim.rng import rng_from, rng_state, set_rng_state
from ..strategic.policies import build_bid_policies
from .executor import Executor
from .scenario import SCHEME_NAMES, Scenario
from .store import (
    Checkpoint,
    ExperimentStore,
    IncompleteRunError,
    StoreError,
    scenario_hash,
)

__all__ = [
    "Federation",
    "RunResult",
    "SeriesStats",
    "average_histories",
    "RoundEvent",
    "Session",
    "FMoreEngine",
    "build_federation",
    "build_solver",
    "build_agents",
    "build_selection",
    "make_session",
    "run_scheme",
    "SAMPLES_PER_QUALITY_UNIT",
]

SAMPLES_PER_QUALITY_UNIT = 1000.0  # q1 is data size in kilosamples

_AUCTION_SCHEMES = ("FMore", "PsiFMore")


@dataclass
class Federation:
    """Everything schemes must share for a fair comparison.

    For ``variant="cluster"`` scenarios the federation additionally owns
    the simulated testbed hardware: per-node machine specs and the
    :class:`~repro.mec.cluster.SimulatedCluster` wall-clock model (used as
    the run's :class:`~repro.fl.trainer.RoundTimer` unless a caller
    supplies one).

    For ``variant="hierarchical"`` scenarios ``clients_data`` is the
    bounded FL client *pool* (``clusters["fl_pool"]`` entries, not
    ``n_clients``) and ``population`` carries the full sharded bidder
    population as arrays; winners train the pool client at
    ``node_id % pool_size``.
    """

    generator: DataGenerator
    clients_data: list[ClientData]
    test_x: np.ndarray
    test_y: np.ndarray
    thetas: np.ndarray
    initial_weights: list[np.ndarray] = field(default_factory=list)
    cluster_specs: list[ClusterNodeSpec] | None = None
    cluster: SimulatedCluster | None = None
    population: ShardedPopulation | None = None

    @property
    def n_clients(self) -> int:
        return len(self.clients_data)


def _stream_names(scenario: Scenario) -> dict[str, str]:
    """Named seed streams per variant.

    The cluster labels are the ones the Section V-C testbed has always
    drawn from, so testbed runs stay bitwise-identical to historical
    results.
    """
    if scenario.variant == "cluster":
        return {
            "data": f"cluster-data-{scenario.name}",
            "theta": f"cluster-theta-{scenario.name}",
            "hw": f"cluster-hw-{scenario.name}",
            "model": "cluster-model",
            "fixfl": "cluster-fixfl",
            "train": "cluster-train-{scheme}",
            "policy": "cluster-policy-{scheme}",
            "bidding": "cluster-bidding-{scheme}",
        }
    return {
        "data": f"data-{scenario.name}",
        "theta": f"theta-{scenario.name}",
        "model": "model-init",
        "fixfl": "fixfl",
        "train": "train-{scheme}",
        "policy": "policy-{scheme}",
        "bidding": "bidding-{scheme}",
    }


# ----------------------------------------------------------------------
# Assembly: scenario -> live objects (all components via the registries)
# ----------------------------------------------------------------------
def build_federation(scenario: Scenario, seed: int) -> Federation:
    """Materialise clients, test set and private types for one seed.

    The federation depends on ``(scenario, seed)`` only — schemes run on
    identical data and identical theta draws, as the paper's comparisons
    require.
    """
    names = _stream_names(scenario)
    data_rng = rng_from(seed, names["data"])
    theta_rng = rng_from(seed, names["theta"])
    generator = make_generator(
        scenario.dataset, seed=scenario.data_seed, image_size=scenario.image_size
    )
    # Hierarchical scenarios decouple the bidder population (arrays, up to
    # 10^6 entries) from the FL clients that actually train — only the
    # bounded pool is materialised as real datasets.
    n_materialized = (
        scenario.clusters["fl_pool"]
        if scenario.variant == "hierarchical"
        else scenario.n_clients
    )
    specs = heterogeneous_specs(
        n_materialized,
        generator.n_classes,
        data_rng,
        size_range=scenario.size_range,
        min_classes=scenario.min_classes,
        max_classes=scenario.max_classes,
    )
    clients_data = materialize_clients(generator, specs, data_rng)
    test_x, test_y = generator.test_set(scenario.test_per_class, data_rng)
    distribution = THETA_DISTRIBUTIONS.create(scenario.theta)
    thetas = distribution.sample(theta_rng, scenario.n_clients)
    federation = Federation(
        generator, clients_data, test_x, test_y, np.asarray(thetas)
    )
    if scenario.variant == "hierarchical":
        federation.population = build_population(
            scenario.n_clients,
            federation.thetas,
            scenario.size_range,
            scenario.clusters,
            rng_from(seed, f"hier-pop-{scenario.name}"),
            rng_from(
                scenario.clusters["assignment_seed"],
                f"hier-clusters-{scenario.name}",
            ),
            category_floor=max(
                scenario.min_classes / generator.n_classes, 0.05
            ),
            availability_min_fraction=scenario.availability_min_fraction,
            theta_jitter=scenario.theta_jitter,
            theta_support=(distribution.lo, distribution.hi),
            samples_per_quality_unit=SAMPLES_PER_QUALITY_UNIT,
        )
    if scenario.variant == "cluster":
        hw_rng = rng_from(seed, names["hw"])
        federation.cluster_specs = build_cluster_specs(
            [c.size for c in clients_data],
            hw_rng,
            category_proportions=[c.category_proportion for c in clients_data],
            core_choices=scenario.core_choices,
            bandwidth_range_mbps=scenario.bandwidth_range_mbps,
        )
        federation.cluster = SimulatedCluster(federation.cluster_specs)
    return federation


def solver_bounds(scenario: Scenario) -> list[list[float]]:
    """Per-dimension quality bounds of the scenario's game.

    Simulation (Section V-A): data size in kilosamples and category
    proportion.  Cluster (Section V-C): every dimension of the normalised
    (compute, bandwidth, data) triple lives in the unit interval.
    """
    if scenario.variant == "cluster":
        rule = SCORING_RULES.create(scenario.scoring)
        return [[0.0, 1.0]] * rule.n_dimensions
    hi_q1 = scenario.size_range[1] / SAMPLES_PER_QUALITY_UNIT
    return [[0.01, hi_q1], [0.05, 1.0]]


def build_solver(
    scenario: Scenario,
    n_clients: int | None = None,
    k_winners: int | None = None,
) -> EquilibriumSolver:
    """The common-knowledge equilibrium solver of the advertised game.

    Every component — scoring rule ``s``, cost family ``c``, type prior
    ``F`` — is created from its registry spec; the population ``(N, K)``
    defaults to the scenario's federation shape.
    """
    rule = SCORING_RULES.create(scenario.scoring)
    cost = COST_MODELS.create(scenario.cost)
    model = PrivateValueModel(
        THETA_DISTRIBUTIONS.create(scenario.theta),
        n_nodes=n_clients if n_clients is not None else scenario.n_clients,
        k_winners=k_winners if k_winners is not None else scenario.k_winners,
    )
    return EquilibriumSolver(
        rule,
        cost,
        model,
        solver_bounds(scenario),
        win_model=scenario.win_model,
        payment_method=scenario.payment_method,
        grid_size=scenario.grid_size,
    )


def build_agents(
    scenario: Scenario,
    federation: Federation,
    solver: EquilibriumSolver,
) -> list[EdgeNode]:
    """One bidding agent per client, capacity = its actual resources.

    Simulation agents are capped by their local data; cluster agents by
    their machine's (cores, bandwidth, data) triple, normalised by the
    scenario's hardware maxima.
    """
    if scenario.variant == "cluster":
        if federation.cluster_specs is None:
            raise ValueError(
                "cluster scenario needs a cluster federation; build it with "
                "build_federation(scenario, seed)"
            )
        if solver.quality_rule.n_dimensions != 3:
            raise ValueError(
                "cluster scenarios score the 3-D (compute, bandwidth, data) "
                f"triple; scoring spec has {solver.quality_rule.n_dimensions} "
                "dimensions"
            )
        extractor = cluster_quality_extractor(
            max_cores=max(scenario.core_choices),
            max_bandwidth_mbps=scenario.bandwidth_range_mbps[1],
            max_data_size=scenario.size_range[1],
        )
        return [
            EdgeNode(
                node_id=spec.node_id,
                theta=float(theta),
                solver=solver,
                profile=spec.profile,
                dynamics=UniformAvailabilityDynamics(
                    scenario.availability_min_fraction
                ),
                quality_extractor=extractor,
                theta_jitter=scenario.theta_jitter,
            )
            for spec, theta in zip(federation.cluster_specs, federation.thetas)
        ]
    agents: list[EdgeNode] = []
    for data, theta in zip(federation.clients_data, federation.thetas):
        profile = ResourceProfile(
            data_size=data.size,
            category_proportion=max(data.category_proportion, 0.05),
        )
        agents.append(
            EdgeNode(
                node_id=data.client_id,
                theta=float(theta),
                solver=solver,
                profile=profile,
                dynamics=UniformAvailabilityDynamics(scenario.availability_min_fraction),
                theta_jitter=scenario.theta_jitter,
            )
        )
    return agents


def _quality_to_samples(quality: np.ndarray) -> int:
    return int(round(quality[0] * SAMPLES_PER_QUALITY_UNIT))


@dataclass(frozen=True)
class _ClusterQualityToSamples:
    """Declared data dimension (index 2) scaled back to raw sample counts."""

    max_data_size: int

    def __call__(self, quality: np.ndarray) -> int:
        return int(round(quality[2] * self.max_data_size))


def build_selection(
    scenario: Scenario,
    scheme: str,
    federation: Federation,
    seed: int,
    solver: EquilibriumSolver | None = None,
) -> SelectionStrategy:
    """Construct the selection strategy for a scheme name."""
    client_ids = [c.client_id for c in federation.clients_data]
    names = _stream_names(scenario)
    if scheme == "RandFL":
        return RandomSelection(client_ids, scenario.k_winners)
    if scheme == "FixFL":
        return FixedSelection(
            client_ids, scenario.k_winners, rng_from(seed, names["fixfl"])
        )
    if scheme in _AUCTION_SCHEMES:
        if solver is None:
            solver = build_solver(scenario)
        if scenario.variant == "hierarchical":
            return _hierarchical_selection(scenario, scheme, federation, solver)
        agents = build_agents(scenario, federation, solver)
        if scheme == "PsiFMore":
            psi = scenario.psi if scenario.psi is not None else 0.8
            policy = WINNER_SELECTIONS.create({"name": "psi", "psi": psi})
        else:
            policy = WINNER_SELECTIONS.create("top_k")
        auction = MultiDimensionalProcurementAuction(
            solver.quality_rule,
            scenario.k_winners,
            payment_rule=scenario.payment_rule,
            selection=policy,
        )
        # The scheme's round-policy pipeline, built fresh per cell (the
        # policies are stateful: strike counters, active sets, alpha
        # trajectories).  Policy randomness comes from its own named
        # stream, so a policy-free pipeline leaves every historical
        # stream untouched (bitwise-identical histories).
        pipeline = build_policy_pipeline(scenario.policies_for(scheme))
        policy_rng = (
            rng_from(seed, names["policy"].format(scheme=scheme))
            if pipeline
            else None
        )
        # The strategic slice, if any.  Like the round-policy pipeline,
        # its randomness rides a dedicated named stream, so all-truthful
        # scenarios leave every historical stream untouched.
        bid_policies = build_bid_policies(
            scenario.bidding_for(scheme), [a.node_id for a in agents]
        )
        bidding_rng = (
            rng_from(seed, names["bidding"].format(scheme=scheme))
            if bid_policies
            else None
        )
        mechanism = FMoreMechanism(
            auction,
            policies=pipeline,
            policy_rng=policy_rng,
            bid_policies=bid_policies,
            bidding_rng=bidding_rng,
        )
        if scenario.variant == "cluster":
            quality_to_samples = _ClusterQualityToSamples(scenario.size_range[1])
        else:
            quality_to_samples = _quality_to_samples
        strategy = AuctionSelection(mechanism, agents, quality_to_samples)
        strategy.name = scheme
        return strategy
    raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEME_NAMES}")


def _hierarchical_selection(
    scenario: Scenario,
    scheme: str,
    federation: Federation,
    solver: EquilibriumSolver,
) -> SelectionStrategy:
    """The two-tier auction strategy of a ``variant="hierarchical"`` cell.

    The top-tier auction competes cluster heads for ``k_clusters`` slots
    (top-K or psi admission, per the scheme) and is consulted only for
    its scoring rule, ``k_winners``, payment rule and selection policy:
    the mechanism ranks heads itself and never calls its ``run``.  Every
    cluster's local game is a
    :meth:`~repro.core.equilibrium.EquilibriumSolver.with_population`
    clone of the shared population solver, one per distinct cluster
    size, memoised on that solver so every session of the game reuses
    it.
    """
    if federation.population is None:
        raise ValueError(
            "hierarchical scenario needs a sharded population; build the "
            "federation with build_federation(scenario, seed)"
        )
    clusters = scenario.clusters
    if scheme == "PsiFMore":
        psi = scenario.psi if scenario.psi is not None else 0.8
        policy = WINNER_SELECTIONS.create({"name": "psi", "psi": psi})
    else:
        policy = WINNER_SELECTIONS.create("top_k")
    auction = MultiDimensionalProcurementAuction(
        solver.quality_rule,
        clusters["k_clusters"],
        payment_rule=scenario.payment_rule,
        selection=policy,
    )
    mechanism = HierarchicalMechanism(
        auction, federation.population, solver, k_local=clusters["k_local"]
    )
    strategy = AuctionSelection(mechanism, (), _quality_to_samples)
    strategy.name = scheme
    return strategy


class _PooledClients(dict):
    """Winner node ids resolved onto the bounded FL client pool.

    A hierarchical round's winners are population node ids (0..N-1); the
    federation only materialises ``fl_pool`` real clients, so a missing id
    maps onto the pool by ``node_id % pool_size``.  Plain pool-sized
    scenarios hit the dict directly and behave exactly like the list the
    trainer historically received.
    """

    def __init__(self, clients: list[FLClient]):
        super().__init__((c.client_id, c) for c in clients)
        self._pool_ids = sorted(self)

    def __missing__(self, node_id: int) -> FLClient:
        return self[self._pool_ids[int(node_id) % len(self._pool_ids)]]


def _build_global_model(scenario: Scenario, federation: Federation, seed: int):
    vocab = None
    if scenario.dataset == "hpnews":
        vocab = federation.generator.spec.vocab_size  # type: ignore[attr-defined]
    return build_model(
        scenario.dataset,
        federation.generator.input_shape,
        federation.generator.n_classes,
        rng_from(seed, _stream_names(scenario)["model"]),
        width=scenario.model_width,
        lr=scenario.lr,
        vocab_size=vocab,
    )


@dataclass
class RoundEvent:
    """One round of a streaming session, as a structured event.

    The fields surface what observers of a long run care about — bids
    collected, the winner set and its payments, model quality, and the
    policy actions (bans, alpha updates, churn) filed this round — while
    ``record`` keeps the full :class:`~repro.fl.trainer.RoundRecord` as
    the source of truth, so replaying a stream of events reconstructs the
    exact :class:`~repro.fl.trainer.TrainingHistory` a batch run returns.
    """

    scheme: str
    seed: int
    round_index: int
    n_bids: int
    winner_ids: list[int]
    payments: dict[int, float]
    total_payment: float
    accuracy: float
    loss: float
    actions: list[PolicyAction]
    record: RoundRecord


class Session:
    """A lazily-evaluated ``(scheme, seed)`` cell: iterate to train.

    Each ``next()`` runs exactly one protocol round and yields its
    :class:`RoundEvent`; ``history`` accumulates the rounds run so far, so
    long runs can be observed, checkpointed (snapshot
    ``trainer.server.model.get_weights()`` between events) and
    early-stopped (just stop iterating — the partial ``history`` is
    valid).  :meth:`run` drains the remaining rounds and returns the full
    history; ``FMoreEngine.run`` consumes sessions exactly this way, so a
    drained session is bitwise-identical to a batch run.

    Checkpointing: :meth:`snapshot` captures everything the cell needs to
    continue exactly (weights, records, RNG stream positions, policy
    state); :meth:`restore` installs a snapshot into a fresh session, and
    ``FMoreEngine.resume(checkpoint)`` wraps both.  Distributed workers
    (:mod:`repro.api.distributed`) drive cells through this same
    interface, which is why a stolen or resumed cell's manifest is
    byte-identical to an uninterrupted one.

    >>> session = engine.session(scenario, "FMore", seed=0)  # doctest: +SKIP
    >>> for event in session:                                # doctest: +SKIP
    ...     if event.accuracy > 0.8:
    ...         break
    """

    def __init__(
        self, scenario: Scenario, scheme: str, seed: int, trainer: FederatedTrainer
    ):
        self.scenario = scenario
        self.scheme = scheme
        self.seed = seed
        self.trainer = trainer
        self.history = TrainingHistory(scheme=trainer.selection.name)

    @property
    def rounds_run(self) -> int:
        return len(self.history.records)

    @property
    def rounds_remaining(self) -> int:
        return self.scenario.n_rounds - self.rounds_run

    def __iter__(self) -> "Session":
        return self

    def __next__(self) -> RoundEvent:
        if self.rounds_remaining <= 0:
            raise StopIteration
        record = self.trainer.run_round(self.rounds_run + 1)
        self.history.records.append(record)
        return RoundEvent(
            scheme=self.scheme,
            seed=self.seed,
            round_index=record.round_index,
            n_bids=len(record.all_scores),
            winner_ids=list(record.winner_ids),
            payments=dict(record.payments),
            total_payment=record.total_payment,
            accuracy=record.accuracy,
            loss=record.loss,
            actions=list(record.policy_actions),
            record=record,
        )

    def run(self) -> TrainingHistory:
        """Drain the remaining rounds; returns the complete history."""
        for _ in self:
            pass
        return self.history

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> Checkpoint:
        """Everything needed to continue this cell bitwise-identically.

        Captured between rounds: the global model's weights, the rounds
        run so far, the exact position of the training RNG stream, and —
        for auction schemes with a policy pipeline — the policy stream's
        position plus every policy's
        :meth:`~repro.core.policies.RoundPolicy.state_dict`.  A fresh
        session restored from the snapshot (:meth:`restore`) produces the
        same remaining rounds the uninterrupted session would have.
        """
        policy_rng_state = None
        policy_states: list[dict] = []
        bidding_rng_state = None
        bid_policy_states: list[dict] = []
        selection = self.trainer.selection
        if isinstance(selection, AuctionSelection):
            mechanism = selection.mechanism
            policy_states = [p.state_dict() for p in mechanism.policies]
            if mechanism.policy_rng is not None:
                policy_rng_state = rng_state(mechanism.policy_rng)
            bid_policy_states = [
                {"label": p.label, "name": p.name, "state": p.state_dict()}
                for p in mechanism.bid_policy_seq
            ]
            if mechanism.bidding_rng is not None:
                bidding_rng_state = rng_state(mechanism.bidding_rng)
        return Checkpoint(
            scenario=self.scenario.to_dict(),
            scenario_hash=scenario_hash(self.scenario),
            scheme=self.scheme,
            seed=self.seed,
            round_index=self.rounds_run,
            records=copy.deepcopy(self.history.records),
            weights=self.trainer.server.model.get_weights(),
            rng_state=rng_state(self.trainer.rng),
            policy_rng_state=policy_rng_state,
            policy_states=policy_states,
            bidding_rng_state=bidding_rng_state,
            bid_policy_states=bid_policy_states,
        )

    def restore(self, checkpoint: Checkpoint) -> "Session":
        """Install a :meth:`snapshot` into this (fresh) session.

        The session must address the same cell: scenario hash, scheme and
        seed are all verified.  Returns ``self`` so
        ``engine.resume(checkpoint)`` reads naturally.
        """
        if self.rounds_run:
            raise ValueError(
                f"restore needs a fresh session; this one already ran "
                f"{self.rounds_run} round(s)"
            )
        own_hash = scenario_hash(self.scenario)
        if checkpoint.scenario_hash != own_hash:
            raise StoreError(
                f"checkpoint was taken under scenario "
                f"{checkpoint.scenario_hash[:12]}…, but this session runs "
                f"{own_hash[:12]}… ({self.scenario.name!r}); resuming it "
                "would not reproduce the original run"
            )
        if (checkpoint.scheme, checkpoint.seed) != (self.scheme, self.seed):
            raise StoreError(
                f"checkpoint addresses cell ({checkpoint.scheme}, seed "
                f"{checkpoint.seed}), not ({self.scheme}, seed {self.seed})"
            )
        if checkpoint.round_index != len(checkpoint.records):
            raise StoreError(
                f"corrupt checkpoint: round_index {checkpoint.round_index} "
                f"but {len(checkpoint.records)} records"
            )
        if checkpoint.round_index > self.scenario.n_rounds:
            raise StoreError(
                f"checkpoint is at round {checkpoint.round_index} but the "
                f"scenario only runs {self.scenario.n_rounds}"
            )
        self.history.records = copy.deepcopy(checkpoint.records)
        self.trainer.server.model.set_weights(checkpoint.weights)
        set_rng_state(self.trainer.rng, checkpoint.rng_state)
        selection = self.trainer.selection
        if isinstance(selection, AuctionSelection):
            mechanism = selection.mechanism
            if len(checkpoint.policy_states) != len(mechanism.policies):
                raise StoreError(
                    f"checkpoint carries {len(checkpoint.policy_states)} "
                    f"policy states but the pipeline has "
                    f"{len(mechanism.policies)} stage(s)"
                )
            for policy, state in zip(mechanism.policies, checkpoint.policy_states):
                policy.load_state(state)
            if checkpoint.policy_rng_state is not None:
                if mechanism.policy_rng is None:  # pragma: no cover - guard
                    raise StoreError(
                        "checkpoint has a policy RNG state but this session "
                        "runs without a policy stream"
                    )
                set_rng_state(mechanism.policy_rng, checkpoint.policy_rng_state)
            seq = mechanism.bid_policy_seq
            if len(checkpoint.bid_policy_states) != len(seq):
                raise StoreError(
                    f"checkpoint carries {len(checkpoint.bid_policy_states)} "
                    f"bid-policy states but this session runs {len(seq)} "
                    "strategic group(s)"
                )
            for policy, entry in zip(seq, checkpoint.bid_policy_states):
                if (entry.get("label"), entry.get("name")) != (
                    policy.label,
                    policy.name,
                ):
                    raise StoreError(
                        f"checkpoint bid-policy state for "
                        f"({entry.get('name')!r}, label {entry.get('label')!r}) "
                        f"does not match this session's "
                        f"({policy.name!r}, label {policy.label!r})"
                    )
                policy.load_state(entry.get("state", {}))
            if checkpoint.bidding_rng_state is not None:
                if mechanism.bidding_rng is None:  # pragma: no cover - guard
                    raise StoreError(
                        "checkpoint has a bidding RNG state but this session "
                        "runs without a strategic slice"
                    )
                set_rng_state(mechanism.bidding_rng, checkpoint.bidding_rng_state)
        elif checkpoint.policy_states or checkpoint.bid_policy_states:
            raise StoreError(
                f"checkpoint carries policy state but scheme "
                f"{self.scheme!r} runs no policy pipeline"
            )
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(scheme={self.scheme!r}, seed={self.seed}, "
            f"rounds={self.rounds_run}/{self.scenario.n_rounds})"
        )


def make_session(
    scenario: Scenario,
    scheme: str,
    seed: int,
    federation: Federation | None = None,
    timer: RoundTimer | None = None,
    solver: EquilibriumSolver | None = None,
) -> Session:
    """Assemble one ``(scheme, seed)`` cell as a streaming :class:`Session`.

    All schemes for a given ``(scenario, seed)`` share the federation and
    the initial global weights; only training randomness differs per
    scheme.  Cluster federations bring their own wall-clock model: when no
    ``timer`` is supplied, the federation's
    :class:`~repro.mec.cluster.SimulatedCluster` times the rounds.
    """
    if federation is None:
        federation = build_federation(scenario, seed)
    if timer is None and federation.cluster is not None:
        timer = federation.cluster
    global_model = _build_global_model(scenario, federation, seed)
    if federation.initial_weights:
        global_model.set_weights(federation.initial_weights)
    else:
        federation.initial_weights = global_model.get_weights()
    server = FedAvgServer(global_model)
    clients = [
        FLClient(
            data,
            local_epochs=scenario.local_epochs,
            batch_size=scenario.batch_size,
            max_batches_per_round=scenario.max_batches_per_round,
        )
        for data in federation.clients_data
    ]
    if scenario.variant == "hierarchical":
        clients = _PooledClients(clients)
    selection = build_selection(scenario, scheme, federation, seed, solver=solver)
    local_training = scenario.execution.get("local_training")
    local_executor = None
    if local_training is not None:
        local_executor = EXECUTORS.create(
            local_training["executor"], max_workers=local_training["max_workers"]
        )
    trainer = FederatedTrainer(
        server,
        clients,
        selection,
        federation.test_x,
        federation.test_y,
        rng_from(seed, _stream_names(scenario)["train"].format(scheme=scheme)),
        timer=timer,
        local_executor=local_executor,
    )
    return Session(scenario, scheme, seed, trainer)


def run_scheme(
    scenario: Scenario,
    scheme: str,
    seed: int,
    federation: Federation | None = None,
    timer: RoundTimer | None = None,
    solver: EquilibriumSolver | None = None,
) -> TrainingHistory:
    """Run one scheme for ``scenario.n_rounds`` rounds; returns its history.

    This is :func:`make_session` drained to completion — the batch surface
    is a consumer of the streaming one, so both are identical by
    construction.
    """
    return make_session(
        scenario, scheme, seed, federation=federation, timer=timer, solver=solver
    ).run()


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class SeriesStats:
    """Mean/std of a per-round metric across repeated runs."""

    mean: np.ndarray
    std: np.ndarray

    def __len__(self) -> int:
        return int(self.mean.size)


def average_histories(histories: list[TrainingHistory]) -> dict[str, SeriesStats]:
    """Per-round mean/std of accuracy, loss and cumulative time.

    "All the results are the average of five experiments" (Section V-A):
    the seed-averaged curves the paper plots.
    """
    if not histories:
        raise ValueError("need at least one history")
    out: dict[str, SeriesStats] = {}
    for attr, key in (
        ("accuracies", "accuracy"),
        ("losses", "loss"),
        ("cumulative_seconds", "cumulative_seconds"),
    ):
        series = [np.asarray(getattr(h, attr), dtype=float) for h in histories]
        if len({s.size for s in series}) != 1:
            raise ValueError("histories must have equal length to be averaged")
        data = np.stack(series)
        out[key] = SeriesStats(mean=data.mean(axis=0), std=data.std(axis=0))
    return out


@dataclass
class RunResult:
    """Histories of every ``(scheme, seed)`` cell of a scenario's plan."""

    scenario: Scenario
    histories: dict[str, list[TrainingHistory]]

    @property
    def schemes(self) -> tuple[str, ...]:
        return self.scenario.schemes

    @property
    def seeds(self) -> tuple[int, ...]:
        return self.scenario.seeds

    def history(self, scheme: str, seed: int | None = None) -> TrainingHistory:
        """One scheme's history for ``seed`` (default: the first seed)."""
        seed = self.seeds[0] if seed is None else seed
        return self.histories[scheme][self.seeds.index(seed)]

    def comparison(self, seed: int | None = None) -> dict[str, TrainingHistory]:
        """The legacy ``run_comparison`` shape: one history per scheme."""
        return {scheme: self.history(scheme, seed) for scheme in self.schemes}

    def averaged(self) -> dict[str, dict[str, SeriesStats]]:
        """Seed-averaged accuracy/loss/time series per scheme."""
        return {s: average_histories(h) for s, h in self.histories.items()}

    def metrics(self) -> "Any":
        """The seed-averaged :class:`~repro.api.metrics.MetricsFrame`.

        One row per ``(scheme, round)``: accuracy/loss/time/payment means
        plus the policy trajectory (cumulative bans, violation and churn
        counts, guidance alpha paths) — with ``to_csv`` / ``to_json``.
        """
        from .metrics import build_metrics_frame

        return build_metrics_frame(self)

    # -- durable storage -------------------------------------------------
    def save(self, store: ExperimentStore | str) -> ExperimentStore:
        """Write every cell's manifest to ``store``; returns the store."""
        store = ExperimentStore.coerce(store)
        for scheme, histories in self.histories.items():
            for seed, history in zip(self.seeds, histories):
                store.save_history(self.scenario, scheme, seed, history)
        return store

    @classmethod
    def load(
        cls, store: ExperimentStore | str, scenario: Scenario
    ) -> "RunResult":
        """Rebuild a result from stored manifests (the plan must be complete).

        Raises :class:`~repro.api.store.StoreError` listing the missing
        ``(scheme, seed)`` cells when the store does not cover the
        scenario's full plan.
        """
        store = ExperimentStore.coerce(store)
        missing = [
            (scheme, seed)
            for seed in scenario.seeds
            for scheme in scenario.schemes
            if not store.has_cell(scenario, scheme, seed)
        ]
        if missing:
            names = ", ".join(f"{s}/seed{d}" for s, d in missing)
            raise StoreError(
                f"store {store.root} is missing {len(missing)} cell(s) of "
                f"scenario {scenario_hash(scenario)[:12]}… "
                f"({scenario.name!r}): {names}"
            )
        histories = {
            scheme: [
                store.load_history(scenario, scheme, seed)
                for seed in scenario.seeds
            ]
            for scheme in scenario.schemes
        }
        return cls(scenario, histories)


# ----------------------------------------------------------------------
# The façade
# ----------------------------------------------------------------------
class FMoreEngine:
    """Runs scenarios, caching equilibrium solvers per advertised game.

    The façade over the whole assembly path: :meth:`run` executes every
    ``(scheme, seed)`` cell of a scenario's plan (durably and
    incrementally when given a ``store``), :meth:`session` streams a
    single cell round by round as :class:`RoundEvent` values, and
    :meth:`resume` continues a :class:`~repro.api.store.Checkpoint`
    bitwise-identically.  The solver cache key is the full common
    knowledge of the game — ``(s, c, F, N, K)`` plus quality bounds,
    winning kernel, payment backend and grid size — so a multi-seed run,
    a scheme comparison or a sweep over *non-game* parameters builds the
    strategy tables exactly once.  Construction is cheap; share one
    engine across related runs to share its cache.

    >>> engine = FMoreEngine()                                  # doctest: +SKIP
    >>> result = engine.run(Scenario.from_preset("smoke", "mnist_o"))  # doctest: +SKIP
    >>> result.history("FMore").final_accuracy                  # doctest: +SKIP
    0.62

    Parameters
    ----------
    timer:
        Optional :class:`~repro.fl.trainer.RoundTimer` forwarded to every
        trainer (the MEC cluster's wall-clock model).  Must be picklable
        for the ``process`` executor; the ``distributed`` executor
        rejects it (remote workers cannot share a live object — cluster
        scenarios time themselves through their federation instead).
    """

    def __init__(self, timer: RoundTimer | None = None):
        self.timer = timer
        self._solvers: dict[tuple, EquilibriumSolver] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # -- solver cache ---------------------------------------------------
    def solver_for(
        self,
        scenario: Scenario,
        n_clients: int | None = None,
        k_winners: int | None = None,
    ) -> EquilibriumSolver:
        """The (cached) equilibrium solver of the scenario's game."""
        key = self._game_key(scenario, n_clients, k_winners)
        solver = self._solvers.get(key)
        if solver is None:
            self.cache_misses += 1
            solver = build_solver(scenario, n_clients=n_clients, k_winners=k_winners)
            self._solvers[key] = solver
        else:
            self.cache_hits += 1
        return solver

    @staticmethod
    def _game_key(
        scenario: Scenario, n_clients: int | None, k_winners: int | None
    ) -> tuple:
        return (
            _freeze(scenario.scoring),
            _freeze(scenario.cost),
            _freeze(scenario.theta),
            n_clients if n_clients is not None else scenario.n_clients,
            k_winners if k_winners is not None else scenario.k_winners,
            _freeze(solver_bounds(scenario)),
            scenario.win_model,
            scenario.payment_method,
            scenario.grid_size,
        )

    # -- running --------------------------------------------------------
    def session(
        self,
        scenario: Scenario,
        scheme: str,
        seed: int,
        federation: Federation | None = None,
    ) -> Session:
        """A streaming :class:`Session` for one ``(scheme, seed)`` cell.

        Iterating the session runs one round per ``next()`` and yields
        structured :class:`RoundEvent` values (bids collected, winners,
        payments, accuracy, policy actions), so long runs can be observed,
        checkpointed and early-stopped.  Draining it (``session.run()``)
        returns the exact :class:`~repro.fl.trainer.TrainingHistory` that
        :meth:`run_scheme` produces — the batch path is a consumer of this
        one.
        """
        solver = (
            self.solver_for(scenario) if scheme in _AUCTION_SCHEMES else None
        )
        return make_session(
            scenario,
            scheme,
            seed,
            federation=federation,
            timer=self.timer,
            solver=solver,
        )

    def run_scheme(
        self,
        scenario: Scenario,
        scheme: str,
        seed: int,
        federation: Federation | None = None,
    ) -> TrainingHistory:
        """One ``(scheme, seed)`` cell, using the cached solver."""
        return self.session(scenario, scheme, seed, federation=federation).run()

    def run(
        self,
        scenario: Scenario,
        *,
        store: ExperimentStore | str | None = None,
        force: bool = False,
        resume: bool = False,
        checkpoint_every: int | None = None,
        stop_after: int | None = None,
    ) -> RunResult:
        """Run every ``(scheme, seed)`` cell of the scenario's plan.

        The cells fan out through the executor named by the scenario's
        ``execution`` spec (``serial`` by default).  Every cell derives
        its randomness from named per-cell seed streams, so all executors
        return bitwise-identical histories:

        * in-process executors (``serial``, ``thread``) share this
          engine's solver cache and one federation per seed (dropped as
          soon as its last scheme finishes, to keep the serial memory
          profile);
        * the ``process`` executor ships ``(scenario, scheme, seed)`` to
          worker processes, each of which rebuilds federations from the
          same streams and keeps a per-process solver cache (the engine's
          ``timer``, if any, must then be picklable);
        * the ``distributed`` executor turns the store into a job bus:
          pending cells are enqueued as job specs under
          ``<store>/jobs/``, ``python -m repro worker`` processes — local
          (spawned when ``max_workers`` > 0) or on any machine sharing
          the store's filesystem — claim them with lease-guarded lock
          files, and this call polls until every manifest lands (see
          :mod:`repro.api.distributed`; a ``store`` is then mandatory
          and ``stop_after`` is unsupported);
        * the ``service`` executor submits the plan to the event-driven
          coordinator service (:mod:`repro.api.coordinator`) — a running
          one named by the spec's ``coordinator_url``, or an embedded
          coordinator thread on an ephemeral port — which *pushes* cells
          from the same ``<store>/jobs/`` queue to warm workers over
          long-poll (the ``distributed`` executor's store rules apply,
          and the two fleets drain one queue).

        A store-coordinated executor is closed before this call returns
        or raises, so the workers it spawned never outlive the run.

        With a ``store`` (an :class:`~repro.api.store.ExperimentStore` or
        its root path) the run becomes durable and incremental: cells
        whose manifests already exist are loaded instead of re-run
        (unless ``force``), completed cells are written as
        content-addressed manifests, and — with ``checkpoint_every=N`` —
        an in-flight cell checkpoints its session every N rounds, so a
        crash loses at most N rounds.  ``resume=True`` first verifies the
        store belongs to this scenario (raising
        :class:`~repro.api.store.StoreMismatchError` otherwise) and picks
        up any checkpointed cells exactly where they stopped —
        bitwise-identical to an uninterrupted run.  ``stop_after=N``
        bounds the rounds each cell advances *in this process* (a
        controlled interruption: remaining cells are checkpointed and an
        :class:`~repro.api.store.IncompleteRunError` is raised).
        """
        store = ExperimentStore.coerce(store)
        if checkpoint_every is not None and int(checkpoint_every) < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if stop_after is not None and int(stop_after) < 1:
            raise ValueError("stop_after must be >= 1")
        if store is None and (resume or checkpoint_every or stop_after):
            raise ValueError(
                "resume/checkpoint_every/stop_after need a store to "
                "read/write checkpoints; pass store=... (CLI: --store DIR)"
            )
        if resume:
            store.require_scenario(scenario)
        exec_spec = dict(scenario.execution)
        # The within-round training pool is built per session inside
        # make_session, not here: the cell-level executor only takes the
        # plan-level knobs.
        exec_spec.pop("local_training", None)
        executor: Executor = EXECUTORS.create(exec_spec.pop("executor"), **exec_spec)
        if executor.needs_store:
            # Store-coordinated executors (repro.api.distributed) schedule
            # whole plans across machines; the store is their job and
            # results bus, so it is mandatory, and per-process round
            # budgets / live timers cannot cross the machine boundary.
            if store is None:
                raise ValueError(
                    f"the {scenario.execution['executor']!r} executor "
                    "coordinates cells through a shared experiment store; "
                    "pass store=... (CLI: --store DIR)"
                )
            if stop_after is not None:
                raise ValueError(
                    "stop_after bounds rounds run *in this process* and is "
                    "not supported by store-coordinated executors; bound "
                    "worker lifetimes with `repro worker --max-cells` instead"
                )
            if self.timer is not None:
                raise ValueError(
                    "a store-coordinated run cannot ship the engine's timer "
                    "to remote workers; cluster scenarios time themselves "
                    "through their federation's SimulatedCluster"
                )
        cells = [
            (scheme, seed) for seed in scenario.seeds for scheme in scenario.schemes
        ]
        loaded: dict[tuple[str, int], TrainingHistory] = {}
        if store is not None and not force:
            for cell in cells:
                if store.has_cell(scenario, *cell):
                    loaded[cell] = store.load_history(scenario, *cell)
        pending = [cell for cell in cells if cell not in loaded]
        results: list[TrainingHistory | None] = []
        if pending and executor.needs_store:
            try:
                results = executor.execute_plan(
                    scenario,
                    pending,
                    store,
                    resume=resume,
                    checkpoint_every=checkpoint_every,
                    force=force,
                )
            finally:
                executor.close()
        elif pending:
            drive = functools.partial(
                _drive_session,
                store=store,
                resume=resume,
                checkpoint_every=checkpoint_every,
                after_round=(
                    None if stop_after is None
                    else functools.partial(_pause, store, int(stop_after))
                ),
            )
            if executor.in_process:
                results = executor.map(
                    self._cell_runner(scenario, pending, drive), pending
                )
            else:
                results = executor.map(
                    functools.partial(_run_cell, scenario, self.timer, drive),
                    pending,
                )
        incomplete = [
            cell for cell, history in zip(pending, results) if history is None
        ]
        if incomplete:
            raise IncompleteRunError(incomplete, store.root)
        finished = dict(zip(pending, results))
        histories: dict[str, list[TrainingHistory]] = {
            scheme: [] for scheme in scenario.schemes
        }
        for cell in cells:
            scheme, _ = cell
            histories[scheme].append(
                loaded[cell] if cell in loaded else finished[cell]
            )
        return RunResult(scenario, histories)

    def resume(self, checkpoint: Checkpoint) -> Session:
        """A :class:`Session` continuing exactly where ``checkpoint`` stopped.

        The checkpoint carries its full scenario spec, so this is
        self-contained: the cell is reassembled from the same named seed
        streams, then model weights, completed rounds, RNG positions and
        policy state are restored.  Draining the returned session yields a
        history bitwise-identical to the uninterrupted run's.
        """
        scenario = Scenario.from_dict(checkpoint.scenario)
        actual = scenario_hash(scenario)
        if actual != checkpoint.scenario_hash:
            raise StoreError(
                f"checkpoint's embedded scenario hashes to {actual[:12]}… "
                f"but it claims {checkpoint.scenario_hash[:12]}…; the "
                "checkpoint is corrupt"
            )
        session = self.session(scenario, checkpoint.scheme, checkpoint.seed)
        return session.restore(checkpoint)

    def _cell_runner(
        self,
        scenario: Scenario,
        cells: list[tuple[str, int]],
        drive: Callable[[Session], TrainingHistory | None],
    ) -> Callable[[tuple[str, int]], TrainingHistory | None]:
        """The in-process cell function: one pooled federation per seed.

        Federations are built lazily under a lock — once per seed however
        many threads run its cells — and evicted when the seed's last
        scheme completes (``cells`` is the pending set, so store-cached
        cells never pin a federation).  Each session is built through
        :meth:`session` under the same lock, so the seed's first cell fills
        the federation's scheme-independent initial weights before any
        other cell reads them.
        """
        lock = threading.Lock()
        pooled: dict[int, Federation] = {}
        remaining = Counter(seed for _, seed in cells)

        def run_cell(cell: tuple[str, int]) -> TrainingHistory | None:
            scheme, seed = cell
            try:
                with lock:
                    if seed not in pooled:
                        pooled[seed] = build_federation(scenario, seed)
                    session = self.session(
                        scenario, scheme, seed, federation=pooled[seed]
                    )
                return drive(session)
            finally:
                with lock:
                    remaining[seed] -= 1
                    if remaining[seed] == 0:
                        pooled.pop(seed, None)

        return run_cell


def _freeze(value: Any) -> Any:
    """Recursively hashable view of a JSON-ish value (dicts sort by key)."""
    if isinstance(value, dict):
        return tuple((k, _freeze(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


# ----------------------------------------------------------------------
# The cell driver (every cell path: in-process, process pool, store worker)
# ----------------------------------------------------------------------
def _drive_session(
    session: Session,
    store: ExperimentStore | None,
    *,
    resume: bool = False,
    checkpoint_every: int | None = None,
    after_round: Callable[[Session, int], bool] | None = None,
) -> TrainingHistory | None:
    """Advance one cell's session to its end: the one round loop of a cell.

    With ``resume`` the session first continues from its cell's store
    checkpoint, if there is one.  ``after_round(session, advanced)`` runs
    after every round, the last included (``advanced`` counts the rounds
    this call ran); when it returns ``True`` the cell stops there and
    this returns ``None`` without writing anything more.  Otherwise a
    still-running cell checkpoints every ``checkpoint_every`` rounds, and
    a finished cell writes its manifest and drops its checkpoint — the
    manifest is the cell's durable, content-addressed result.
    """
    scenario, scheme, seed = session.scenario, session.scheme, session.seed
    if store is not None and resume:
        checkpoint = store.load_checkpoint(scenario, scheme, seed)
        if checkpoint is not None:
            session.restore(checkpoint)
    advanced = 0
    while session.rounds_remaining > 0:
        next(session)
        advanced += 1
        if after_round is not None and after_round(session, advanced):
            return None
        if (
            store is not None
            and checkpoint_every
            and session.rounds_remaining > 0
            and advanced % int(checkpoint_every) == 0
        ):
            store.save_checkpoint(session.snapshot())
    if store is not None:
        store.save_history(scenario, scheme, seed, session.history)
        store.clear_checkpoint(scenario, scheme, seed)
    return session.history


def _pause(
    store: ExperimentStore, budget: int, session: Session, advanced: int
) -> bool:
    """``stop_after=budget`` as an ``after_round`` hook: after ``budget``
    rounds an unfinished cell checkpoints (even without
    ``checkpoint_every``) and stops."""
    if advanced < budget or session.rounds_remaining == 0:
        return False
    store.save_checkpoint(session.snapshot())
    return True


# ----------------------------------------------------------------------
# Process-pool entry point
# ----------------------------------------------------------------------
# One engine per worker process: cells a worker handles share its solver
# cache (the game key is value-based, so re-pickled scenarios still hit).
_WORKER_ENGINE: FMoreEngine | None = None


def _run_cell(
    scenario: Scenario,
    timer: RoundTimer | None,
    drive: Callable[[Session], TrainingHistory | None],
    cell: tuple[str, int],
) -> TrainingHistory | None:
    """Run one ``(scheme, seed)`` cell in the current (worker) process.

    Rebuilds the cell's federation from its named seed streams, so the
    returned history is bitwise-identical to the serial path no matter
    which worker runs it.  ``drive`` carries the store across the process
    boundary (checkpoints and manifests are plain files, so every worker
    may write its own cells concurrently).
    """
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None:
        _WORKER_ENGINE = FMoreEngine()
    _WORKER_ENGINE.timer = timer
    return drive(_WORKER_ENGINE.session(scenario, *cell))
