"""Declarative experiment specs: the :class:`Scenario` dataclass.

A :class:`Scenario` describes an *entire* experiment — dataset, federation
shape, auction environment, schemes, seeds — as one frozen, validated,
JSON-round-trippable value.  The auction components (scoring rule, cost
model, type prior) are named registry specs (see
:mod:`repro.core.registry`), so the same six-step protocol runs with any
registered component mix without touching assembly code:

>>> s = Scenario.from_preset("smoke", "mnist_o")
>>> s2 = Scenario.from_json(s.to_json())
>>> s2 == s
True

Scenarios are consumed by :class:`repro.api.FMoreEngine` and by the CLI
(``python -m repro run --scenario file.json --set key=value``).  The named
presets (:data:`PRESET_NAMES`) are tables of field overrides on top of the
dataclass defaults, which are the paper's Section V-A setup.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from ..core.policies import (
    PIPELINE_STAGES,
    alphas_applicable,
    build_policy_pipeline,
)
from ..core.registry import (
    BID_POLICIES,
    COST_MODELS,
    MARGIN_METHODS,
    PAYMENT_RULES,
    SCORING_RULES,
    THETA_DISTRIBUTIONS,
)
from ..fl.datasets import DATASET_NAMES, IMAGE_PRESETS, TEXT_PRESETS
from ..fl.models import smallest_image_size
from ..strategic import policies as _strategic  # noqa: F401 - registers bid policies
from . import coordinator as _coordinator  # noqa: F401 - registers "service"
from . import distributed as _distributed  # noqa: F401 - registers "distributed"
from .executor import EXECUTORS  # noqa: F401 - import registers the executors

__all__ = ["Scenario", "SCHEME_NAMES", "VARIANT_NAMES", "PRESET_NAMES"]

SCHEME_NAMES = ("FMore", "RandFL", "FixFL", "PsiFMore")

#: Environment families the engine can assemble: the paper's Section V-A/B
#: simulation game, the Section V-C simulated-cluster testbed, and the
#: two-tier sharded auction for MEC-scale populations (N up to ~10^6).
VARIANT_NAMES = ("simulation", "cluster", "hierarchical")

_WIN_MODELS = ("paper", "exact")

_EXECUTION_KEYS = (
    "executor",
    "max_workers",
    "lease_seconds",
    "poll_interval",
    "coordinator_url",
)

# Defaults filled into a "distributed" / "service" execution spec at
# canonicalisation (kept in repro.api.distributed so the executors and
# the spec agree).
_DISTRIBUTED_DEFAULTS = {
    "lease_seconds": _distributed.DEFAULT_LEASE_SECONDS,
    "poll_interval": _distributed.DEFAULT_POLL_INTERVAL,
}

# Executors coordinating whole plans through a shared store; they accept
# the lease/poll knobs and max_workers=0 (coordinate-only).
_STORE_EXECUTORS = ("distributed", "service")

# Numeric fields.  Integer ones are stored as ints, refusing a bool or a
# fraction; real ones must be finite numbers other than a bool, and keep
# the value given, so `lr: 1` keeps its hash.  The optional ones may be None.
_INTEGER_FIELDS = (
    "n_clients", "k_winners", "test_per_class", "min_classes", "max_classes",
    "n_rounds", "local_epochs", "batch_size", "max_batches_per_round",
    "image_size", "grid_size",
)
_REAL_FIELDS = ("availability_min_fraction", "theta_jitter", "lr", "model_width", "psi")
_OPTIONAL_FIELDS = ("max_classes", "max_batches_per_round", "image_size", "psi")

# Fields deserialised back into tuples (JSON only has lists).
_TUPLE_FIELDS = ("size_range", "schemes", "seeds", "core_choices", "bandwidth_range_mbps")
_SPEC_FIELDS = {
    "scoring": SCORING_RULES,
    "cost": COST_MODELS,
    "theta": THETA_DISTRIBUTIONS,
}

# Dict-valued fields that accept dotted override paths ("scoring.scale").
_DICT_FIELDS = ("scoring", "cost", "theta", "execution", "policies", "bidding", "clusters")

# Keys of the variant="hierarchical" `clusters` spec.  `count` is
# required; the rest are defaulted at canonicalisation so the spec
# round-trips explicitly through JSON (the `execution` pattern).
_CLUSTERS_KEYS = (
    "count",
    "k_clusters",
    "k_local",
    "size_dist",
    "theta_skew",
    "capacity_skew",
    "assignment_seed",
    "fl_pool",
)

# Keys the `clusters` spec carried while its per-cluster ranking could
# fan out over a pool.  Every spec stored until then (scenario files,
# checkpoints, job specs) holds exactly these defaults, so they load and
# are dropped; any other value is rejected.
_RETIRED_CLUSTERS_KEYS = {"executor": "serial", "max_workers": None}

_CLUSTER_SIZE_DISTS = ("uniform", "lognormal")

#: Schemes the two-tier mechanism knows how to run (both tiers are
#: score-ranked auctions; RandFL/FixFL have no per-cluster analogue).
_HIERARCHICAL_SCHEMES = ("FMore", "PsiFMore")

#: Bound on how many FL clients a hierarchical federation materialises;
#: auction winners map onto this pool modulo its size, so training cost
#: stays flat while the *bidder* population scales to 10^5-10^6.
DEFAULT_FL_POOL = 256

_POLICY_SPEC_KEYS = PIPELINE_STAGES + ("per_scheme",)

_BIDDING_SPEC_KEYS = ("mix", "per_scheme")


#: Named presets as field overrides on top of the dataclass defaults (the
#: paper's Section V-A simulation: N=100, K=20, 20 rounds, ``25 q1 q2 - p``,
#: linear cost ``theta (4 q1 + 2 q2)``).  ``paper`` keeps that federation
#: at full model width; ``bench`` shrinks federation and models so every
#: figure regenerates in minutes; ``smoke`` is CI-sized.  The three scale
#: presets combine with any dataset and are named ``"<scale>-<dataset>"``.
#: ``cluster_cifar10`` is the Section V-C testbed (Figs 12-13): one
#: aggregator plus 31 edge nodes scored on {compute, bandwidth, data} with
#: ``0.4 q1 + 0.3 q2 + 0.3 q3 - p``; it always trains CIFAR-10.  A preset's
#: ``name`` feeds the named seed streams (``"cluster"`` the ``cluster-*``
#: ones), so renaming one changes every result drawn from it.
_PRESETS: dict[str, dict[str, Any]] = {
    "smoke": dict(
        n_clients=10, k_winners=3, n_rounds=3, batch_size=16, model_width=0.12,
        test_per_class=10, size_range=(30, 120), grid_size=65,
    ),
    "bench": dict(
        n_clients=30, k_winners=6, n_rounds=12, model_width=0.2,
        test_per_class=40, size_range=(80, 1200), max_classes=5, grid_size=129,
    ),
    "paper": dict(model_width=1.0, test_per_class=100, max_classes=5),
    "cluster_cifar10": dict(
        name="cluster", dataset="cifar10", variant="cluster",
        n_clients=31, k_winners=8, test_per_class=40, size_range=(200, 1000),
        max_classes=5, availability_min_fraction=0.6, theta_jitter=0.0,
        lr=0.03, model_width=0.2,
        scoring={"name": "additive", "weights": [0.4, 0.3, 0.3]},
        cost={"name": "linear", "betas": [0.25, 0.25, 0.5]},
        payment_method="quadrature", grid_size=129, schemes=("FMore", "RandFL"),
    ),
}
PRESET_NAMES = tuple(_PRESETS)

# Per-dataset learning rates of the scale presets, calibrated on the
# synthetic tasks (the deeper CIFAR net needs a gentler step; the noisy
# Fashion task oscillates at 0.08 under non-IID FedAvg; the LSTM needs a
# larger step).
_DATASET_LR = {"mnist_o": 0.08, "mnist_f": 0.05, "cifar10": 0.03, "hpnews": 0.3}


def _default_scoring() -> dict:
    return {"name": "multiplicative", "n_dimensions": 2, "scale": 25.0}


def _default_cost() -> dict:
    return {"name": "linear", "betas": (4.0, 2.0)}


def _default_theta() -> dict:
    return {"name": "uniform", "lo": 0.1, "hi": 1.0}


def _default_execution() -> dict:
    return {"executor": "serial", "max_workers": None}


@dataclass(frozen=True)
class Scenario:
    """One fully-specified experiment (dataset + federation + auction + plan).

    A frozen, validated, JSON-round-trippable value: build one with
    :meth:`from_preset` / :meth:`from_dict` / the constructor, derive
    variants with :meth:`with_` / :meth:`with_overrides` (CLI-style
    ``key=value`` pairs, dotted paths reaching inside spec mappings), and
    hand it to :class:`~repro.api.engine.FMoreEngine`.  Invalid field
    combinations fail at construction, never rounds into a run.

    The fields fall into six groups (defaults mirror the paper's Section
    V-A setup):

    * **environment** — ``name`` (feeds the named seed streams),
      ``dataset``, ``variant`` (``"simulation"`` or the Section V-C
      ``"cluster"`` testbed);
    * **federation shape** — ``n_clients``, ``k_winners``, data sizing
      and non-IID-ness, ``data_seed``;
    * **training** — ``n_rounds``, ``local_epochs``, ``batch_size``,
      ``lr``, model shape;
    * **auction environment** — the registry specs ``scoring`` /
      ``cost`` / ``theta`` plus ``payment_rule`` / ``payment_method`` /
      ``win_model`` / ``grid_size`` (see docs/scenario_reference.md for
      every registered name);
    * **run plan** — ``schemes``, ``seeds``, and ``execution`` (which
      executor fans the ``(scheme, seed)`` cells out, including the
      store-coordinated ``"distributed"`` backend);
    * **round policies** — the ``policies`` pipeline spec with optional
      ``per_scheme`` overrides.

    >>> s = Scenario.from_preset("smoke", "mnist_o", seeds=(0, 1))
    >>> Scenario.from_json(s.to_json()) == s
    True
    >>> s.with_overrides(["scoring.scale=30", "seeds=0,1,2"]).n_rounds == s.n_rounds
    True
    """

    name: str = "default"
    dataset: str = "mnist_o"
    # -- environment family ----------------------------------------------
    # "simulation" scores (data size, category diversity) as in Section
    # V-A/B; "cluster" recreates the Section V-C testbed: heterogeneous
    # machines (cores, bandwidth) on a SimulatedCluster wall-clock model,
    # scored on the 3-D (compute, bandwidth, data) triple.
    variant: str = "simulation"
    # -- federation shape ------------------------------------------------
    n_clients: int = 100
    k_winners: int = 20
    test_per_class: int = 50
    size_range: tuple[int, int] = (200, 5000)
    min_classes: int = 1
    max_classes: int | None = None
    availability_min_fraction: float = 0.35
    theta_jitter: float = 0.2
    data_seed: int = 7
    # -- training --------------------------------------------------------
    n_rounds: int = 20
    local_epochs: int = 1
    batch_size: int = 32
    max_batches_per_round: int | None = None
    lr: float = 0.08
    model_width: float = 0.25
    image_size: int | None = None
    # -- auction environment (registry specs) ----------------------------
    scoring: dict = field(default_factory=_default_scoring)
    cost: dict = field(default_factory=_default_cost)
    theta: dict = field(default_factory=_default_theta)
    payment_rule: str = "first_score"
    win_model: str = "paper"
    payment_method: str = "euler"
    psi: float | None = None
    grid_size: int = 257
    # -- cluster hardware (variant="cluster" only) ------------------------
    core_choices: tuple[int, ...] = (1, 2, 4, 8)
    bandwidth_range_mbps: tuple[float, float] = (50.0, 1000.0)
    # -- run plan ---------------------------------------------------------
    schemes: tuple[str, ...] = ("FMore", "RandFL", "FixFL")
    seeds: tuple[int, ...] = (0,)
    # How the (scheme, seed) cells execute: a registry spec naming an
    # executor from repro.api.executor plus its worker bound.  The
    # "distributed" executor (repro.api.distributed) additionally takes
    # lease_seconds/poll_interval and allows max_workers=0
    # (coordinate-only: external `python -m repro worker` processes run
    # the cells through a shared experiment store).
    execution: dict = field(default_factory=_default_execution)
    # Round-policy pipeline spec: {stage: params} over the registered
    # stages (selection/guidance/audit_blacklist/churn, see
    # repro.core.policies), plus an optional "per_scheme" mapping of
    # scheme-name -> stage overrides (a null stage disables the base
    # policy for that scheme).  Policies apply to the auction-driven
    # schemes (FMore/PsiFMore); empty means the classic protocol.
    policies: dict = field(default_factory=dict)
    # Strategic-bidder mix: {"mix": [{"name": <BID_POLICIES name>,
    # "fraction": f, "label": ..., **params}, ...]} plus an optional
    # "per_scheme" mapping (a null entry reverts a scheme to all-truthful).
    # Fractions are claimed from the front of the node order; the
    # remainder bids truthfully through the untouched batched hot path.
    # Empty (the default) is all-truthful and is *omitted* from to_dict()
    # so pre-existing scenario hashes and manifests stay byte-identical.
    bidding: dict = field(default_factory=dict)
    # Two-tier sharding spec (variant="hierarchical" only): the bidder
    # population is partitioned into `count` edge clusters (size law,
    # per-cluster theta/capacity skew, seeded assignment), each cluster
    # runs a local FMore auction for `k_local` winners, and a top-level
    # auction among the cluster heads admits `k_clusters` clusters to the
    # global round; `fl_pool` bounds how many FL clients are materialised.
    # Empty (the default, required for flat variants) is *omitted* from
    # to_dict() so pre-existing scenario hashes stay byte-identical.
    clusters: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        # Normalise JSON-ish inputs (lists, or scalars from CLI --set
        # overrides like `seeds=0` / `schemes=FMore`) into canonical tuples.
        schemes = (self.schemes,) if isinstance(self.schemes, str) else self.schemes
        seeds = (self.seeds,) if isinstance(self.seeds, (int, float)) else self.seeds
        object.__setattr__(self, "schemes", tuple(str(s) for s in schemes))
        object.__setattr__(self, "seeds", tuple(_integer(s, "seeds entry") for s in seeds))
        for name in ("size_range", "core_choices"):
            entries = tuple(_integer(v, f"{name} entry") for v in getattr(self, name))
            object.__setattr__(self, name, entries)
        for name in _INTEGER_FIELDS + _REAL_FIELDS:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_FIELDS:
                continue
            if name in _REAL_FIELDS:
                _finite(value, name)
            else:
                object.__setattr__(self, name, _integer(value, name))
        object.__setattr__(
            self,
            "bandwidth_range_mbps",
            tuple(float(v) for v in self.bandwidth_range_mbps),
        )
        if self.variant not in VARIANT_NAMES:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from {VARIANT_NAMES}"
            )
        if not self.core_choices or any(c < 1 for c in self.core_choices):
            raise ValueError("core_choices must be a non-empty tuple of cores >= 1")
        if len(self.bandwidth_range_mbps) != 2 or not (
            0.0 < self.bandwidth_range_mbps[0] <= self.bandwidth_range_mbps[1]
        ):
            raise ValueError("bandwidth_range_mbps must satisfy 0 < lo <= hi")
        if not isinstance(self.execution, Mapping):
            raise TypeError("execution must be a spec mapping")
        execution = {str(k): v for k, v in self.execution.items()}
        unknown_exec = sorted(set(execution) - set(_EXECUTION_KEYS))
        if unknown_exec:
            raise ValueError(
                f"unknown execution keys {unknown_exec}; allowed: {_EXECUTION_KEYS}"
            )
        executor = execution.get("executor", "serial")
        if not isinstance(executor, str) or executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; "
                f"choose from {list(EXECUTORS.names())}"
            )
        max_workers = execution.get("max_workers")
        if max_workers is not None:
            max_workers = _integer(max_workers, "execution max_workers")
            if max_workers < 1 and not (
                max_workers == 0 and executor in _STORE_EXECUTORS
            ):
                raise ValueError(
                    "execution max_workers must be >= 1 (0 is allowed only "
                    "for the 'distributed'/'service' executors, meaning "
                    "coordinate-only: external workers do the running)"
                )
        canonical_execution = {"executor": executor, "max_workers": max_workers}
        lease = execution.get("lease_seconds")
        poll = execution.get("poll_interval")
        coordinator_url = execution.get("coordinator_url")
        if executor in _STORE_EXECUTORS:
            # Store-coordination knobs, defaulted at canonicalisation so
            # the spec round-trips explicitly through JSON.
            lease = _DISTRIBUTED_DEFAULTS["lease_seconds"] if lease is None else lease
            poll = _DISTRIBUTED_DEFAULTS["poll_interval"] if poll is None else poll
            lease = _finite(lease, "execution lease_seconds")
            poll = _finite(poll, "execution poll_interval")
            if lease < 0.0:
                raise ValueError("execution lease_seconds must be >= 0")
            if poll <= 0.0:
                raise ValueError("execution poll_interval must be > 0")
            canonical_execution["lease_seconds"] = lease
            canonical_execution["poll_interval"] = poll
        elif lease is not None or poll is not None:
            raise ValueError(
                "execution keys lease_seconds/poll_interval only apply to "
                "the 'distributed'/'service' executors"
            )
        if executor == "service":
            # The event-driven coordinator's address; None means an
            # embedded coordinator on an ephemeral port for this run.
            if coordinator_url is not None:
                coordinator_url = str(coordinator_url)
                if not coordinator_url.startswith(("http://", "https://")):
                    raise ValueError(
                        "execution coordinator_url must be an http(s):// URL"
                    )
            canonical_execution["coordinator_url"] = coordinator_url
        elif coordinator_url is not None:
            raise ValueError(
                "execution key coordinator_url only applies to the "
                "'service' executor"
            )
        object.__setattr__(self, "execution", canonical_execution)
        if self.n_clients < 2:
            raise ValueError("n_clients must be >= 2")
        if not (1 <= self.k_winners <= self.n_clients):
            raise ValueError("need 1 <= k_winners <= n_clients")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        # Training and data fields: a bad value would otherwise fail later,
        # in the federation or model build or rounds into a run, and under
        # the store executors inside a worker that already claimed the cell.
        for name in ("test_per_class", "local_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_batches_per_round is not None and self.max_batches_per_round < 1:
            raise ValueError("max_batches_per_round must be >= 1 or None")
        for name in ("lr", "model_width"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        lo, hi = self.size_range
        if not (0 < lo <= hi):
            raise ValueError("size_range must satisfy 0 < lo <= hi")
        if self.dataset not in DATASET_NAMES:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; choose from {DATASET_NAMES}"
            )
        data_spec = IMAGE_PRESETS.get(self.dataset) or TEXT_PRESETS[self.dataset]
        if self.image_size is not None:
            if self.dataset not in IMAGE_PRESETS:
                # The text generator has no image size; accepting one would
                # give identical federations two content hashes.
                raise ValueError(
                    f"image_size applies to image datasets only; {self.dataset} "
                    f"is text, got image_size={self.image_size}"
                )
            smallest = smallest_image_size(
                self.dataset, data_spec.n_classes, data_spec.channels, self.model_width
            )
            if self.image_size < smallest:
                raise ValueError(
                    f"image_size must be >= {smallest} for the {self.dataset} "
                    f"model, got {self.image_size}"
                )
        max_classes = data_spec.n_classes if self.max_classes is None else self.max_classes
        if not (1 <= self.min_classes <= max_classes <= data_spec.n_classes):
            raise ValueError(
                f"need 1 <= min_classes <= max_classes <= {data_spec.n_classes} "
                f"(the {self.dataset} classes), got min_classes={self.min_classes}, "
                f"max_classes={self.max_classes}"
            )
        object.__setattr__(self, "data_seed", _integer(self.data_seed, "data_seed"))
        if self.data_seed < 0:
            raise ValueError(f"data_seed must be >= 0, got {self.data_seed}")
        if not self.schemes:
            raise ValueError("schemes must be non-empty")
        for scheme in self.schemes:
            if scheme not in SCHEME_NAMES:
                raise ValueError(
                    f"unknown scheme {scheme!r}; choose from {SCHEME_NAMES}"
                )
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError("schemes must be unique")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {self.seeds}")
        for spec_name, registry in _SPEC_FIELDS.items():
            spec = getattr(self, spec_name)
            if not isinstance(spec, Mapping):
                raise TypeError(f"{spec_name} must be a spec mapping")
            spec = {str(k): _detuple(v) for k, v in spec.items()}
            object.__setattr__(self, spec_name, spec)
            name = spec.get("name")
            if not isinstance(name, str) or name not in registry:
                raise ValueError(
                    f"{spec_name} spec names unknown {registry.kind} {name!r}; "
                    f"choose from {list(registry.names())}"
                )
            try:
                registry.create(spec)  # probe: bad params fail here
            except ValueError as exc:
                raise ValueError(f"invalid {spec_name} spec {spec}: {exc}") from exc
        if self.payment_rule not in PAYMENT_RULES:
            raise ValueError(
                f"unknown payment rule {self.payment_rule!r}; "
                f"choose from {list(PAYMENT_RULES.names())}"
            )
        if self.win_model not in _WIN_MODELS:
            raise ValueError(f"win_model must be one of {_WIN_MODELS}")
        if self.payment_method not in MARGIN_METHODS:
            raise ValueError(
                f"unknown payment method {self.payment_method!r}; "
                f"choose from {list(MARGIN_METHODS.names())}"
            )
        if self.psi is not None and not (0.0 < self.psi <= 1.0):
            raise ValueError("psi must lie in (0, 1]")
        if self.grid_size < 16:
            raise ValueError("grid_size must be at least 16")
        object.__setattr__(self, "policies", self._validated_policies())
        object.__setattr__(self, "bidding", self._validated_bidding())
        object.__setattr__(self, "clusters", self._validated_clusters())

    def _validated_policies(self) -> dict:
        """Canonicalise and validate the round-policy spec.

        Structure checks are done here; parameter checks are delegated to
        the policy constructors themselves (every stage of every effective
        per-scheme pipeline is instantiated once and discarded), so a bad
        ``psi0`` or ``defect_fraction`` fails at Scenario construction,
        not rounds later inside a run.
        """
        if not isinstance(self.policies, Mapping):
            raise TypeError("policies must be a spec mapping")
        spec = {str(k): _detuple(v) for k, v in self.policies.items()}
        unknown = sorted(set(spec) - set(_POLICY_SPEC_KEYS))
        if unknown:
            raise ValueError(
                f"unknown policies keys {unknown}; allowed: {list(_POLICY_SPEC_KEYS)}"
            )
        for stage in PIPELINE_STAGES:
            if stage in spec and not isinstance(spec[stage], Mapping):
                raise TypeError(
                    f"policies[{stage!r}] must be a parameter mapping; "
                    f"got {type(spec[stage]).__name__}"
                )
        per_scheme = spec.get("per_scheme", {})
        if not isinstance(per_scheme, Mapping):
            raise TypeError("policies['per_scheme'] must map scheme names to specs")
        for scheme, overrides in per_scheme.items():
            if scheme not in SCHEME_NAMES:
                raise ValueError(
                    f"per_scheme policies name unknown scheme {scheme!r}; "
                    f"choose from {SCHEME_NAMES}"
                )
            if not isinstance(overrides, Mapping):
                raise TypeError(
                    f"per_scheme policies for {scheme!r} must be a mapping"
                )
            bad = sorted(set(map(str, overrides)) - set(PIPELINE_STAGES))
            if bad:
                raise ValueError(
                    f"per_scheme policies for {scheme!r} use unknown stages "
                    f"{bad}; choose from {list(PIPELINE_STAGES)} "
                    "(a null stage disables the base policy)"
                )
        canonical = _jsonish(spec)
        probe = Scenario._merge_policies  # staticmethod, usable pre-freeze
        for scheme in sorted(set(self.schemes) | set(map(str, per_scheme))):
            merged = probe(canonical, scheme)
            build_policy_pipeline(merged)
            if merged.get("guidance") is not None:
                self._check_guidance_steers_scoring(merged["guidance"])
        return canonical

    def _check_guidance_steers_scoring(self, spec: Mapping[str, Any]) -> None:
        """Fail fast when a guidance stage cannot do what it promises.

        The retuned exponents must match the scoring rule's
        dimensionality, and — unless the stage opts into record-only mode
        with ``apply: false`` — the rule must actually interpret weights
        (additive / cobb_douglas); a guidance experiment against the
        default multiplicative rule would otherwise run as a silent no-op.
        """
        rule = SCORING_RULES.create(self.scoring)
        target = spec.get("target_mix", ())
        if len(target) != rule.n_dimensions:
            raise ValueError(
                f"guidance target_mix has {len(target)} dimensions but the "
                f"{self.scoring.get('name')!r} scoring rule scores "
                f"{rule.n_dimensions}"
            )
        if spec.get("apply", True) and not alphas_applicable(rule):
            raise ValueError(
                f"guidance cannot steer the {self.scoring.get('name')!r} "
                "scoring rule (its value ignores per-dimension weights); "
                "use a weight-interpreting scoring spec ('additive', "
                "'cobb_douglas', 'perfect_complementary'), or set "
                '"apply": false for a record-only guidance experiment'
            )

    @staticmethod
    def _merge_policies(spec: Mapping[str, Any], scheme: str) -> dict:
        base = {k: v for k, v in spec.items() if k != "per_scheme"}
        overrides = spec.get("per_scheme", {}).get(scheme, {})
        return {**base, **{str(k): v for k, v in overrides.items()}}

    def policies_for(self, scheme: str) -> dict:
        """The effective ``{stage: params}`` pipeline spec for one scheme.

        Per-scheme overrides win over the base stages; a ``null`` override
        disables the base stage for that scheme.  The result feeds
        :func:`repro.core.policies.build_policy_pipeline` (a copy — safe
        to mutate).
        """
        return copy.deepcopy(self._merge_policies(self.policies, scheme))

    def _validated_bidding(self) -> dict:
        """Canonicalise and validate the strategic-bidder spec.

        Mirrors :meth:`_validated_policies`: structure checks here,
        parameter checks delegated to the policy constructors (every mix
        entry is probe-instantiated through ``BID_POLICIES.create`` and
        discarded), so a bad ``markup`` fails at Scenario construction.
        """
        if not isinstance(self.bidding, Mapping):
            raise TypeError("bidding must be a spec mapping")
        spec = {str(k): _detuple(v) for k, v in self.bidding.items()}
        unknown = sorted(set(spec) - set(_BIDDING_SPEC_KEYS))
        if unknown:
            raise ValueError(
                f"unknown bidding keys {unknown}; allowed: {list(_BIDDING_SPEC_KEYS)}"
            )
        if "mix" in spec:
            self._check_bidding_mix(spec["mix"], where="bidding['mix']")
        per_scheme = spec.get("per_scheme", {})
        if not isinstance(per_scheme, Mapping):
            raise TypeError("bidding['per_scheme'] must map scheme names to specs")
        for scheme, override in per_scheme.items():
            if scheme not in SCHEME_NAMES:
                raise ValueError(
                    f"per_scheme bidding names unknown scheme {scheme!r}; "
                    f"choose from {SCHEME_NAMES}"
                )
            if override is None:
                continue  # null reverts the scheme to all-truthful
            if not isinstance(override, Mapping) or set(map(str, override)) - {"mix"}:
                raise TypeError(
                    f"per_scheme bidding for {scheme!r} must be null or a "
                    '{"mix": [...]} mapping'
                )
            self._check_bidding_mix(
                override.get("mix", []),
                where=f"bidding per_scheme[{scheme!r}]['mix']",
            )
        return _jsonish(spec)

    @staticmethod
    def _check_bidding_mix(mix: Any, where: str) -> None:
        if not isinstance(mix, list):
            raise TypeError(f"{where} must be a list of policy entries")
        total = 0.0
        labels: set[str] = set()
        for entry in mix:
            if not isinstance(entry, Mapping):
                raise TypeError(f"{where} entries must be mappings")
            entry = {str(k): v for k, v in entry.items()}
            name = entry.get("name")
            if not isinstance(name, str) or name not in BID_POLICIES:
                raise ValueError(
                    f"{where} entry names unknown bid policy {name!r}; "
                    f"choose from {list(BID_POLICIES.names())}"
                )
            fraction = entry.get("fraction")
            try:
                fraction = float(fraction)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{where} entry for {name!r} needs a numeric 'fraction'"
                ) from None
            if not (0.0 < fraction <= 1.0):
                raise ValueError(
                    f"{where} fraction for {name!r} must lie in (0, 1]"
                )
            total += fraction
            label = entry.get("label")
            label = name if label is None else str(label)
            if label == "truthful" and name != "truthful":
                raise ValueError(
                    f"{where} label 'truthful' is reserved for the "
                    "untouched remainder group"
                )
            if label in labels:
                raise ValueError(f"{where} has duplicate label {label!r}")
            labels.add(label)
            params = {
                k: v for k, v in entry.items() if k not in ("fraction", "label")
            }
            BID_POLICIES.create(params)  # probe: bad params fail here
        if total > 1.0 + 1e-9:
            raise ValueError(f"{where} fractions sum to {total}; must be <= 1")

    def bidding_for(self, scheme: str) -> list[dict]:
        """The effective strategic mix for one scheme (a copy).

        A ``per_scheme`` entry replaces the base mix wholesale (``null``
        reverts the scheme to all-truthful); the result feeds
        :func:`repro.strategic.policies.build_bid_policies`.
        """
        per_scheme = self.bidding.get("per_scheme", {})
        if scheme in per_scheme:
            override = per_scheme[scheme]
            mix = [] if override is None else override.get("mix", [])
        else:
            mix = self.bidding.get("mix", [])
        return copy.deepcopy(mix)

    def _validated_clusters(self) -> dict:
        """Canonicalise and validate the two-tier sharding spec.

        Mirrors the ``execution`` canonicalisation: `count` is required,
        everything else is defaulted *explicitly* here so the spec
        round-trips through JSON with no implicit state.  The spec is
        rejected outright on flat variants, and the hierarchical variant
        is rejected without it — the coupling is two-way so a stray
        ``clusters`` key can never silently change what a run means.
        """
        if not isinstance(self.clusters, Mapping):
            raise TypeError("clusters must be a spec mapping")
        spec = {str(k): _detuple(v) for k, v in self.clusters.items()}
        if self.variant != "hierarchical":
            if spec:
                raise ValueError(
                    "the clusters spec only applies to variant='hierarchical' "
                    f"(got variant={self.variant!r})"
                )
            return {}
        # -- hierarchical cross-field constraints --------------------------
        bad_schemes = sorted(set(self.schemes) - set(_HIERARCHICAL_SCHEMES))
        if bad_schemes:
            raise ValueError(
                f"variant='hierarchical' cannot run schemes {bad_schemes}; "
                f"choose from {_HIERARCHICAL_SCHEMES}"
            )
        if self.payment_rule != "first_score":
            raise ValueError(
                "variant='hierarchical' requires payment_rule='first_score' "
                "(second-score pricing needs the best rejected bid, which "
                "the top-K local winner determination does not rank)"
            )
        if self.bidding:
            raise ValueError(
                "variant='hierarchical' does not support a bidding spec: "
                "the sharded population bids through the vectorised "
                "equilibrium path, not per-agent policies"
            )
        if self.policies:
            raise ValueError(
                "variant='hierarchical' does not support round policies: "
                "the two-tier mechanism records its own cluster_round "
                "actions instead of running the per-agent pipeline"
            )
        for key, default in _RETIRED_CLUSTERS_KEYS.items():
            if key in spec and spec.pop(key) != default:
                raise ValueError(
                    f"clusters keys {list(_RETIRED_CLUSTERS_KEYS)} are retired: "
                    "the per-cluster ranking now runs inline, and a stored spec "
                    "may carry only their old defaults "
                    f"{json.dumps(_RETIRED_CLUSTERS_KEYS)}"
                )
        unknown = sorted(set(spec) - set(_CLUSTERS_KEYS))
        if unknown:
            raise ValueError(
                f"unknown clusters keys {unknown}; allowed: {list(_CLUSTERS_KEYS)}"
            )
        if "count" not in spec:
            raise ValueError("variant='hierarchical' needs clusters={'count': C, ...}")
        for key in ("count", "k_clusters", "k_local", "assignment_seed", "fl_pool"):
            if spec.get(key) is not None:
                spec[key] = _integer(spec[key], f"clusters {key}")
        count = spec["count"]
        if not (1 <= count <= self.n_clients):
            raise ValueError("clusters count must satisfy 1 <= count <= n_clients")
        k_clusters = spec.get("k_clusters")
        k_clusters = max(1, count // 2) if k_clusters is None else k_clusters
        if not (1 <= k_clusters <= count):
            raise ValueError("clusters k_clusters must satisfy 1 <= k_clusters <= count")
        k_local = spec.get("k_local")
        if k_local is None:
            # Default so the selected clusters contribute ~k_winners
            # trainers to the global round.
            k_local = max(1, -(-self.k_winners // k_clusters))
        if k_local < 1:
            raise ValueError("clusters k_local must be >= 1")
        size_dist = str(spec.get("size_dist", "uniform"))
        if size_dist not in _CLUSTER_SIZE_DISTS:
            raise ValueError(
                f"unknown clusters size_dist {size_dist!r}; "
                f"choose from {_CLUSTER_SIZE_DISTS}"
            )
        skews = {}
        for key in ("theta_skew", "capacity_skew"):
            skews[key] = float(spec.get(key, 0.0))
            if not (math.isfinite(skews[key]) and skews[key] >= 0.0):
                raise ValueError(
                    f"clusters {key} must be finite and >= 0, got {skews[key]!r}"
                )
        assignment_seed = spec.get("assignment_seed", 0)
        if assignment_seed < 0:
            raise ValueError(
                f"clusters assignment_seed must be >= 0, got {assignment_seed}"
            )
        fl_pool = spec.get("fl_pool")
        fl_pool = min(self.n_clients, DEFAULT_FL_POOL) if fl_pool is None else fl_pool
        if fl_pool < 1:
            raise ValueError("clusters fl_pool must be >= 1")
        return {
            "count": count,
            "k_clusters": k_clusters,
            "k_local": k_local,
            "size_dist": size_dist,
            **skews,
            "assignment_seed": assignment_seed,
            "fl_pool": min(fl_pool, self.n_clients),
        }

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_(self, **changes: Any) -> "Scenario":
        """A modified copy (``dataclasses.replace`` with a shorter name)."""
        return replace(self, **changes)

    def with_overrides(self, pairs: Mapping[str, str] | list[str]) -> "Scenario":
        """Apply CLI-style ``key=value`` overrides (values parsed as JSON
        first, then as comma-separated lists, then as bare strings).

        Dotted keys reach inside the dict-valued spec fields —
        ``scoring.scale=30``, ``execution.max_workers=4``,
        ``policies.selection.psi0=0.9`` — creating intermediate mappings
        as needed.  Unknown keys (top-level or dotted roots) fail fast
        with the list of valid override paths rather than leaking an
        opaque constructor error.
        """
        if not isinstance(pairs, Mapping):
            parsed: dict[str, str] = {}
            for item in pairs:
                key, sep, value = str(item).partition("=")
                if not sep:
                    raise ValueError(f"override {item!r} is not KEY=VALUE")
                parsed[key.strip()] = value
            pairs = parsed
        known = {f.name for f in fields(self)}
        changes: dict[str, Any] = {}
        for key, raw in pairs.items():
            root, dot, rest = key.partition(".")
            if root not in known:
                raise ValueError(
                    f"unknown scenario override {key!r}; valid paths are the "
                    f"scenario fields {sorted(known)} and dotted spec keys "
                    f"inside {list(_DICT_FIELDS)} (e.g. 'scoring.scale', "
                    "'execution.max_workers', 'policies.selection.psi0')"
                )
            if not dot:
                changes[key] = _parse_override(raw)
                continue
            if root not in _DICT_FIELDS:
                raise ValueError(
                    f"scenario field {root!r} does not support dotted "
                    f"overrides like {key!r}; only the spec mappings "
                    f"{list(_DICT_FIELDS)} do"
                )
            target = changes.get(root)
            if not isinstance(target, dict):
                target = copy.deepcopy(dict(getattr(self, root)))
                changes[root] = target
            node = target
            parts = rest.split(".")
            for part in parts[:-1]:
                child = node.get(part)
                if not isinstance(child, dict):
                    child = {}
                    node[part] = child
                node = child
            node[parts[-1]] = _parse_override(raw)
        return self.with_(**changes)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A plain JSON-able dict (tuples become lists)."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("bidding", "clusters") and not value:
                # All-truthful / flat is the implicit default; omitting
                # the empty spec keeps pre-existing scenario hashes (and
                # store manifests) intact.
                continue
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                # Spec values are already JSON-canonical (__post_init__);
                # deep-copy so callers cannot mutate the frozen scenario
                # through nested specs (policies nests per-scheme dicts).
                value = copy.deepcopy(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown scenario fields {unknown}")
        kwargs = dict(data)
        for key in _TUPLE_FIELDS:
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def from_preset(
        cls,
        scale: str,
        dataset: str | None = None,
        schemes: tuple[str, ...] | None = None,
        seeds: tuple[int, ...] = (0,),
        **overrides: Any,
    ) -> "Scenario":
        """A named preset scenario (see :data:`PRESET_NAMES`).

        ``smoke``/``bench``/``paper`` combine with ``dataset`` (default
        ``mnist_o``) and compare FMore, RandFL and FixFL;
        ``cluster_cifar10`` is the Section V-C testbed — it trains
        CIFAR-10 and compares FMore vs RandFL as Figs 12-13 do, so asking
        it for a different dataset raises rather than being silently
        ignored.  ``overrides`` replace any field.  Unknown preset names
        raise with the full preset list.
        """
        if scale not in _PRESETS:
            raise ValueError(
                f"unknown preset {scale!r}; choose from {list(PRESET_NAMES)}"
            )
        preset = dict(_PRESETS[scale])
        if "dataset" in preset:
            if dataset not in (None, preset["dataset"]):
                raise ValueError(
                    f"preset {scale!r} trains {preset['dataset']}, not {dataset!r}"
                )
        else:
            dataset = "mnist_o" if dataset is None else dataset
            preset.update(name=f"{scale}-{dataset}", dataset=dataset)
            preset["lr"] = _DATASET_LR.get(dataset, cls.lr)
            if scale == "paper" and dataset in ("mnist_o", "mnist_f"):
                preset["image_size"] = 28  # the MNIST CNNs at native size
        if schemes is not None:
            preset["schemes"] = schemes
        return cls(**{**preset, "seeds": seeds, **overrides})


def _integer(value: Any, name: str) -> int:
    """``value`` as an int; unlike ``int()`` it rejects a bool or a fraction."""
    try:
        if not isinstance(value, bool) and value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _finite(value: Any, name: str) -> float:
    """``value`` as a float; rejects a bool, a non-number, NaN and infinity."""
    if (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    ):
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _detuple(value: Any) -> Any:
    """Canonicalise spec values: tuples -> lists (JSON equivalence)."""
    if isinstance(value, tuple):
        return [_detuple(v) for v in value]
    if isinstance(value, list):
        return [_detuple(v) for v in value]
    return value


def _jsonish(value: Any) -> Any:
    """Deep JSON-canonical copy: tuples -> lists, mapping keys -> str."""
    if isinstance(value, Mapping):
        return {str(k): _jsonish(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonish(v) for v in value]
    return value


def _parse_override(raw: Any) -> Any:
    """Best-effort parse of a CLI override value."""
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, ValueError):
        pass
    if "," in text:
        return [_parse_override(part) for part in text.split(",") if part.strip()]
    lowered = text.lower()
    if lowered in ("none", "null"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    return text
