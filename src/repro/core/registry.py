"""String-keyed component registries for the auction building blocks.

The paper's protocol (Algorithm 1) is a template: any scoring rule ``s``,
cost family ``c``, type prior ``F``, winner-selection policy and payment
rule plug into the same six-step round.  This module gives every pluggable
family a :class:`Registry` — a string-keyed factory table with decorator
registration — so experiments can be described *declaratively* (a dict of
``{"name": ..., **params}`` specs, JSON-serialisable) instead of by
hardwired constructor calls.

Usage::

    from repro.core.registry import COST_MODELS

    cost = COST_MODELS.create({"name": "linear", "betas": [4.0, 2.0]})

    @COST_MODELS.register("my_cost")
    class MyCost(CostModel):
        ...

Each family registers its members in its defining module (``scoring.py``,
``costs.py``, ``valuation.py``, ``psi.py``, ``auction.py``,
``odesolvers.py``), so importing :mod:`repro.core` populates every table.
The registries back :class:`repro.api.Scenario` specs and the
:class:`repro.api.FMoreEngine` assembly path.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "Registry",
    "SCORING_RULES",
    "COST_MODELS",
    "THETA_DISTRIBUTIONS",
    "WINNER_SELECTIONS",
    "PAYMENT_RULES",
    "MARGIN_METHODS",
    "EXECUTORS",
    "ROUND_POLICIES",
    "BID_POLICIES",
    "BID_LEARNERS",
]


class Registry:
    """A string-keyed table of component factories.

    Parameters
    ----------
    kind:
        Human-readable family name used in error messages
        (e.g. ``"scoring rule"``).

    Entries are callables: classes (instantiated by :meth:`create`) or
    plain functions (fetched by :meth:`get` for function-valued families
    such as the margin backends).
    """

    def __init__(self, kind: str):
        self.kind = str(kind)
        self._factories: dict[str, Callable[..., Any]] = {}

    # -- registration ---------------------------------------------------
    def register(self, name: str, factory: Callable[..., Any] | None = None):
        """Register ``factory`` under ``name``; usable as a decorator.

        Re-registering an existing name raises — stable names are the
        point of the registry (scenario files depend on them).
        """

        def _add(target: Callable[..., Any]) -> Callable[..., Any]:
            if not name or not isinstance(name, str):
                raise ValueError(f"{self.kind} name must be a non-empty string")
            if name in self._factories:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            if not callable(target):
                raise TypeError(f"{self.kind} {name!r} must be callable")
            self._factories[name] = target
            return target

        if factory is not None:
            return _add(factory)
        return _add

    # -- lookup ---------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """All registered names, sorted (stable for docs and errors)."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    def get(self, name: str) -> Callable[..., Any]:
        """The raw registered factory/function for ``name``."""
        try:
            return self._factories[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; choose from {list(self.names())}"
            ) from None

    # -- construction ---------------------------------------------------
    def create(self, spec: str | Mapping[str, Any], **overrides: Any) -> Any:
        """Instantiate a component from a declarative spec.

        ``spec`` is either a bare name (default parameters) or a mapping
        ``{"name": <registered name>, **params}``; keyword ``overrides``
        win over spec params.  This is the inverse of writing the spec
        dict by hand — ``create({"name": "linear", "betas": [4, 2]})``
        returns a ``LinearCost`` with those betas.
        """
        if isinstance(spec, str):
            name, params = spec, {}
        elif isinstance(spec, Mapping):
            params = {str(k): v for k, v in spec.items()}
            name = params.pop("name", None)
            if not isinstance(name, str):
                raise ValueError(
                    f"{self.kind} spec needs a 'name' key; got {dict(spec)!r}"
                )
        else:
            raise TypeError(
                f"{self.kind} spec must be a name or a mapping, got {type(spec).__name__}"
            )
        params.update(overrides)
        factory = self.get(name)
        try:
            return factory(**params)
        except TypeError as exc:
            raise TypeError(
                f"bad parameters for {self.kind} {name!r}: {exc}"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry(kind={self.kind!r}, names={list(self.names())})"


# The pluggable families of the FMore protocol.  Members self-register in
# their defining modules; see the module docstring.
SCORING_RULES = Registry("scoring rule")
COST_MODELS = Registry("cost model")
THETA_DISTRIBUTIONS = Registry("theta distribution")
WINNER_SELECTIONS = Registry("winner selection")
PAYMENT_RULES = Registry("payment rule")
MARGIN_METHODS = Registry("margin backend")
# Sweep executors (members live in repro.api.executor: serial/thread/process).
EXECUTORS = Registry("executor")
# Per-round protocol policies (members live in repro.core.policies:
# selection/guidance/audit_blacklist/churn), driven as a pipeline of stage
# hooks by FMoreMechanism.run_round and addressed by Scenario.policies.
ROUND_POLICIES = Registry("round policy")
# Strategic bidding policies (members live in repro.strategic.policies:
# truthful/fixed_markup/random_jitter/regret_matching/adaptive_heuristic),
# assigned to population fractions by Scenario.bidding and driven by
# FMoreMechanism's per-round bid collection.
BID_POLICIES = Registry("bid policy")
# Trainable strategic bidders (members live in repro.strategic.learn:
# q_table/pg_mlp), driven by BidLearnerTrainer over AuctionEnv episodes and
# deployed through the "learned" BID_POLICIES entry once trained.
BID_LEARNERS = Registry("bid learner")
