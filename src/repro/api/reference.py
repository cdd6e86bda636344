"""Generated reference of every registered component spec.

``docs/scenario_reference.md`` is *emitted*, not hand-written: this
module introspects the :mod:`repro.core.registry` tables — names,
constructor parameters with defaults, first doc sentence — and renders
them as one markdown page.  ``python -m repro registry`` prints a plain
summary; ``--markdown`` prints the page, and ``tests/test_docs.py``
fails whenever the committed doc drifts from the live registries, so
registering a component *is* documenting it.

The registries are populated on import: :mod:`repro.core` registers the
auction families in their defining modules, and importing
:mod:`repro.api` registers the executors (including ``service``) and
round policies.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .. import core as _core  # noqa: F401 - registers the auction families
from ..core import registry as _registries
from ..core.registry import (
    BID_LEARNERS,
    BID_POLICIES,
    COST_MODELS,
    EXECUTORS,
    MARGIN_METHODS,
    PAYMENT_RULES,
    ROUND_POLICIES,
    SCORING_RULES,
    THETA_DISTRIBUTIONS,
    WINNER_SELECTIONS,
    Registry,
)
from ..strategic import learn as _learn  # noqa: F401 - registers bid learners
from ..strategic import policies as _strategic  # noqa: F401 - registers bid policies
from . import coordinator as _coordinator  # noqa: F401 - registers "service"
from . import executor as _executor  # noqa: F401 - registers the pool executors

__all__ = [
    "FAMILIES",
    "RegistryEntry",
    "iter_entries",
    "registry_reference_markdown",
    "registry_summary",
]

#: The documented families, in page order: ``(registry, title, blurb)``.
#: ``blurb`` says where the family plugs into a Scenario spec.
FAMILIES: tuple[tuple[Registry, str, str], ...] = (
    (
        SCORING_RULES,
        "Scoring rules",
        "Scenario field `scoring` — the quasi-linear rule "
        "`S(q, p)` the aggregator advertises (spec mapping with `name` + "
        "parameters).",
    ),
    (
        COST_MODELS,
        "Cost models",
        "Scenario field `cost` — the bidders' common-knowledge cost "
        "family `c(q, theta)` (spec mapping).",
    ),
    (
        THETA_DISTRIBUTIONS,
        "Theta distributions",
        "Scenario field `theta` — the private-type prior `F` the "
        "equilibrium is computed against (spec mapping).",
    ),
    (
        WINNER_SELECTIONS,
        "Winner selections",
        "Spec for `policies.selection` (field `name` + parameters) and "
        "the rule behind the `FMore`/`PsiFMore` schemes (`top_k`, `psi` "
        "via the scenario's `psi` field).",
    ),
    (
        PAYMENT_RULES,
        "Payment rules",
        "Scenario field `payment_rule` — addressed by *name only*; the "
        "entries are charge functions applied to the score-sorted bids "
        "(parameters below are their call signature, not spec keys).",
    ),
    (
        MARGIN_METHODS,
        "Margin backends",
        "Scenario field `payment_method` — addressed by *name only*; the "
        "ODE/quadrature backends computing the equilibrium profit margin "
        "(parameters below are their call signature, not spec keys).",
    ),
    (
        ROUND_POLICIES,
        "Round policies",
        "Scenario field `policies` — one optional stage per registered "
        "name (`{\"policies\": {\"<name>\": {params}}}`), plus a "
        "`per_scheme` override mapping; see the round-policy pipeline "
        "section of the README.",
    ),
    (
        BID_POLICIES,
        "Bid policies",
        "Scenario field `bidding` — `{\"mix\": [{\"name\": \"<entry>\", "
        "\"fraction\": f, **params}, ...]}` assigns population fractions "
        "to strategic bidding behaviours (plus a `per_scheme` override "
        "mapping); unassigned nodes stay truthful. See the strategic "
        "bidders section of the README.",
    ),
    (
        BID_LEARNERS,
        "Bid learners",
        "Training-side family, not a Scenario field: "
        "`python -m repro train-bidder --learner <name>` (or "
        "`repro.strategic.learn.BidLearnerTrainer`) trains one over the "
        "auction gym and freezes it into a policy artifact; scenarios then "
        "deploy the artifact through the `learned` bid-policy entry. See "
        "the learned bidders section of the README.",
    ),
    (
        EXECUTORS,
        "Executors",
        "Scenario field `execution` — `{\"executor\": \"<name>\", "
        "\"max_workers\": N}`; the store-coordinated `service` executor "
        "additionally takes `lease_seconds` / `poll_interval` and "
        "`coordinator_url` (null = queue in the store; a URL = submit to "
        "that running coordinator) and allows `max_workers=0` "
        "(coordinate-only). See docs/deployment.md.",
    ),
)

@dataclass(frozen=True)
class RegistryEntry:
    """One registered factory, reduced to what the reference page shows."""

    family: str
    name: str
    parameters: str
    summary: str


def _signature_text(factory: Callable[..., Any]) -> str:
    """``param=default, ...`` for a factory (class ``__init__`` sans self)."""
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return "…"
    parts: list[str] = []
    for param in sig.parameters.values():
        if param.name == "self":
            continue
        if param.kind is inspect.Parameter.VAR_POSITIONAL:
            parts.append(f"*{param.name}")
        elif param.kind is inspect.Parameter.VAR_KEYWORD:
            parts.append(f"**{param.name}")
        elif param.default is inspect.Parameter.empty:
            parts.append(param.name)
        else:
            parts.append(f"{param.name}={param.default!r}")
    return ", ".join(parts) if parts else "(no parameters)"


def _summary_text(factory: Callable[..., Any], limit: int = 160) -> str:
    """First sentence of the factory's docstring, whitespace-collapsed."""
    doc = inspect.getdoc(factory) or ""
    paragraph = doc.split("\n\n", 1)[0]
    text = " ".join(paragraph.split())
    if ". " in text:
        text = text.split(". ", 1)[0] + "."
    if len(text) > limit:
        text = text[: limit - 1].rstrip() + "…"
    return text or "—"


def iter_entries() -> Iterator[RegistryEntry]:
    """Every registered component, family by family, names sorted."""
    for registry, title, _ in FAMILIES:
        for name in registry.names():
            factory = registry.get(name)
            yield RegistryEntry(
                family=title,
                name=name,
                parameters=_signature_text(factory),
                summary=_summary_text(factory),
            )


def _escape_cell(text: str) -> str:
    return text.replace("|", "\\|")


def registry_reference_markdown() -> str:
    """The full ``docs/scenario_reference.md`` page, as a string."""
    lines: list[str] = [
        "# Scenario spec reference",
        "",
        "<!-- GENERATED FILE — do not edit by hand.",
        "     Regenerate with:",
        "         PYTHONPATH=src python -m repro registry --markdown "
        "> docs/scenario_reference.md",
        "     tests/test_docs.py fails when this page drifts from the"
        " registries. -->",
        "",
        "Every pluggable component of the FMore protocol lives in a"
        " string-keyed",
        "registry (`repro.core.registry`) and is addressed from a"
        " [`Scenario`](ARCHITECTURE.md)",
        "by a JSON spec — either a bare name or"
        " `{\"name\": \"<entry>\", **params}`.",
        "The tables below list every registered name, its parameters with"
        " defaults,",
        "and what it does.  Registering a new component"
        " (`@REGISTRY.register(\"x\")`)",
        "makes it scenario-addressable *and* adds it to this page on the"
        " next",
        "regeneration.",
        "",
    ]
    entries_by_family: dict[str, list[RegistryEntry]] = {}
    for entry in iter_entries():
        entries_by_family.setdefault(entry.family, []).append(entry)
    for registry, title, blurb in FAMILIES:
        lines.append(f"## {title} (`{_registry_var_name(registry)}`)")
        lines.append("")
        lines.append(blurb)
        lines.append("")
        lines.append("| name | parameters | summary |")
        lines.append("| --- | --- | --- |")
        for entry in entries_by_family.get(title, []):
            lines.append(
                f"| `{entry.name}` "
                f"| `{_escape_cell(entry.parameters)}` "
                f"| {_escape_cell(entry.summary)} |"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _registry_var_name(registry: Registry) -> str:
    """The ``repro.core.registry`` variable holding this table."""
    return next(name for name, value in vars(_registries).items() if value is registry)


def registry_summary() -> str:
    """Plain-text listing for ``python -m repro registry``."""
    lines: list[str] = []
    for registry, title, _ in FAMILIES:
        names = ", ".join(registry.names())
        lines.append(f"{title} ({registry.kind}, {len(registry)}): {names}")
    lines.append("")
    lines.append(
        "Full parameter tables: python -m repro registry --markdown "
        "(committed as docs/scenario_reference.md)"
    )
    return "\n".join(lines)
