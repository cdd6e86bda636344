"""The metrics-frame aggregation layer: policy trajectories as one table.

``RunResult.metrics()`` returns a :class:`MetricsFrame` — a small columnar
table with one row per ``(scheme, round)`` holding the seed-averaged
training series (accuracy, loss, cumulative simulated seconds, per-round
payment) *and* the seed-averaged policy trajectory that previously had to
be hand-rolled out of ``RoundEvent.actions``:

* ``bans_total`` — cumulative blacklist bans up to and including the round,
* ``violations`` / ``churn_departed`` / ``churn_arrived`` — per-round
  enforcement and membership events,
* ``alpha<i>`` — the guidance exponents in force after the round
  (forward-filled between ``alpha_update`` actions; ``None`` before the
  first update, and entirely absent when no run ever retuned),
* ``payoff_<label>_mean`` / ``payoff_<label>_min`` — per bidder-group
  realized payoff series from strategic runs (``bid_payoff`` actions, see
  :mod:`repro.strategic`); absent for all-truthful runs, ``None`` for
  rounds of schemes without the group.  These back the IC/IR report
  (:mod:`repro.analysis.incentive_report`),
* ``cluster_selected_mean`` / ``cluster_local_winners_mean`` /
  ``cluster_head_payment_mean`` — the two-tier trajectory of hierarchical
  runs (``cluster_round`` actions, see :mod:`repro.core.hierarchy`):
  clusters admitted by the head auction, global winners they contributed,
  and the total head-tier payment; absent for flat runs.

Frames export with ``to_csv`` / ``to_json`` so the paper's
robustness/guidance figures are one-liners over a stored
:class:`~repro.api.store.ExperimentStore` run (CLI: ``python -m repro
report --store DIR --csv out.csv``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["MetricsFrame", "build_metrics_frame"]

_BASE_COLUMNS = (
    "scheme",
    "round",
    "accuracy_mean",
    "accuracy_std",
    "loss_mean",
    "cumulative_seconds_mean",
    "payment_mean",
    "n_winners_mean",
    "bans_total_mean",
    "violations_mean",
    "churn_departed_mean",
    "churn_arrived_mean",
)

# Seed-averaged head-tier cells, present only when some history carries
# ``cluster_round`` actions (hierarchical runs).
_CLUSTER_COLUMNS = (
    "cluster_selected_mean",
    "cluster_local_winners_mean",
    "cluster_head_payment_mean",
)


@dataclass
class MetricsFrame:
    """A plain columnar table: ``columns`` names, ``rows`` aligned tuples.

    Built by ``RunResult.metrics()`` with one row per ``(scheme, round)``
    — the seed-averaged training series (``accuracy_mean``/``_std``,
    ``loss_mean``, ``cumulative_seconds_mean``, ``payment_mean``,
    ``n_winners_mean``) plus the policy trajectory (cumulative
    ``bans_total_mean``, per-round ``violations_mean`` /
    ``churn_departed_mean`` / ``churn_arrived_mean``, and forward-filled
    guidance ``alpha<i>`` columns when a run retuned).  Slice with
    :meth:`filter` / :meth:`column`, export with :meth:`to_csv` /
    :meth:`to_json`, and round-trip losslessly via :meth:`from_json`.

    Deliberately dependency-free (no pandas in this repo): just enough
    structure to slice by column or scheme and to serialise losslessly.
    Missing values are ``None`` (never NaN, so frames compare equal after
    a round-trip).

    >>> frame = result.metrics()                      # doctest: +SKIP
    >>> frame.filter(scheme="FMore").column("accuracy_mean")  # doctest: +SKIP
    """

    columns: list[str]
    rows: list[tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.columns = [str(c) for c in self.columns]
        self.rows = [tuple(r) for r in self.rows]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} != {len(self.columns)} columns"
                )

    def __len__(self) -> int:
        return len(self.rows)

    def _index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"unknown column {name!r}; available: {self.columns}"
            ) from None

    def column(self, name: str) -> list[Any]:
        """One column as a list (raises on unknown names, listing them)."""
        i = self._index(name)
        return [row[i] for row in self.rows]

    def filter(self, **equals: Any) -> "MetricsFrame":
        """Rows whose named columns equal the given values."""
        idx = {name: self._index(name) for name in equals}
        rows = [
            row
            for row in self.rows
            if all(row[idx[name]] == v for name, v in equals.items())
        ]
        return MetricsFrame(list(self.columns), rows)

    def to_records(self) -> list[dict[str, Any]]:
        """Rows as dicts — the friendliest shape for ad-hoc analysis."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_csv(self, path: str | Path | None = None) -> str:
        """RFC-4180-ish CSV (empty field for ``None``); optionally written."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    def to_json(self, path: str | Path | None = None) -> str:
        payload = {"columns": list(self.columns), "rows": [list(r) for r in self.rows]}
        text = json.dumps(payload, indent=2)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, text: str) -> "MetricsFrame":
        data = json.loads(text)
        return cls(columns=data["columns"], rows=[tuple(r) for r in data["rows"]])


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    text = str(value)
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def build_metrics_frame(result) -> MetricsFrame:
    """Seed-averaged per-round metrics of a ``RunResult``.

    One row per ``(scheme, round)``; ``alpha<i>`` columns appear only when
    at least one history carries ``alpha_update`` actions (their width is
    the guidance dimensionality).
    """
    n_alphas = 0
    payoff_labels: set[str] = set()
    has_clusters = False
    for histories in result.histories.values():
        for history in histories:
            for record in history.records:
                for action in record.policy_actions:
                    if action.kind == "alpha_update":
                        n_alphas = max(n_alphas, len(action.payload["alphas"]))
                    elif action.kind == "bid_payoff":
                        payoff_labels.update(action.payload["groups"])
                    elif action.kind == "cluster_round":
                        has_clusters = True
    labels = sorted(payoff_labels)
    columns = (
        list(_BASE_COLUMNS)
        + [f"alpha{i}" for i in range(n_alphas)]
        + [f"payoff_{label}_{stat}" for label in labels for stat in ("mean", "min")]
        + (list(_CLUSTER_COLUMNS) if has_clusters else [])
    )

    rows: list[tuple] = []
    for scheme in result.schemes:
        histories = result.histories[scheme]
        if not histories:
            raise ValueError(f"scheme {scheme!r} has no histories to average")
        lengths = {len(h.records) for h in histories}
        if len(lengths) != 1:
            raise ValueError(
                f"scheme {scheme!r} has histories of unequal length "
                f"{sorted(lengths)}; cannot seed-average"
            )
        (n_rounds,) = lengths
        acc = np.asarray([h.accuracies for h in histories], dtype=float)
        loss = np.asarray([h.losses for h in histories], dtype=float)
        secs = np.asarray([h.cumulative_seconds for h in histories], dtype=float)
        pay = np.asarray(
            [[r.total_payment for r in h.records] for h in histories], dtype=float
        )
        n_win = np.asarray(
            [[len(r.winner_ids) for r in h.records] for h in histories], dtype=float
        )
        per_seed = [_policy_series(h, n_rounds, n_alphas) for h in histories]
        for t in range(n_rounds):
            alphas = _mean_optional(
                [series["alphas"][t] for series in per_seed], n_alphas
            )
            payoffs = _payoff_cells(
                [series["payoffs"][t] for series in per_seed], labels
            )
            cluster_cells = (
                _mean_optional(
                    [series["clusters"][t] for series in per_seed],
                    len(_CLUSTER_COLUMNS),
                )
                if has_clusters
                else ()
            )
            rows.append(
                (
                    scheme,
                    t + 1,
                    float(acc[:, t].mean()),
                    float(acc[:, t].std()),
                    float(loss[:, t].mean()),
                    float(secs[:, t].mean()),
                    float(pay[:, t].mean()),
                    float(n_win[:, t].mean()),
                    float(np.mean([s["bans"][t] for s in per_seed])),
                    float(np.mean([s["violations"][t] for s in per_seed])),
                    float(np.mean([s["departed"][t] for s in per_seed])),
                    float(np.mean([s["arrived"][t] for s in per_seed])),
                )
                + alphas
                + payoffs
                + cluster_cells
            )
    return MetricsFrame(columns, rows)


def _policy_series(history, n_rounds: int, n_alphas: int) -> dict[str, list]:
    """Per-round policy trajectories of one seed's history.

    ``bans`` is cumulative (the robustness figures plot the ban count so
    far); ``violations``/``departed``/``arrived`` are per-round event
    counts; ``alphas`` forward-fills the last ``alpha_update`` (``None``
    before the first).
    """
    bans: list[int] = []
    violations: list[int] = []
    departed: list[int] = []
    arrived: list[int] = []
    alphas: list[tuple | None] = []
    payoffs: list[dict | None] = []
    clusters: list[tuple | None] = []
    bans_so_far = 0
    current_alphas: tuple | None = None
    for record in history.records:
        v = d = a = 0
        round_payoffs: dict | None = None
        round_clusters: tuple | None = None
        for action in record.policy_actions:
            if action.kind == "ban":
                bans_so_far += 1
            elif action.kind == "violation":
                v += 1
            elif action.kind == "churn":
                d += len(action.payload.get("departed", []))
                a += len(action.payload.get("arrived", []))
            elif action.kind == "alpha_update":
                current_alphas = tuple(
                    float(x) for x in action.payload["alphas"]
                )
            elif action.kind == "bid_payoff":
                round_payoffs = action.payload["groups"]
            elif action.kind == "cluster_round":
                round_clusters = (
                    float(len(action.payload["selected"])),
                    float(action.payload["n_local_winners"]),
                    float(action.payload["head_payment"]),
                )
        bans.append(bans_so_far)
        violations.append(v)
        departed.append(d)
        arrived.append(a)
        alphas.append(current_alphas)
        payoffs.append(round_payoffs)
        clusters.append(round_clusters)
    return {
        "bans": bans,
        "violations": violations,
        "departed": departed,
        "arrived": arrived,
        "alphas": alphas,
        "payoffs": payoffs,
        "clusters": clusters,
    }


def _payoff_cells(values: list[dict | None], labels: list[str]) -> tuple:
    """Seed-aggregated ``(mean, min)`` payoff cells for one round.

    Per seed the group mean is total payoff over group size; the seed
    average of those and the seed-minimum of ``min_payoff`` fill the
    columns.  A label absent from every seed's round stays ``None``.
    """
    out: list[float | None] = []
    for label in labels:
        means = []
        mins = []
        for groups in values:
            stats = None if groups is None else groups.get(label)
            if stats is None or not stats.get("n"):
                continue
            means.append(float(stats["payoff"]) / float(stats["n"]))
            mins.append(float(stats["min_payoff"]))
        out.append(float(np.mean(means)) if means else None)
        out.append(float(min(mins)) if mins else None)
    return tuple(out)


def _mean_optional(values: list[tuple | None], n_alphas: int) -> tuple:
    """Seed-mean of the alpha tuples; all-None rounds stay ``None``."""
    if n_alphas == 0:
        return ()
    present = [v for v in values if v is not None]
    if not present:
        return (None,) * n_alphas
    stacked = np.asarray(present, dtype=float)
    return tuple(float(x) for x in stacked.mean(axis=0))
