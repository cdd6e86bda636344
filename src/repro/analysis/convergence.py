"""Convergence summaries: the paper's headline comparisons.

:func:`summarize_schemes` turns a run's seed-averaged metrics frame
(``RunResult.metrics()``) into per-scheme numbers, and
:func:`result_tables` prints them; every CLI table and example reads
them.  :func:`headline_metrics` turns one run's per-scheme
:class:`~repro.fl.trainer.TrainingHistory` objects into the numbers
Section V quotes: percentage round reduction vs RandFL (paper: 51.3%
average), relative accuracy improvement (paper: +28% for LSTM; +44.9%
real-world) and time reduction (38.4%).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fl.metrics import (
    accuracy_improvement,
    round_reduction,
    rounds_to_accuracy,
    speedup_percent,
    time_to_accuracy,
)
from ..fl.trainer import TrainingHistory
from ..sim.reporting import ascii_table, series_table

__all__ = [
    "SchemeSummary",
    "summarize_schemes",
    "result_tables",
    "headline_metrics",
    "HeadlineMetrics",
]


@dataclass(frozen=True)
class SchemeSummary:
    """One scheme's end-of-run numbers, read off its seed-averaged curves."""

    scheme: str
    final_accuracy: float
    final_loss: float
    rounds_to_target: int | None
    seconds_to_target: float | None
    total_payment: float
    total_seconds: float
    #: Cumulative blacklist bans by the last round.
    bans: float


def summarize_schemes(frame, target_accuracy: float) -> list[SchemeSummary]:
    """Every scheme's outcome at a common accuracy target.

    ``frame`` is a :class:`~repro.api.metrics.MetricsFrame`
    (``RunResult.metrics()``); rounds and simulated seconds to the target
    are where the seed-averaged accuracy curve first reaches it.
    """
    out: list[SchemeSummary] = []
    for scheme in dict.fromkeys(frame.column("scheme")):
        rows = frame.filter(scheme=scheme)
        accuracy = rows.column("accuracy_mean")
        seconds = rows.column("cumulative_seconds_mean")
        out.append(
            SchemeSummary(
                scheme=scheme,
                final_accuracy=accuracy[-1],
                final_loss=rows.column("loss_mean")[-1],
                rounds_to_target=rounds_to_accuracy(accuracy, target_accuracy),
                seconds_to_target=time_to_accuracy(
                    accuracy, seconds, target_accuracy
                ),
                total_payment=sum(rows.column("payment_mean")),
                total_seconds=seconds[-1],
                bans=rows.column("bans_total_mean")[-1],
            )
        )
    return out


def result_tables(*results, target_accuracy: float) -> str:
    """The accuracy series and summary table of one scenario's results.

    Each ``RunResult`` contributes its schemes; several results (a
    store whose schemes cover different seed sets) print as one series
    and one summary, whose ``seeds`` column counts each scheme's seeds.
    The simulated-seconds columns appear when the runs keep a clock
    (the cluster testbed).
    """
    series: dict[str, list[float]] = {}
    summaries: list[tuple[int, SchemeSummary]] = []
    for result in results:
        frame = result.metrics()
        for s in summarize_schemes(frame, target_accuracy):
            accuracy = frame.filter(scheme=s.scheme).column("accuracy_mean")
            series[s.scheme] = [round(a, 3) for a in accuracy]
            summaries.append((len(result.seeds), s))
    scenario = results[0].scenario
    counts = sorted({n for n, _ in summaries})
    if counts == [1]:
        title = f"accuracy per round ({scenario.name})"
    else:
        n = counts[0] if len(counts) == 1 else f"{counts[0]}-{counts[-1]}"
        title = f"mean accuracy per round ({scenario.name}, {n} seeds)"
    target = f"{target_accuracy:.0%}"
    timed = any(s.total_seconds > 0 for _, s in summaries)
    clock = [f"seconds to {target}", "seconds"] if timed else []
    headers = ["scheme", "seeds", "final acc", f"rounds to {target}", *clock]
    rows = [
        (s.scheme, n, s.final_accuracy, s.rounds_to_target)
        + ((s.seconds_to_target, s.total_seconds) if timed else ())
        + (s.total_payment, s.bans)
        for n, s in summaries
    ]
    rounds = list(range(1, scenario.n_rounds + 1))
    return (
        series_table(title, "round", rounds, series)
        + "\n\n"
        + ascii_table([*headers, "payment", "bans"], rows)
    )


@dataclass(frozen=True)
class HeadlineMetrics:
    """FMore-vs-RandFL numbers in the paper's units."""

    round_reduction_pct: float | None
    accuracy_improvement_pct: float
    time_reduction_pct: float | None
    fmore_final_accuracy: float
    baseline_final_accuracy: float


def headline_metrics(
    histories: dict[str, TrainingHistory],
    target_accuracy: float,
    scheme: str = "FMore",
    baseline: str = "RandFL",
) -> HeadlineMetrics:
    """Compute the paper's headline quantities from one comparison run."""
    if scheme not in histories or baseline not in histories:
        raise KeyError(f"need both {scheme!r} and {baseline!r} histories")
    h_scheme = histories[scheme]
    h_base = histories[baseline]
    rr = round_reduction(
        rounds_to_accuracy(h_base.accuracies, target_accuracy),
        rounds_to_accuracy(h_scheme.accuracies, target_accuracy),
    )
    tr = None
    if any(r.round_seconds > 0 for r in h_scheme.records):
        tr = speedup_percent(
            time_to_accuracy(h_base.accuracies, h_base.cumulative_seconds, target_accuracy),
            time_to_accuracy(h_scheme.accuracies, h_scheme.cumulative_seconds, target_accuracy),
        )
    return HeadlineMetrics(
        round_reduction_pct=rr,
        accuracy_improvement_pct=accuracy_improvement(
            h_base.final_accuracy, h_scheme.final_accuracy
        ),
        time_reduction_pct=tr,
        fmore_final_accuracy=h_scheme.final_accuracy,
        baseline_final_accuracy=h_base.final_accuracy,
    )
