"""Shared driver for the accuracy/loss-per-round figures (Figs 4-7).

Each of the four dataset figures plots accuracy and loss versus training
round for FMore, RandFL and FixFL.  This driver runs the three schemes on
the shared federation for each bench seed, averages the curves, prints the
two series tables and the paper-vs-measured block, and returns the
histories for additional assertions.
"""

from __future__ import annotations

from repro.analysis import headline_metrics
from repro.api import FMoreEngine, Scenario
from repro.fl.metrics import round_reduction
from repro.sim.reporting import paper_vs_measured, series_table

from .common import BENCH_SEEDS, emit, fmt_curve, mean_series

SCHEMES = ("FMore", "RandFL", "FixFL")


def run_accuracy_loss_figure(
    dataset: str,
    fig_name: str,
    target_accuracy: float,
    paper_speedup_pct: float,
    paper_target_note: str,
):
    """Run one Fig 4-7 experiment and emit its report."""
    scenario = Scenario.from_preset(
        "bench", dataset, schemes=SCHEMES, seeds=tuple(BENCH_SEEDS)
    )
    per_scheme = FMoreEngine().run(scenario).histories

    rounds = list(range(1, scenario.n_rounds + 1))
    acc = {s: fmt_curve(mean_series(h, "accuracies")) for s, h in per_scheme.items()}
    loss = {s: fmt_curve(mean_series(h, "losses")) for s, h in per_scheme.items()}

    # Rounds-to-target on the seed-averaged curves (the paper's speed metric).
    def rounds_to(series):
        for i, a in enumerate(series):
            if a >= target_accuracy:
                return i + 1
        return None

    r_fmore = rounds_to(acc["FMore"])
    r_rand = rounds_to(acc["RandFL"])
    measured_speedup = round_reduction(r_rand, r_fmore)

    last = {s: acc[s][-1] for s in SCHEMES}
    text = "\n\n".join(
        [
            series_table(
                f"{fig_name}: accuracy per round ({dataset}, bench scale, "
                f"{len(BENCH_SEEDS)} seeds)",
                "round",
                rounds,
                acc,
            ),
            series_table(f"{fig_name}: loss per round", "round", rounds, loss),
            paper_vs_measured(
                [
                    (
                        f"training speed-up vs RandFL ({paper_target_note})",
                        f"{paper_speedup_pct}%",
                        None if measured_speedup is None else f"{measured_speedup:.0f}%",
                    ),
                    (
                        f"rounds to {target_accuracy:.0%} (RandFL -> FMore)",
                        "see figure",
                        f"{r_rand} -> {r_fmore}",
                    ),
                    (
                        "final-round ordering",
                        "FMore > RandFL > FixFL",
                        " > ".join(
                            sorted(last, key=lambda s: -last[s])
                        ),
                    ),
                    ("final accuracy FMore", "task-specific", last["FMore"]),
                    ("final accuracy RandFL", "task-specific", last["RandFL"]),
                    ("final accuracy FixFL", "task-specific", last["FixFL"]),
                ],
                title=f"{fig_name} paper vs measured",
            ),
        ]
    )
    emit(fig_name, text)
    return per_scheme
