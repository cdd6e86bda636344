"""Headline numbers of the paper's abstract and Section V.

* Simulations: FMore cuts training rounds by 51.3% on average and improves
  model accuracy by 28% for the LSTM task.
* Real-world: accuracy +44.9%, training time -38.4%.

This bench recomputes all four dataset comparisons (one seed, bench scale)
plus the cluster run, and prints the aggregate table.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import headline_metrics
from repro.api import FMoreEngine, Scenario
from repro.sim.reporting import paper_vs_measured

from .common import emit, run_once

SEED = 1
# Mid-curve targets on our synthetic tasks' accuracy scales.
TARGETS = {"mnist_o": 0.8, "mnist_f": 0.5, "cifar10": 0.35, "hpnews": 0.3}


def _run():
    reductions = []
    lstm_improvement = None
    for dataset, target in TARGETS.items():
        scenario = Scenario.from_preset(
            "bench", dataset, schemes=("FMore", "RandFL"), seeds=(SEED,)
        )
        results = FMoreEngine().run(scenario).comparison()
        metrics = headline_metrics(results, target_accuracy=target)
        if metrics.round_reduction_pct is not None:
            reductions.append(metrics.round_reduction_pct)
        if dataset == "hpnews":
            lstm_improvement = metrics.accuracy_improvement_pct

    cluster_scenario = Scenario.from_preset(
        "cluster_cifar10", seeds=(SEED,), n_rounds=12, size_range=(150, 900),
        test_per_class=25, model_width=0.18,
    )
    cluster = FMoreEngine().run(cluster_scenario).comparison()
    cluster_metrics = headline_metrics(cluster, target_accuracy=0.25)
    # The paper's 38.4% is the reduction of *total* 20-round wall clock;
    # time-to-target can be undefined at bench scale, so report the total.
    total_time_reduction = 100.0 * (
        cluster["RandFL"].cumulative_seconds[-1] - cluster["FMore"].cumulative_seconds[-1]
    ) / cluster["RandFL"].cumulative_seconds[-1]

    mean_reduction = float(np.mean(reductions)) if reductions else None
    rows = [
        (
            "avg training-round reduction (4 tasks)",
            "51.3%",
            None if mean_reduction is None else f"{mean_reduction:.1f}%",
        ),
        (
            "LSTM accuracy improvement vs RandFL",
            "+28%",
            None if lstm_improvement is None else f"{lstm_improvement:+.1f}%",
        ),
        (
            "cluster accuracy improvement",
            "+44.9%",
            f"{cluster_metrics.accuracy_improvement_pct:+.1f}%",
        ),
        (
            "cluster total-time reduction",
            "38.4%",
            f"{total_time_reduction:.1f}%",
        ),
    ]
    emit("headline", paper_vs_measured(rows, title="headline paper vs measured"))
    return mean_reduction, lstm_improvement


def test_headline_numbers(benchmark):
    mean_reduction, lstm_improvement = run_once(benchmark, _run)
    # The paper's directional claims: FMore trains in fewer rounds and the
    # LSTM task benefits most in final accuracy.
    assert mean_reduction is None or mean_reduction > 0.0
    assert lstm_improvement is None or lstm_improvement > 0.0
