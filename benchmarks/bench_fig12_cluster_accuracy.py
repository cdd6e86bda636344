"""Fig. 12 — "real-world" CIFAR-10 accuracy and loss on the 32-node cluster.

Paper result (Section V-C): after 20 rounds on the 31-node testbed FMore
reaches 59.9% CIFAR-10 accuracy, a 44.9% relative improvement over RandFL,
whose curve also shows accuracy jitter.  Regenerated on the
:class:`~repro.mec.cluster.SimulatedCluster` substrate.
"""

from __future__ import annotations

from repro.fl.metrics import accuracy_improvement
from repro.api import FMoreEngine, Scenario
from repro.sim.reporting import paper_vs_measured, series_table

from .common import emit, fmt_curve, run_once

SEED = 1

CLUSTER_SCENARIO = Scenario.from_preset(
    "cluster_cifar10",
    seeds=(SEED,),
    n_rounds=15,
    size_range=(150, 900),
    test_per_class=30,
    model_width=0.18,
)


def _run():
    results = FMoreEngine().run(CLUSTER_SCENARIO).comparison()
    rounds = list(range(1, CLUSTER_SCENARIO.n_rounds + 1))
    acc = {s: fmt_curve(h.accuracies) for s, h in results.items()}
    loss = {s: fmt_curve(h.losses) for s, h in results.items()}
    improvement = accuracy_improvement(
        results["RandFL"].final_accuracy, results["FMore"].final_accuracy
    )
    text = "\n\n".join(
        [
            series_table(
                "fig12: cluster CIFAR-10 accuracy per round (31 nodes, K=8)",
                "round",
                rounds,
                acc,
            ),
            series_table("fig12: cluster CIFAR-10 loss per round", "round", rounds, loss),
            paper_vs_measured(
                [
                    ("FMore final accuracy", "59.9% (20 rounds)", acc["FMore"][-1]),
                    (
                        "relative accuracy improvement vs RandFL",
                        "+44.9%",
                        f"{improvement:+.1f}%",
                    ),
                ],
                title="fig12 paper vs measured",
            ),
        ]
    )
    emit("fig12_cluster_accuracy", text)
    return results


def test_fig12_cluster_accuracy(benchmark):
    results = run_once(benchmark, _run)
    assert results["FMore"].final_accuracy >= results["RandFL"].final_accuracy - 0.03
