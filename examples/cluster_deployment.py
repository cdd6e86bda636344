"""The "real-world" experiment: FMore on a simulated 32-machine cluster.

Recreates Section V-C: one aggregator and 31 heterogeneous edge nodes
(1-8 CPU cores, 50-1000 Mbps links) training CIFAR-10, with the additive
scoring rule S = 0.4*compute + 0.3*bandwidth + 0.3*data - p.  Prints the
accuracy trajectories of FMore vs RandFL and their simulated seconds to
an accuracy target and in total, Fig. 13's comparison (``python -m repro
cluster`` runs the same cut).

Run:  python examples/cluster_deployment.py      (~60 s)
"""

from repro.analysis import result_tables, summarize_schemes
from repro.api import FMoreEngine, Scenario
from repro.fl.metrics import speedup_percent

scenario = Scenario.from_preset(
    "cluster_cifar10",
    seeds=(3,),
    n_rounds=10,
    size_range=(150, 900),
    test_per_class=25,
    model_width=0.18,
)
print(
    f"simulated cluster: {scenario.n_clients} nodes, K={scenario.k_winners}, "
    f"dataset={scenario.dataset}, scoring weights={scenario.scoring['weights']}"
)
result = FMoreEngine().run(scenario)

target = 0.2
print()
print(result_tables(result, target_accuracy=target))
summary = {s.scheme: s for s in summarize_schemes(result.metrics(), target)}
reduction = speedup_percent(
    summary["RandFL"].total_seconds, summary["FMore"].total_seconds
)
print(f"\ntotal-time reduction FMore vs RandFL: {reduction:.1f}% "
      f"(paper, real hardware: 38.4%)")
