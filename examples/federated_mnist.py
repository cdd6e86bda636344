"""FMore vs RandFL vs FixFL on the synthetic MNIST-O federated task.

Reproduces the Fig-4 experiment at a small, laptop-friendly scale: 20 edge
nodes with heterogeneous non-IID data, an auction before every round, and
the accuracy trajectories of the three selection schemes printed side by
side.

Run:  python examples/federated_mnist.py        (~30 s)
"""

from repro.analysis import headline_metrics, result_tables
from repro.api import FMoreEngine, Scenario

scenario = Scenario.from_preset(
    "bench",
    "mnist_o",
    schemes=("FMore", "RandFL", "FixFL"),
    seeds=(7,),
).with_(
    name="example-mnist",
    n_clients=20,
    k_winners=5,
    n_rounds=10,
)
print(f"dataset={scenario.dataset}  N={scenario.n_clients}  "
      f"K={scenario.k_winners}  rounds={scenario.n_rounds}")
print("running FMore / RandFL / FixFL on a shared federation...\n")

result = FMoreEngine().run(scenario)

target = 0.7
print(result_tables(result, target_accuracy=target))

metrics = headline_metrics(result.comparison(), target_accuracy=target)
print(
    f"\nFMore vs RandFL: "
    f"round reduction = {metrics.round_reduction_pct and round(metrics.round_reduction_pct, 1)}%, "
    f"accuracy improvement = {metrics.accuracy_improvement_pct:+.1f}%"
)
print("(paper, full scale: 50% fewer rounds on MNIST-O, +28% accuracy on LSTM)")
