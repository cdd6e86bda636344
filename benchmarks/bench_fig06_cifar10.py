"""Fig. 6 — accuracy and loss for the CNN on CIFAR-10, three schemes.

Paper result: the accuracy gap between FMore and the baselines is largest
on this challenging task (45% speed-up to 50% accuracy); FixFL plateaus
well below the others.
"""

from .common import run_once
from .figcurves import run_accuracy_loss_figure


def test_fig06_cifar10(benchmark):
    summary = run_once(
        benchmark,
        lambda: run_accuracy_loss_figure(
            dataset="cifar10",
            fig_name="fig06_cifar10",
            target_accuracy=0.35,
            paper_speedup_pct=45.0,
            paper_target_note="paper: to 50% accuracy",
        ),
    )
    final_fmore = summary["FMore"].final_accuracy
    final_fix = summary["FixFL"].final_accuracy
    assert final_fmore > final_fix
