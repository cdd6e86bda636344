"""Fig. 4 — accuracy and loss for the CNN on MNIST-O, three schemes.

Paper result: FMore converges fastest (50% speed-up to 95% accuracy vs
RandFL); FixFL trails.  We regenerate the two series at bench scale on the
synthetic MNIST-O task and check the ordering and a positive speed-up.
"""

from .common import run_once
from .figcurves import run_accuracy_loss_figure


def test_fig04_mnist_o(benchmark):
    summary = run_once(
        benchmark,
        lambda: run_accuracy_loss_figure(
            dataset="mnist_o",
            fig_name="fig04_mnist_o",
            target_accuracy=0.80,
            paper_speedup_pct=50.0,
            paper_target_note="paper: to 95% accuracy",
        ),
    )
    final_fmore = summary["FMore"].final_accuracy
    final_fix = summary["FixFL"].final_accuracy
    # The paper's qualitative claim: the auction beats fixed selection.
    assert final_fmore > final_fix - 0.02
