"""Fig. 7 — accuracy and loss for the LSTM on HPNews, three schemes.

Paper result: at round 20 FMore reaches 60.4% while FixFL manages 40.6%;
the text task needs data diversity most, so the auction's selection of
diverse nodes dominates (68% speed-up to 46% accuracy).
"""

from .common import run_once
from .figcurves import run_accuracy_loss_figure


def test_fig07_hpnews(benchmark):
    summary = run_once(
        benchmark,
        lambda: run_accuracy_loss_figure(
            dataset="hpnews",
            fig_name="fig07_hpnews",
            target_accuracy=0.30,
            paper_speedup_pct=68.0,
            paper_target_note="paper: to 46% accuracy",
        ),
    )
    final_fmore = summary["FMore"].final_accuracy
    final_fix = summary["FixFL"].final_accuracy
    assert final_fmore > final_fix
