"""Fig. 10 — the impact of the winner count K.

10a (paper): larger K feeds the global model more data per round — to
reach 86% accuracy, K=5 needs 20 rounds while K=25 needs 15; returns
diminish beyond K~30.  Bench scale compares K=2 vs K=10.

10b (paper): winner payment rises with K (Theorem 3: less competition per
slot) while the marginal winner's score falls — regenerated exactly at the
paper's K values (5..35) with N=100.
"""

from __future__ import annotations

from repro.analysis import payment_score_sweep_k
from repro.api import Scenario, run_scheme
from repro.sim.reporting import paper_vs_measured, series_table
from repro.sim.rng import rng_from

from .common import emit, run_once

K_VALUES_PAPER = (5, 10, 15, 20, 25, 30, 35)
TARGETS = (0.5, 0.6, 0.7, 0.8)
SEED = 1


def _run(bench_solver):
    # --- 10a: training speed for small vs large K -----------------------
    rows_10a = {}
    for k in (2, 10):
        scenario = Scenario.from_preset("bench", "mnist_o", k_winners=k)
        history = run_scheme(scenario, "FMore", SEED)
        rows_10a[f"K={k}"] = [history.rounds_to(t) for t in TARGETS]

    table_10a = series_table(
        "fig10a: rounds to reach target accuracy (FMore, bench scale)",
        "target_accuracy",
        [f"{t:.0%}" for t in TARGETS],
        rows_10a,
    )

    # --- 10b: payment and score vs K ------------------------------------
    sweep = payment_score_sweep_k(
        bench_solver, K_VALUES_PAPER, rng_from(SEED, "fig10b"), n_draws=120
    )
    table_10b = series_table(
        "fig10b: winner payment p and score vs K (N=100, equilibrium Monte-Carlo)",
        "K",
        [k for k, _ in sweep],
        {
            "payment": [round(ws.mean_payment, 3) for _, ws in sweep],
            "score": [round(ws.mean_score, 3) for _, ws in sweep],
        },
    )

    payments = [ws.mean_payment for _, ws in sweep]
    scores = [ws.mean_score for _, ws in sweep]
    block = paper_vs_measured(
        [
            ("payment p monotone in K", "increasing (Thm 3)", "increasing" if payments[-1] > payments[0] else "NOT increasing"),
            ("winner score monotone in K", "decreasing", "decreasing" if scores[0] > scores[-1] else "NOT decreasing"),
            (
                "rounds to top target, K small vs large",
                "20 (K=5) vs 15 (K=25) at 86%",
                f"{rows_10a['K=2'][-1]} (K=2) vs {rows_10a['K=10'][-1]} (K=10)",
            ),
        ],
        title="fig10 paper vs measured",
    )
    emit("fig10_param_k", "\n\n".join([table_10a, table_10b, block]))
    return payments, scores


def test_fig10_param_k(benchmark, bench_solver):
    payments, scores = run_once(benchmark, lambda: _run(bench_solver))
    assert payments[-1] > payments[0]   # Fig 10b / Theorem 3 direction
    assert scores[0] > scores[-1]
