"""Fig. 9 — the impact of the population size N.

9a (paper): rounds needed to reach target accuracies for N=50 vs N=100 —
more nodes give the auction better candidates, cutting rounds by ~28% at
84% accuracy.  Bench scale compares N=15 vs N=30 at fixed K.

9b (paper): average winner payment p falls and winner score rises as N
grows from 50 to 200 (more competition benefits the aggregator) — Theorem 2
in action.  Regenerated exactly at the paper's N values via Monte-Carlo
over equilibrium bids.
"""

from __future__ import annotations

from repro.analysis import payment_score_sweep_n
from repro.api import Scenario, run_scheme
from repro.sim.reporting import paper_vs_measured, series_table
from repro.sim.rng import rng_from

from .common import emit, run_once

N_VALUES_PAPER = (50, 80, 110, 140, 170, 200)
TARGETS = (0.5, 0.6, 0.7, 0.8)
SEED = 1


def _run(bench_solver):
    # --- 9a: training speed for a small vs large population -------------
    rows_9a = {}
    for n_clients in (15, 30):
        scenario = Scenario.from_preset(
            "bench", "mnist_o", n_clients=n_clients, k_winners=6
        )
        history = run_scheme(scenario, "FMore", SEED)
        rows_9a[f"N={n_clients}"] = [history.rounds_to(t) for t in TARGETS]

    table_9a = series_table(
        "fig09a: rounds to reach target accuracy (FMore, bench scale)",
        "target_accuracy",
        [f"{t:.0%}" for t in TARGETS],
        rows_9a,
    )

    # --- 9b: payment and score vs N at the paper's population sizes -----
    sweep = payment_score_sweep_n(
        bench_solver, N_VALUES_PAPER, rng_from(SEED, "fig09b"), n_draws=120
    )
    table_9b = series_table(
        "fig09b: winner payment p and score vs N (K=20, equilibrium Monte-Carlo)",
        "N",
        [n for n, _ in sweep],
        {
            "payment": [round(ws.mean_payment, 3) for _, ws in sweep],
            "score": [round(ws.mean_score, 3) for _, ws in sweep],
        },
    )

    payments = [ws.mean_payment for _, ws in sweep]
    scores = [ws.mean_score for _, ws in sweep]
    rounds_small = rows_9a["N=15"]
    rounds_large = rows_9a["N=30"]
    reductions = [
        (s, l) for s, l in zip(rounds_small, rounds_large) if s is not None and l is not None
    ]
    measured_reduction = (
        100.0 * sum(s - l for s, l in reductions) / max(sum(s for s, _ in reductions), 1)
        if reductions
        else None
    )
    block = paper_vs_measured(
        [
            (
                "round reduction, small N -> large N",
                "28% (N=50 -> N=100 at 84%)",
                None if measured_reduction is None else f"{measured_reduction:.0f}%",
            ),
            ("payment p monotone in N", "decreasing", "decreasing" if payments[0] > payments[-1] else "NOT decreasing"),
            ("winner score monotone in N", "increasing", "increasing" if scores[-1] > scores[0] else "NOT increasing"),
        ],
        title="fig09 paper vs measured",
    )
    emit("fig09_param_n", "\n\n".join([table_9a, table_9b, block]))
    return payments, scores


def test_fig09_param_n(benchmark, bench_solver):
    payments, scores = run_once(benchmark, lambda: _run(bench_solver))
    assert payments[0] > payments[-1]   # Fig 9b / Theorem 2 direction
    assert scores[-1] > scores[0]
