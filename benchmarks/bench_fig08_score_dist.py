"""Fig. 8 — distribution of the scores of selected nodes, per scheme.

The paper plots, for the CIFAR CNN (8a) and the HPNews LSTM (8b), the
distribution of equilibrium scores: of the whole population ("Total") and
of the nodes each scheme selects.  FMore's winners concentrate in the top
bins; RandFL samples the population distribution; FixFL repeats one draw.

RandFL and FixFL never collect bids, so their hypothetical scores are
recorded with :class:`~repro.analysis.ScoreTrackingSelection`.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import ScoreTrackingSelection, score_histogram
from repro.core.auction import MultiDimensionalProcurementAuction
from repro.fl.selection import FixedSelection, RandomSelection
from repro.api import Scenario, build_agents, build_federation, build_solver, run_scheme
from repro.sim.reporting import series_table
from repro.sim.rng import rng_from

from .common import emit, run_once

DATASET = "cifar10"
SEED = 1
BINS = 8


def _run():
    cfg = Scenario.from_preset("bench", DATASET, n_rounds=8)
    federation = build_federation(cfg, SEED)
    solver = build_solver(cfg)

    # FMore: scores come straight from the auction outcomes.
    h_fmore = run_scheme(cfg, "FMore", SEED, federation=federation, solver=solver)
    fmore_scores = [s for r in h_fmore.records for s in r.scores.values()]
    total_scores = [s for r in h_fmore.records for s in r.all_scores]

    # RandFL / FixFL: wrap with the tracking decorator.
    tracked_scores = {}
    for scheme, base_cls in (("RandFL", RandomSelection), ("FixFL", FixedSelection)):
        agents = build_agents(cfg, federation, solver)
        auction = MultiDimensionalProcurementAuction(solver.quality_rule, cfg.k_winners)
        client_ids = [c.client_id for c in federation.clients_data]
        if base_cls is RandomSelection:
            base = RandomSelection(client_ids, cfg.k_winners)
        else:
            base = FixedSelection(client_ids, cfg.k_winners, rng_from(SEED, "fig08-fix"))
        tracker = ScoreTrackingSelection(base, agents, auction)
        rng = rng_from(SEED, f"fig08-{scheme}")
        for t in range(1, cfg.n_rounds + 1):
            tracker.select(t, rng)
        tracked_scores[scheme] = [
            s for round_scores in tracker.tracked_scores for s in round_scores.values()
        ]

    lo = min(total_scores)
    hi = max(total_scores)
    edges, total_hist = score_histogram(total_scores, BINS, (lo, hi))
    _, fmore_hist = score_histogram(fmore_scores, BINS, (lo, hi))
    _, rand_hist = score_histogram(tracked_scores["RandFL"], BINS, (lo, hi))
    _, fix_hist = score_histogram(tracked_scores["FixFL"], BINS, (lo, hi))

    centers = [round(float(0.5 * (edges[i] + edges[i + 1])), 2) for i in range(BINS)]
    table = series_table(
        f"fig08: score distribution of selected nodes ({DATASET}, proportion %)",
        "score_bin",
        centers,
        {
            "Total": [round(v, 1) for v in total_hist],
            "FMore": [round(v, 1) for v in fmore_hist],
            "RandFL": [round(v, 1) for v in rand_hist],
            "FixFL": [round(v, 1) for v in fix_hist],
        },
    )

    # Mass in the top half of the score range, per scheme.
    def top_mass(hist):
        return float(np.sum(hist[BINS // 2 :]))

    summary = (
        f"\ntop-half-of-range mass: Total={top_mass(total_hist):.0f}% "
        f"FMore={top_mass(fmore_hist):.0f}% RandFL={top_mass(rand_hist):.0f}% "
        f"FixFL={top_mass(fix_hist):.0f}%"
        "\npaper: FMore selects only high-score nodes; RandFL mirrors Total."
    )
    emit("fig08_score_dist", table + summary)
    return {
        "total": total_hist,
        "fmore": fmore_hist,
        "rand": rand_hist,
        "fix": fix_hist,
    }


def test_fig08_score_distribution(benchmark):
    hists = run_once(benchmark, _run)
    n_bins = len(hists["total"])
    top = slice(n_bins // 2, n_bins)
    # FMore's winners live strictly higher in the score distribution.
    assert hists["fmore"][top].sum() >= hists["rand"][top].sum() - 1e-9
