"""Tests for the analysis layer: sweeps, histograms, summaries."""

import numpy as np
import pytest

from repro.analysis import (
    expected_profit_vs_k,
    expected_profit_vs_n,
    headline_metrics,
    payment_score_sweep_k,
    payment_score_sweep_n,
    score_histogram,
    selection_rank_proportions,
    summarize_schemes,
    winner_stats,
)
from repro.api import RunResult, Scenario
from repro.fl.trainer import RoundRecord, TrainingHistory


class TestProfitSweeps:
    def test_theorem2_decreasing_in_n(self, additive_quadratic_solver):
        profits = expected_profit_vs_n(additive_quadratic_solver, 0.3, [5, 10, 20, 40])
        assert all(a >= b - 1e-12 for a, b in zip(profits, profits[1:]))

    def test_theorem3_increasing_in_k(self, additive_quadratic_solver):
        profits = expected_profit_vs_k(additive_quadratic_solver, 0.5, [1, 2, 4, 8])
        assert all(b >= a - 1e-12 for a, b in zip(profits, profits[1:]))


class TestWinnerSweeps:
    def test_payment_decreases_with_n(self, multiplicative_solver, rng):
        rows = payment_score_sweep_n(multiplicative_solver, [15, 30, 60], rng, n_draws=40)
        payments = [ws.mean_payment for _, ws in rows]
        assert payments[0] > payments[-1]

    def test_score_increases_with_n(self, multiplicative_solver, rng):
        rows = payment_score_sweep_n(multiplicative_solver, [15, 30, 60], rng, n_draws=40)
        scores = [ws.mean_score for _, ws in rows]
        assert scores[-1] > scores[0]

    def test_payment_increases_with_k(self, multiplicative_solver, rng):
        rows = payment_score_sweep_k(multiplicative_solver, [2, 6, 12], rng, n_draws=40)
        payments = [ws.mean_payment for _, ws in rows]
        assert payments[-1] > payments[0]

    def test_score_decreases_with_k(self, multiplicative_solver, rng):
        rows = payment_score_sweep_k(multiplicative_solver, [2, 6, 12], rng, n_draws=40)
        scores = [ws.mean_score for _, ws in rows]
        assert scores[0] > scores[-1]

    def test_winner_stats_deterministic_given_rng(self, multiplicative_solver):
        a = winner_stats(multiplicative_solver, np.random.default_rng(3), n_draws=20)
        b = winner_stats(multiplicative_solver, np.random.default_rng(3), n_draws=20)
        assert a.mean_payment == b.mean_payment


class TestScoreHistogram:
    def test_proportions_sum_to_100(self):
        edges, props = score_histogram([1.0, 2.0, 3.0, 4.0], bins=4)
        assert props.sum() == pytest.approx(100.0)

    def test_empty_scores(self):
        edges, props = score_histogram([], bins=5)
        assert props.sum() == 0.0


def _history_with_ranks(scheme, rank_lists):
    h = TrainingHistory(scheme)
    for i, ranks in enumerate(rank_lists, start=1):
        h.records.append(
            RoundRecord(
                i, 0.5, 0.5, list(ranks), 0.0,
                winner_ranks={wid: r for wid, r in zip(ranks, ranks)},
            )
        )
    return h


class TestRankProportions:
    def test_counts_within_cutoffs(self):
        h = _history_with_ranks("PsiFMore", [[0, 5, 15], [1, 25, 29]])
        props = selection_rank_proportions(h, rank_cutoffs=(10, 20, 30))
        assert props[10] == pytest.approx(1.5)   # (2 + 1) / 2
        assert props[20] == pytest.approx(2.0)   # (3 + 1) / 2  -> 15<20; 25,29 not
        assert props[30] == pytest.approx(3.0)

    def test_empty_history(self):
        h = TrainingHistory("X")
        props = selection_rank_proportions(h)
        assert props == {10: 0.0, 20: 0.0, 30: 0.0}


def _history(scheme, accs, seconds=1.0, payment=0.0):
    h = TrainingHistory(scheme)
    for i, a in enumerate(accs, start=1):
        h.records.append(
            RoundRecord(i, a, 1 - a, [0], payment, round_seconds=seconds)
        )
    return h


def _frame(histories: dict[str, list[TrainingHistory]]):
    """The metrics frame of hand-built per-scheme, per-seed histories."""
    (n_seeds,) = {len(hs) for hs in histories.values()}
    scenario = Scenario.from_preset(
        "smoke", schemes=tuple(histories), seeds=tuple(range(n_seeds))
    )
    return RunResult(scenario, histories).metrics()


class TestSummaries:
    def test_summarize(self):
        frame = _frame(
            {
                "FMore": [_history("FMore", [0.5, 0.9], payment=1.0)],
                "RandFL": [_history("RandFL", [0.3, 0.6])],
            }
        )
        rows = summarize_schemes(frame, target_accuracy=0.6)
        assert [r.scheme for r in rows] == ["FMore", "RandFL"]
        by_scheme = {r.scheme: r for r in rows}
        assert by_scheme["FMore"].rounds_to_target == 2
        assert by_scheme["FMore"].seconds_to_target == 2.0
        assert by_scheme["FMore"].total_payment == 2.0
        assert by_scheme["FMore"].total_seconds == 2.0
        assert by_scheme["RandFL"].final_accuracy == 0.6
        assert by_scheme["RandFL"].final_loss == pytest.approx(0.4)
        assert by_scheme["RandFL"].bans == 0.0

    def test_summarize_reads_the_seed_averaged_curve(self):
        """Rounds to target is where the *mean* curve first reaches it:
        seed curves reaching 0.6 in rounds 3 and 1 average to round 2."""
        frame = _frame(
            {
                "FMore": [
                    _history("FMore", [0.4, 0.5, 0.6], seconds=1.0),
                    _history("FMore", [0.6, 0.7, 0.8], seconds=3.0),
                ]
            }
        )
        (row,) = summarize_schemes(frame, target_accuracy=0.6)
        assert row.rounds_to_target == 2
        assert row.seconds_to_target == pytest.approx(4.0)
        assert row.final_accuracy == pytest.approx(0.7)
        assert summarize_schemes(frame, target_accuracy=0.95)[0].rounds_to_target is None

    def test_headline(self):
        hs = {
            "FMore": _history("FMore", [0.5, 0.8, 0.9, 0.9]),
            "RandFL": _history("RandFL", [0.2, 0.4, 0.6, 0.7]),
        }
        m = headline_metrics(hs, target_accuracy=0.6)
        assert m.round_reduction_pct == pytest.approx(100.0 * (3 - 2) / 3)
        assert m.accuracy_improvement_pct == pytest.approx(100 * (0.9 - 0.7) / 0.7)
        assert m.time_reduction_pct is not None

    def test_headline_missing_scheme(self):
        with pytest.raises(KeyError):
            headline_metrics({"FMore": _history("FMore", [0.5])}, 0.5)
