"""Unit tests for winner determination, payment rules and tie-breaking."""

import numpy as np
import pytest

from repro.core.auction import MultiDimensionalProcurementAuction
from repro.core.bids import Bid
from repro.core.psi import PsiSelection
from repro.core.scoring import AdditiveScore, QuasiLinearScoringRule


def make_bids(rows):
    """rows: (node_id, q1, q2, p)."""
    return [Bid(nid, np.array([q1, q2]), p) for nid, q1, q2, p in rows]


@pytest.fixture
def auction():
    return MultiDimensionalProcurementAuction(AdditiveScore([0.5, 0.5]), k_winners=2)


class TestWinnerDetermination:
    def test_top_k_by_score(self, auction, rng):
        bids = make_bids(
            [(0, 1.0, 1.0, 0.9), (1, 2.0, 2.0, 0.5), (2, 3.0, 3.0, 0.1), (3, 0.5, 0.5, 0.0)]
        )
        out = auction.run(bids, rng)
        assert out.winner_ids == [2, 1]  # scores: 2.9, 1.5, 0.1, 0.5

    def test_scores_sorted_descending(self, auction, rng):
        bids = make_bids([(i, float(i), float(i), 0.0) for i in range(5)])
        out = auction.run(bids, rng)
        scores = out.scores
        assert np.all(np.diff(scores) <= 1e-12)

    def test_fewer_bids_than_k(self, auction, rng):
        bids = make_bids([(0, 1.0, 1.0, 0.0)])
        out = auction.run(bids, rng)
        assert out.winner_ids == [0]

    def test_empty_bids(self, auction, rng):
        out = auction.run([], rng)
        assert out.winners == []
        assert out.total_payment == 0.0

    def test_duplicate_node_rejected(self, auction, rng):
        bids = make_bids([(0, 1.0, 1.0, 0.0), (0, 2.0, 2.0, 0.0)])
        with pytest.raises(ValueError):
            auction.run(bids, rng)

    def test_mixed_dimensionality_rejected(self, auction, rng):
        bids = [Bid(0, np.array([1.0, 2.0]), 0.0), Bid(1, np.array([1.0]), 0.0)]
        with pytest.raises(ValueError):
            auction.run(bids, rng)

    def test_tie_break_is_fair_coin(self):
        auction = MultiDimensionalProcurementAuction(AdditiveScore([1.0]), k_winners=1)
        wins = {0: 0, 1: 0}
        for seed in range(400):
            rng = np.random.default_rng(seed)
            bids = [Bid(0, np.array([1.0]), 0.5), Bid(1, np.array([1.0]), 0.5)]
            out = auction.run(bids, rng)
            wins[out.winner_ids[0]] += 1
        # Both tied nodes should win a non-trivial share.
        assert min(wins.values()) > 100


class TestPaymentRules:
    def test_first_score_pays_ask(self, auction, rng):
        bids = make_bids([(0, 4.0, 4.0, 1.0), (1, 2.0, 2.0, 0.3), (2, 1.0, 1.0, 0.2)])
        out = auction.run(bids, rng)
        for w in out.winners:
            assert w.charged_payment == pytest.approx(w.asked_payment)

    def test_second_score_matches_best_rejected(self, rng):
        auction = MultiDimensionalProcurementAuction(
            AdditiveScore([1.0]), k_winners=1, payment_rule="second_score"
        )
        bids = [Bid(0, np.array([5.0]), 1.0), Bid(1, np.array([4.0]), 1.0)]
        out = auction.run(bids, rng)
        # Winner 0 (score 4) is paid so its score equals loser's score 3:
        # p = s(q) - S_(2) = 5 - 3 = 2.
        assert out.winner_ids == [0]
        assert out.winners[0].charged_payment == pytest.approx(2.0)

    def test_second_score_never_below_ask(self, rng):
        auction = MultiDimensionalProcurementAuction(
            AdditiveScore([1.0]), k_winners=1, payment_rule="second_score"
        )
        bids = [Bid(0, np.array([5.0]), 4.9), Bid(1, np.array([4.99]), 0.0)]
        out = auction.run(bids, rng)
        # Node 1 wins (score 4.99 vs 0.1); charged = 4.99 - 0.1 >= its ask 0.
        winner = out.winners[0]
        assert winner.node_id == 1
        assert winner.charged_payment >= winner.asked_payment - 1e-12
        assert winner.charged_payment == pytest.approx(4.99 - 0.1)

    def test_second_score_weakly_exceeds_first_score(self, rng):
        base_bids = make_bids(
            [(0, 4.0, 4.0, 1.0), (1, 3.0, 3.0, 0.6), (2, 2.0, 2.0, 0.4), (3, 1.0, 1.0, 0.1)]
        )
        first = MultiDimensionalProcurementAuction(AdditiveScore([0.5, 0.5]), 2)
        second = MultiDimensionalProcurementAuction(
            AdditiveScore([0.5, 0.5]), 2, payment_rule="second_score"
        )
        out1 = first.run(list(base_bids), np.random.default_rng(0))
        out2 = second.run(list(base_bids), np.random.default_rng(0))
        assert out2.total_payment >= out1.total_payment - 1e-12

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            MultiDimensionalProcurementAuction(
                AdditiveScore([1.0]), 1, payment_rule="third_score"
            )


class TestOutcome:
    def test_aggregator_profit_eq6(self, auction, rng):
        bids = make_bids([(0, 4.0, 4.0, 1.0), (1, 2.0, 2.0, 0.5), (2, 1.0, 1.0, 0.1)])
        out = auction.run(bids, rng)
        utility = AdditiveScore([0.5, 0.5])
        expected = sum(utility.value(w.quality) - w.charged_payment for w in out.winners)
        assert out.aggregator_profit(utility) == pytest.approx(expected)

    def test_total_payment(self, auction, rng):
        bids = make_bids([(0, 4.0, 4.0, 1.0), (1, 2.0, 2.0, 0.5), (2, 1.0, 1.0, 0.1)])
        out = auction.run(bids, rng)
        assert out.total_payment == pytest.approx(1.5)

    def test_ranks_assigned_in_order(self, auction, rng):
        bids = make_bids([(i, float(10 - i), 1.0, 0.0) for i in range(5)])
        out = auction.run(bids, rng)
        assert [w.rank for w in out.winners] == [0, 1]

    def test_normalizing_wrapper(self, rng):
        wrapper = QuasiLinearScoringRule(
            AdditiveScore([0.5, 0.5]), lower=[0.0, 0.0], upper=[10.0, 1.0]
        )
        auction = MultiDimensionalProcurementAuction(wrapper, k_winners=1)
        bids = [Bid(0, np.array([10.0, 1.0]), 0.2), Bid(1, np.array([5.0, 0.5]), 0.0)]
        out = auction.run(bids, rng)
        assert out.winner_ids == [0]  # 1.0 - 0.2 = 0.8 > 0.5

    def test_psi_selection_plugged_in(self, rng):
        auction = MultiDimensionalProcurementAuction(
            AdditiveScore([1.0]), k_winners=2, selection=PsiSelection(0.5)
        )
        bids = [Bid(i, np.array([float(10 - i)]), 0.0) for i in range(6)]
        out = auction.run(bids, rng)
        assert len(out.winners) == 2
        assert len(set(out.winner_ids)) == 2


class TestBidValidation:
    @pytest.mark.parametrize(
        "quality", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.5]], ids=["nan", "inf", "-inf"]
    )
    def test_rejects_non_finite_quality(self, quality):
        with pytest.raises(ValueError, match="quality must be finite"):
            Bid(0, np.asarray(quality), 1.0)

    @pytest.mark.parametrize(
        "payment",
        [float("nan"), float("inf"), np.float64("nan"), np.float64("-inf")],
        ids=["nan", "inf", "np-nan", "np-inf"],
    )
    def test_rejects_non_finite_payment(self, payment):
        with pytest.raises(ValueError, match="payment must be finite"):
            Bid(0, np.array([1.0, 1.0]), payment)

    @pytest.mark.parametrize("quality", [np.empty(0), np.ones((2, 2))], ids=["empty", "2-D"])
    def test_rejects_empty_or_2d_quality(self, quality):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            Bid(0, quality, 1.0)
