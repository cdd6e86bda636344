"""The multi-dimensional procurement auction with K winners.

This is the aggregator side of FMore's first three steps: it owns the
scoring rule announced in the *bid ask*, evaluates the sealed bids collected
in *bid collection*, and performs *winner determination* — sorting scores in
descending order, resolving ties with a coin flip, selecting winners via a
pluggable :class:`~repro.core.psi.WinnerSelection` policy (top-K by default,
psi-FMore optionally), and charging payments under the first-score or
second-score rule (Section III-A(3); the paper uses first-score).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bids import AuctionWinner, Bid, ScoredBid
from .psi import TopKSelection, WinnerSelection
from .registry import PAYMENT_RULES
from .scoring import QuasiLinearScoringRule, ScoringRule

__all__ = [
    "AuctionOutcome",
    "MultiDimensionalProcurementAuction",
    "descending_order",
    "first_score_payment",
    "second_score_payment",
    "segmented_top_k",
]


def descending_order(scores: np.ndarray, tiebreak: np.ndarray) -> np.ndarray:
    """Indices sorting ``scores`` by the auction's tie rule.

    The rule, shared by the flat auction and both tiers of the two-tier
    round: a higher score ranks first; equal scores rank by the smaller
    tie-break key (the uniform "coin flip" drawn for every bid that
    round); equal scores with equal keys rank by the lower index.
    ``np.lexsort`` keys are (secondary, primary) and the sort is stable,
    so this equals ``sorted(range(n), key=lambda i: (-scores[i],
    tiebreak[i]))`` bitwise.
    """
    return np.lexsort((tiebreak, -scores))


def segmented_top_k(
    scores: np.ndarray, tiebreak: np.ndarray, starts: np.ndarray, k: int
) -> np.ndarray:
    """The first ``k`` of :func:`descending_order` within each segment.

    Segment ``s`` holds rows ``[starts[s], starts[s+1])`` (the last runs
    to the end); every segment must be non-empty.  Returns an ``(S,
    min(k, longest segment))`` array of row indices in rank order,
    padded with ``-1`` where a segment has fewer rows than ranks.  Each
    rank is one pass over all segments at once: a ``maximum.reduceat``
    finds each segment's best remaining score, a ``minimum.reduceat``
    the smallest key among the rows holding it, and another the lowest
    such row, which is then taken.  With ``starts=[0]`` this is the top
    ``k`` of one ranking.
    """
    scores = np.asarray(scores)
    tiebreak = np.asarray(tiebreak)
    starts = np.asarray(starts, dtype=np.intp)
    n = scores.shape[0]
    lengths = np.diff(np.append(starts, n))
    if lengths.size == 0:
        return np.empty((0, 0), dtype=np.intp)
    if lengths.min() < 1:
        raise ValueError("segments must be non-empty")
    ranks = min(int(k), int(lengths.max()))
    segment = np.repeat(np.arange(starts.size), lengths)
    rows = np.arange(n)
    free = np.ones(n, dtype=bool)
    out = np.full((starts.size, ranks), -1, dtype=np.intp)
    for r in range(ranks):
        best = np.maximum.reduceat(np.where(free, scores, -np.inf), starts)
        tied = free & (scores == best[segment])
        key = np.minimum.reduceat(np.where(tied, tiebreak, np.inf), starts)
        tied &= tiebreak == key[segment]
        pick = np.minimum.reduceat(np.where(tied, rows, n), starts)
        taken = pick < n
        out[taken, r] = pick[taken]
        free[pick[taken]] = False
    return out


@PAYMENT_RULES.register("first_score")
def first_score_payment(
    scored: list[ScoredBid],
    positions: list[int],
    scoring: QuasiLinearScoringRule,
) -> list[float]:
    """Pay-as-bid: each winner is charged exactly what it asked (paper default)."""
    return [float(scored[pos].bid.payment) for pos in positions]


@PAYMENT_RULES.register("second_score")
def second_score_payment(
    scored: list[ScoredBid],
    positions: list[int],
    scoring: QuasiLinearScoringRule,
) -> list[float]:
    """Each winner is paid the amount making its score equal the best
    rejected score, ``p_i = s(q_i) - S_(K+1)``, floored at its ask (reserve
    score 0 when nothing was rejected)."""
    rejected = [sb.score for i, sb in enumerate(scored) if i not in set(positions)]
    reference = float(max(rejected)) if rejected else 0.0
    charges: list[float] = []
    for pos in positions:
        sb = scored[pos]
        s_value = scoring.score(sb.bid.quality, 0.0)
        charges.append(float(max(s_value - reference, sb.bid.payment)))
    return charges


@dataclass
class AuctionOutcome:
    """Result of one auction round.

    ``scored_bids`` holds every submitted bid in descending score order
    (post tie-break); ``winners`` the selected subset with charged payments.
    """

    winners: list[AuctionWinner]
    scored_bids: list[ScoredBid]
    k_requested: int
    payment_rule: str

    @property
    def winner_ids(self) -> list[int]:
        return [w.node_id for w in self.winners]

    @property
    def total_payment(self) -> float:
        """What the aggregator disburses this round."""
        return float(sum(w.charged_payment for w in self.winners))

    @property
    def scores(self) -> np.ndarray:
        """All scores in descending order."""
        return np.asarray([sb.score for sb in self.scored_bids])

    def aggregator_profit(self, utility: ScoringRule) -> float:
        """Eq. 6: ``V = sum_{i in W} U(q_i) - p_i`` for a utility ``U``."""
        total = 0.0
        for w in self.winners:
            total += utility.value(w.quality) - w.charged_payment
        return float(total)


class MultiDimensionalProcurementAuction:
    """First/second-score sealed-bid procurement auction with K winners.

    Parameters
    ----------
    scoring:
        Either a bare :class:`ScoringRule` (used as ``s`` with
        ``S = s(q) - p``) or a :class:`QuasiLinearScoringRule` wrapper (which
        can min-max normalise qualities, as in the walk-through example).
    k_winners:
        The number of winners ``K`` sought each round.
    payment_rule:
        ``"first_score"`` — winners are paid what they asked (paper default).
        ``"second_score"`` — each winner is paid the amount that makes its
        score equal to the best rejected score, i.e.
        ``p_i = s(q_i) - S_(K+1)``; with no rejected bid a reserve score of
        zero applies.
    selection:
        Winner-selection policy over the sorted list (default: top-K).
    """

    def __init__(
        self,
        scoring: ScoringRule | QuasiLinearScoringRule,
        k_winners: int,
        payment_rule: str = "first_score",
        selection: WinnerSelection | None = None,
    ):
        if isinstance(scoring, ScoringRule):
            scoring = QuasiLinearScoringRule(scoring)
        self.scoring = scoring
        if k_winners < 1:
            raise ValueError("k_winners must be >= 1")
        self.k_winners = int(k_winners)
        if payment_rule not in PAYMENT_RULES:
            raise ValueError(
                f"unknown payment rule {payment_rule!r}; choose from "
                f"{list(PAYMENT_RULES.names())}"
            )
        self.payment_rule = payment_rule
        self._charge_policy = PAYMENT_RULES.get(payment_rule)
        self.selection = selection if selection is not None else TopKSelection()

    def score_bid(self, bid: Bid) -> float:
        """Evaluate ``S(q_i, p_i)`` for one bid."""
        return float(self.scoring.score(bid.quality, bid.payment))

    def run(
        self,
        bids: list[Bid],
        rng: np.random.Generator,
        selection: WinnerSelection | None = None,
    ) -> AuctionOutcome:
        """Run winner determination over the collected ``bids``.

        Bids are scored, sorted in descending order with ties resolved "by
        the flip of a coin" (a uniform random tie-break key), the selection
        policy picks winners, and the payment rule fixes transfers.  A
        per-round ``selection`` override (from the round-policy pipeline)
        replaces the auction's configured policy for this call only.
        """
        if not bids:
            return AuctionOutcome([], [], self.k_requested_for(0), self.payment_rule)
        m = bids[0].n_dimensions
        for b in bids:
            if b.n_dimensions != m:
                raise ValueError("all bids must share the same dimensionality")
        seen: set[int] = set()
        for b in bids:
            if b.node_id in seen:
                raise ValueError(f"duplicate bid from node {b.node_id}")
            seen.add(b.node_id)

        scores = self.scoring.score_batch(
            np.stack([b.quality for b in bids]), [b.payment for b in bids]
        )
        tiebreak = rng.random(len(bids))
        policy = selection if selection is not None else self.selection
        order = descending_order(scores, tiebreak)
        scored = [ScoredBid(bids[i], float(scores[i])) for i in order]

        positions = policy.select(len(scored), self.k_winners, rng)
        winners = self._charge(scored, positions)
        return AuctionOutcome(winners, scored, self.k_winners, self.payment_rule)

    def k_requested_for(self, n_bids: int) -> int:
        return min(self.k_winners, n_bids)

    def _charge(self, scored: list[ScoredBid], positions: list[int]) -> list[AuctionWinner]:
        charges = self._charge_policy(scored, positions, self.scoring)
        winners: list[AuctionWinner] = []
        for rank, (pos, charged) in enumerate(zip(positions, charges)):
            sb = scored[pos]
            winners.append(
                AuctionWinner(
                    node_id=sb.node_id,
                    quality=sb.bid.quality,
                    asked_payment=float(sb.bid.payment),
                    charged_payment=float(charged),
                    score=sb.score,
                    rank=rank,
                )
            )
        return winners
