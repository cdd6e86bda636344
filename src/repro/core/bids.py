"""Bid datatypes exchanged between edge nodes and the aggregator.

A bid is the pair ``(q, p)`` a node submits in the *bid collection* step:
the multi-dimensional quality vector it commits to provide and the payment
it expects in return.  Bids are sealed — only the aggregator sees them
(Section III-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Bid", "ScoredBid", "AuctionWinner"]


@dataclass(frozen=True)
class Bid:
    """A sealed bid ``(q_i, p_i)`` from node ``node_id``."""

    node_id: int
    quality: np.ndarray
    payment: float

    def __post_init__(self) -> None:
        q = np.asarray(self.quality, dtype=float)
        if q.ndim != 1 or q.size == 0:
            raise ValueError("quality must be a non-empty 1-D vector")
        if not np.isfinite(q).all():
            raise ValueError("quality must be finite")
        if not math.isfinite(self.payment):
            raise ValueError("payment must be finite")
        object.__setattr__(self, "quality", q)

    @property
    def n_dimensions(self) -> int:
        return int(self.quality.size)


@dataclass(frozen=True)
class ScoredBid:
    """A bid together with the aggregator's score ``S(q, p)``."""

    bid: Bid
    score: float

    @property
    def node_id(self) -> int:
        return self.bid.node_id


@dataclass(frozen=True)
class AuctionWinner:
    """One winner of a round: what it provides and what it is paid.

    ``asked_payment`` is the ``p`` in the sealed bid; ``charged_payment`` is
    what the payment rule actually awards (identical under first-score, the
    score-matching transfer under second-score).
    """

    node_id: int
    quality: np.ndarray = field(repr=False)
    asked_payment: float
    charged_payment: float
    score: float
    rank: int
