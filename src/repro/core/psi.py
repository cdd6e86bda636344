"""Winner-selection policies, including the psi-FMore extension.

FMore's winner determination adds the K top-score nodes to the winner set.
psi-FMore (Section III-C) relaxes this: walking the bids in descending score
order, each node is admitted with probability ``psi`` until K winners are
found; FMore is the special case ``psi = 1``.  Small ``psi`` degrades
towards uniform random selection (RandFL), trading training speed for data
diversity — Section V-B(4) quantifies the trade-off and our Fig-11 bench
reproduces it.

The module also provides the fill probability
``Pr(psi) = sum_{i=0}^{N-K} C(i+K, i) (1-psi)^i psi^K`` from the paper and
the exact negative-binomial variant ``C(i+K-1, i)`` (the probability the
K-th acceptance happens within N Bernoulli trials); the paper's binomial
index appears to be off by one, and tests compare both against Monte Carlo.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .registry import WINNER_SELECTIONS

__all__ = [
    "WinnerSelection",
    "TopKSelection",
    "PsiSelection",
    "PerNodePsiSelection",
    "RankPsiSchedule",
    "RANK_SCHEDULE_NAMES",
    "paper_fill_probability",
    "negative_binomial_fill_probability",
]


class WinnerSelection(ABC):
    """Policy choosing which positions of the score-sorted list win."""

    @abstractmethod
    def select(self, n_bids: int, k_winners: int, rng: np.random.Generator) -> list[int]:
        """Return winning *positions* (indices into the sorted-desc order)."""


@WINNER_SELECTIONS.register("top_k")
class TopKSelection(WinnerSelection):
    """Deterministic FMore rule: the best K scores win."""

    def select(self, n_bids: int, k_winners: int, rng: np.random.Generator) -> list[int]:
        return list(range(min(k_winners, n_bids)))


@WINNER_SELECTIONS.register("psi")
class PsiSelection(WinnerSelection):
    """psi-FMore: admit each node in score order with probability ``psi``.

    If a full pass over the candidates yields fewer than K winners, further
    passes are made over the not-yet-admitted nodes (still in score order)
    so that exactly ``min(K, n)`` winners are always produced; this is the
    natural completion of the paper's "until K nodes are chosen".
    """

    def __init__(self, psi: float):
        if not (0.0 < psi <= 1.0):
            raise ValueError("psi must lie in (0, 1]")
        self.psi = float(psi)

    def select(self, n_bids: int, k_winners: int, rng: np.random.Generator) -> list[int]:
        target = min(k_winners, n_bids)
        chosen: list[int] = []
        remaining = list(range(n_bids))
        while len(chosen) < target:
            next_remaining: list[int] = []
            for pos in remaining:
                if len(chosen) < target and rng.random() < self.psi:
                    chosen.append(pos)
                else:
                    next_remaining.append(pos)
            remaining = next_remaining
            if not remaining:
                break
        return chosen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PsiSelection(psi={self.psi})"


#: Declarative rank-schedule families accepted by :class:`RankPsiSchedule`.
RANK_SCHEDULE_NAMES = ("constant", "geometric", "linear")


@dataclass(frozen=True)
class RankPsiSchedule:
    """A declarative ``rank -> psi`` map (JSON-expressible, picklable).

    Families (``rank`` is the 0-based position in the score-sorted list):

    * ``constant``  — ``psi0`` for every rank,
    * ``geometric`` — ``psi0 * decay**rank`` (the paper-style "favour the
      top" schedule),
    * ``linear``    — ``psi0 - slope * rank``.

    Values are floored at ``floor`` so every candidate keeps a diversity
    floor; :class:`PerNodePsiSelection` additionally clips to 1.
    """

    schedule: str = "geometric"
    psi0: float = 0.9
    decay: float = 0.95
    slope: float = 0.02
    floor: float = 0.01

    def __post_init__(self) -> None:
        if self.schedule not in RANK_SCHEDULE_NAMES:
            raise ValueError(
                f"unknown rank schedule {self.schedule!r}; "
                f"choose from {RANK_SCHEDULE_NAMES}"
            )
        if not (0.0 < self.psi0 <= 1.0):
            raise ValueError(f"psi0 must lie in (0, 1]; got {self.psi0!r}")
        if not (0.0 < self.decay <= 1.0):
            raise ValueError(f"decay must lie in (0, 1]; got {self.decay!r}")
        if self.slope < 0.0:
            raise ValueError(f"slope must be >= 0; got {self.slope!r}")
        if not (0.0 < self.floor <= 1.0):
            raise ValueError(f"floor must lie in (0, 1]; got {self.floor!r}")

    def __call__(self, rank: int) -> float:
        if self.schedule == "constant":
            value = self.psi0
        elif self.schedule == "geometric":
            value = self.psi0 * self.decay ** rank
        else:  # linear
            value = self.psi0 - self.slope * rank
        return max(float(value), self.floor)


@WINNER_SELECTIONS.register("per_node_psi")
class PerNodePsiSelection(WinnerSelection):
    """psi-FMore with rank-dependent admission probabilities.

    The paper closes with the open question "whether the probability psi
    should be identical or distinct for each node remains to be studied".
    This policy explores it: admission probability is a function of the
    candidate's *rank* in the sorted list (position 0 = best score), e.g.
    ``lambda rank: max(0.9 - 0.02 * rank, 0.2)`` favours the top while
    keeping a diversity floor.  As with :class:`PsiSelection`, repeated
    passes over the not-yet-admitted candidates guarantee K winners.

    Instead of a callable, a declarative schedule may be named —
    ``PerNodePsiSelection(schedule="geometric", psi0=0.9, decay=0.95)`` —
    which is what the ``per_node_psi`` registry spec and Scenario policy
    specs use (see :class:`RankPsiSchedule` for the families).
    """

    def __init__(
        self,
        psi_of_rank=None,
        floor: float = 0.01,
        schedule: str | None = None,
        psi0: float = 0.9,
        decay: float = 0.95,
        slope: float = 0.02,
    ):
        if not (0.0 < floor <= 1.0):
            raise ValueError(
                f"floor must lie in (0, 1]; got {floor!r} "
                "(it is the minimum admission probability of any rank)"
            )
        if (psi_of_rank is None) == (schedule is None):
            raise TypeError(
                "provide exactly one of psi_of_rank (a callable rank -> "
                "probability) or schedule (one of "
                f"{RANK_SCHEDULE_NAMES}, with psi0/decay/slope parameters)"
            )
        if schedule is not None:
            psi_of_rank = RankPsiSchedule(
                schedule=schedule, psi0=psi0, decay=decay, slope=slope, floor=floor
            )
        if not callable(psi_of_rank):
            raise TypeError("psi_of_rank must be callable(rank) -> probability")
        self.psi_of_rank = psi_of_rank
        self.floor = float(floor)

    def probability(self, rank: int) -> float:
        """The (clipped) admission probability used for a given rank.

        Finite values outside ``[floor, 1]`` are clamped into the interval;
        a non-finite ``psi_of_rank`` output raises (it would silently
        poison the selection loop otherwise).
        """
        p = float(self.psi_of_rank(rank))
        if not np.isfinite(p):
            raise ValueError(
                f"psi_of_rank({rank}) returned {p!r}; admission "
                "probabilities must be finite (they are clamped into "
                f"[{self.floor}, 1.0])"
            )
        return float(min(max(p, self.floor), 1.0))

    def select(self, n_bids: int, k_winners: int, rng: np.random.Generator) -> list[int]:
        target = min(k_winners, n_bids)
        chosen: list[int] = []
        remaining = list(range(n_bids))
        while len(chosen) < target and remaining:
            next_remaining: list[int] = []
            for pos in remaining:
                if len(chosen) < target and rng.random() < self.probability(pos):
                    chosen.append(pos)
                else:
                    next_remaining.append(pos)
            remaining = next_remaining
        return chosen


def paper_fill_probability(psi: float, n_nodes: int, k_winners: int) -> float:
    """The paper's ``Pr(psi) = sum_{i=0}^{N-K} C(i+K, i)(1-psi)^i psi^K``.

    Not a true probability for all parameters (it can exceed 1); kept verbatim
    for fidelity and compared against the exact form in tests.
    """
    _check_fill_args(psi, n_nodes, k_winners)
    total = 0.0
    for i in range(0, n_nodes - k_winners + 1):
        total += math.comb(i + k_winners, i) * (1.0 - psi) ** i * psi ** k_winners
    return float(total)


def negative_binomial_fill_probability(psi: float, n_nodes: int, k_winners: int) -> float:
    """Exact probability a single pass over N nodes admits K of them.

    The number of trials needed for the K-th acceptance is negative
    binomial; the single-pass fill probability is its CDF at N:
    ``sum_{i=0}^{N-K} C(i+K-1, i) psi^K (1-psi)^i``.
    """
    _check_fill_args(psi, n_nodes, k_winners)
    total = 0.0
    for i in range(0, n_nodes - k_winners + 1):
        total += math.comb(i + k_winners - 1, i) * psi ** k_winners * (1.0 - psi) ** i
    return float(min(total, 1.0))


def _check_fill_args(psi: float, n_nodes: int, k_winners: int) -> None:
    if not (0.0 < psi <= 1.0):
        raise ValueError("psi must lie in (0, 1]")
    if not (1 <= k_winners <= n_nodes):
        raise ValueError("need 1 <= K <= N")
