"""Scoring rules for the multi-dimensional procurement auction.

The aggregator announces a quasi-linear scoring rule

    S(q_1, ..., q_m, p) = s(q_1, ..., q_m) - p

(paper Eq. 4), where ``q`` is the quality vector a node offers and ``p`` is
the payment it asks.  The quality part ``s`` encodes how the aggregator
values combinations of resources.  The paper names three classic families
(Section III-A):

* perfect substitution   ``s(q) = sum_i alpha_i q_i``
* perfect complementary  ``s(q) = min_i alpha_i q_i``
* generalised Cobb-Douglas ``s(q) = prod_i q_i ** alpha_i``

and the simulations additionally use the multiplicative rule
``s(q1, q2) = alpha * q1 * q2`` (Section V-A).  All of these are provided
here behind a single :class:`ScoringRule` interface.

Each family writes ``s`` once, as :meth:`ScoringRule.value_batch` over the
rows of an ``(n, m)`` array.  It folds the quality columns one at a time
(:func:`fold_columns`), so a row's bits depend neither on how many rows
come with it nor on a BLAS.  The scalar :meth:`~ScoringRule.value` and
:meth:`~ScoringRule.score` are one-row views of that formula, which is
what makes a bid scored alone and the same bid scored in a batch equal
bit for bit.

Gradients are exposed because the Nash-equilibrium quality choice
(Che's Theorem 1) maximises ``s(q) - c(q, theta)``; solvers want first-order
information whenever the rule is differentiable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .registry import SCORING_RULES

__all__ = [
    "ScoringRule",
    "AdditiveScore",
    "PerfectComplementaryScore",
    "CobbDouglasScore",
    "MultiplicativeScore",
    "QuasiLinearScoringRule",
    "normalize_weights",
]


def fold_columns(ufunc: np.ufunc, columns: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the last axis, one column at a time.

    ``acc = columns[..., 0]``, then ``acc = ufunc(acc, columns[..., j])``
    for each later ``j``.  Every row takes the same operations in the same
    order however many rows come with it, so its bits depend neither on
    the batch size nor on a BLAS: a matrix product ``q @ w`` may fuse or
    reorder its products and sums by shape and thread count.
    """
    acc = columns[..., 0]
    for j in range(1, columns.shape[-1]):
        acc = ufunc(acc, columns[..., j])
    return acc


def normalize_weights(weights: Sequence[float]) -> np.ndarray:
    """Return ``weights`` rescaled to sum to one.

    The paper notes the constraint ``sum(alpha_i) = 1`` "may be added but is
    not imperative"; this helper makes opting in explicit.
    """
    arr = np.asarray(weights, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    total = arr.sum()
    if total <= 0:
        raise ValueError("weights must have a positive sum")
    return arr / total


class ScoringRule(ABC):
    """Valuation ``s(q)`` of a quality vector ``q`` of ``m`` resources.

    A family implements :meth:`value_batch`, its one formula, and
    :meth:`gradient`; :meth:`value` and :meth:`score` price one row
    through :meth:`value_batch`.
    """

    def __init__(self, weights: Sequence[float]):
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")

    @property
    def n_dimensions(self) -> int:
        """Number of resource dimensions ``m``."""
        return int(self.weights.size)

    def _check(self, quality: np.ndarray) -> np.ndarray:
        q = np.asarray(quality, dtype=float)
        if q.shape[-1] != self.n_dimensions:
            raise ValueError(
                f"quality has {q.shape[-1]} dimensions, rule expects "
                f"{self.n_dimensions}"
            )
        return q

    @abstractmethod
    def value_batch(self, qualities: np.ndarray) -> np.ndarray:
        """Return ``s(q)`` for each row of an ``(n, m)`` array."""

    @abstractmethod
    def gradient(self, quality: np.ndarray) -> np.ndarray:
        """Return ``ds/dq`` at ``q`` (sub-gradient where non-smooth)."""

    def value(self, quality: np.ndarray) -> float:
        """Return ``s(q)`` for one quality vector: a one-row :meth:`value_batch`."""
        return float(self.value_batch(np.reshape(quality, (1, -1)))[0])

    def score(self, quality: np.ndarray, payment: float) -> float:
        """Quasi-linear score ``S(q, p) = s(q) - p`` (paper Eq. 4)."""
        return self.value(quality) - float(payment)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(weights={self.weights.tolist()})"


@SCORING_RULES.register("additive")
class AdditiveScore(ScoringRule):
    """Perfect-substitution rule ``s(q) = sum_i alpha_i q_i``.

    The paper recommends this for interchangeable resources such as GPU and
    CPU cycles, and uses it in the real-world deployment
    (``S = 0.4 q1 + 0.3 q2 + 0.3 q3 - p``, Section V-A).
    """

    def value_batch(self, qualities: np.ndarray) -> np.ndarray:
        return fold_columns(np.add, self._check(qualities) * self.weights)

    def gradient(self, quality: np.ndarray) -> np.ndarray:
        self._check(quality)
        return self.weights.copy()


@SCORING_RULES.register("perfect_complementary")
class PerfectComplementaryScore(ScoringRule):
    """Leontief rule ``s(q) = min_i alpha_i q_i``.

    Appropriate when resources are only useful together — e.g. bandwidth and
    compute, where surplus of one cannot compensate for lack of the other
    (paper Section III-A and the walk-through example of Section III-B).
    """

    def value_batch(self, qualities: np.ndarray) -> np.ndarray:
        return fold_columns(np.minimum, self._check(qualities) * self.weights)

    def gradient(self, quality: np.ndarray) -> np.ndarray:
        q = self._check(quality)
        scaled = self.weights * q
        grad = np.zeros_like(self.weights)
        idx = int(np.argmin(scaled))
        grad[idx] = self.weights[idx]
        return grad


@SCORING_RULES.register("cobb_douglas")
class CobbDouglasScore(ScoringRule):
    """Generalised Cobb-Douglas rule ``s(q) = scale * prod_i q_i**alpha_i``.

    This is the utility family Proposition 4 analyses; the aggregator tunes
    the exponents ``alpha`` to steer the resource mix it procures
    (``q*_i / q*_j = (alpha_i / alpha_j) * (beta_j / beta_i)``).
    """

    def __init__(self, weights: Sequence[float], scale: float = 1.0):
        super().__init__(weights)
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

    def value_batch(self, qualities: np.ndarray) -> np.ndarray:
        q = self._check(qualities)
        if np.any(q < 0):
            raise ValueError("Cobb-Douglas requires non-negative quality")
        # 0**0 is defined as 1 here so zero-weight dimensions are neutral.
        terms = np.where(self.weights == 0.0, 1.0, np.power(q, self.weights))
        return self.scale * fold_columns(np.multiply, terms)

    def gradient(self, quality: np.ndarray) -> np.ndarray:
        q = self._check(quality)
        val = self.value(q)
        grad = np.zeros_like(self.weights)
        for j in range(self.n_dimensions):
            if self.weights[j] == 0.0:
                continue
            if q[j] > 0:
                grad[j] = val * self.weights[j] / q[j]
            else:
                # One-sided derivative blows up at 0 for alpha < 1; report a
                # large finite slope so optimisers move off the boundary.
                grad[j] = np.inf
        return grad


@SCORING_RULES.register("multiplicative")
class MultiplicativeScore(ScoringRule):
    """Simulation rule ``s(q) = scale * prod_i q_i`` (paper Section V-A).

    The paper's simulator scores bids with ``S(q1, q2, p) = alpha*q1*q2 - p``
    where ``q1`` is the data size, ``q2`` the proportion of data categories,
    and ``alpha = 25``.  This is a Cobb-Douglas rule with unit exponents but
    is kept separate because its gradient is exact at the boundary.
    """

    def __init__(self, n_dimensions: int = 2, scale: float = 25.0):
        super().__init__(np.ones(n_dimensions))
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

    def value_batch(self, qualities: np.ndarray) -> np.ndarray:
        return self.scale * fold_columns(np.multiply, self._check(qualities))

    def gradient(self, quality: np.ndarray) -> np.ndarray:
        q = self._check(quality)
        grad = np.empty_like(q)
        for j in range(q.size):
            rest = np.prod(np.delete(q, j))
            grad[j] = self.scale * rest
        return grad


class QuasiLinearScoringRule:
    """Convenience wrapper bundling ``s`` with the quasi-linear form of Eq. 4.

    Instances are broadcast by the aggregator in the *bid ask* step.  The
    wrapper also supports min-max normalisation of quality dimensions, which
    the walk-through example of Section III-B applies before scoring.
    """

    def __init__(
        self,
        quality_rule: ScoringRule,
        lower: Sequence[float] | None = None,
        upper: Sequence[float] | None = None,
    ):
        self.quality_rule = quality_rule
        m = quality_rule.n_dimensions
        self.lower = None if lower is None else np.asarray(lower, dtype=float)
        self.upper = None if upper is None else np.asarray(upper, dtype=float)
        if (self.lower is None) != (self.upper is None):
            raise ValueError("provide both lower and upper bounds or neither")
        if self.lower is not None:
            if self.lower.shape != (m,) or self.upper.shape != (m,):
                raise ValueError("bounds must match the rule dimensionality")
            if np.any(self.upper <= self.lower):
                raise ValueError("upper bounds must exceed lower bounds")

    @property
    def normalizes(self) -> bool:
        return self.lower is not None

    def normalize(self, quality: np.ndarray) -> np.ndarray:
        """Min-max normalise a quality vector into ``[0, 1]`` per dimension."""
        q = np.asarray(quality, dtype=float)
        if not self.normalizes:
            return q
        return (q - self.lower) / (self.upper - self.lower)

    def score(self, quality: np.ndarray, payment: float) -> float:
        """Return ``S(q, p) = s(normalise(q)) - p``: a one-row :meth:`score_batch`."""
        return float(self.score_batch(np.reshape(quality, (1, -1)), [payment])[0])

    def score_batch(self, qualities: np.ndarray, payments: np.ndarray) -> np.ndarray:
        """``S(q_i, p_i)`` for the paired rows of ``qualities`` and ``payments``."""
        return self.quality_rule.value_batch(self.normalize(qualities)) - np.asarray(
            payments, dtype=float
        )
