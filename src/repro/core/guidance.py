"""Aggregator guidance: steering the procured resource mix (Proposition 4).

With the general Cobb-Douglas utility ``s(q) = prod_i q_i**alpha_i``
(``sum alpha_i = 1``) and the additive cost ``c(q) = theta * sum_i beta_i
q_i`` (``sum beta_i = 1``), expected-utility maximisation under the budget
constraint ``theta * sum beta_i q_i = c0`` yields

    q*_i / q*_j = (alpha_i / alpha_j) * (beta_j / beta_i),

so the aggregator can dial the exponents ``alpha`` to procure any desired
proportion of resources "from a macro view" (paper Appendix C).  This module
provides the forward map (alphas -> optimal mix), the inverse map (desired
mix -> alphas) and a numerically-checked Lagrangian solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scoring import normalize_weights

__all__ = [
    "GuidanceResult",
    "optimal_quality_mix",
    "quality_ratio",
    "alphas_for_target_mix",
    "solve_mix_numerically",
    "observed_procurement_mix",
    "retuned_alphas",
]


@dataclass(frozen=True)
class GuidanceResult:
    """Optimal procurement mix for a Cobb-Douglas aggregator."""

    quality: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    theta: float
    budget: float

    @property
    def ratios(self) -> np.ndarray:
        """Pairwise matrix ``R[i, j] = q*_i / q*_j``."""
        q = self.quality
        return q[:, None] / q[None, :]

    @property
    def spend_shares(self) -> np.ndarray:
        """Budget share of each dimension, ``theta*beta_i*q_i / c0``.

        For Cobb-Douglas utilities the share equals ``alpha_i`` — the classic
        expenditure-share property, asserted in tests.
        """
        return self.theta * self.betas * self.quality / self.budget


def optimal_quality_mix(
    alphas: Sequence[float],
    beta_estimates: Sequence[float],
    theta: float,
    budget: float,
) -> GuidanceResult:
    """Closed-form Lagrangian optimum of Proposition 4.

    Maximising ``prod q_i**alpha_i`` subject to ``theta * sum beta_i q_i =
    c0`` gives ``q*_i = alpha_i * c0 / (theta * beta_i * sum_j alpha_j)``.
    ``alphas``/``betas`` are normalised to sum to one on entry, matching the
    proposition's assumptions.
    """
    alpha = normalize_weights(alphas)
    beta = normalize_weights(beta_estimates)
    if np.any(alpha <= 0) or np.any(beta <= 0):
        raise ValueError("Proposition 4 requires strictly positive alphas and betas")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if budget <= 0:
        raise ValueError("budget must be positive")
    quality = alpha * budget / (theta * beta)
    return GuidanceResult(quality=quality, alphas=alpha, betas=beta, theta=float(theta), budget=float(budget))


def quality_ratio(
    alpha_i: float, alpha_j: float, beta_i: float, beta_j: float
) -> float:
    """Proposition 4's headline ratio ``q*_i/q*_j = (a_i/a_j)(b_j/b_i)``."""
    if min(alpha_i, alpha_j, beta_i, beta_j) <= 0:
        raise ValueError("all coefficients must be positive")
    return (alpha_i / alpha_j) * (beta_j / beta_i)


def alphas_for_target_mix(
    target_quality: Sequence[float], beta_estimates: Sequence[float]
) -> np.ndarray:
    """Inverse problem: exponents ``alpha`` that make ``target_quality`` optimal.

    From ``q*_i proportional to alpha_i / beta_i`` it follows that
    ``alpha_i proportional to q_i * beta_i``; the result is normalised to sum
    to one.  This is the knob the paper says the aggregator can "adjust ...
    to get different proportion of resources".
    """
    target = np.asarray(target_quality, dtype=float)
    beta = normalize_weights(beta_estimates)
    if np.any(target <= 0):
        raise ValueError("target quality must be strictly positive")
    return normalize_weights(target * beta)


def observed_procurement_mix(winner_qualities: Sequence[np.ndarray]) -> np.ndarray:
    """The mean quality vector actually procured over a window of rounds.

    This is the feedback signal of a guidance experiment: the aggregator
    compares what it *got* against the mix it *wants* before retuning the
    exponents alpha (see :func:`retuned_alphas`).
    """
    rows = [np.asarray(q, dtype=float) for q in winner_qualities]
    if not rows:
        raise ValueError("need at least one winner quality vector")
    return np.mean(np.stack(rows), axis=0)


def retuned_alphas(
    alphas: Sequence[float],
    target_mix: Sequence[float],
    observed_mix: Sequence[float],
    gain: float = 0.5,
) -> np.ndarray:
    """One multiplicative-controller step of alpha retuning.

    Proposition 4's inverse map (:func:`alphas_for_target_mix`) is exact
    only when bidders sit at the Cobb-Douglas optimum; live populations
    (capacity caps, IR abstentions, psi randomness) procure a different
    mix.  This closed-loop step nudges the exponents by the per-dimension
    ratio of normalised target to observed mix raised to ``gain``:
    dimensions under-procured relative to target get heavier exponents.
    ``gain=0`` is a no-op; ``gain=1`` applies the full correction.
    """
    if not (0.0 <= gain <= 1.0):
        raise ValueError(f"gain must lie in [0, 1]; got {gain!r}")
    alpha = normalize_weights(alphas)
    target = normalize_weights(target_mix)
    observed = np.maximum(
        normalize_weights(np.maximum(np.asarray(observed_mix, dtype=float), 0.0)),
        1e-9,
    )
    correction = (target / observed) ** float(gain)
    return normalize_weights(np.maximum(alpha * correction, 1e-9))


def solve_mix_numerically(
    alphas: Sequence[float],
    beta_estimates: Sequence[float],
    theta: float,
    budget: float,
) -> np.ndarray:
    """Numerical verification of :func:`optimal_quality_mix`.

    Solves the same constrained program with SLSQP (maximising the log of the
    Cobb-Douglas utility for numerical stability).  Used by tests to confirm
    the closed form; exposed publicly because it also handles alphas that do
    not sum to one.
    """
    from scipy import optimize

    alpha = np.asarray(alphas, dtype=float)
    beta = np.asarray(beta_estimates, dtype=float)
    if np.any(alpha <= 0) or np.any(beta <= 0):
        raise ValueError("alphas and betas must be strictly positive")
    m = alpha.size

    def negative_log_utility(q: np.ndarray) -> float:
        return -float(np.dot(alpha, np.log(np.maximum(q, 1e-300))))

    constraint = {
        "type": "eq",
        "fun": lambda q: theta * float(np.dot(beta, q)) - budget,
    }
    x0 = np.full(m, budget / (theta * float(np.sum(beta)) * m))
    res = optimize.minimize(
        negative_log_utility,
        x0,
        method="SLSQP",
        bounds=[(1e-9, None)] * m,
        constraints=[constraint],
    )
    if not res.success:
        raise RuntimeError(f"mix optimisation failed: {res.message}")
    return np.asarray(res.x, dtype=float)
