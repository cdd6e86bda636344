"""Private cost models ``c(q, theta)`` for edge nodes.

Each edge node carries a private cost parameter ``theta`` (its type) and a
cost function ``c(q1, ..., qm, theta)`` increasing in every quality
dimension.  The paper (Section III-A, "Bid Collection") imposes the
single-crossing conditions

    c_qq >= 0,   c_q_theta > 0,   c_qq_theta >= 0,

i.e. marginal cost rises with the type parameter, which is what makes the
scoring auction's equilibrium well behaved (Che 1993).

Three families are implemented:

* :class:`LinearCost`     ``c = theta * sum_i beta_i * q_i``
  (the form Proposition 4 assumes),
* :class:`QuadraticCost`  ``c = theta * sum_i beta_i * q_i**2``,
* :class:`PowerCost`      ``c = theta * sum_i beta_i * q_i**gamma_i``
  with ``gamma_i >= 1`` generalising both.

Each family writes ``c`` once, as :meth:`CostModel.cost_rows` over paired
rows of qualities and types, summing its quality columns one at a time
(:func:`~repro.core.scoring.fold_columns`) so a row's bits depend neither
on the batch size nor on a BLAS.  The scalar :meth:`~CostModel.cost` and
:meth:`~CostModel.d_theta` (that is, ``c_theta``, for Che's closed-form
payment integrand) are one-row views of that formula; ``gradient_q``, the
derivative the quality optimisation needs, is written per family.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .registry import COST_MODELS
from .scoring import fold_columns

__all__ = [
    "CostModel",
    "LinearCost",
    "QuadraticCost",
    "PowerCost",
    "SingleCrossingReport",
    "check_single_crossing",
]


class CostModel(ABC):
    """Abstract cost ``c(q, theta)`` with the derivatives used by solvers.

    A family implements :meth:`cost_rows`, its one formula, and
    :meth:`gradient_q`; :meth:`cost` and :meth:`d_theta` price one row
    through :meth:`cost_rows`.
    """

    def __init__(self, betas: Sequence[float]):
        self.betas = np.asarray(betas, dtype=float)
        if self.betas.ndim != 1 or self.betas.size == 0:
            raise ValueError("betas must be a non-empty 1-D sequence")
        if np.any(self.betas < 0):
            raise ValueError("betas must be non-negative")

    @property
    def n_dimensions(self) -> int:
        return int(self.betas.size)

    def _check(self, quality: np.ndarray) -> np.ndarray:
        q = np.asarray(quality, dtype=float)
        if q.shape[-1] != self.n_dimensions:
            raise ValueError(
                f"quality has {q.shape[-1]} dimensions, cost expects "
                f"{self.n_dimensions}"
            )
        return q

    def _rows(
        self, qualities: np.ndarray, thetas: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        q = self._check(qualities)
        t = np.asarray(thetas, dtype=float)
        if q.ndim != 2 or t.shape != (q.shape[0],):
            raise ValueError("cost_rows takes an (n, m) quality array and n thetas")
        return q, t

    @abstractmethod
    def cost_rows(self, qualities: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """``c(q_i, theta_i)`` for the paired rows of an ``(n, m)`` quality
        array and an ``(n,)`` type vector, the way
        ``EquilibriumSolver.bid_batch`` prices a whole population."""

    @abstractmethod
    def gradient_q(self, quality: np.ndarray, theta: float) -> np.ndarray:
        """Return ``dc/dq`` at ``(q, theta)``."""

    def cost(self, quality: np.ndarray, theta: float) -> float:
        """Return ``c(q, theta)`` for one quality vector: one row of :meth:`cost_rows`."""
        return float(self.cost_rows(np.reshape(quality, (1, -1)), [theta])[0])

    def d_theta(self, quality: np.ndarray, theta: float) -> float:
        """Return ``c_theta(q, theta)`` — the payment-integrand derivative.

        Every family here is linear in its type, ``c = theta * g(q)``, so
        ``c_theta = g(q) = c(q, 1)``.  A family that is not overrides this.
        """
        return self.cost(quality, 1.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(betas={self.betas.tolist()})"


@COST_MODELS.register("linear")
class LinearCost(CostModel):
    """Additive linear cost ``c(q, theta) = theta * sum_i beta_i q_i``.

    Satisfies the single-crossing conditions with equality in ``c_qq``
    (``c_qq = 0``), which the paper's weak inequalities allow.
    """

    def cost_rows(self, qualities: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        q, t = self._rows(qualities, thetas)
        return t * fold_columns(np.add, q * self.betas)

    def gradient_q(self, quality: np.ndarray, theta: float) -> np.ndarray:
        self._check(quality)
        return theta * self.betas


@COST_MODELS.register("quadratic")
class QuadraticCost(CostModel):
    """Strictly convex cost ``c(q, theta) = theta * sum_i beta_i q_i**2``.

    The strict convexity yields interior equilibrium qualities for additive
    scoring rules, which is convenient for exercising Che's Theorem 1 in
    closed form: ``q_j* = alpha_j / (2 theta beta_j)``.
    """

    def cost_rows(self, qualities: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        q, t = self._rows(qualities, thetas)
        return t * fold_columns(np.add, q * q * self.betas)

    def gradient_q(self, quality: np.ndarray, theta: float) -> np.ndarray:
        q = self._check(quality)
        return 2.0 * theta * self.betas * q


@COST_MODELS.register("power")
class PowerCost(CostModel):
    """Power cost ``c(q, theta) = theta * sum_i beta_i q_i**gamma_i``.

    ``gamma_i >= 1`` keeps ``c_qq >= 0``; ``gamma = 1`` reduces to
    :class:`LinearCost` and ``gamma = 2`` to :class:`QuadraticCost`.
    """

    def __init__(self, betas: Sequence[float], gammas: Sequence[float] | float = 2.0):
        super().__init__(betas)
        gam = np.asarray(gammas, dtype=float)
        if gam.ndim == 0:
            gam = np.full(self.n_dimensions, float(gam))
        if gam.shape != (self.n_dimensions,):
            raise ValueError("gammas must be scalar or match betas")
        if np.any(gam < 1.0):
            raise ValueError("gammas must be >= 1 for convexity (c_qq >= 0)")
        self.gammas = gam

    def cost_rows(self, qualities: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        q, t = self._rows(qualities, thetas)
        if np.any(q < 0):
            raise ValueError("power cost requires non-negative quality")
        return t * fold_columns(np.add, np.power(q, self.gammas) * self.betas)

    def gradient_q(self, quality: np.ndarray, theta: float) -> np.ndarray:
        q = self._check(quality)
        safe = np.maximum(q, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = theta * self.betas * self.gammas * np.power(safe, self.gammas - 1.0)
        return np.where(np.isfinite(grad), grad, 0.0)


@dataclass(frozen=True)
class SingleCrossingReport:
    """Numerical verdict on the paper's single-crossing conditions."""

    convex_in_q: bool          # c_qq >= 0 everywhere sampled
    increasing_marginal: bool  # c_q_theta > 0 everywhere sampled
    convexity_increasing: bool  # c_qq_theta >= 0 everywhere sampled

    @property
    def satisfied(self) -> bool:
        return self.convex_in_q and self.increasing_marginal and self.convexity_increasing


def check_single_crossing(
    cost: CostModel,
    quality_grid: np.ndarray,
    theta_grid: Sequence[float],
    eps: float = 1e-3,
    tol: float = 1e-6,
) -> SingleCrossingReport:
    """Numerically verify ``c_qq >= 0``, ``c_q_theta > 0``, ``c_qq_theta >= 0``.

    ``quality_grid`` is an ``(n, m)`` array of sample points (strictly
    positive to avoid boundary kinks of power costs).  Central finite
    differences approximate the mixed partials dimension by dimension; the
    step ``eps`` is deliberately coarse because second differences amplify
    rounding noise by ``1/eps^2``.
    """
    q_grid = np.atleast_2d(np.asarray(quality_grid, dtype=float))
    thetas = np.asarray(theta_grid, dtype=float)
    convex = True
    increasing = True
    convexity_increasing = True
    for theta in thetas:
        dtheta = max(eps, eps * abs(theta))
        for q in q_grid:
            for j in range(cost.n_dimensions):
                dq = max(eps, eps * abs(q[j]))
                q_hi, q_lo = q.copy(), q.copy()
                q_hi[j] += dq
                q_lo[j] = max(q_lo[j] - dq, 0.0)
                span = q_hi[j] - q_lo[j]
                # c_qq via second difference.
                c_qq = (
                    cost.cost(q_hi, theta)
                    - 2.0 * cost.cost(q, theta)
                    + cost.cost(q_lo, theta)
                ) / (span / 2.0) ** 2
                if c_qq < -tol:
                    convex = False
                # c_q at theta +/- dtheta via central difference in q.
                cq_hi = (cost.cost(q_hi, theta + dtheta) - cost.cost(q_lo, theta + dtheta)) / span
                cq_lo = (cost.cost(q_hi, theta - dtheta) - cost.cost(q_lo, theta - dtheta)) / span
                c_q_theta = (cq_hi - cq_lo) / (2.0 * dtheta)
                if c_q_theta <= tol:
                    increasing = False
                # c_qq at theta +/- dtheta.
                cqq_hi = (
                    cost.cost(q_hi, theta + dtheta)
                    - 2.0 * cost.cost(q, theta + dtheta)
                    + cost.cost(q_lo, theta + dtheta)
                ) / (span / 2.0) ** 2
                cqq_lo = (
                    cost.cost(q_hi, theta - dtheta)
                    - 2.0 * cost.cost(q, theta - dtheta)
                    + cost.cost(q_lo, theta - dtheta)
                ) / (span / 2.0) ** 2
                if (cqq_hi - cqq_lo) / (2.0 * dtheta) < -tol:
                    convexity_increasing = False
    return SingleCrossingReport(convex, increasing, convexity_increasing)
