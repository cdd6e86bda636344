"""Private-value model: distributions of the cost parameter ``theta``.

The paper adopts the independent private value model (Section II-A): each
edge node's type ``theta_i`` is drawn i.i.d. from a distribution with CDF
``F`` supported on ``[theta_lo, theta_hi]`` with ``0 < theta_lo < theta_hi``,
and a positive, continuously differentiable density ``f``.  Nodes learn
``F`` from historical data; the aggregator knows ``F`` but not the realised
``theta_i``.

The equilibrium machinery only touches distributions through this small
interface (``cdf``, ``pdf``, ``ppf``, ``sample``), so adding a new family is
a three-method exercise.  The two scipy-backed families import
``scipy.stats`` when one is built, so runs on the uniform family never load
scipy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .registry import THETA_DISTRIBUTIONS

__all__ = [
    "ThetaDistribution",
    "UniformTheta",
    "TruncatedNormalTheta",
    "ScaledBetaTheta",
    "PrivateValueModel",
]


class ThetaDistribution(ABC):
    """A distribution for the private cost parameter on ``[lo, hi]``."""

    def __init__(self, lo: float, hi: float):
        if not (0.0 < lo < hi < np.inf):
            raise ValueError("support must satisfy 0 < lo < hi < inf")
        self.lo = float(lo)
        self.hi = float(hi)

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @abstractmethod
    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """``F(x)``, clipped to [0, 1] outside the support."""

    @abstractmethod
    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """``f(x)``, zero outside the support."""

    @abstractmethod
    def ppf(self, u: np.ndarray | float) -> np.ndarray | float:
        """Quantile function ``F^{-1}(u)``."""

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw i.i.d. types via inverse-transform sampling."""
        u = rng.random(size)
        return self.ppf(u)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(lo={self.lo}, hi={self.hi})"


@THETA_DISTRIBUTIONS.register("uniform")
class UniformTheta(ThetaDistribution):
    """``theta ~ Uniform[lo, hi]`` — the workhorse of the simulations."""

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return out if out.ndim else float(out)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        out = np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        return out if out.ndim else float(out)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        out = self.lo + np.clip(u, 0.0, 1.0) * (self.hi - self.lo)
        return out if out.ndim else float(out)


@THETA_DISTRIBUTIONS.register("truncated_normal")
class TruncatedNormalTheta(ThetaDistribution):
    """Normal(mu, sigma) truncated to ``[lo, hi]``.

    Models populations where most nodes cluster around a typical cost with
    thinner tails of very cheap / very expensive providers.
    """

    def __init__(self, lo: float, hi: float, mu: float | None = None, sigma: float | None = None):
        super().__init__(lo, hi)
        self.mu = float(mu) if mu is not None else 0.5 * (lo + hi)
        self.sigma = float(sigma) if sigma is not None else (hi - lo) / 4.0
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        from scipy import stats

        a = (self.lo - self.mu) / self.sigma
        b = (self.hi - self.mu) / self.sigma
        self._dist = stats.truncnorm(a, b, loc=self.mu, scale=self.sigma)

    def cdf(self, x):
        out = np.clip(self._dist.cdf(x), 0.0, 1.0)
        return out if np.ndim(out) else float(out)

    def pdf(self, x):
        out = self._dist.pdf(x)
        return out if np.ndim(out) else float(out)

    def ppf(self, u):
        out = self._dist.ppf(np.clip(u, 0.0, 1.0))
        return out if np.ndim(out) else float(out)


@THETA_DISTRIBUTIONS.register("scaled_beta")
class ScaledBetaTheta(ThetaDistribution):
    """Beta(a, b) rescaled onto ``[lo, hi]``.

    Skewed choices (e.g. ``a=2, b=5``) capture markets dominated by low-cost
    nodes, the regime where auctions help the aggregator most.
    """

    def __init__(self, lo: float, hi: float, a: float = 2.0, b: float = 2.0):
        super().__init__(lo, hi)
        if a <= 0 or b <= 0:
            raise ValueError("beta shape parameters must be positive")
        from scipy import stats

        self.a = float(a)
        self.b = float(b)
        self._dist = stats.beta(self.a, self.b)

    def _to_unit(self, x):
        return (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo)

    def cdf(self, x):
        out = np.clip(self._dist.cdf(self._to_unit(x)), 0.0, 1.0)
        return out if np.ndim(out) else float(out)

    def pdf(self, x):
        out = self._dist.pdf(self._to_unit(x)) / (self.hi - self.lo)
        return out if np.ndim(out) else float(out)

    def ppf(self, u):
        out = self.lo + self._dist.ppf(np.clip(u, 0.0, 1.0)) * (self.hi - self.lo)
        return out if np.ndim(out) else float(out)


@dataclass
class PrivateValueModel:
    """Bundle of the type distribution and population size.

    This is the common knowledge of the game: every node knows ``F`` (and
    hence can compute the equilibrium), the number of competitors ``n_nodes``
    and the advertised number of winners ``k_winners``.
    """

    distribution: ThetaDistribution
    n_nodes: int
    k_winners: int

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if not (1 <= self.k_winners <= self.n_nodes):
            raise ValueError("k_winners must satisfy 1 <= K <= N")

    def sample_types(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one type per node."""
        return np.asarray(self.distribution.sample(rng, self.n_nodes), dtype=float)
