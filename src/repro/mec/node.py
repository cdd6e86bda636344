"""EdgeNode: the bidding half of an MEC participant.

An :class:`EdgeNode` owns a private cost type ``theta``, a resource
endowment with dynamics, and a reference to the population's
:class:`~repro.core.equilibrium.EquilibriumSolver` (the common-knowledge
game).  Each round it answers the aggregator's bid ask with the Nash
equilibrium bid capped by its currently-available resources — or abstains
when the individual-rationality constraint fails (Eq. 5: nodes never
participate at negative profit).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.bids import Bid
from ..core.equilibrium import EquilibriumSolver
from .resources import ResourceDynamics, ResourceProfile, StaticDynamics

__all__ = ["EdgeNode", "default_quality_extractor"]


def default_quality_extractor(profile: ResourceProfile) -> np.ndarray:
    """Map a profile to the simulator's 2-D quality ``(data_k, categories)``.

    ``q1`` is the data size in thousands of samples (the paper's simulator
    scores raw data size; kilosamples keep the solver grids well-scaled)
    and ``q2`` the category proportion in ``(0, 1]``.
    """
    return np.asarray(
        [profile.data_size / 1000.0, profile.category_proportion], dtype=float
    )


class EdgeNode:
    """A rational MEC participant bidding at equilibrium.

    Parameters
    ----------
    node_id:
        Shared with the matching :class:`~repro.fl.client.FLClient`.
    theta:
        The node's private cost parameter (drawn from the common prior).
    solver:
        Equilibrium strategy tables for the advertised game ``(s, c, F, N, K)``.
    profile:
        Nominal resource endowment.
    dynamics:
        Availability process (static by default).
    quality_extractor:
        Maps an available :class:`ResourceProfile` to the capacity vector in
        quality units (defaults to the 2-D simulator mapping).
    min_margin:
        Abstention threshold: bids whose expected margin falls below this
        are withheld (IR; default exactly 0).
    theta_jitter:
        Per-round re-estimation of the private cost parameter, as a
        fraction of the type-support width.  The walk-through example
        (Section III-B) lists "the private cost parameter theta is
        reestimated and revised" among the reasons bids change between
        rounds; the jitter reproduces that dynamic (and the winner churn it
        induces).  0 disables it.
    """

    def __init__(
        self,
        node_id: int,
        theta: float,
        solver: EquilibriumSolver,
        profile: ResourceProfile,
        dynamics: ResourceDynamics | None = None,
        quality_extractor: Callable[[ResourceProfile], np.ndarray] | None = None,
        min_margin: float = 0.0,
        theta_jitter: float = 0.0,
    ):
        if not (0.0 <= theta_jitter <= 1.0):
            raise ValueError("theta_jitter must lie in [0, 1]")
        self.node_id = int(node_id)
        self.theta = float(theta)
        self.solver = solver
        self.profile = profile
        self.dynamics = dynamics if dynamics is not None else StaticDynamics()
        self.quality_extractor = (
            quality_extractor if quality_extractor is not None else default_quality_extractor
        )
        self.min_margin = float(min_margin)
        self.theta_jitter = float(theta_jitter)
        self.last_available: ResourceProfile = profile

    def available_profile(
        self, round_index: int, rng: np.random.Generator
    ) -> ResourceProfile:
        """Resources free this round (also cached for the timing model)."""
        self.last_available = self.dynamics.availability(self.profile, round_index, rng)
        return self.last_available

    def effective_theta(self, rng: np.random.Generator) -> float:
        """This round's re-estimated cost parameter (Section III-B)."""
        if self.theta_jitter <= 0.0:
            return self.theta
        dist = self.solver.model.distribution
        width = (dist.hi - dist.lo) * self.theta_jitter
        return float(
            np.clip(self.theta + rng.uniform(-width, width), dist.lo, dist.hi)
        )

    def bid_inputs(
        self, round_index: int, rng: np.random.Generator
    ) -> tuple[float, np.ndarray]:
        """This round's ``(theta, capacity)`` — the rng-consuming half of a bid.

        Draws the round's resource availability and re-estimated type in
        the same order :meth:`make_bid` always has, then stops *before*
        the solver maths.  :class:`~repro.core.mechanism.FMoreMechanism`
        calls this for every agent and prices all collected inputs in one
        vectorised ``EquilibriumSolver.bid_batch`` call per group.
        """
        available = self.available_profile(round_index, rng)
        capacity = np.asarray(self.quality_extractor(available), dtype=float)
        theta = self.effective_theta(rng)
        return theta, capacity

    def make_bid(self, round_index: int, rng: np.random.Generator) -> Bid | None:
        """Answer a bid ask with the capacity-capped equilibrium bid.

        The bid is one row of ``bid_batch``, the call the mechanism prices
        a whole round with.  Returns ``None`` (abstains) when its margin
        over its own cost is below ``min_margin`` — individual rationality.
        """
        theta, capacity = self.bid_inputs(round_index, rng)
        qualities, payments, costs = self.solver.bid_batch(
            [theta], np.asarray(capacity, dtype=float)[np.newaxis], with_costs=True
        )
        if payments[0] - costs[0] < self.min_margin - 1e-12:
            return None
        return Bid(self.node_id, qualities[0], float(payments[0]))

    def profit_if_paid(self, quality: np.ndarray, payment: float) -> float:
        """Realised profit ``p - c(q, theta)`` for an awarded contract."""
        return float(payment - self.solver.cost.cost(quality, self.theta))
