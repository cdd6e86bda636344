"""Two-tier sharded auctions: FMore at MEC population scale.

The flat mechanism collects one bid per node and ranks all N of them —
fine at the paper's N~100, hopeless at N=10^5-10^6.  This module shards
the population into C edge clusters and runs the auction in two tiers,
the shape of hierarchical incentive mechanisms for MEC federated
learning (see PAPERS.md):

* **local tier** — every cluster runs the ordinary FMore winner
  determination over its own slice: members bid at the equilibrium of
  the *cluster* game ``(s, c, F, n_c, k_local)``.  The population is
  kept ordered by cluster size, each cluster's members contiguous, so
  one :meth:`~repro.core.equilibrium.EquilibriumSolver.bid_batch` call
  prices every node: qualities, costs and scores from the shared
  tables once, and the margin ``m(u)`` per run of equal-size clusters
  in that size's game (a memoised
  :meth:`~repro.core.equilibrium.EquilibriumSolver.with_population`
  clone).  One ``score_batch`` call scores every bid, and one
  :func:`~repro.core.auction.segmented_top_k` ranks every cluster's
  top ``k_local`` at once, one ``reduceat`` pass per rank;
* **top tier** — each non-empty cluster's head aggregates its local
  winners into one synthetic bid (summed score, summed quality vector,
  summed asking payment, taken as row sums of a ``(heads, k)`` gather)
  and the heads compete in a conventional auction for the
  ``k_clusters`` slots of the global round (top-K or psi admission, the
  auction's configured selection policy).

Both tiers rank by the auction's tie rule
(:func:`~repro.core.auction.descending_order`): higher score first, then
the smaller tie-break key drawn that round, then the lower index.

Every RNG draw happens up front, so the rest of the round is *pure
array math*, run inline: at N=10^5 the whole local ranking takes ~3 ms,
less than starting a pool to split it.

The population itself is a struct-of-arrays (:class:`ShardedPopulation`)
— no per-node Python objects exist until the final winners are
materialised — which is what keeps one round at N=10^6 within seconds
(see ``benchmarks/bench_hierarchical.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Sequence

import numpy as np

from .auction import MultiDimensionalProcurementAuction, segmented_top_k
from .auction import AuctionOutcome, descending_order
from .bids import AuctionWinner, Bid, ScoredBid
from .equilibrium import EquilibriumSolver
from .mechanism import (
    BID_ASK_BYTES_PER_NODE,
    FLOAT_BYTES,
    FMoreMechanism,
    MechanismRound,
    RoundAccounting,
)
from .policies import PolicyAction

__all__ = [
    "ShardedPopulation",
    "HierarchicalMechanism",
    "assign_clusters",
    "build_population",
]


def assign_clusters(
    n_nodes: int,
    count: int,
    size_dist: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Seeded cluster membership for ``n_nodes`` bidders.

    ``"uniform"`` spreads nodes evenly in expectation; ``"lognormal"``
    draws per-cluster weights from a log-normal so a few mega-clusters
    coexist with many small ones (the realistic MEC shape).  The draw
    consumes only the given ``rng`` — the engine derives it from the
    spec's ``assignment_seed``, *not* the run seed, so the partition is
    an experiment constant shared by every cell, wherever it runs.
    """
    if size_dist == "lognormal":
        weights = rng.lognormal(0.0, 1.0, int(count))
        weights = weights / weights.sum()
    elif size_dist == "uniform":
        weights = np.full(int(count), 1.0 / int(count))
    else:
        raise ValueError(f"unknown size_dist {size_dist!r}")
    return rng.choice(int(count), size=int(n_nodes), p=weights)


@dataclass
class ShardedPopulation:
    """The bidder population as aligned arrays, sharded into clusters.

    One entry per node; no :class:`~repro.mec.node.EdgeNode` objects are
    built.  ``thetas`` already carries the per-cluster skew and stays
    inside the type prior's support; ``data_sizes`` is in raw samples
    (divide by ``samples_per_quality_unit`` for the q1 quality unit).
    """

    node_ids: np.ndarray
    thetas: np.ndarray
    data_sizes: np.ndarray
    category_proportions: np.ndarray
    cluster_ids: np.ndarray
    cluster_count: int
    availability_min_fraction: float
    theta_jitter: float
    samples_per_quality_unit: float = 1000.0

    def __post_init__(self) -> None:
        n = len(self.node_ids)
        for name in ("thetas", "data_sizes", "category_proportions", "cluster_ids"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must align with node_ids (length {n})")
        order = np.argsort(self.cluster_ids, kind="stable")
        bounds = np.searchsorted(
            self.cluster_ids[order], np.arange(self.cluster_count + 1)
        )
        self._order, self._bounds = order, bounds

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def members(self) -> list[np.ndarray]:
        """Per-cluster member indices (into the population arrays)."""
        order, bounds = self._order, self._bounds
        return [order[bounds[c] : bounds[c + 1]] for c in range(self.cluster_count)]

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.diff(self._bounds)

    @cached_property
    def size_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The population ordered by cluster size, each cluster contiguous.

        Returns ``(rows, cids, starts)``: ``rows`` lists population
        indices, cluster ``cids[s]``'s members (ascending) at
        ``rows[starts[s]:starts[s+1]]``; the non-empty clusters run by
        ascending size, then cluster id.  Built on first use, not with
        the population.
        """
        sizes = self.cluster_sizes
        cids = np.argsort(sizes, kind="stable")
        cids = cids[sizes[cids] > 0]
        counts = sizes[cids]
        starts = np.concatenate([[0], np.cumsum(counts)])
        offsets = np.repeat(self._bounds[cids] - starts[:-1], counts)
        return self._order[offsets + np.arange(starts[-1])], cids, starts


def build_population(
    n_nodes: int,
    thetas: np.ndarray,
    size_range: tuple[int, int],
    clusters_spec: Mapping[str, Any],
    pop_rng: np.random.Generator,
    assign_rng: np.random.Generator,
    *,
    category_floor: float,
    availability_min_fraction: float,
    theta_jitter: float,
    theta_support: tuple[float, float],
    samples_per_quality_unit: float = 1000.0,
) -> ShardedPopulation:
    """Materialise a sharded population from a canonical ``clusters`` spec.

    The resource draws mirror the flat simulator's *laws* in vectorised
    form — log-uniform data sizes over ``size_range``, category
    proportions in ``[category_floor, 1]`` — then the per-cluster skews
    are applied: ``theta_skew`` shifts each cluster's types by a common
    normal offset (clipped back into the prior support, where the
    cluster-game solvers are defined) and ``capacity_skew`` scales each
    cluster's data holdings by a common log-normal factor (clipped back
    into ``size_range``).  Cluster membership draws from ``assign_rng``
    only, so the partition depends on ``assignment_seed`` alone.
    """
    n = int(n_nodes)
    lo, hi = float(size_range[0]), float(size_range[1])
    data_sizes = np.round(np.exp(pop_rng.uniform(np.log(lo), np.log(hi), n)))
    cats = pop_rng.uniform(min(category_floor, 1.0), 1.0, n)
    count = int(clusters_spec["count"])
    cluster_ids = assign_clusters(
        n, count, str(clusters_spec["size_dist"]), assign_rng
    )
    # Per-cluster skews are drawn unconditionally so the pop stream's
    # position never depends on whether a skew happens to be zero.
    theta_offsets = pop_rng.normal(0.0, 1.0, count)
    capacity_factors = pop_rng.normal(0.0, 1.0, count)
    t_lo, t_hi = float(theta_support[0]), float(theta_support[1])
    thetas = np.asarray(thetas, dtype=float)
    theta_skew = float(clusters_spec["theta_skew"])
    if theta_skew > 0.0:
        thetas = np.clip(thetas + theta_skew * theta_offsets[cluster_ids], t_lo, t_hi)
    else:
        thetas = np.clip(thetas, t_lo, t_hi)
    capacity_skew = float(clusters_spec["capacity_skew"])
    if capacity_skew > 0.0:
        factors = np.exp(capacity_skew * capacity_factors)
        data_sizes = np.clip(np.round(data_sizes * factors[cluster_ids]), lo, hi)
    return ShardedPopulation(
        node_ids=np.arange(n, dtype=np.int64),
        thetas=thetas,
        data_sizes=data_sizes,
        category_proportions=cats,
        cluster_ids=cluster_ids,
        cluster_count=count,
        availability_min_fraction=float(availability_min_fraction),
        theta_jitter=float(theta_jitter),
        samples_per_quality_unit=float(samples_per_quality_unit),
    )


class HierarchicalMechanism(FMoreMechanism):
    """The two-tier protocol over a :class:`ShardedPopulation`.

    Subclasses :class:`~repro.core.mechanism.FMoreMechanism` so the
    engine's checkpoint/resume path (which captures policy and bidding
    state from the mechanism) works unchanged — a hierarchical round
    keeps all of its state in the training RNG stream, so snapshotting
    between rounds restores bitwise.

    A round is loop-free over clusters: one ``bid_batch`` call prices the
    size-ordered population, one segmented top-``k_local`` ranks every
    cluster, and the head tier is built from row sums of the winners'
    gathered scores, qualities and payments.

    Parameters
    ----------
    auction:
        The *top-tier* auction: its ``k_winners`` is the number of
        clusters admitted per round and its selection policy (top-K or
        psi) arbitrates among cluster heads.  Member scoring uses its
        quasi-linear scoring rule.
    population:
        The sharded bidder population (shared across rounds; per-round
        dynamics are drawn fresh from the training RNG).
    solver:
        The population-level equilibrium solver; each cluster's game is
        its ``(cluster size, min(k_local, size))`` clone, memoised on the
        solver (:meth:`~repro.core.equilibrium.EquilibriumSolver.clone_for`)
        so every session of the game reuses it.
    k_local:
        Winners each cluster's local auction forwards to its head.
    """

    def __init__(
        self,
        auction: MultiDimensionalProcurementAuction,
        population: ShardedPopulation,
        solver: EquilibriumSolver,
        k_local: int,
    ):
        super().__init__(auction)
        self.population = population
        self.solver = solver
        self.k_local = int(k_local)
        if self.k_local < 1:
            raise ValueError("k_local must be >= 1")
        self._ranges: list[tuple[int, EquilibriumSolver]] | None = None

    def _size_ranges(self) -> list[tuple[int, EquilibriumSolver]]:
        """``bid_batch`` ranges of :attr:`ShardedPopulation.size_order`:
        one ``(stop, clone)`` per run of equal-size clusters."""
        if self._ranges is None:
            _, _, starts = self.population.size_order
            # Sizes ascend, so each size's clusters form one run.
            sizes, first = np.unique(np.diff(starts), return_index=True)
            stops = starts[np.append(first[1:], starts.size - 1)]
            self._ranges = [
                (int(stop), self.solver.clone_for(size, min(self.k_local, size)))
                for size, stop in zip(sizes.tolist(), stops)
            ]
        return self._ranges

    def run_round(
        self,
        agents: Sequence,
        round_index: int,
        rng: np.random.Generator,
    ) -> MechanismRound:
        """One two-tier round; ``agents`` is ignored (the population bids).

        All randomness — availability fractions, per-round theta
        re-estimates, member and head tie-break keys, the head-tier
        admission draw — is consumed here from ``rng`` in a fixed order;
        the rest is deterministic array work.
        """
        pop = self.population
        n = pop.n_nodes
        dist = self.solver.model.distribution
        # -- per-round dynamics (vectorised, fixed draw order) -----------
        fracs = rng.uniform(pop.availability_min_fraction, 1.0, n)
        if pop.theta_jitter > 0.0:
            width = (dist.hi - dist.lo) * pop.theta_jitter
            thetas = np.clip(
                pop.thetas + rng.uniform(-width, width, n), dist.lo, dist.hi
            )
        else:
            thetas = pop.thetas
        member_tiebreak = rng.random(n)
        head_tiebreak = rng.random(pop.cluster_count)

        # -- equilibrium pricing: one bid_batch over the size-ordered rows -
        # Everything below indexes rows of ``size_order``, not node ids.
        rows, cids, starts = pop.size_order
        caps = np.column_stack(
            [
                np.floor(pop.data_sizes[rows] * fracs[rows])
                / pop.samples_per_quality_unit,
                pop.category_proportions[rows],
            ]
        )
        qualities, payments, costs = self.solver.bid_batch(
            thetas[rows], caps, with_costs=True, ranges=self._size_ranges()
        )
        eligible = (payments - costs) >= -1e-12
        scores = self.auction.scoring.score_batch(qualities, payments)

        # -- local tier: one segmented top-k_local over the live rows -----
        live = np.flatnonzero(eligible)
        live_before = np.concatenate([[0], np.cumsum(eligible)])[starts]
        live_counts = np.diff(live_before)
        bidding = np.flatnonzero(live_counts)
        picks = segmented_top_k(
            scores[live],
            member_tiebreak[rows[live]],
            live_before[bidding],
            self.k_local,
        )
        # Heads in cluster-id order, as the head auction ranks them.
        by_cid = np.argsort(cids[bidding])
        bidding, picks = bidding[by_cid], picks[by_cid]
        head_cids = cids[bidding]
        local = np.where(picks >= 0, live[picks], -1)
        n_local = np.minimum(self.k_local, live_counts[bidding])

        # -- top tier: cluster heads compete for k_clusters slots ----------
        m = qualities.shape[1]
        head_scores = np.empty(head_cids.size)
        head_payments = np.empty(head_cids.size)
        head_qualities = np.empty((head_cids.size, m))
        for w in np.unique(n_local):
            # Row sums of a (heads, w) gather equal each head's own 1-D
            # .sum() bitwise; np.add.reduceat would not.
            heads = np.flatnonzero(n_local == w)
            gathered = local[heads, :w]
            head_scores[heads] = scores[gathered].sum(axis=1)
            head_payments[heads] = payments[gathered].sum(axis=1)
            head_qualities[heads] = qualities[gathered].sum(axis=1)
        head_order = descending_order(head_scores, head_tiebreak[head_cids])
        scored_heads = [
            # synthetic node ids -(cid + 1) never collide with nodes
            ScoredBid(Bid(node_id=node_id, quality=quality, payment=payment), score)
            for node_id, quality, payment, score in zip(
                (-(head_cids[head_order] + 1)).tolist(),
                head_qualities[head_order],
                head_payments[head_order].tolist(),
                head_scores[head_order].tolist(),
            )
        ]
        positions = self.auction.selection.select(
            len(scored_heads), self.auction.k_winners, rng
        )

        # -- materialise the global winner set (pay-as-bid) ----------------
        winners: list[AuctionWinner] = []
        selected_cids: list[int] = []
        for pos in positions:
            head = head_order[pos]
            selected_cids.append(int(head_cids[head]))
            for j in local[head, : n_local[head]]:
                winners.append(
                    AuctionWinner(
                        node_id=int(pop.node_ids[rows[j]]),
                        quality=qualities[j].copy(),
                        asked_payment=float(payments[j]),
                        charged_payment=float(payments[j]),
                        score=float(scores[j]),
                        rank=len(winners),
                    )
                )
        outcome = AuctionOutcome(
            winners, scored_heads, self.auction.k_winners, self.auction.payment_rule
        )

        # -- accounting + the per-tier action record -----------------------
        n_bids = int(eligible.sum())
        sorting = live_counts[live_counts > 1]
        n_heads = len(scored_heads)
        accounting = RoundAccounting(
            n_asked=n,
            n_bids=n_bids,
            downlink_bytes=BID_ASK_BYTES_PER_NODE * n,
            uplink_bytes=FLOAT_BYTES * (m + 1) * n_bids,
            comparisons=int(
                np.ceil(sorting * np.log2(sorting)).sum()
                + (np.ceil(n_heads * np.log2(n_heads)) if n_heads > 1 else 0)
            ),
        )
        sizes = pop.cluster_sizes
        action = PolicyAction(
            kind="cluster_round",
            round_index=round_index,
            payload={
                "clusters": int(pop.cluster_count),
                "bidding_clusters": int(head_cids.size),
                "selected": selected_cids,
                "k_local": self.k_local,
                "n_local_winners": len(winners),
                "head_payment": float(sum(w.charged_payment for w in winners)),
                "mean_cluster_size": float(sizes.mean()) if sizes.size else 0.0,
            },
        )
        record = MechanismRound(
            round_index, outcome, accounting, abstained=[], actions=[action]
        )
        self.history.append(record)
        return record
