"""FMoreMechanism: the per-round six-step protocol with cost accounting.

Algorithm 1 of the paper wraps each federated-learning round with three
auction steps (bid ask, bid collection, winner determination) before the
familiar three learning steps (task assignment, local training, global
aggregation).  This module implements the protocol layer: it talks to
*bidding agents* (anything with a ``make_bid`` method — see
:class:`repro.mec.node.EdgeNode`), runs the auction and keeps byte/operation
accounting that backs the paper's lightweightness claim (Section III-A: the
extra exchange is "a few bytes" per node and total communication is linear
in N).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

import numpy as np

from .auction import AuctionOutcome, MultiDimensionalProcurementAuction
from .bids import Bid
from .policies import PolicyAction, RoundContext, RoundPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..strategic.policies import BidPolicy

__all__ = ["BiddingAgent", "RoundAccounting", "MechanismRound", "FMoreMechanism"]

# Wire-size constants for the accounting model (bytes).  A bid ask carries
# the scoring-rule coefficients and simple requirements; a bid carries m
# float64 qualities plus one float64 payment; node ids ride in headers.
BID_ASK_BYTES_PER_NODE = 64
FLOAT_BYTES = 8

_BATCH_SAFE_CACHE: dict[type, bool] = {}


def _batch_safe(cls: type) -> bool:
    """Whether ``cls`` may be priced through the batched fast path.

    The fast path replays ``make_bid``'s contract (``bid_inputs`` + solver
    batch pricing + IR check), so it is only valid when the most-derived
    ``make_bid`` is the one paired with a ``bid_inputs`` in the same class
    — a subclass that overrides ``make_bid`` alone (custom shading, extra
    abstention rules) must go through its own override, not be silently
    bypassed.  A class defining *both* methods asserts the pair is
    consistent, like :class:`repro.mec.node.EdgeNode` does.
    """
    cached = _BATCH_SAFE_CACHE.get(cls)
    if cached is None:
        cached = False
        for klass in cls.__mro__:
            if "make_bid" in vars(klass):
                cached = "bid_inputs" in vars(klass)
                break
        _BATCH_SAFE_CACHE[cls] = cached
    return cached


class BiddingAgent(Protocol):
    """Anything that can answer a bid ask.

    ``make_bid`` may return ``None`` to abstain (e.g. the node's IR
    constraint fails or it has no spare resources this round).

    Agents that additionally expose ``bid_inputs(round_index, rng) ->
    (theta, capacity)`` together with a ``solver`` carrying ``bid_batch``
    (see :class:`repro.mec.node.EdgeNode`) are priced in one vectorised
    solver call per round instead of one Python round-trip per agent.
    Such an agent's ``make_bid`` prices its one row through the same
    ``bid_batch``, so both paths give the same bid bit for bit.  The fast
    path engages only when the most-derived ``make_bid`` is defined by the
    same class as a ``bid_inputs`` (see ``_batch_safe``) — overriding
    ``make_bid`` alone opts a subclass back into the per-agent loop.
    """

    node_id: int

    def make_bid(self, round_index: int, rng: np.random.Generator) -> Bid | None:
        ...


@dataclass
class RoundAccounting:
    """Communication/computation bookkeeping for one auction round."""

    n_asked: int = 0
    n_bids: int = 0
    downlink_bytes: int = 0     # aggregator -> nodes (bid ask)
    uplink_bytes: int = 0       # nodes -> aggregator (sealed bids)
    comparisons: int = 0        # sorting work at the aggregator

    @property
    def total_bytes(self) -> int:
        return self.downlink_bytes + self.uplink_bytes


@dataclass
class MechanismRound:
    """Everything the mechanism produced in one round."""

    round_index: int
    outcome: AuctionOutcome
    accounting: RoundAccounting
    abstained: list[int] = field(default_factory=list)
    actions: list[PolicyAction] = field(default_factory=list)


class FMoreMechanism:
    """Drives steps 1-3 of Algorithm 1 for a population of bidding agents.

    The learning steps (4-6) belong to :mod:`repro.fl`; the federated
    trainer calls :meth:`run_round` to obtain the winner set, then trains.

    Parameters
    ----------
    auction:
        The winner-determination machinery (scoring, selection, payment).
    policies:
        An ordered :class:`~repro.core.policies.RoundPolicy` pipeline whose
        stage hooks wrap every round: ``on_round_start`` before the bid
        ask, ``filter_agents`` on the asked population, ``select_winners``
        as a per-round selection override, ``after_aggregate`` once the
        outcome is known.  Empty (the default) reproduces the historical
        protocol exactly — no hooks run, no policy randomness is consumed.
    policy_rng:
        The dedicated policy randomness stream (kept apart from the
        training stream so policy draws never perturb bids or tie-breaks).
        Defaults to a fixed-seed generator when policies are present.
    bid_policies:
        ``node_id -> BidPolicy`` for the *strategic* (non-truthful) slice
        of the population (see :mod:`repro.strategic.policies`).  Nodes
        absent from the mapping bid truthfully, unshaded; empty (the
        default) records no ``bid_payoff`` actions.
    bidding_rng:
        The strategic policies' randomness stream (the engine derives it
        from the ``bidding-{scheme}`` named stream).  Separate from both
        the training and the round-policy streams, and consumed only by
        policies that draw.  Defaults to a fixed-seed generator when a
        strategic slice is present.
    """

    def __init__(
        self,
        auction: MultiDimensionalProcurementAuction,
        policies: Sequence[RoundPolicy] = (),
        policy_rng: np.random.Generator | None = None,
        bid_policies: "Mapping[int, BidPolicy] | None" = None,
        bidding_rng: np.random.Generator | None = None,
    ):
        self.auction = auction
        self.policies = list(policies)
        if policy_rng is None and self.policies:
            policy_rng = np.random.default_rng(0)
        self.policy_rng = policy_rng
        self.bid_policies: dict[int, "BidPolicy"] = dict(bid_policies or {})
        if bidding_rng is None and self.bid_policies:
            bidding_rng = np.random.default_rng(0)
        self.bidding_rng = bidding_rng
        self.history: list[MechanismRound] = []
        # Per-round strategic bookkeeping (populated by _collect_bids only
        # when a strategic slice exists): (policy, [(node_id, cost,
        # submitted)]) per group in deterministic agent order, plus the
        # truthful remainder's entries under a None policy.
        self._strategic_round: list[tuple["BidPolicy | None", list[tuple[int, float, bool]]]] = []

    @property
    def bid_policy_seq(self) -> list["BidPolicy"]:
        """The distinct strategic policies, in first-node order.

        Deterministic (dicts preserve insertion order, and the engine
        assigns nodes in mix order), so checkpoint ``bid_policy_states``
        align positionally across save and restore.
        """
        return list(dict.fromkeys(self.bid_policies.values()))

    def attach_bid_policy(self, node_id: int, policy: "BidPolicy") -> None:
        """Route one node through ``policy`` (the gym's injection point)."""
        self.bid_policies[int(node_id)] = policy
        if self.bidding_rng is None:
            self.bidding_rng = np.random.default_rng(0)

    def run_round(
        self,
        agents: Sequence[BiddingAgent],
        round_index: int,
        rng: np.random.Generator,
    ) -> MechanismRound:
        """Broadcast the bid ask, collect sealed bids, determine winners.

        With policies installed the round runs as a pipeline: policies
        first see the round start, then filter the asked population, may
        override the winner-selection rule, and finally observe the
        outcome (auditing, guidance).  Without policies the body reduces
        to the classic three auction steps.
        """
        ctx: RoundContext | None = None
        selection = None
        asked: Sequence[BiddingAgent] = agents
        if self.policies:
            ctx = RoundContext(
                round_index=round_index,
                rng=self.policy_rng,
                mechanism=self,
                agents=list(agents),
            )
            for policy in self.policies:
                policy.on_round_start(ctx)
            for policy in self.policies:
                asked = policy.filter_agents(asked, ctx)
            asked = list(asked)
            for policy in self.policies:
                override = policy.select_winners(ctx)
                if override is not None:
                    selection = override

        accounting = RoundAccounting()
        accounting.n_asked = len(asked)
        accounting.downlink_bytes = BID_ASK_BYTES_PER_NODE * len(asked)

        bids: list[Bid] = []
        abstained: list[int] = []
        for bid, node_id in self._collect_bids(asked, round_index, rng):
            if bid is None:
                abstained.append(node_id)
                continue
            bids.append(bid)
            accounting.uplink_bytes += FLOAT_BYTES * (bid.n_dimensions + 1)
        accounting.n_bids = len(bids)

        # Pass the override only when one exists: duck-typed auctions
        # (e.g. BudgetedAuction) that predate the pipeline keep working
        # as long as no selection policy targets them.
        if selection is not None:
            outcome = self.auction.run(bids, rng, selection=selection)
        else:
            outcome = self.auction.run(bids, rng)
        n = max(len(bids), 1)
        # Comparison count of an O(n log n) sort — the aggregator's only
        # auction-side computation besides N score evaluations.
        accounting.comparisons = int(np.ceil(n * np.log2(n))) if n > 1 else 0

        record = MechanismRound(
            round_index,
            outcome,
            accounting,
            abstained,
            actions=ctx.actions if ctx is not None else [],
        )
        if self.bid_policies:
            self._dispatch_bid_feedback(record)
        if ctx is not None:
            for policy in self.policies:
                policy.after_aggregate(ctx, record)
        self.history.append(record)
        return record

    def _collect_bids(
        self,
        agents: Sequence[BiddingAgent],
        round_index: int,
        rng: np.random.Generator,
    ) -> list[tuple[Bid | None, int]]:
        """Sealed bids in agent order, batching solver-backed agents.

        RNG draws happen in a single pass over the agents (identical
        stream to calling ``make_bid`` per agent); the solver maths — the
        expensive part — is deferred and runs as one
        ``EquilibriumSolver.bid_batch`` call per ``(policy, solver)``
        group.  The truthful slice is the group with no policy: its bids
        go in as priced, under each node's IR check.  A strategic group's
        priced bids are handed to
        :meth:`~repro.strategic.policies.BidPolicy.shade`, re-costed, and
        IR-checked unless the policy opts out (``enforce_ir``).  The
        batch prices each row exactly as the agent's ``make_bid`` would.
        """
        entries: list[tuple[BiddingAgent, float, np.ndarray] | tuple[BiddingAgent, Bid | None]] = []
        groups: dict[tuple[int, int], tuple["BidPolicy | None", object, list[int]]] = {}
        for i, agent in enumerate(agents):
            solver = getattr(agent, "solver", None)
            if _batch_safe(type(agent)) and hasattr(solver, "bid_batch"):
                theta, capacity = agent.bid_inputs(round_index, rng)
                entries.append((agent, float(theta), np.asarray(capacity, dtype=float)))
                policy = self.bid_policies.get(agent.node_id)
                key = (id(policy), id(solver))
                groups.setdefault(key, (policy, solver, []))[2].append(i)
            else:
                entries.append((agent, agent.make_bid(round_index, rng)))

        resolved: dict[int, Bid | None] = {}
        truthful_info: list[tuple[int, float, bool]] = []
        self._strategic_round = []
        # Strategic groups first, in first-node order: they draw from the
        # bidding stream, and the round's feedback lists the truthful slice
        # after them.
        ordered = sorted(groups.values(), key=lambda group: group[0] is None)
        for policy, solver, idxs in ordered:
            thetas = np.asarray([entries[i][1] for i in idxs], dtype=float)
            caps = np.vstack([entries[i][2] for i in idxs])
            qualities, payments, costs = solver.bid_batch(thetas, caps, with_costs=True)
            enforce_ir = True
            info = truthful_info
            if policy is not None:
                from ..strategic.policies import BidBatch

                batch = BidBatch(
                    round_index=round_index,
                    node_ids=[entries[i][0].node_id for i in idxs],
                    thetas=thetas,
                    capacities=caps,
                    qualities=qualities,
                    payments=payments,
                    costs=costs,
                    bounds=np.asarray(solver.quality_bounds, dtype=float),
                )
                shaded_q, shaded_p = policy.shade(batch, self.bidding_rng)
                payments = np.asarray(shaded_p, dtype=float)
                if shaded_q is not qualities:
                    qualities = np.asarray(shaded_q, dtype=float)
                    costs = solver.cost.cost_rows(qualities, thetas)
                enforce_ir = bool(getattr(policy, "enforce_ir", True))
                info = []
                self._strategic_round.append((policy, info))
            margins = payments - costs
            for j, i in enumerate(idxs):
                agent = entries[i][0]
                min_margin = float(getattr(agent, "min_margin", 0.0))
                if enforce_ir and margins[j] < min_margin - 1e-12:
                    resolved[i] = None
                else:
                    resolved[i] = Bid(agent.node_id, qualities[j].copy(), float(payments[j]))
                info.append((agent.node_id, float(costs[j]), resolved[i] is not None))
        if self.bid_policies:
            self._strategic_round.append((None, truthful_info))

        out: list[tuple[Bid | None, int]] = []
        for i, entry in enumerate(entries):
            bid = resolved[i] if i in resolved else entry[1]
            out.append((bid, entry[0].node_id))
        return out

    def _dispatch_bid_feedback(self, record: MechanismRound) -> None:
        """Feed the round's outcome back to the strategic policies.

        Builds one :class:`~repro.strategic.policies.RoundFeedback` per
        policy group (win/loss, charged payments, counterfactual
        threshold = the minimum winning score) and files a single
        ``bid_payoff`` action aggregating every group's realized payoff —
        the truthful remainder included, so the IC comparison rides on
        the round record into manifests and the metrics frame.
        """
        from ..strategic.policies import RoundFeedback

        outcome = record.outcome
        charged = {w.node_id: float(w.charged_payment) for w in outcome.winners}
        threshold = (
            min(float(w.score) for w in outcome.winners)
            if outcome.winners
            else None
        )
        submitted_info = {
            sb.bid.node_id: (float(sb.score), float(sb.bid.payment))
            for sb in outcome.scored_bids
        }
        groups: dict[str, dict[str, float]] = {}
        for policy, info in self._strategic_round:
            if not info:
                continue
            node_ids = [node_id for node_id, _, _ in info]
            costs = np.asarray([cost for _, cost, _ in info], dtype=float)
            submitted = np.asarray(
                [node_id in submitted_info for node_id, _, ok in info], dtype=bool
            )
            costs = np.where(submitted, costs, 0.0)
            won = np.asarray([n in charged for n in node_ids], dtype=bool)
            payments = np.asarray([charged.get(n, 0.0) for n in node_ids])
            bid_payments = np.asarray(
                [submitted_info.get(n, (0.0, 0.0))[1] for n in node_ids]
            )
            values = np.asarray(
                [
                    submitted_info[n][0] + submitted_info[n][1]
                    if n in submitted_info
                    else 0.0
                    for n in node_ids
                ]
            )
            feedback = RoundFeedback(
                round_index=record.round_index,
                node_ids=node_ids,
                submitted=submitted,
                won=won,
                payments=payments,
                costs=costs,
                values=values,
                bid_payments=bid_payments,
                threshold=threshold,
            )
            if policy is not None:
                policy.observe(feedback, self.bidding_rng)
            payoffs = feedback.payoffs
            winner_payoffs = payoffs[won]
            label = "truthful" if policy is None else policy.label
            groups[label] = {
                "n": int(len(node_ids)),
                "bids": int(submitted.sum()),
                "winners": int(won.sum()),
                "paid": float(payments.sum()),
                "cost": float(costs[won].sum()),
                "payoff": float(payoffs.sum()),
                "min_payoff": float(winner_payoffs.min()) if won.any() else 0.0,
            }
        self._strategic_round = []
        record.actions.append(
            PolicyAction(
                kind="bid_payoff",
                round_index=record.round_index,
                payload={"threshold": threshold, "groups": groups},
            )
        )

    # ------------------------------------------------------------------
    # Aggregate accounting over all rounds (lightweightness evidence)
    # ------------------------------------------------------------------
    @property
    def total_auction_bytes(self) -> int:
        return sum(r.accounting.total_bytes for r in self.history)

    @property
    def total_payments(self) -> float:
        return float(sum(r.outcome.total_payment for r in self.history))

    def overhead_relative_to_model(self, model_bytes: int) -> float:
        """Auction bytes as a fraction of model-parameter traffic.

        The paper argues the bid exchange is negligible next to shipping
        model parameters; with per-round traffic ``K`` downloads + ``K``
        uploads of ``model_bytes`` this returns the measured ratio.

        Degenerate histories are handled consistently: with no model
        traffic at all (no rounds, no winners ever, or ``model_bytes=0``)
        the ratio is 0.0 when no auction bytes moved either, and
        ``float("inf")`` when the auction *did* move bytes against zero
        model traffic.
        """
        if not self.history:
            return 0.0
        k = max(
            (len(r.outcome.winners) for r in self.history), default=0
        )
        model_traffic = 2 * k * model_bytes * len(self.history)
        if model_traffic <= 0:
            return 0.0 if self.total_auction_bytes == 0 else float("inf")
        return self.total_auction_bytes / model_traffic
