"""The federated training loop tying selection, clients and FedAvg together.

One :class:`FederatedTrainer` run is one curve of the paper's figures: a
scheme (RandFL / FixFL / FMore / psi-FMore) driving T rounds of
select -> local train -> aggregate -> evaluate, with optional wall-clock
accounting supplied by a :class:`RoundTimer` (the MEC cluster's timing
model, for the "real-world" Figs 12-13).

The paper's Algorithm 1 trains the K winners *in parallel* on their edge
nodes.  The simulator models that in time, not in compute: the winners
train one after another on the round stream, and a :class:`RoundTimer`
such as :class:`~repro.mec.cluster.SimulatedCluster` charges the round
its slowest winner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

import numpy as np

from .client import FLClient, LocalUpdate
from .metrics import rounds_to_accuracy
from .selection import SelectionResult, SelectionStrategy
from .server import FedAvgServer

__all__ = ["RoundTimer", "RoundRecord", "TrainingHistory", "FederatedTrainer"]


class RoundTimer(Protocol):
    """Computes the simulated wall-clock duration of one round."""

    def round_time(
        self,
        winner_ids: Sequence[int],
        declared_samples: dict[int, int],
        model_bytes: int,
        local_epochs: int,
    ) -> float:
        ...


@dataclass
class RoundRecord:
    """Everything measured in one training round."""

    round_index: int
    accuracy: float
    loss: float
    winner_ids: list[int]
    total_payment: float
    scores: dict[int, float] = field(default_factory=dict)
    winner_ranks: dict[int, int] = field(default_factory=dict)
    all_scores: list[float] = field(default_factory=list)
    mean_train_loss: float = 0.0
    round_seconds: float = 0.0
    # Per-winner charged payments (auction schemes only).
    payments: dict[int, float] = field(default_factory=dict)
    # Round-policy decisions (see repro.core.policies.PolicyAction).
    policy_actions: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """A plain JSON-able dict; exact inverse of :meth:`from_dict`.

        Mapping keys become strings (JSON has no int keys) and numpy
        scalars collapse to Python numbers, so a dumped record reloads
        equal to the original — the round-trip the experiment store's
        manifests rely on.
        """
        return {
            "round_index": int(self.round_index),
            "accuracy": float(self.accuracy),
            "loss": float(self.loss),
            "winner_ids": [int(w) for w in self.winner_ids],
            "total_payment": float(self.total_payment),
            "scores": {str(int(k)): float(v) for k, v in self.scores.items()},
            "winner_ranks": {
                str(int(k)): int(v) for k, v in self.winner_ranks.items()
            },
            "all_scores": [float(s) for s in self.all_scores],
            "mean_train_loss": float(self.mean_train_loss),
            "round_seconds": float(self.round_seconds),
            "payments": {str(int(k)): float(v) for k, v in self.payments.items()},
            "policy_actions": [a.to_dict() for a in self.policy_actions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RoundRecord":
        from ..core.policies import PolicyAction

        return cls(
            round_index=int(data["round_index"]),
            accuracy=float(data["accuracy"]),
            loss=float(data["loss"]),
            winner_ids=[int(w) for w in data["winner_ids"]],
            total_payment=float(data["total_payment"]),
            scores={int(k): float(v) for k, v in data["scores"].items()},
            winner_ranks={int(k): int(v) for k, v in data["winner_ranks"].items()},
            all_scores=[float(s) for s in data["all_scores"]],
            mean_train_loss=float(data["mean_train_loss"]),
            round_seconds=float(data["round_seconds"]),
            payments={int(k): float(v) for k, v in data["payments"].items()},
            policy_actions=[
                PolicyAction.from_dict(a) for a in data["policy_actions"]
            ],
        )


@dataclass
class TrainingHistory:
    """Per-round series for one scheme — the unit the figures plot."""

    scheme: str
    records: list[RoundRecord] = field(default_factory=list)

    @property
    def accuracies(self) -> list[float]:
        return [r.accuracy for r in self.records]

    @property
    def losses(self) -> list[float]:
        return [r.loss for r in self.records]

    @property
    def cumulative_seconds(self) -> list[float]:
        total = 0.0
        out: list[float] = []
        for r in self.records:
            total += r.round_seconds
            out.append(total)
        return out

    @property
    def total_payment(self) -> float:
        return float(sum(r.total_payment for r in self.records))

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].accuracy if self.records else 0.0

    def rounds_to(self, target_accuracy: float) -> int | None:
        return rounds_to_accuracy(self.accuracies, target_accuracy)

    def winner_counts(self) -> dict[int, int]:
        """How often each node won — Fig 11b's selection-proportion data."""
        counts: dict[int, int] = {}
        for r in self.records:
            for w in r.winner_ids:
                counts[w] = counts.get(w, 0) + 1
        return counts

    def to_dict(self) -> dict:
        """JSON-able form (see :meth:`RoundRecord.to_dict`)."""
        return {
            "scheme": self.scheme,
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingHistory":
        return cls(
            scheme=str(data["scheme"]),
            records=[RoundRecord.from_dict(r) for r in data["records"]],
        )


class FederatedTrainer:
    """Run ``n_rounds`` of federated learning under one selection scheme."""

    def __init__(
        self,
        server: FedAvgServer,
        clients: Sequence[FLClient] | Mapping[int, FLClient],
        selection: SelectionStrategy,
        test_x: np.ndarray,
        test_y: np.ndarray,
        rng: np.random.Generator,
        timer: RoundTimer | None = None,
    ):
        self.server = server
        if isinstance(clients, Mapping):
            # Pre-keyed pools (e.g. the hierarchical variant's bounded FL
            # pool, which resolves out-of-pool winner ids itself) are
            # adopted as-is.
            self.clients = clients
        else:
            self.clients = {c.client_id: c for c in clients}
            if len(self.clients) != len(clients):
                raise ValueError("duplicate client ids")
        self.selection = selection
        self.test_x = test_x
        self.test_y = test_y
        self.rng = rng
        self.timer = timer
        # One scratch replica shared across clients: weights are overwritten
        # before every local run, so no state can leak between clients.
        self._scratch = server.model.clone_architecture(rng)

    def _client_for(self, wid: int) -> FLClient:
        """The client registered for a winner id, or a diagnosable error."""
        try:
            return self.clients[wid]
        except KeyError:
            raise ValueError(
                f"selection returned winner id {wid}, but no FL client is "
                f"registered under that id ({len(self.clients)} clients known)"
            ) from None

    def run_round(self, round_index: int) -> RoundRecord:
        sel: SelectionResult = self.selection.select(round_index, self.rng)
        global_weights = self.server.broadcast()
        updates: list[LocalUpdate] = []
        local_epochs = 1
        # Every local run draws from the shared round stream, in winner order.
        for wid in sel.winner_ids:
            client = self._client_for(wid)
            local_epochs = client.local_epochs
            declared = sel.declared_samples.get(wid)
            updates.append(
                client.train(self._scratch, global_weights, self.rng, declared)
            )
        if updates:
            self.server.aggregate(updates)
        loss, accuracy = self.server.evaluate(self.test_x, self.test_y)
        seconds = 0.0
        if self.timer is not None:
            seconds = self.timer.round_time(
                sel.winner_ids,
                {u.client_id: u.n_samples for u in updates},
                self.server.model_bytes,
                local_epochs,
            )
        winner_ranks: dict[int, int] = {}
        all_scores: list[float] = []
        if sel.outcome is not None:
            positions = {
                sb.node_id: pos for pos, sb in enumerate(sel.outcome.scored_bids)
            }
            winner_ranks = {wid: positions[wid] for wid in sel.winner_ids if wid in positions}
            all_scores = [sb.score for sb in sel.outcome.scored_bids]
        return RoundRecord(
            round_index=round_index,
            accuracy=accuracy,
            loss=loss,
            winner_ids=list(sel.winner_ids),
            total_payment=sel.total_payment,
            scores=dict(sel.scores),
            winner_ranks=winner_ranks,
            all_scores=all_scores,
            mean_train_loss=float(np.mean([u.train_loss for u in updates])) if updates else 0.0,
            round_seconds=float(seconds),
            payments=dict(sel.payments),
            policy_actions=list(sel.actions),
        )

    def run(self, n_rounds: int) -> TrainingHistory:
        """Algorithm 1's outer loop: ``n_rounds`` rounds of train+aggregate."""
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        history = TrainingHistory(scheme=self.selection.name)
        for t in range(1, n_rounds + 1):
            history.records.append(self.run_round(t))
        return history
