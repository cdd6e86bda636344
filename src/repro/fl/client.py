"""Federated-learning clients: local training on (declared) local data.

A winner of the auction trains the global model on its local data with the
*declared* resources (Algorithm 1, lines 12-16).  If the equilibrium bid
declared fewer samples than the node holds (the node trades quality for
cost), training runs on a class-stratified subset of the declared size —
the incentive-compatibility property guarantees over-declaring never helps,
and the blacklist assumption covers under-delivery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Sequential
from .partition import ClientData

__all__ = ["LocalUpdate", "FLClient"]


@dataclass
class LocalUpdate:
    """What a client ships back to the aggregator after local training."""

    client_id: int
    weights: list[np.ndarray]
    n_samples: int
    train_loss: float


class FLClient:
    """One edge participant's learning half (the bidding half lives in
    :class:`repro.mec.node.EdgeNode`)."""

    def __init__(
        self,
        data: ClientData,
        local_epochs: int = 1,
        batch_size: int = 32,
        max_batches_per_round: int | None = None,
    ):
        """``max_batches_per_round`` caps local SGD steps per round.

        Data-rich winners would otherwise take many more local steps than
        small clients, drifting far from the global model under non-IID
        data before FedAvg can average them (the classic client-drift
        pathology).  With a cap, a big node's advantage comes from *sample
        diversity* — each round it exposes a fresh subset of its larger
        pool — which is the effect the paper's selection exploits.
        """
        if local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_batches_per_round is not None and max_batches_per_round < 1:
            raise ValueError("max_batches_per_round must be >= 1 or None")
        self.data = data
        self.local_epochs = int(local_epochs)
        self.batch_size = int(batch_size)
        self.max_batches_per_round = (
            int(max_batches_per_round) if max_batches_per_round is not None else None
        )

    @property
    def client_id(self) -> int:
        return self.data.client_id

    def train(
        self,
        scratch_model: Sequential,
        global_weights: list[np.ndarray],
        rng: np.random.Generator,
        declared_samples: int | None = None,
    ) -> LocalUpdate:
        """Run Eq. 2 locally and return the updated weights.

        ``scratch_model`` is a shared architecture replica owned by the
        trainer; its parameters are overwritten with the global weights
        before training, so no state leaks between clients.
        """
        if self.data.size == 0:
            return LocalUpdate(self.client_id, [w.copy() for w in global_weights], 0, 0.0)
        scratch_model.set_weights(global_weights)
        scratch_model.optimizer.reset()
        if declared_samples is None or declared_samples >= self.data.size:
            x, y = self.data.x, self.data.y
        else:
            x, y = self.data.subset(declared_samples, rng)
        declared_count = int(y.shape[0])
        if self.max_batches_per_round is not None:
            cap = self.max_batches_per_round * self.batch_size
            if x.shape[0] > cap:
                take = rng.choice(x.shape[0], size=cap, replace=False)
                x, y = x[take], y[take]
        loss = scratch_model.fit(
            x,
            y,
            epochs=self.local_epochs,
            batch_size=self.batch_size,
            shuffle_rng=rng,
        )
        # FedAvg weighting (Eq. 3) uses the *declared* data size D_i even
        # when step-capping subsampled the round's mini-batches.
        return LocalUpdate(self.client_id, scratch_model.get_weights(), declared_count, loss)
