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

__all__ = ["LocalPlan", "LocalUpdate", "FLClient", "train_cohort"]


@dataclass
class LocalPlan:
    """One winner's local run, drawn before any of a round's training.

    ``batches`` holds one ``(rows of x, generator)`` pair per SGD step:
    the rows of the step's mini-batch and the generator its Dropout masks
    come from, positioned where that epoch's masks start in the round
    stream.
    """

    client_id: int
    n_samples: int
    x: np.ndarray
    y: np.ndarray
    batches: list[tuple[np.ndarray, np.random.Generator]]


@dataclass
class LocalUpdate:
    """What a client ships back to the aggregator after local training."""

    client_id: int
    weights: list[np.ndarray]
    n_samples: int
    train_loss: float


class FLClient:
    """One edge participant's learning half (the bidding half lives in
    :class:`repro.mec.node.EdgeNode`).

    :meth:`train` plans the client's local run on the round stream; the
    round's plans then train together (:func:`train_cohort`), stacked
    step by step with the members whose next batch has the same size, up
    to a byte bound on a step's cached activations.
    """

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
        rng: np.random.Generator,
        declared_samples: int | None = None,
    ) -> LocalPlan:
        """Draw this winner's run of Eq. 2 from the round stream ``rng``.

        The draws are those of training ``scratch_model`` (the trainer's
        replica, whose Dropout layers draw from ``rng``) on the declared
        data: the subset, the step-cap sample, then per epoch the shuffle
        and the masks.  The masks are not drawn here.  Each epoch's plan
        keeps a generator where its masks start and moves ``rng`` past
        them, so the next winner draws from where it would after this one
        trained.  An empty client plans no step and draws nothing.
        """
        if self.data.size == 0:
            return LocalPlan(self.client_id, 0, self.data.x, self.data.y, [])
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
        n, size = x.shape[0], self.batch_size
        batches = []
        for _ in range(self.local_epochs):
            order = rng.permutation(n)
            masks = _skip_masks(rng, n * scratch_model.mask_draws_per_sample)
            batches += [(order[s : s + size], masks) for s in range(0, n, size)]
        # FedAvg weighting (Eq. 3) uses the *declared* data size D_i even
        # when step-capping subsampled the round's mini-batches.
        return LocalPlan(self.client_id, declared_count, x, y, batches)


def train_cohort(
    model: Sequential, global_weights: list[np.ndarray], plans: list[LocalPlan]
) -> list[LocalUpdate]:
    """Train ``plans`` from ``global_weights`` as one cohort, in plan order.

    One stacked computation
    (:meth:`~repro.fl.nn.model.Sequential.fit_cohort`) trains one copy of
    ``model``'s architecture per plan; each update holds the bytes that
    copy would reach trained alone.
    """
    return [
        LocalUpdate(plan.client_id, weights, plan.n_samples, loss)
        for plan, (weights, loss) in zip(plans, model.fit_cohort(global_weights, plans))
    ]


def _skip_masks(rng: np.random.Generator, draws: int) -> np.random.Generator:
    """A generator at ``rng``'s position; ``rng`` moves ``draws`` doubles on.

    A uniform double takes one 64-bit output, which is what
    ``bit_generator.advance`` counts.  ``advance`` also drops the 32-bit
    half-output a bounded integer draw may have buffered; doubles never
    read it, so it is put back.
    """
    masks = np.random.Generator(type(rng.bit_generator)())
    masks.bit_generator.state = rng.bit_generator.state
    if draws:
        state = rng.bit_generator.state
        rng.bit_generator.advance(draws)
        moved = rng.bit_generator.state
        moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
        rng.bit_generator.state = moved
    return masks
