"""Sequential model container with the FedAvg-facing weight interface.

:class:`Sequential` chains layers, owns the loss and optimiser, and exposes
``get_weights`` / ``set_weights`` as flat lists of arrays — exactly the
granularity at which the FedAvg server averages client updates (paper
Eq. 3).  ``clone_architecture`` stamps out per-client replicas that share
the architecture but never the parameter storage, and ``fit_cohort``
trains several copies of one model at once, stacked along a leading
member axis.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .layers import Dropout, Layer
from .losses import Loss, SoftmaxCrossEntropy
from .optimizers import SGD, Optimizer

__all__ = ["Sequential"]

#: Activation bytes one stacked training step may cache across its
#: members: each member adds its batch size times ``sample_cache_bytes``.
#: With one BLAS thread on a 2-vCPU host, stacked CNN steps ran 1.1-1.3x
#: faster than one member at a time up to ~3 MB a step, at par up to
#: ~5 MB and 0.8-0.95x beyond.  So the bench ``hpnews`` LSTM (~0.23 MB per
#: member for a batch of 32) stacks all six winners of a round, and the
#: bench ``mnist_o`` CNN (~3.1 MB per member, its second im2col alone
#: 1.38 MB) steps one member at a time.
_COHORT_STEP_BYTES = 2 << 20


class Sequential:
    """A feed-forward stack of :class:`Layer` objects.

    Parameters
    ----------
    layer_factory:
        Zero-argument callable producing a fresh list of layers.  Taking a
        factory (rather than layer instances) makes cloning for federated
        clients trivial and guarantees no accidental parameter sharing.
    input_shape:
        Shape of one sample (no batch dimension) — e.g. ``(28, 28, 1)`` for
        images or ``(12,)`` for token sequences.
    loss, optimizer:
        Training objective and update rule (defaults: softmax cross-entropy
        and plain SGD, matching the paper's setup).
    rng:
        Generator used for weight init and dropout masks.
    """

    def __init__(
        self,
        layer_factory: Callable[[], list[Layer]],
        input_shape: tuple[int, ...],
        loss: Loss | None = None,
        optimizer: Optimizer | None = None,
        rng: np.random.Generator | None = None,
    ):
        self._layer_factory = layer_factory
        self.input_shape = tuple(input_shape)
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        self.optimizer = optimizer if optimizer is not None else SGD()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.layers: list[Layer] = layer_factory()
        shape = self.input_shape
        cached = 0
        for layer in self.layers:
            cached += layer.cached_floats(shape)
            shape = layer.build(shape, self.rng)
        self.output_shape = shape
        #: Bytes one sample's training forward caches for backward (float64).
        self.sample_cache_bytes = 8 * cached

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def predict_logits(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        chunks = [
            self.forward(x[i : i + batch_size], training=False)
            for i in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(chunks, axis=0)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions (argmax of logits)."""
        return self.predict_logits(x, batch_size).argmax(axis=1)

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> tuple[float, float]:
        """Return ``(loss, accuracy)`` over a dataset."""
        logits = self.predict_logits(x, batch_size)
        loss = self.loss.value(logits, y)
        accuracy = float(np.mean(logits.argmax(axis=1) == y))
        return loss, accuracy

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
        """One SGD step on a mini-batch; returns the batch loss.

        On a cohort's stacked batch (see :meth:`fit_cohort`) every member
        takes its own step and the loss is an array, one per member.
        """
        logits = self.forward(x, training=True)
        loss_value = self.loss.value(logits, y)
        self.apply_gradient(self.loss.gradient(logits, y))
        return loss_value

    def apply_gradient(self, grad: np.ndarray) -> None:
        """Backpropagate ``dL/dlogits`` of the last forward and take one optimiser step.

        The first layer fills only its parameter gradients
        (:meth:`Layer.param_backward`): nothing reads the gradient with
        respect to the model's input.
        """
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        first.param_backward(grad)
        params = [p for layer in self.layers for p in layer.params]
        grads = [g for layer in self.layers for g in layer.grads]
        self.optimizer.step(params, grads)

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1,
        batch_size: int = 32,
        shuffle_rng: np.random.Generator | None = None,
    ) -> float:
        """Train this model alone; returns the mean batch loss.

        Each epoch draws a shuffle from ``shuffle_rng`` and steps through
        it in mini-batches, with Dropout masks from the model's own
        generator.  Local training in a federated round runs the same
        steps through :meth:`fit_cohort`, which tests check against this
        loop.
        """
        rng = shuffle_rng if shuffle_rng is not None else self.rng
        n = x.shape[0]
        losses: list[float] = []
        for _ in range(max(epochs, 1)):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                losses.append(self.train_batch(x[idx], y[idx]))
        return float(np.mean(losses)) if losses else 0.0

    def fit_cohort(
        self, weights: Sequence[np.ndarray], plans: Sequence
    ) -> list[tuple[list[np.ndarray], float]]:
        """Train one copy of this model per plan, as one stacked computation.

        Every copy starts from ``weights``.  A plan
        (:class:`~repro.fl.client.LocalPlan`) holds its data
        ``x``/``y`` and ``batches``: one ``(rows of x, generator)`` pair per
        SGD step, the generator giving that step's Dropout masks.  Each
        step stacks the members whose next batch has the same size, as many
        at a time as keep the step's cached activations under
        ``_COHORT_STEP_BYTES``; members drop out as their batches run out.
        Weights, optimizer state and masks stay per member, so every member
        ends with the bytes it would reach trained alone.

        Returns each member's final weights and mean batch loss, in plan
        order.  The model's own parameters are left as they were and its
        optimizer is reset.
        """
        counts = [len(plan.batches) for plan in plans]
        params = [np.repeat(w[None], len(plans), axis=0) for w in weights]
        slots = [np.zeros_like(p) for _ in range(self.optimizer.n_slots) for p in params]
        losses: list[list[float]] = [[] for _ in plans]
        saved = [(layer, layer.params, layer.grads) for layer in self.layers]
        dropouts = [(layer, layer._rng) for layer in self.layers if isinstance(layer, Dropout)]
        try:
            for step in range(max(counts, default=0)):
                groups: dict[int, list[int]] = {}
                for m, plan in enumerate(plans):
                    if step < counts[m]:
                        groups.setdefault(len(plan.batches[step][0]), []).append(m)
                for size, members in groups.items():
                    width = max(1, _COHORT_STEP_BYTES // (size * self.sample_cache_bytes))
                    for start in range(0, len(members), width):
                        self._cohort_step(plans, members[start : start + width], step,
                                          params + slots, losses)
        finally:
            for layer, layer_params, layer_grads in saved:
                layer.params, layer.grads = layer_params, layer_grads
            for layer, rng in dropouts:
                layer._rng = rng
            self.optimizer.reset()
        return [
            ([p[m] for p in params], float(np.mean(losses[m])) if losses[m] else 0.0)
            for m in range(len(plans))
        ]

    def _cohort_step(self, plans, members, step, state, losses) -> None:
        """One stacked SGD step of ``members``.

        ``state`` is the cohort's stacked parameters followed by the
        optimizer's slots; the members' rows are gathered, stepped and
        written back.
        """
        bound = [array[members] for array in state]
        arrays = iter(bound)
        batches = [plans[m].batches[step] for m in members]
        for layer in self.layers:
            layer.params = [next(arrays) for _ in layer.params]
            layer.grads = [np.zeros_like(p) for p in layer.params]
            if isinstance(layer, Dropout):
                layer._rng = [masks for _, masks in batches]
        self.optimizer.load(list(arrays), step)
        x = np.stack([plans[m].x[idx] for m, (idx, _) in zip(members, batches)])
        y = np.stack([plans[m].y[idx] for m, (idx, _) in zip(members, batches)])
        for m, loss in zip(members, self.train_batch(x, y)):
            losses[m].append(float(loss))
        for array, rows in zip(state, bound):
            array[members] = rows

    # ------------------------------------------------------------------
    # FedAvg weight interface
    # ------------------------------------------------------------------
    def get_weights(self) -> list[np.ndarray]:
        """Deep copies of all parameters, layer by layer."""
        return [p.copy() for layer in self.layers for p in layer.params]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        """Load parameters produced by :meth:`get_weights`."""
        flat = [p for layer in self.layers for p in layer.params]
        if len(flat) != len(weights):
            raise ValueError(
                f"expected {len(flat)} parameter arrays, got {len(weights)}"
            )
        for dst, src in zip(flat, weights):
            if dst.shape != src.shape:
                raise ValueError(f"shape mismatch: {dst.shape} vs {src.shape}")
            dst[...] = src

    def clone_architecture(self, rng: np.random.Generator, optimizer: Optimizer | None = None):
        """A fresh model with identical architecture and new parameters."""
        return Sequential(
            self._layer_factory,
            self.input_shape,
            loss=type(self.loss)(),
            optimizer=optimizer if optimizer is not None else _clone_optimizer(self.optimizer),
            rng=rng,
        )

    @property
    def mask_draws_per_sample(self) -> int:
        """Uniform doubles one training sample's Dropout masks draw."""
        return sum(
            int(np.prod(layer.input_shape))
            for layer in self.layers
            if isinstance(layer, Dropout) and layer.rate > 0.0
        )

    @property
    def n_parameters(self) -> int:
        return int(sum(layer.n_parameters for layer in self.layers))

    @property
    def parameter_bytes(self) -> int:
        """Wire size of one model copy (float64), for the timing model."""
        return int(sum(p.nbytes for layer in self.layers for p in layer.params))


def _clone_optimizer(opt: Optimizer) -> Optimizer:
    """Fresh optimiser of the same configuration, with clean state."""
    if isinstance(opt, SGD):
        return SGD(lr=opt.lr, momentum=opt.momentum)
    from .optimizers import Adam

    if isinstance(opt, Adam):
        return Adam(lr=opt.lr, beta1=opt.beta1, beta2=opt.beta2, eps=opt.eps)
    raise TypeError(f"cannot clone optimiser of type {type(opt).__name__}")
