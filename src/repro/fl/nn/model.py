"""Sequential model container with the FedAvg-facing weight interface.

:class:`Sequential` chains layers, owns the loss and optimiser, and exposes
``get_weights`` / ``set_weights`` as flat lists of arrays — exactly the
granularity at which the FedAvg server averages client updates (paper
Eq. 3).  ``clone_architecture`` stamps out per-client replicas that share
the architecture but never the parameter storage.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .layers import Layer
from .losses import Loss, SoftmaxCrossEntropy
from .optimizers import SGD, Optimizer

__all__ = ["Sequential"]


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
        for layer in self.layers:
            shape = layer.build(shape, self.rng)
        self.output_shape = shape

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
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One SGD step on a mini-batch; returns the batch loss."""
        logits = self.forward(x, training=True)
        loss_value = self.loss.value(logits, y)
        self.apply_gradient(self.loss.gradient(logits, y))
        return float(loss_value)

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
        """Local training loop (paper Eq. 2); returns the mean epoch loss."""
        rng = shuffle_rng if shuffle_rng is not None else self.rng
        n = x.shape[0]
        losses: list[float] = []
        for _ in range(max(epochs, 1)):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                losses.append(self.train_batch(x[idx], y[idx]))
        return float(np.mean(losses)) if losses else 0.0

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
