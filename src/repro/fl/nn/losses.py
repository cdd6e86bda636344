"""Loss functions for the numpy neural-network substrate."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Loss", "SoftmaxCrossEntropy", "MeanSquaredError"]


class Loss(ABC):
    """A loss pairs a scalar objective with its gradient wrt the logits."""

    @abstractmethod
    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        ...

    @abstractmethod
    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        ...


class SoftmaxCrossEntropy(Loss):
    """Fused softmax + categorical cross-entropy over integer labels.

    Fusing keeps the backward pass the numerically-stable
    ``softmax(logits) - one_hot(targets)`` and matches the paper's
    ``...Fully connected -> Softmax`` model heads.

    A cohort's logits ``(members, n, classes)`` and targets
    ``(members, n)`` give one loss per member, each over its own batch.
    """

    @staticmethod
    def probabilities(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def value(self, predictions: np.ndarray, targets: np.ndarray):
        """The mean loss of a batch: a float, or an array of one per cohort member."""
        probs = self.probabilities(predictions)
        picked = np.take_along_axis(probs, targets.astype(int)[..., None], axis=-1)[..., 0]
        losses = -np.mean(np.log(np.maximum(picked, 1e-12)), axis=-1)
        return losses if losses.ndim else float(losses)

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        probs = self.probabilities(predictions)
        rows = targets.astype(int)[..., None]
        np.put_along_axis(probs, rows, np.take_along_axis(probs, rows, axis=-1) - 1.0, axis=-1)
        return probs / predictions.shape[-2]


class MeanSquaredError(Loss):
    """Plain MSE for regression-style diagnostics.

    Like :class:`SoftmaxCrossEntropy`, a cohort's ``(members, n, outputs)``
    predictions give one loss per member, each over its own batch.
    """

    def value(self, predictions: np.ndarray, targets: np.ndarray):
        """The mean loss of a batch: a float, or an array of one per cohort member."""
        diff = predictions - targets
        losses = np.mean(diff * diff, axis=(-2, -1))
        return losses if losses.ndim else float(losses)

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        n, outputs = predictions.shape[-2:]
        return 2.0 * (predictions - targets) / (n * outputs)
