"""Optimizers for local training at edge nodes.

Classic federated averaging runs plain SGD locally (paper Eq. 2,
``w_i(t+1) = w(t) - eta * grad F_i``); momentum and Adam are provided for
the extension benches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer(ABC):
    """Updates a flat list of parameter arrays from a parallel grad list.

    Per-parameter state (momentum, Adam's moments) is ``n_slots`` arrays
    shaped like each parameter.  A cohort keeps every member's slots and
    hands the optimizer the rows of the members it steps (:meth:`load`).
    """

    #: Per-parameter state arrays ``step`` keeps.
    n_slots = 0

    @abstractmethod
    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        ...

    def reset(self) -> None:
        """Drop any accumulated state (fresh client, new round)."""

    def load(self, slots: list[np.ndarray], steps: int) -> None:
        """Continue from ``slots`` (``n_slots`` lists of one array per
        parameter, concatenated), the state after ``steps`` steps."""


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, lr: float = 0.05, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not (0.0 <= momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.n_slots = 1 if self.momentum else 0
        self._velocity: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self.momentum == 0.0:
            for p, g in zip(params, grads):
                p -= self.lr * g
            return
        if self._velocity is None or len(self._velocity) != len(params):
            self._velocity = [np.zeros_like(p) for p in params]
        for v, p, g in zip(self._velocity, params, grads):
            v *= self.momentum
            v += g
            p -= self.lr * v

    def reset(self) -> None:
        self._velocity = None

    def load(self, slots: list[np.ndarray], steps: int) -> None:
        self._velocity = slots or None


class Adam(Optimizer):
    """Adam with bias correction."""

    n_slots = 2

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self._m is None or len(self._m) != len(params):
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
            self._t = 0
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        for m, v, p, g in zip(self._m, self._v, params, grads):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

    def reset(self) -> None:
        self._m = None
        self._v = None
        self._t = 0

    def load(self, slots: list[np.ndarray], steps: int) -> None:
        half = len(slots) // 2
        self._m, self._v, self._t = slots[:half], slots[half:], steps
