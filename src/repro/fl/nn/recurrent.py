"""Recurrent layers: Embedding and LSTM, for the HPNews text workload.

The paper's fourth task classifies HuffPost news headlines with an LSTM.
Our substrate mirrors the usual Keras composition
``Embedding -> LSTM(last hidden state) -> Dense -> softmax``.

The LSTM implements full backpropagation through time with the standard
gate layout ``[i, f, g, o]`` and a unit forget-gate bias initialisation —
the numerically-checked canonical formulation.
"""

from __future__ import annotations

import numpy as np

from .backends import KERNELS
from .initializers import glorot_uniform, orthogonal, zeros
from .layers import Layer

__all__ = ["Embedding", "LSTM"]


class Embedding(Layer):
    """Token-id lookup table mapping (N, T) ints to (N, T, D) vectors."""

    def __init__(self, vocab_size: int, dim: int):
        super().__init__()
        if vocab_size < 1 or dim < 1:
            raise ValueError("vocab_size and dim must be >= 1")
        self.vocab_size = int(vocab_size)
        self.dim = int(dim)

    def output_shape(self, input_shape):
        (t,) = input_shape
        return (t, self.dim)

    def build(self, input_shape, rng):
        scale = 1.0 / np.sqrt(self.dim)
        table = rng.uniform(-scale, scale, size=(self.vocab_size, self.dim))
        self.params = [table.astype(np.float64)]
        self.grads = [np.zeros_like(self.params[0])]
        return super().build(input_shape, rng)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        ids = np.asarray(x)
        if ids.dtype.kind not in "iu":
            raise TypeError("Embedding expects integer token ids")
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise ValueError("token id outside the vocabulary")
        self._ids = ids
        return self.params[0][ids]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.grads[0][...] = 0.0
        np.add.at(self.grads[0], self._ids.reshape(-1), grad.reshape(-1, self.dim))
        # Token ids are not differentiable; return a zero placeholder of the
        # input's shape so Sequential's chaining stays uniform.
        return np.zeros(self._ids.shape, dtype=np.float64)


class LSTM(Layer):
    """Single-layer LSTM returning the last hidden state (N, T, D) -> (N, H)."""

    def __init__(self, units: int):
        super().__init__()
        if units < 1:
            raise ValueError("units must be >= 1")
        self.units = int(units)

    def output_shape(self, input_shape):
        t, d = input_shape
        return (self.units,)

    def build(self, input_shape, rng):
        _, d = input_shape
        h = self.units
        wx = glorot_uniform(rng, (d, 4 * h), d, 4 * h)
        wh = np.concatenate([orthogonal(rng, (h, h)) for _ in range(4)], axis=1)
        b = zeros((4 * h,))
        b[h : 2 * h] = 1.0  # forget-gate bias trick
        self.params = [wx, wh, b]
        self.grads = [np.zeros_like(p) for p in self.params]
        return super().build(input_shape, rng)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, t, d = x.shape
        h = self.units
        wx, wh, b = self.params
        hs = np.zeros((t + 1, n, h))
        cs = np.zeros((t + 1, n, h))
        cache = []
        for step in range(t):
            h_next, c_next, i, f, g, o, tanh_c = KERNELS.lstm_step(
                x[:, step, :], hs[step], cs[step], wx, wh, b
            )
            cs[step + 1] = c_next
            hs[step + 1] = h_next
            cache.append((i, f, g, o, tanh_c))
        self._x = x
        self._hs = hs
        self._cs = cs
        self._cache = cache
        return hs[t]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, hs, cs, cache = self._x, self._hs, self._cs, self._cache
        n, t, d = x.shape
        h = self.units
        wx, wh, _ = self.params
        for g_arr in self.grads:
            g_arr[...] = 0.0
        dwx, dwh, db = self.grads
        dx = np.zeros_like(x)
        dh_next = grad.copy()
        dc_next = np.zeros((n, h))
        for step in range(t - 1, -1, -1):
            i, f, g, o, tanh_c = cache[step]
            dc = dc_next + dh_next * o * (1.0 - tanh_c * tanh_c)
            do = dh_next * tanh_c
            di = dc * g
            dg = dc * i
            df = dc * cs[step]
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            dwx += KERNELS.matmul(x[:, step, :].T, dz)
            dwh += KERNELS.matmul(hs[step].T, dz)
            db += dz.sum(axis=0)
            dx[:, step, :] = KERNELS.matmul(dz, wx.T)
            dh_next = KERNELS.matmul(dz, wh.T)
            dc_next = dc * f
        return dx
