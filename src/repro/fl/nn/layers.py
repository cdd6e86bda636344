"""Feed-forward layers of the numpy neural-network substrate.

The paper trains two CNNs (for MNIST-O/MNIST-F and CIFAR-10) and an LSTM
with TensorFlow; reproducing offline requires a from-scratch substrate.
Every layer implements the same tiny contract:

* ``forward(x, training)`` caches what backward needs and returns the
  activation,
* ``backward(grad)`` consumes ``dL/dy`` and returns ``dL/dx`` while filling
  ``self.grads`` aligned with ``self.params``,
* ``param_backward(grad)`` fills ``self.grads`` only; it serves the first
  layer of a model, whose input gradient nothing reads,
* ``params`` / ``grads`` are parallel lists of arrays (possibly empty), and
  FedAvg manipulates weights exclusively through them.

Convolutions use im2col/col2im so the heavy lifting is one GEMM per layer —
the standard trick for acceptable pure-numpy speed.  All layers are
gradient-checked against central finite differences in the test suite.

The super-linear kernels (GEMM, im2col/col2im) live in
:mod:`~repro.fl.nn.backends`; the layers look them up there at every call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from . import backends
from .backends import KERNELS
from .initializers import glorot_uniform, he_normal, zeros

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "Conv2D",
    "MaxPool2D",
]


class Layer(ABC):
    """Base class: a differentiable module with (possibly zero) parameters."""

    def __init__(self) -> None:
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []
        self.built = False

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        """Allocate parameters for ``input_shape`` (sans batch); return output shape."""
        self.built = True
        return self.output_shape(input_shape)

    @abstractmethod
    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape of the activation (sans batch) for a given input shape."""

    @abstractmethod
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        ...

    @abstractmethod
    def backward(self, grad: np.ndarray) -> np.ndarray:
        ...

    def param_backward(self, grad: np.ndarray) -> None:
        """Fill ``self.grads`` from ``dL/dy`` without computing ``dL/dx``.

        :class:`~repro.fl.nn.model.Sequential` calls this on its first
        layer, whose input gradient nothing reads.  The default runs
        :meth:`backward` and drops the result; layers whose ``dL/dx``
        costs a GEMM (Dense, Conv2D) override it to skip that work.
        """
        self.backward(grad)

    @property
    def n_parameters(self) -> int:
        return int(sum(p.size for p in self.params))


class Dense(Layer):
    """Fully connected layer ``y = x W + b``."""

    def __init__(self, units: int, weight_init: str = "he"):
        super().__init__()
        if units < 1:
            raise ValueError("units must be >= 1")
        self.units = int(units)
        if weight_init not in ("he", "glorot"):
            raise ValueError("weight_init must be 'he' or 'glorot'")
        self.weight_init = weight_init

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 1:
            raise ValueError(f"Dense expects flat input, got shape {input_shape}")
        return (self.units,)

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator):
        (fan_in,) = input_shape
        if self.weight_init == "he":
            w = he_normal(rng, (fan_in, self.units), fan_in)
        else:
            w = glorot_uniform(rng, (fan_in, self.units), fan_in, self.units)
        self.params = [w, zeros((self.units,))]
        self.grads = [np.zeros_like(p) for p in self.params]
        return super().build(input_shape, rng)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        w, b = self.params
        return KERNELS.matmul(x, w) + b

    def param_backward(self, grad: np.ndarray) -> None:
        self.grads[0][...] = KERNELS.matmul(self._x.T, grad)
        self.grads[1][...] = grad.sum(axis=0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.param_backward(grad)
        return KERNELS.matmul(grad, self.params[0].T)


class ReLU(Layer):
    """Rectified linear activation."""

    def output_shape(self, input_shape):
        return input_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0.0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class Tanh(Layer):
    """Hyperbolic-tangent activation."""

    def output_shape(self, input_shape):
        return input_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * (1.0 - self._y * self._y)


class Sigmoid(Layer):
    """Logistic activation."""

    def output_shape(self, input_shape):
        return input_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._y = 1.0 / (1.0 + np.exp(-x))
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._y * (1.0 - self._y)


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time.

    Both paper CNNs interleave Dropout layers (footnotes 1-2); the layer
    draws its mask from a generator handed over at build time so runs are
    reproducible.
    """

    def __init__(self, rate: float):
        super().__init__()
        if not (0.0 <= rate < 1.0):
            raise ValueError("rate must lie in [0, 1)")
        self.rate = float(rate)
        self._rng: np.random.Generator | None = None

    def output_shape(self, input_shape):
        return input_shape

    def build(self, input_shape, rng):
        self._rng = rng
        return super().build(input_shape, rng)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if self._rng is None:
            raise RuntimeError("Dropout used before build()")
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class Conv2D(Layer):
    """2-D convolution over NHWC inputs via im2col + GEMM."""

    def __init__(self, filters: int, kernel_size: int = 3, stride: int = 1, padding: str = "valid"):
        super().__init__()
        if filters < 1 or kernel_size < 1 or stride < 1:
            raise ValueError("filters, kernel_size and stride must be >= 1")
        if padding not in ("valid", "same"):
            raise ValueError("padding must be 'valid' or 'same'")
        if padding == "same" and kernel_size % 2 == 0:
            # Symmetric padding of (k - 1) // 2 loses one row and column
            # for an even k: k=2 on 8x8 would give 7x7.
            raise ValueError(
                f"padding='same' needs an odd kernel_size, got {kernel_size}"
            )
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = padding

    def _pad(self) -> int:
        if self.padding == "valid":
            return 0
        # 'same' (odd kernels only) keeps the size at stride 1.
        return (self.kernel_size - 1) // 2

    def output_shape(self, input_shape):
        h, w, _ = input_shape
        k, s, p = self.kernel_size, self.stride, self._pad()
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"kernel {k} too large for input {input_shape}")
        return (oh, ow, self.filters)

    def build(self, input_shape, rng):
        h, w, c = input_shape
        k = self.kernel_size
        fan_in = k * k * c
        kernel = he_normal(rng, (fan_in, self.filters), fan_in)
        self.params = [kernel, zeros((self.filters,))]
        self.grads = [np.zeros_like(p) for p in self.params]
        self._in_channels = c
        return super().build(input_shape, rng)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self._pad()
        cols, (oh, ow) = backends.numpy_im2col(x, k, k, s, p)
        self._cols = cols
        self._x_shape = x.shape
        self._out_hw = (oh, ow)
        kernel, bias = self.params
        out = KERNELS.matmul(cols, kernel) + bias
        return out.reshape(x.shape[0], oh, ow, self.filters)

    def param_backward(self, grad: np.ndarray) -> None:
        g = grad.reshape(-1, self.filters)
        self.grads[0][...] = KERNELS.matmul(self._cols.T, g)
        self.grads[1][...] = g.sum(axis=0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.param_backward(grad)
        k, s, p = self.kernel_size, self.stride, self._pad()
        oh, ow = self._out_hw
        dcols = KERNELS.matmul(grad.reshape(-1, self.filters), self.params[0].T)
        return backends.numpy_col2im(dcols, self._x_shape, k, k, s, p, oh, ow)


class MaxPool2D(Layer):
    """Max pooling over NHWC inputs (non-overlapping windows by default).

    Neither pass copies the windows.  Forward folds the strided views of
    the k*k window elements with ``np.maximum`` in window order; backward
    routes each window's gradient to its first maximum (``argmax``'s tie
    rule; in a window holding NaN, its first NaN), found by comparing the
    same views of the input with the cached output.
    """

    def __init__(self, pool_size: int = 2, stride: int | None = None):
        super().__init__()
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else int(pool_size)

    def output_shape(self, input_shape):
        h, w, c = input_shape
        oh = (h - self.pool_size) // self.stride + 1
        ow = (w - self.pool_size) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"pool {self.pool_size} too large for input {input_shape}")
        return (oh, ow, c)

    def _views(self, a: np.ndarray, oh: int, ow: int) -> list[np.ndarray]:
        """Element (i, j) of every window of ``a``: one view per (i, j), row-major."""
        k, s = self.pool_size, self.stride
        return [
            a[:, i : i + s * oh : s, j : j + s * ow : s, :] for i in range(k) for j in range(k)
        ]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        oh, ow, _ = self.output_shape(x.shape[1:])
        first, *rest = self._views(x, oh, ow)
        out = first.copy()
        for view in rest:
            np.maximum(out, view, out=out)
        self._x, self._y = x, out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, y = self._x, self._y
        _, oh, ow, _ = y.shape
        # Mark each window's first element equal to its max; ``pending``
        # holds the windows still unmarked.  Only a window whose max is NaN
        # finds none: argmax sent its gradient to the first NaN, and so does
        # the second pass.
        pending = np.ones(y.shape, dtype=bool)
        hits = []
        for view in self._views(x, oh, ow):
            hit = view == y
            hit &= pending
            pending ^= hit
            hits.append(hit)
        if pending.any():
            for view, hit in zip(self._views(x, oh, ow), hits):
                nan = np.isnan(view)
                nan &= pending
                pending ^= nan
                hit |= nan
        dx = np.zeros(x.shape, dtype=grad.dtype)
        # Add in reverse window order: where windows overlap (stride <
        # pool_size), every input element then sums its windows' gradients
        # in window raster order, starting from 0.0, exactly as np.add.at
        # did.  Off the hits ``grad * hit`` adds a signed zero, which leaves
        # a sum that started at +0.0 bit for bit alone; only a non-finite
        # gradient (inf * 0 is NaN) needs the slower select.
        finite = bool(np.isfinite(grad).all())
        for view, hit in zip(reversed(self._views(dx, oh, ow)), reversed(hits)):
            view += grad * hit if finite else np.where(hit, grad, 0.0)
        return dx
