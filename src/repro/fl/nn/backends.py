"""The hot kernels of the numpy NN substrate.

Three kernel families carry every super-linear operation of the layers:
the im2col/col2im convolution lowering, the dense GEMMs, and the
per-timestep LSTM recurrence.  The layers call them here, through
:data:`KERNELS` and the two module functions, and look each one up at
call time (``KERNELS.matmul(...)``, ``backends.numpy_col2im(...)``): a
profiler that patches a kernel here (``perfbench/layers.py`` patches
``numpy_im2col``, ``numpy_col2im``, ``NumpyBackend.matmul`` and
``NumpyBackend.lstm_step``) then sees every call.  Every manifest and
golden digest depends on the kernels' exact arithmetic, so a change that
moves one bit here needs a deliberate re-pin.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KERNELS", "NumpyBackend", "numpy_im2col", "numpy_col2im"]


def numpy_im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """Lower (N, H, W, C) into (N*OH*OW, KH*KW*C) patches."""
    n, h, w, c = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    shape = (n, oh, ow, kh, kw, c)
    strides = (
        x.strides[0],
        x.strides[1] * stride,
        x.strides[2] * stride,
        x.strides[1],
        x.strides[2],
        x.strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    return patches.reshape(n * oh * ow, kh * kw * c), (oh, ow)


#: Patch bytes numpy_col2im transposes at a time: small enough that a
#: chunk's blocks and its slice of the output stay in cache while the
#: kernel offsets add them.
_COL2IM_CHUNK_BYTES = 1 << 20


def numpy_col2im(
    cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int, oh: int, ow: int
):
    """Scatter-add patch gradients back into the (padded) input.

    The batch goes in chunks of about ``_COL2IM_CHUNK_BYTES`` of patches.
    One transposing copy per chunk lays each kernel offset's patch block
    out contiguously; the offsets are then added in (i, j) order, so every
    element is the same left-to-right sum from 0.0 as a scatter straight
    from ``cols``.
    """
    n, h, w, c = x_shape
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    patches = cols.reshape(n, oh, ow, kh * kw, c)
    step = max(1, _COL2IM_CHUNK_BYTES * n // max(cols.nbytes, 1))
    for start in range(0, n, step):
        blocks = np.ascontiguousarray(patches[start : start + step].transpose(3, 0, 1, 2, 4))
        out = padded[start : start + step]
        for i in range(kh):
            for j in range(kw):
                out[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :] += blocks[
                    i * kw + j
                ]
    if pad:
        return padded[:, pad:-pad, pad:-pad, :]
    return padded


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


class NumpyBackend:
    """The GEMM and the LSTM step, as methods of :data:`KERNELS`."""

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense GEMM ``a @ b`` (the Dense/Conv2D/LSTM contraction)."""
        return a @ b

    def lstm_step(self, x_t, h_prev, c_prev, wx, wh, b):
        """One LSTM recurrence step with the ``[i, f, g, o]`` gate layout.

        Returns ``(h_next, c_next, i, f, g, o, tanh_c)``: the new states
        plus everything BPTT caches.
        """
        h = h_prev.shape[1]
        z = x_t @ wx + h_prev @ wh + b
        i = _sigmoid(z[:, 0 * h : 1 * h])
        f = _sigmoid(z[:, 1 * h : 2 * h])
        g = np.tanh(z[:, 2 * h : 3 * h])
        o = _sigmoid(z[:, 3 * h : 4 * h])
        c_next = f * c_prev + i * g
        tanh_c = np.tanh(c_next)
        h_next = o * tanh_c
        return h_next, c_next, i, f, g, o, tanh_c


#: The instance every layer computes on.
KERNELS = NumpyBackend()
