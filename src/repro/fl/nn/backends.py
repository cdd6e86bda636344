"""Pluggable array backends for the NN substrate's hot kernels.

The whole numpy substrate funnels its heavy lifting through three kernel
families — the im2col/col2im convolution lowering, the dense GEMMs, and
the per-timestep LSTM recurrence — so swapping *those* swaps the entire
compute engine without touching a single layer's calculus.  This module
gives each family a seat on an :class:`ArrayBackend` and registers the
implementations in the string-keyed :data:`NN_BACKENDS` table:

* ``numpy`` — the bitwise reference.  Its kernels return, bit for bit,
  what the operations the layers historically inlined returned, so
  routing through it is a no-op for results: every golden history,
  manifest hash and checkpoint in the test suite stays byte-identical.
* ``numba`` — optional JIT acceleration of the scatter/gather loops the
  BLAS cannot see (col2im, the LSTM gate fusion).  It is registered
  unconditionally so the reference docs list it, but constructing it
  without the dependency raises :class:`BackendUnavailableError`; tests
  parameterised over the registry skip it via :func:`backend_available`.
  Numba output is validated against the numpy reference to 1e-10 in
  ``tests/test_nn_backends.py`` — tight, but not bitwise (fused
  floating-point contraction reorders rounding).

The active backend is a process-wide setting (:func:`set_backend`,
``python -m repro ... --nn-backend numba``) read by the layers at call
time via :func:`get_backend`; :func:`use_backend` scopes a switch to a
``with`` block, which is how the cross-backend agreement tests run both
sides in one process.  Layers never cache the backend, so a switch
applies to the next forward/backward immediately.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ...core.registry import NN_BACKENDS

__all__ = [
    "NN_BACKENDS",
    "ArrayBackend",
    "BackendUnavailableError",
    "NumpyBackend",
    "NumbaBackend",
    "available_backend_names",
    "backend_available",
    "get_backend",
    "set_backend",
    "use_backend",
    "numpy_im2col",
    "numpy_col2im",
]


class BackendUnavailableError(RuntimeError):
    """Constructing a backend whose optional dependency is not installed."""


# ----------------------------------------------------------------------
# Reference kernels (module-level so the numpy backend and any validator
# share one implementation; layers.py re-exports them as _im2col/_col2im)
# ----------------------------------------------------------------------
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


class ArrayBackend(ABC):
    """The kernel surface a :class:`~repro.fl.nn.layers.Layer` computes on.

    Implementations must be semantically interchangeable: same shapes,
    same dtypes, results within tight floating-point tolerance of the
    ``numpy`` reference (which itself is the bitwise-exact historical
    behaviour).  The contract is intentionally small — three kernel
    families cover every super-linear operation in the substrate.
    """

    #: Registry name; set by the concrete class.
    name: str = "?"

    @staticmethod
    def available() -> bool:
        """Whether this backend's dependencies are importable here."""
        return True

    @abstractmethod
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense GEMM ``a @ b`` (the Dense/Conv2D/LSTM contraction)."""

    @abstractmethod
    def im2col(self, x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
        """Patch-lower an NHWC batch; returns ``(cols, (oh, ow))``."""

    @abstractmethod
    def col2im(
        self,
        cols: np.ndarray,
        x_shape,
        kh: int,
        kw: int,
        stride: int,
        pad: int,
        oh: int,
        ow: int,
    ) -> np.ndarray:
        """Scatter-add the patch gradients back to input shape."""

    @abstractmethod
    def lstm_step(
        self,
        x_t: np.ndarray,
        h_prev: np.ndarray,
        c_prev: np.ndarray,
        wx: np.ndarray,
        wh: np.ndarray,
        b: np.ndarray,
    ):
        """One LSTM recurrence step with the ``[i, f, g, o]`` gate layout.

        Returns ``(h_next, c_next, i, f, g, o, tanh_c)`` — the new states
        plus everything BPTT caches.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


@NN_BACKENDS.register("numpy")
class NumpyBackend(ArrayBackend):
    """The bitwise-reference backend: the substrate's historical kernels.

    Always available; every other backend is validated against it.
    """

    name = "numpy"

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def im2col(self, x, kh, kw, stride, pad):
        return numpy_im2col(x, kh, kw, stride, pad)

    def col2im(self, cols, x_shape, kh, kw, stride, pad, oh, ow):
        return numpy_col2im(cols, x_shape, kh, kw, stride, pad, oh, ow)

    def lstm_step(self, x_t, h_prev, c_prev, wx, wh, b):
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


def _numba_installed() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


@NN_BACKENDS.register("numba")
class NumbaBackend(ArrayBackend):
    """JIT-compiled scatter/gate kernels (optional ``numba`` dependency).

    The GEMMs stay on BLAS (``np.matmul`` — numba cannot beat it); what
    gets compiled are the loops BLAS never sees: the col2im scatter-add
    and the fused LSTM gate math.  Construction raises
    :class:`BackendUnavailableError` when numba is not importable, so
    registry-driven test batteries probe :func:`backend_available` first.
    Agreement with the numpy reference is validated to 1e-10 (not
    bitwise: the fused loops reorder floating-point accumulation).
    """

    name = "numba"

    def __init__(self) -> None:
        if not self.available():
            raise BackendUnavailableError(
                "the 'numba' nn backend needs the optional numba package; "
                "install it or stay on the default 'numpy' backend"
            )
        self._col2im_jit, self._lstm_gates_jit = _compile_numba_kernels()

    @staticmethod
    def available() -> bool:
        return _numba_installed()

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def im2col(self, x, kh, kw, stride, pad):
        # Stride-tricks lowering is already a zero-copy view + one copy on
        # reshape; numba has nothing to add here.
        return numpy_im2col(x, kh, kw, stride, pad)

    def col2im(self, cols, x_shape, kh, kw, stride, pad, oh, ow):
        n, h, w, c = x_shape
        padded = self._col2im_jit(
            np.ascontiguousarray(cols, dtype=np.float64),
            n, h, w, c, kh, kw, stride, pad, oh, ow,
        )
        if pad:
            return padded[:, pad:-pad, pad:-pad, :]
        return padded

    def lstm_step(self, x_t, h_prev, c_prev, wx, wh, b):
        z = x_t @ wx + h_prev @ wh + b
        i, f, g, o, c_next, tanh_c, h_next = self._lstm_gates_jit(
            np.ascontiguousarray(z), np.ascontiguousarray(c_prev)
        )
        return h_next, c_next, i, f, g, o, tanh_c


def _compile_numba_kernels():
    """Build the jitted kernels (deferred so import stays numba-free)."""
    import numba

    @numba.njit(cache=True)
    def col2im_jit(cols, n, h, w, c, kh, kw, stride, pad, oh, ow):
        padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=np.float64)
        patches = cols.reshape(n, oh, ow, kh, kw, c)
        for b_ in range(n):
            for oy in range(oh):
                for ox in range(ow):
                    for ky in range(kh):
                        for kx in range(kw):
                            for ch in range(c):
                                padded[b_, oy * stride + ky, ox * stride + kx, ch] += (
                                    patches[b_, oy, ox, ky, kx, ch]
                                )
        return padded

    @numba.njit(cache=True)
    def lstm_gates_jit(z, c_prev):
        n, four_h = z.shape
        h = four_h // 4
        i = np.empty((n, h))
        f = np.empty((n, h))
        g = np.empty((n, h))
        o = np.empty((n, h))
        c_next = np.empty((n, h))
        tanh_c = np.empty((n, h))
        h_next = np.empty((n, h))
        for r in range(n):
            for k in range(h):
                zi = min(max(z[r, k], -60.0), 60.0)
                zf = min(max(z[r, h + k], -60.0), 60.0)
                zo = min(max(z[r, 3 * h + k], -60.0), 60.0)
                iv = 1.0 / (1.0 + np.exp(-zi))
                fv = 1.0 / (1.0 + np.exp(-zf))
                gv = np.tanh(z[r, 2 * h + k])
                ov = 1.0 / (1.0 + np.exp(-zo))
                cv = fv * c_prev[r, k] + iv * gv
                tc = np.tanh(cv)
                i[r, k] = iv
                f[r, k] = fv
                g[r, k] = gv
                o[r, k] = ov
                c_next[r, k] = cv
                tanh_c[r, k] = tc
                h_next[r, k] = ov * tc
        return i, f, g, o, c_next, tanh_c, h_next

    return col2im_jit, lstm_gates_jit


# ----------------------------------------------------------------------
# Active-backend selection (process-wide; layers read it at call time)
# ----------------------------------------------------------------------
_ACTIVE: ArrayBackend = NumpyBackend()


def get_backend() -> ArrayBackend:
    """The backend the layers compute on right now."""
    return _ACTIVE


def set_backend(backend: str | ArrayBackend) -> ArrayBackend:
    """Install a backend process-wide (by registry name or instance).

    Returns the installed instance.  The setting is global by design —
    the within-round training pool shares one backend across worker
    threads, and forked ``process`` local-training workers inherit it.
    """
    global _ACTIVE
    if isinstance(backend, str):
        backend = NN_BACKENDS.create(backend)
    if not isinstance(backend, ArrayBackend):
        raise TypeError(
            f"nn backend must be an ArrayBackend or a registered name, "
            f"got {type(backend).__name__}"
        )
    _ACTIVE = backend
    return backend


@contextmanager
def use_backend(backend: str | ArrayBackend) -> Iterator[ArrayBackend]:
    """Scope a :func:`set_backend` to a ``with`` block, then restore."""
    previous = _ACTIVE
    installed = set_backend(backend)
    try:
        yield installed
    finally:
        set_backend(previous)


def backend_available(name: str) -> bool:
    """Whether the registered backend ``name`` can be constructed here."""
    factory = NN_BACKENDS.get(name)
    probe = getattr(factory, "available", None)
    return bool(probe()) if callable(probe) else True


def available_backend_names() -> tuple[str, ...]:
    """Registered backends whose dependencies are importable, sorted."""
    return tuple(n for n in NN_BACKENDS.names() if backend_available(n))
