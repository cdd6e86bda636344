"""Differential oracles for the CNN kernels.

The oracles are verbatim copies of the kernels the substrate used to run:
max-pooling by copying every window and taking ``argmax`` (scattered back
with ``np.add.at``), ``col2im`` adding straight from the strided patch
matrix, and a model backward pass that also computed the first layer's
input gradient.  The kernels in use must match them byte for byte, on
hypothesis-drawn shapes and on values built to tie: ReLU-style signed
zeros, rounded inputs, NaN, and ``-0.0`` or non-finite gradients.

One documented rule differs by construction: in a single-channel window
of 8 or more elements whose maximum is a signed-zero tie, the old
reduction's vectorised loop could keep either zero.  ``MaxPool2D`` keeps
the zero ``np.maximum`` keeps when folding the window in row-major order;
the value (and so every gradient position) is the same.  No model in the
repo pools a single channel.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.api import Scenario
from repro.fl.datasets import make_generator
from repro.fl.models import build_model
from repro.fl.nn import SGD, Conv2D, Dense, MaxPool2D, Sequential, Tanh
from repro.fl.nn import backends
from repro.sim.rng import rng_from


# ----------------------------------------------------------------------
# Oracles: the previous kernels, verbatim
# ----------------------------------------------------------------------
class OracleMaxPool2D(MaxPool2D):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, h, w, c = x.shape
        k, s = self.pool_size, self.stride
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        shape = (n, oh, ow, k, k, c)
        strides = (
            x.strides[0],
            x.strides[1] * s,
            x.strides[2] * s,
            x.strides[1],
            x.strides[2],
            x.strides[3],
        )
        windows = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
        flat = windows.reshape(n, oh, ow, k * k, c)
        self._argmax = flat.argmax(axis=3)
        self._x_shape = x.shape
        self._out_hw = (oh, ow)
        return flat.max(axis=3)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, h, w, c = self._x_shape
        k, s = self.pool_size, self.stride
        oh, ow = self._out_hw
        dx = np.zeros(self._x_shape, dtype=grad.dtype)
        # Scatter each output gradient back to the argmax position.
        rows_in_window, cols_in_window = np.divmod(self._argmax, k)
        n_idx, oh_idx, ow_idx, c_idx = np.indices((n, oh, ow, c))
        h_idx = oh_idx * s + rows_in_window
        w_idx = ow_idx * s + cols_in_window
        np.add.at(dx, (n_idx, h_idx, w_idx, c_idx), grad)
        return dx


def oracle_col2im(
    cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int, oh: int, ow: int
):
    """Scatter-add patch gradients back into the (padded) input."""
    n, h, w, c = x_shape
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    cols = cols.reshape(n, oh, ow, kh, kw, c)
    for i in range(kh):
        for j in range(kw):
            padded[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :] += cols[
                :, :, :, i, j, :
            ]
    if pad:
        return padded[:, pad:-pad, pad:-pad, :]
    return padded


class OracleConv2D(Conv2D):
    def backward(self, grad: np.ndarray) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self._pad()
        oh, ow = self._out_hw
        g = grad.reshape(-1, self.filters)
        kernel, _ = self.params
        self.grads[0][...] = self._cols.T @ g
        self.grads[1][...] = g.sum(axis=0)
        dcols = g @ kernel.T
        return oracle_col2im(dcols, self._x_shape, k, k, s, p, oh, ow)


def oracle_train_batch(model: Sequential, x: np.ndarray, y: np.ndarray) -> float:
    """``Sequential.train_batch`` with the full backward pass, first layer included."""
    logits = model.forward(x, training=True)
    loss_value = model.loss.value(logits, y)
    grad = model.loss.gradient(logits, y)
    for layer in reversed(model.layers):
        grad = layer.backward(grad)
    params: list[np.ndarray] = []
    grads: list[np.ndarray] = []
    for layer in model.layers:
        params.extend(layer.params)
        grads.extend(layer.grads)
    model.optimizer.step(params, grads)
    return float(loss_value)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte equality, with every NaN counted as one value.

    Which NaN ``inf + -inf`` or a sum of two NaNs returns depends on the
    operand order inside numpy's loops, so NaN payloads are not compared.
    """
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.where(np.isnan(a), np.nan, a).tobytes() == np.where(np.isnan(b), np.nan, b).tobytes()


# ----------------------------------------------------------------------
# Inputs built to tie
# ----------------------------------------------------------------------
def activations(rng: np.random.Generator, shape, style: str) -> np.ndarray:
    x = rng.standard_normal(shape)
    if style == "relu":  # what ReLU hands a pool: -0.0 for every negative input
        return x * (x > 0.0)
    if style == "zeros":  # all-zero windows mixing +0.0 and -0.0
        return np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    if style == "rounded":  # a handful of values: ties in most windows
        return np.round(x)
    if style == "nan":
        return np.where(rng.random(shape) < 0.1, np.nan, np.round(x))
    return x


def gradients(rng: np.random.Generator, shape, style: str) -> np.ndarray:
    g = rng.standard_normal(shape)
    if style == "signed_zeros":
        return np.where(rng.random(shape) < 0.5, g, np.copysign(0.0, g))
    if style == "nonfinite":
        specials = np.array([np.inf, -np.inf, np.nan])[rng.integers(0, 3, shape)]
        return np.where(rng.random(shape) < 0.2, specials, g)
    return g


X_STYLES = ("normal", "relu", "zeros", "rounded", "nan")
G_STYLES = ("normal", "signed_zeros", "nonfinite")


@st.composite
def pool_cases(draw):
    k = draw(st.sampled_from((1, 2, 3)))
    stride = draw(st.integers(1, 4))  # below, at and above the pool size
    h = draw(st.integers(k, 9))
    w = draw(st.integers(k, 9))
    return dict(
        n=draw(st.integers(1, 3)),
        h=h,
        w=w,
        c=draw(st.sampled_from((1, 2, 3, 5))),
        k=k,
        stride=stride,
        x_style=draw(st.sampled_from(X_STYLES)),
        g_style=draw(st.sampled_from(G_STYLES)),
        training=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def run_pool(layer: MaxPool2D, x, g_style, training, rng):
    y = layer.forward(x, training=training)
    return y, layer.backward(gradients(rng, y.shape, g_style))


def fold_max(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """The documented forward rule: fold np.maximum over each window, row-major."""
    n, h, w, c = x.shape
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.empty((n, oh, ow, c))
    for b, r, q, ch in np.ndindex(out.shape):
        window = x[b, r * stride : r * stride + k, q * stride : q * stride + k, ch].ravel()
        out[b, r, q, ch] = functools.reduce(np.maximum, window)
    return out


# ----------------------------------------------------------------------
# MaxPool2D against its oracle
# ----------------------------------------------------------------------
@given(case=pool_cases())
@settings(max_examples=400, deadline=None)
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_maxpool_matches_oracle(case):
    x = activations(
        np.random.default_rng(case["seed"]),
        (case["n"], case["h"], case["w"], case["c"]),
        case["x_style"],
    )
    k, stride = case["k"], case["stride"]
    got_y, got_dx = run_pool(
        MaxPool2D(k, stride), x, case["g_style"], case["training"],
        np.random.default_rng(case["seed"] + 1),
    )
    want_y, want_dx = run_pool(
        OracleMaxPool2D(k, stride), x, case["g_style"], case["training"],
        np.random.default_rng(case["seed"] + 1),
    )
    assert same_bytes(got_dx, want_dx)
    if case["c"] == 1 and k * k >= 8:
        # The documented signed-zero rule; the values still agree.
        np.testing.assert_array_equal(got_y, want_y)
        assert same_bytes(got_y, fold_max(x, k, stride))
    else:
        assert same_bytes(got_y, want_y)


def test_maxpool_forward_keeps_the_zero_a_row_major_fold_keeps():
    x = np.array([0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0]).reshape(1, 3, 3, 1)
    layer = MaxPool2D(3)
    y = layer.forward(x)
    assert same_bytes(y, fold_max(x, 3, 3))
    assert np.signbit(y[0, 0, 0, 0])  # np.maximum keeps the later of tied zeros
    dx = layer.backward(np.ones_like(y))
    assert dx[0, 0, 0, 0] == 1.0 and dx.sum() == 1.0  # the first zero takes the gradient


def test_maxpool_nan_window_routes_to_its_first_nan():
    x = np.array([1.0, np.nan, 3.0, np.nan]).reshape(1, 2, 2, 1)
    layer = MaxPool2D(2)
    assert np.isnan(layer.forward(x)[0, 0, 0, 0])
    dx = layer.backward(np.full((1, 1, 1, 1), 2.0))
    np.testing.assert_array_equal(dx.ravel(), [0.0, 2.0, 0.0, 0.0])


def test_overlapping_windows_sum_in_window_order():
    # All three windows of a 3x5 input (pool 3, stride 1) route their
    # gradient to element (0, 2); only the left-to-right sum gives 1.0.
    x = np.zeros((1, 3, 5, 1))
    x[:, :, 2, :] = 1.0
    grad = np.array([1e16, -1e16, 1.0]).reshape(1, 1, 3, 1)
    layer, oracle = MaxPool2D(3, stride=1), OracleMaxPool2D(3, stride=1)
    layer.forward(x)
    oracle.forward(x)
    dx = layer.backward(grad)
    assert dx[0, 0, 2, 0] == 1.0 and dx.sum() == 1.0
    assert same_bytes(dx, oracle.backward(grad))


# ----------------------------------------------------------------------
# col2im against its oracle
# ----------------------------------------------------------------------
@given(
    n=st.integers(1, 5),
    h=st.integers(1, 8),
    w=st.integers(1, 8),
    c=st.sampled_from((1, 2, 3, 6)),
    kh=st.integers(1, 3),
    kw=st.integers(1, 3),
    stride=st.integers(1, 3),
    pad=st.integers(0, 1),
    signed_zeros=st.booleans(),
    chunk_bytes=st.sampled_from((1, 700, 1 << 20)),  # one sample, a few, the whole batch
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_col2im_matches_oracle(n, h, w, c, kh, kw, stride, pad, signed_zeros, chunk_bytes, seed):
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    assume(oh >= 1 and ow >= 1)
    rng = np.random.default_rng(seed)
    cols = gradients(rng, (n * oh * ow, kh * kw * c), "signed_zeros" if signed_zeros else "normal")
    args = (cols, (n, h, w, c), kh, kw, stride, pad, oh, ow)
    with mock.patch.object(backends, "_COL2IM_CHUNK_BYTES", chunk_bytes):
        got = backends.numpy_col2im(*args)
    assert same_bytes(got, oracle_col2im(*args))


# ----------------------------------------------------------------------
# Whole models: new kernels and first-layer rule vs the old full backward
# ----------------------------------------------------------------------
def _oracle(model: Sequential) -> Sequential:
    for layer in model.layers:
        if type(layer) is MaxPool2D:
            layer.__class__ = OracleMaxPool2D
        elif type(layer) is Conv2D:
            layer.__class__ = OracleConv2D
    return model


def _image_model(dataset: str):
    scenario = Scenario.from_preset("bench", dataset)
    generator = make_generator(dataset, seed=scenario.data_seed, image_size=scenario.image_size)

    def build():
        return build_model(
            dataset, generator.input_shape, generator.n_classes,
            rng_from(0, f"kernel-oracle-{dataset}"), width=scenario.model_width, lr=scenario.lr,
        )

    x, y = generator.sample_mixed(
        {cls: 16 for cls in range(generator.n_classes)}, np.random.default_rng(1)
    )
    return build, x, y


def _mlp_model():
    def build():
        return Sequential(
            lambda: [Dense(16), Tanh(), Dense(5)], input_shape=(7,), optimizer=SGD(lr=0.1),
            rng=np.random.default_rng(3),
        )

    rng = np.random.default_rng(4)
    return build, rng.standard_normal((160, 7)), rng.integers(0, 5, 160)


@pytest.mark.parametrize("which", ["mnist_o", "cifar10", "mlp"])
def test_training_matches_the_full_backward_oracle(which):
    build, x, y = _mlp_model() if which == "mlp" else _image_model(which)
    model, oracle = build(), _oracle(build())
    if which == "cifar10":
        assert sum(type(layer) is OracleMaxPool2D for layer in oracle.layers) == 2
    for step in range(5):
        batch = slice(32 * step, 32 * (step + 1))
        assert model.train_batch(x[batch], y[batch]) == oracle_train_batch(
            oracle, x[batch], y[batch]
        )
    for got, want in zip(model.get_weights(), oracle.get_weights()):
        assert same_bytes(got, want)
