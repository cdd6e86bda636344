"""Gradient checks and behavioural tests for the feed-forward layers.

Every layer's backward pass is validated against central finite differences
of its forward pass — both for input gradients and parameter gradients.
Dense and Conv2D compute on the kernels of ``repro.fl.nn.backends``, so
their checks cover those kernels too.
"""

import numpy as np
import pytest

from repro.fl.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)


def input_gradient_error(layer, x, rng, n_checks=60, eps=1e-6):
    """Max relative error between analytic and numeric dL/dx."""
    layer.build(x.shape[1:], np.random.default_rng(0))
    y = layer.forward(x, training=False)
    gy = rng.standard_normal(y.shape)
    layer.forward(x, training=False)
    gx = layer.backward(gy)
    flat = x.reshape(-1)
    idxs = rng.choice(flat.size, size=min(n_checks, flat.size), replace=False)
    worst = 0.0
    for i in idxs:
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(np.sum(layer.forward(x, training=False) * gy))
        flat[i] = orig - eps
        fm = float(np.sum(layer.forward(x, training=False) * gy))
        flat[i] = orig
        num = (fp - fm) / (2 * eps)
        ana = gx.reshape(-1)[i]
        worst = max(worst, abs(ana - num) / (abs(num) + 1.0))
    return worst


def param_gradient_error(layer, x, rng, n_checks=60, eps=1e-6):
    """Max relative error between analytic and numeric dL/dtheta."""
    layer.build(x.shape[1:], np.random.default_rng(0))
    y = layer.forward(x, training=False)
    gy = rng.standard_normal(y.shape)
    layer.forward(x, training=False)
    layer.backward(gy)
    worst = 0.0
    for p, g in zip(layer.params, layer.grads):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        idxs = rng.choice(flat.size, size=min(n_checks, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(np.sum(layer.forward(x, training=False) * gy))
            flat[i] = orig - eps
            fm = float(np.sum(layer.forward(x, training=False) * gy))
            flat[i] = orig
            num = (fp - fm) / (2 * eps)
            worst = max(worst, abs(gflat[i] - num) / (abs(num) + 1.0))
    return worst


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(7)
        layer.build((4,), rng)
        assert layer.forward(rng.standard_normal((3, 4))).shape == (3, 7)

    def test_input_gradient(self, rng):
        assert input_gradient_error(Dense(5), rng.standard_normal((4, 6)), rng) < 1e-6

    def test_param_gradient(self, rng):
        assert param_gradient_error(Dense(5), rng.standard_normal((4, 6)), rng) < 1e-6

    def test_rejects_multidim_input(self, rng):
        with pytest.raises(ValueError):
            Dense(3).build((4, 4, 2), rng)

    def test_parameter_count(self, rng):
        layer = Dense(5)
        layer.build((4,), rng)
        assert layer.n_parameters == 4 * 5 + 5


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU, Tanh, Sigmoid])
    def test_input_gradient(self, layer_cls, rng):
        x = rng.standard_normal((5, 8)) + 0.1  # avoid ReLU kink at exactly 0
        assert input_gradient_error(layer_cls(), x, rng) < 1e-6

    def test_relu_zeroes_negatives(self, rng):
        layer = ReLU()
        layer.build((3,), rng)
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_sigmoid_range(self, rng):
        layer = Sigmoid()
        layer.build((4,), rng)
        out = layer.forward(rng.standard_normal((10, 4)) * 5)
        assert np.all((out > 0) & (out < 1))


class TestFlatten:
    def test_roundtrip(self, rng):
        layer = Flatten()
        layer.build((2, 3, 4), rng)
        x = rng.standard_normal((5, 2, 3, 4))
        y = layer.forward(x)
        assert y.shape == (5, 24)
        gx = layer.backward(y)
        assert gx.shape == x.shape


class TestDropout:
    def test_identity_at_eval(self, rng):
        layer = Dropout(0.5)
        layer.build((10,), rng)
        x = rng.standard_normal((4, 10))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_inverted_scaling_preserves_mean(self, rng):
        layer = Dropout(0.3)
        layer.build((1000,), rng)
        x = np.ones((20, 1000))
        out = layer.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_backward_uses_same_mask(self, rng):
        layer = Dropout(0.5)
        layer.build((50,), rng)
        x = np.ones((2, 50))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal((out == 0), (grad == 0))

    def test_rejects_rate_one(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestConv2D:
    def test_output_shape_valid(self, rng):
        layer = Conv2D(8, kernel_size=3)
        assert layer.output_shape((10, 10, 3)) == (8, 8, 8)

    def test_output_shape_same(self, rng):
        layer = Conv2D(4, kernel_size=3, padding="same")
        assert layer.output_shape((10, 10, 3)) == (10, 10, 4)

    def test_matches_naive_convolution(self, rng):
        layer = Conv2D(2, kernel_size=3)
        layer.build((5, 5, 2), rng)
        x = rng.standard_normal((1, 5, 5, 2))
        out = layer.forward(x)
        kernel, bias = layer.params
        k = kernel.reshape(3, 3, 2, 2)
        naive = np.zeros((1, 3, 3, 2))
        for i in range(3):
            for j in range(3):
                patch = x[0, i : i + 3, j : j + 3, :]
                for f in range(2):
                    naive[0, i, j, f] = np.sum(patch * k[:, :, :, f]) + bias[f]
        np.testing.assert_allclose(out, naive, atol=1e-12)

    def test_input_gradient(self, rng):
        assert input_gradient_error(Conv2D(3, 3), rng.standard_normal((2, 6, 6, 2)), rng) < 1e-6

    def test_param_gradient(self, rng):
        assert param_gradient_error(Conv2D(3, 3), rng.standard_normal((2, 6, 6, 2)), rng) < 1e-6

    def test_stride_two(self, rng):
        layer = Conv2D(2, kernel_size=3, stride=2)
        assert layer.output_shape((7, 7, 1)) == (3, 3, 2)
        assert input_gradient_error(layer, rng.standard_normal((2, 7, 7, 1)), rng) < 1e-6

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            Conv2D(2, kernel_size=9).output_shape((5, 5, 1))

    @pytest.mark.parametrize("k", [2, 4])
    def test_same_padding_rejects_even_kernel(self, k):
        # Symmetric padding cannot keep the size: k=2 on 8x8 would give 7x7.
        with pytest.raises(ValueError, match=f"kernel_size, got {k}"):
            Conv2D(2, kernel_size=k, padding="same")

    def test_same_padding_keeps_size_for_odd_kernels(self, rng):
        for k in (1, 3, 5):
            layer = Conv2D(2, kernel_size=k, padding="same")
            assert layer.output_shape((8, 8, 1)) == (8, 8, 2)


class TestMaxPool2D:
    def test_output_shape(self):
        assert MaxPool2D(2).output_shape((8, 8, 3)) == (4, 4, 3)

    def test_takes_window_max(self, rng):
        layer = MaxPool2D(2)
        layer.build((2, 2, 1), rng)
        x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        assert layer.forward(x)[0, 0, 0, 0] == 4.0

    def test_input_gradient(self, rng):
        x = rng.standard_normal((2, 6, 6, 3))
        assert input_gradient_error(MaxPool2D(2), x, rng) < 1e-6

    def test_gradient_routes_to_argmax(self, rng):
        layer = MaxPool2D(2)
        layer.build((2, 2, 1), rng)
        x = np.array([[[[1.0], [5.0]], [[3.0], [4.0]]]])
        layer.forward(x)
        gx = layer.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_allclose(gx[0, :, :, 0], [[0.0, 1.0], [0.0, 0.0]])
