"""Gradient checks and behavioural tests for Embedding and LSTM."""

import numpy as np
import pytest

from repro.fl.nn.recurrent import LSTM, Embedding


class TestEmbedding:
    def test_lookup(self, rng):
        layer = Embedding(10, 4)
        layer.build((3,), rng)
        ids = np.array([[0, 1, 2]])
        out = layer.forward(ids)
        np.testing.assert_array_equal(out[0, 0], layer.params[0][0])
        np.testing.assert_array_equal(out[0, 2], layer.params[0][2])

    def test_gradient_accumulates_repeated_tokens(self, rng):
        layer = Embedding(5, 3)
        layer.build((4,), rng)
        ids = np.array([[1, 1, 2, 1]])
        out = layer.forward(ids)
        gy = np.ones_like(out)
        layer.backward(gy)
        # Token 1 appears 3x -> its gradient row is 3x the ones vector.
        np.testing.assert_allclose(layer.grads[0][1], [3.0, 3.0, 3.0])
        np.testing.assert_allclose(layer.grads[0][2], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(layer.grads[0][0], [0.0, 0.0, 0.0])

    def test_param_gradient_finite_difference(self, rng):
        layer = Embedding(6, 3)
        layer.build((5,), rng)
        ids = rng.integers(0, 6, size=(2, 5))
        out = layer.forward(ids)
        gy = rng.standard_normal(out.shape)
        layer.forward(ids)
        layer.backward(gy)
        table = layer.params[0]
        eps = 1e-6
        for _ in range(20):
            i = rng.integers(6)
            j = rng.integers(3)
            orig = table[i, j]
            table[i, j] = orig + eps
            fp = float(np.sum(layer.forward(ids) * gy))
            table[i, j] = orig - eps
            fm = float(np.sum(layer.forward(ids) * gy))
            table[i, j] = orig
            num = (fp - fm) / (2 * eps)
            assert layer.grads[0][i, j] == pytest.approx(num, abs=1e-6)

    def test_rejects_float_input(self, rng):
        layer = Embedding(5, 2)
        layer.build((3,), rng)
        with pytest.raises(TypeError):
            layer.forward(np.array([[0.5, 1.0, 2.0]]))

    def test_rejects_out_of_vocab(self, rng):
        layer = Embedding(5, 2)
        layer.build((2,), rng)
        with pytest.raises(ValueError):
            layer.forward(np.array([[0, 7]]))


class TestLSTM:
    def test_output_is_last_hidden(self, rng):
        layer = LSTM(6)
        layer.build((4, 3), rng)
        out = layer.forward(rng.standard_normal((2, 4, 3)))
        assert out.shape == (2, 6)

    def test_input_gradient_finite_difference(self, rng):
        layer = LSTM(4)
        layer.build((3, 5), rng)
        x = rng.standard_normal((2, 3, 5))
        out = layer.forward(x)
        gy = rng.standard_normal(out.shape)
        layer.forward(x)
        gx = layer.backward(gy)
        eps = 1e-6
        flat = x.reshape(-1)
        for i in rng.choice(flat.size, size=20, replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(np.sum(layer.forward(x) * gy))
            flat[i] = orig - eps
            fm = float(np.sum(layer.forward(x) * gy))
            flat[i] = orig
            num = (fp - fm) / (2 * eps)
            assert gx.reshape(-1)[i] == pytest.approx(num, abs=1e-6)

    def test_param_gradient_finite_difference(self, rng):
        layer = LSTM(3)
        layer.build((3, 4), rng)
        x = rng.standard_normal((2, 3, 4))
        out = layer.forward(x)
        gy = rng.standard_normal(out.shape)
        layer.forward(x)
        layer.backward(gy)
        eps = 1e-6
        for p, g in zip(layer.params, layer.grads):
            flat = p.reshape(-1)
            gflat = g.reshape(-1)
            for i in rng.choice(flat.size, size=min(15, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                fp = float(np.sum(layer.forward(x) * gy))
                flat[i] = orig - eps
                fm = float(np.sum(layer.forward(x) * gy))
                flat[i] = orig
                num = (fp - fm) / (2 * eps)
                assert gflat[i] == pytest.approx(num, abs=1e-5)

    def test_forget_bias_initialised_to_one(self, rng):
        layer = LSTM(5)
        layer.build((3, 2), rng)
        b = layer.params[2]
        np.testing.assert_allclose(b[5:10], np.ones(5))
        np.testing.assert_allclose(b[:5], np.zeros(5))

    def test_longer_sequences_stay_finite(self, rng):
        layer = LSTM(8)
        layer.build((50, 4), rng)
        out = layer.forward(rng.standard_normal((3, 50, 4)) * 3)
        assert np.all(np.isfinite(out))
        grad = layer.backward(rng.standard_normal(out.shape))
        assert np.all(np.isfinite(grad))
