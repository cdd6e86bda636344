"""The NN substrate's kernels: GEMM, im2col/col2im and the LSTM step.

Each is checked bit for bit: the GEMM against ``a @ b``, col2im as the
inverse of im2col on disjoint windows, the LSTM step against its own gate
equations.  ``tests/test_nn_kernels.py`` holds the differential oracles
for col2im and max-pooling.
"""

import numpy as np

from repro.fl.nn.backends import KERNELS, numpy_col2im, numpy_im2col


class TestNumpyReference:
    def test_matmul_is_numpy_matmul(self, rng):
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        np.testing.assert_array_equal(KERNELS.matmul(a, b), a @ b)

    def test_col2im_inverts_im2col_for_disjoint_windows(self, rng):
        # Stride == kernel: windows tile the input exactly once, so
        # scatter-add restores the original array.
        x = rng.standard_normal((2, 6, 6, 2))
        cols, (oh, ow) = numpy_im2col(x, 2, 2, 2, 0)
        back = numpy_col2im(cols, x.shape, 2, 2, 2, 0, oh, ow)
        np.testing.assert_array_equal(back, x)

    def test_lstm_step_shapes_and_gate_ranges(self, rng):
        n, d, h = 4, 5, 3
        x_t = rng.standard_normal((n, d))
        h_prev = rng.standard_normal((n, h))
        c_prev = rng.standard_normal((n, h))
        wx = rng.standard_normal((d, 4 * h))
        wh = rng.standard_normal((h, 4 * h))
        b = rng.standard_normal(4 * h)
        h_next, c_next, i, f, g, o, tanh_c = KERNELS.lstm_step(
            x_t, h_prev, c_prev, wx, wh, b
        )
        for arr in (h_next, c_next, i, f, g, o, tanh_c):
            assert arr.shape == (n, h)
        for gate in (i, f, o):
            assert np.all((gate > 0.0) & (gate < 1.0))
        np.testing.assert_array_equal(c_next, f * c_prev + i * g)
        np.testing.assert_array_equal(h_next, o * np.tanh(c_next))
