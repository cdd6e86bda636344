"""Unit tests for the payment-margin ODE backends (paper Eqs. 12-14)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.odesolvers import (
    MARGIN_BACKENDS,
    _validate,
    euler_margin,
    quadrature_margin,
    rk4_margin,
)


def _power_kernel(u, exponent):
    """g(u) = (u / u_max)^exponent — analytic margin u/(exponent+1)."""
    return (u / u[-1]) ** exponent


class TestQuadratureMargin:
    def test_constant_kernel(self):
        # g = 1 -> margin(u) = u - u0.
        u = np.linspace(0.0, 2.0, 201)
        m = quadrature_margin(u, np.ones_like(u))
        np.testing.assert_allclose(m, u, atol=1e-12)

    def test_power_kernel_analytic(self):
        # Int_0^u x^e dx / u^e = u / (e + 1).  Trapezoid error dominates at
        # the tiny-u end of the grid, hence the absolute-tolerance floor.
        u = np.linspace(0.0, 1.0, 2001)
        for e in (1, 3, 9):
            m = quadrature_margin(u, _power_kernel(u, e))
            np.testing.assert_allclose(m[1:], u[1:] / (e + 1), rtol=1e-3, atol=2e-4)

    def test_zero_prefix_gives_zero_margin(self):
        u = np.linspace(0.0, 1.0, 101)
        g = np.where(u < 0.5, 0.0, 1.0)
        m = quadrature_margin(u, g)
        assert np.all(m[u < 0.5] == 0.0)
        # Above the dead zone the margin accumulates from 0.5 on.
        assert m[-1] == pytest.approx(0.5, abs=0.01)


class TestBackendAgreement:
    @pytest.mark.parametrize("exponent", [1, 4, 9])
    def test_three_backends_agree(self, exponent):
        u = np.linspace(0.0, 1.0, 801)
        g = _power_kernel(u, exponent)
        ref = quadrature_margin(u, g)
        np.testing.assert_allclose(euler_margin(u, g)[1:], ref[1:], rtol=0.02, atol=1e-3)
        np.testing.assert_allclose(rk4_margin(u, g)[1:], ref[1:], rtol=0.02, atol=1e-3)

    def test_rk4_more_accurate_than_euler_on_coarse_grid(self):
        u = np.linspace(0.01, 1.0, 21)
        g = _power_kernel(u, 5)
        analytic = u / 6.0
        err_euler = np.abs(euler_margin(u, g) - analytic)[5:].max()
        err_rk4 = np.abs(rk4_margin(u, g) - analytic)[5:].max()
        assert err_rk4 <= err_euler


class TestValidation:
    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            quadrature_margin(np.array([1.0, 0.5]), np.array([1.0, 1.0]))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            euler_margin(np.array([0.0, 1.0]), np.array([1.0]))

    def test_rejects_negative_kernel(self):
        with pytest.raises(ValueError):
            rk4_margin(np.array([0.0, 1.0]), np.array([1.0, -0.5]))

    def test_registry_contains_all(self):
        assert set(MARGIN_BACKENDS) == {"quadrature", "euler", "rk4"}

    def test_margins_nonnegative(self):
        u = np.linspace(0.0, 1.0, 101)
        g = _power_kernel(u, 2)
        for backend in MARGIN_BACKENDS.values():
            assert np.all(backend(u, g) >= 0.0)


def _euler_margin_oracle(u_grid, g_values):
    """``euler_margin`` as it was, looping over NumPy scalars."""
    u, g = _validate(u_grid, g_values)
    n = u.size
    margin = np.zeros(n)
    for i in range(1, n):
        h = u[i] - u[i - 1]
        if g[i - 1] <= 0.0 or g[i] <= 0.0:
            # Below the competitive support: nobody wins with such a score,
            # profit margin pinned at zero.
            margin[i] = 0.0
            continue
        phi = (np.log(g[i]) - np.log(g[i - 1])) / h
        margin[i] = margin[i - 1] + h * (1.0 - margin[i - 1] * phi)
        if margin[i] < 0.0:
            margin[i] = 0.0
    return margin


@st.composite
def margin_grids(draw):
    """A strictly increasing score grid and a kernel with a zero prefix."""
    n = draw(st.integers(2, 300))
    start = draw(st.floats(-5.0, 5.0))
    steps = draw(hnp.arrays(np.float64, n - 1, elements=st.floats(1e-6, 10.0)))
    u = np.concatenate([[start], start + np.cumsum(steps)])
    g = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        g = np.sort(g) ** draw(st.floats(0.5, 40.0))  # kernel-shaped
    g[: draw(st.integers(0, n))] = 0.0
    return u, g


@given(grid=margin_grids())
@settings(max_examples=150, deadline=None)
def test_euler_margin_matches_the_numpy_scalar_loop_bytewise(grid):
    u, g = grid
    assume(np.all(np.diff(u) > 0))  # no step lost to rounding
    assert euler_margin(u, g).tobytes() == _euler_margin_oracle(u, g).tobytes()
