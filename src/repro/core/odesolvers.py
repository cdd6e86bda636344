"""Numerical backends for the equilibrium payment computation.

Paper Theorem 1 gives the equilibrium payment as

    ps(theta) = c(qs, theta) + m(u),    m(u) = (1/g(u)) * Int_0^u g(x) dx,

where ``u = s(qs(theta)) - c(qs(theta), theta)`` is the node's maximum
attainable score and ``g`` its winning-probability kernel.  The paper solves
the equivalent first-order linear ODE (Eq. 12)

    b'(u) + phi(u) b(u) = u phi(u),      phi = g'/g,  b(0) = 0,

with Euler's method and notes Runge-Kutta as an alternative.  Working with
the *margin* ``m(u) = u - b(u)`` is numerically nicer because the initial
condition is simply ``m = 0`` at the bottom of the support and the ODE
becomes

    m'(u) = 1 - m(u) * phi(u).

This module provides three interchangeable backends:

* :func:`quadrature_margin` — direct cumulative trapezoid of ``Int g`` (the
  reference implementation; exact up to quadrature error),
* :func:`euler_margin` — forward Euler on the margin ODE (what the paper's
  Algorithm 1 line 7 prescribes),
* :func:`rk4_margin` — classic fourth-order Runge-Kutta on the same ODE.

All three take a shared increasing grid of scores ``u_grid`` with the kernel
``g`` evaluated on it, and return the margin on that grid.  ``g`` may be
zero on a prefix of the grid (scores no type can beat); the margin is zero
there by convention.
"""

from __future__ import annotations

import numpy as np

from .registry import MARGIN_METHODS

__all__ = [
    "quadrature_margin",
    "euler_margin",
    "rk4_margin",
    "MARGIN_BACKENDS",
]


def _validate(u_grid: np.ndarray, g_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u_grid, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise ValueError("u_grid must be 1-D with at least two points")
    if g.shape != u.shape:
        raise ValueError("g_values must match u_grid in shape")
    if np.any(np.diff(u) <= 0):
        raise ValueError("u_grid must be strictly increasing")
    if np.any(g < -1e-12):
        raise ValueError("g must be non-negative")
    return u, np.maximum(g, 0.0)


def quadrature_margin(u_grid: np.ndarray, g_values: np.ndarray) -> np.ndarray:
    """Margin via cumulative trapezoidal quadrature of ``Int g / g(u)``."""
    u, g = _validate(u_grid, g_values)
    du = np.diff(u)
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * du)]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = np.where(g > 0.0, cumulative / np.where(g > 0.0, g, 1.0), 0.0)
    return margin


def euler_margin(u_grid: np.ndarray, g_values: np.ndarray) -> np.ndarray:
    """Margin via forward Euler on ``m' = 1 - m * g'/g`` (paper's method).

    ``phi = g'/g`` is evaluated with one-sided differences of ``log g`` on
    the grid, matching the discretisation the paper's Eq. 13-14 imply.
    """
    u, g = _validate(u_grid, g_values)
    with np.errstate(divide="ignore"):
        log_g = np.log(g).tolist()
    # The recurrence runs over Python floats: the same IEEE operations in
    # the same order as over NumPy scalars, at a fraction of the cost.
    u, g = u.tolist(), g.tolist()
    margin = [0.0] * len(u)
    for i in range(1, len(u)):
        if g[i - 1] <= 0.0 or g[i] <= 0.0:
            # Below the competitive support: nobody wins with such a score,
            # profit margin pinned at zero.
            continue
        h = u[i] - u[i - 1]
        phi = (log_g[i] - log_g[i - 1]) / h
        m = margin[i - 1] + h * (1.0 - margin[i - 1] * phi)
        margin[i] = 0.0 if m < 0.0 else m
    return np.asarray(margin)


def rk4_margin(u_grid: np.ndarray, g_values: np.ndarray) -> np.ndarray:
    """Margin via classic RK4 on ``m' = 1 - m * phi(u)``.

    ``phi`` between grid points is obtained by linear interpolation of
    ``log g``, which keeps the scheme self-contained on the same grid the
    other backends use.
    """
    u, g = _validate(u_grid, g_values)
    n = u.size
    log_g = np.where(g > 0.0, np.log(np.where(g > 0.0, g, 1.0)), -np.inf)

    def phi_at(x: float, lo: int, hi: int) -> float:
        if not np.isfinite(log_g[lo]) or not np.isfinite(log_g[hi]):
            return 0.0
        h = u[hi] - u[lo]
        return (log_g[hi] - log_g[lo]) / h

    margin = np.zeros(n)
    for i in range(1, n):
        if g[i - 1] <= 0.0 or g[i] <= 0.0:
            margin[i] = 0.0
            continue
        h = u[i] - u[i - 1]
        phi = phi_at(u[i - 1], i - 1, i)

        def f(m: float) -> float:
            return 1.0 - m * phi

        m0 = margin[i - 1]
        k1 = f(m0)
        k2 = f(m0 + 0.5 * h * k1)
        k3 = f(m0 + 0.5 * h * k2)
        k4 = f(m0 + h * k3)
        margin[i] = m0 + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if margin[i] < 0.0:
            margin[i] = 0.0
    return margin


MARGIN_BACKENDS = {
    "quadrature": quadrature_margin,
    "euler": euler_margin,
    "rk4": rk4_margin,
}

# Same three backends under the registry surface used by repro.api specs.
for _name, _fn in MARGIN_BACKENDS.items():
    MARGIN_METHODS.register(_name, _fn)
del _name, _fn
