"""Nash-equilibrium bidding strategies for the FMore auction.

This module implements the theory of Section IV of the paper:

* **Che's Theorem 1** — in a first-score auction with ``K >= 1`` winners the
  equilibrium quality depends only on the private type:
  ``qs(theta) = argmax_q  s(q) - c(q, theta)``
  (:func:`optimize_quality`, with closed forms for the additive families,
  an exact box-corner search for the multilinear Section V-A game and a
  multi-start numerical fallback for the rest).
* **Paper Theorem 1** — the equilibrium payment with ``K`` winners:
  ``ps(theta) = c(qs, theta) + Int_0^u g(x) dx / g(u)`` with
  ``u(theta) = s(qs) - c(qs, theta)`` and winning kernel
  ``g(u) = sum_{i=1..K} [1 - H(u)]^{i-1} [H(u)]^{N-i}``, where ``H`` is the
  CDF of the maximum score across types (:class:`EquilibriumSolver`).
* **Che's Theorem 2 / Proposition 1** — closed-form payments for one and two
  winners via the type-space integral with exponent ``N - K``
  (:meth:`EquilibriumSolver.payment_che_closed_form`), used as an
  independent cross-check of the score-space machinery.

Two winning-probability kernels are available:

* ``win_model="paper"`` — the paper's Eq. 9, which omits the binomial
  coefficients of the true order statistic.  For ``K = 1`` and ``K = 2`` it
  coincides exactly with the Che/Proposition-1 forms (for ``K = 2`` note
  ``H^{N-1} + (1-H) H^{N-2} = H^{N-2}``).
* ``win_model="exact"`` — the combinatorially exact probability of placing
  in the top ``K`` among ``N`` i.i.d. scores,
  ``sum_{i=0..K-1} C(N-1, i) (1-H)^i H^{N-1-i}``.

The ablation benchmark compares the payments the two kernels induce.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import odesolvers as _odesolvers  # noqa: F401 - registers the margin methods
from .costs import CostModel, LinearCost, PowerCost, QuadraticCost
from .registry import MARGIN_METHODS
from .scoring import AdditiveScore, MultiplicativeScore, ScoringRule
from .valuation import PrivateValueModel

__all__ = [
    "optimize_quality",
    "optimize_quality_batch",
    "win_kernel",
    "EquilibriumSolver",
]

_WIN_MODELS = ("paper", "exact")


def win_kernel(h: np.ndarray | float, n_nodes: int, k_winners: int, model: str = "paper"):
    """Winning-probability kernel ``g`` as a function of the score CDF ``H``.

    ``model="exact"`` is the true top-K win probability, the chance that at
    most ``K - 1`` of the other ``N - 1`` scores beat ``H``.
    ``model="paper"`` evaluates Eq. 9, ``sum_{i=1..K} (1-H)^(i-1)
    H^(N-i)``, which the published payment formula uses.  Both lie in
    ``[0, 1]`` for every K and are vectorised over ``h``.  They agree for
    ``K = 1`` (and ``N <= 2``); otherwise Eq. 9 is *not* the top-K win
    probability: it omits the binomial coefficients, so ``N`` times its
    integral over ``H`` — the expected winner count — is
    ``sum_{i=1..K} 1/C(N-1, i-1)``, about ``1 + 1/(N-1)`` instead of K.
    """
    if model not in _WIN_MODELS:
        raise ValueError(f"unknown win model {model!r}; choose from {_WIN_MODELS}")
    if not (1 <= k_winners <= n_nodes):
        raise ValueError("need 1 <= K <= N")
    h_arr = np.clip(np.asarray(h, dtype=float), 0.0, 1.0)
    out = np.zeros_like(h_arr, dtype=float)
    if model == "paper":
        for i in range(1, k_winners + 1):
            out += (1.0 - h_arr) ** (i - 1) * h_arr ** (n_nodes - i)
    else:
        for i in range(0, k_winners):
            out += math.comb(n_nodes - 1, i) * (1.0 - h_arr) ** i * h_arr ** (
                n_nodes - 1 - i
            )
    if np.ndim(h) == 0:
        return float(out)
    return out


def _box_corners(bounds: np.ndarray) -> np.ndarray:
    """All corners of an axis-aligned box (``2**m`` points; ``m`` is small)."""
    m = bounds.shape[0]
    corners = np.empty((2 ** m, m))
    for idx in range(2 ** m):
        for j in range(m):
            corners[idx, j] = bounds[j, (idx >> j) & 1]
    return corners


def optimize_quality(
    rule: ScoringRule,
    cost: CostModel,
    theta: float,
    bounds: np.ndarray,
) -> np.ndarray:
    """Che's Theorem 1: ``qs(theta) = argmax_q s(q) - c(q, theta)`` on a box.

    Closed forms are used for additive scoring with quadratic/power/linear
    costs and an exact corner search for multiplicative scoring with linear
    cost; every other combination falls back to multi-start L-BFGS-B plus
    explicit corner evaluation (linear-in-q structures push optima to the
    box boundary).
    """
    b = np.asarray(bounds, dtype=float)
    if b.shape != (rule.n_dimensions, 2):
        raise ValueError("bounds must be an (m, 2) array of [lo, hi] rows")
    if np.any(b[:, 1] < b[:, 0]):
        raise ValueError("each bound row must satisfy lo <= hi")

    if _has_closed_form(rule, cost) or _is_multilinear(rule, cost):
        # One-row batch: the closed forms and the corner search live in
        # optimize_quality_batch so grid builds and single queries share
        # one (bitwise-identical) NumPy code path.
        return optimize_quality_batch(rule, cost, np.asarray([float(theta)]), b)[0]
    return _multi_start_quality(rule, cost, theta, b)


def _multi_start_quality(
    rule: ScoringRule, cost: CostModel, theta: float, bounds: np.ndarray
) -> np.ndarray:
    """Best of the box corners and three L-BFGS-B starts.

    The numerical fallback for games without a batch form, and the
    reference the corner search of multilinear games is tested against.
    ``bounds`` must already be a validated ``(m, 2)`` float array.
    """
    # Imported on first use: the paper's game never gets here, and a
    # process that never optimises should not pay for loading scipy.
    from scipy import optimize

    lo, hi = bounds[:, 0], bounds[:, 1]

    def objective(q: np.ndarray) -> float:
        return -(rule.value(q) - cost.cost(q, theta))

    candidates = [_best_corner(rule, cost, theta, bounds)]
    starts = [
        0.5 * (lo + hi),
        0.25 * lo + 0.75 * hi,
        0.75 * lo + 0.25 * hi,
    ]
    for x0 in starts:
        res = optimize.minimize(
            objective, x0, method="L-BFGS-B", bounds=list(map(tuple, bounds))
        )
        if res.success or np.isfinite(res.fun):
            candidates.append(np.clip(res.x, lo, hi))
    best = max(candidates, key=lambda q: rule.value(q) - cost.cost(q, theta))
    return np.asarray(best, dtype=float)


def _has_closed_form(rule: ScoringRule, cost: CostModel) -> bool:
    """True when ``argmax_q s(q) - c(q, theta)`` separates per dimension."""
    return isinstance(rule, AdditiveScore) and isinstance(
        cost, (QuadraticCost, LinearCost, PowerCost)
    )


def _is_multilinear(rule: ScoringRule, cost: CostModel) -> bool:
    """True when ``s(q) - c(q, theta)`` is affine in each ``q_j`` alone.

    Such an objective attains its maximum over a box at a corner, so the
    corner search alone is exact.
    """
    return isinstance(rule, MultiplicativeScore) and isinstance(cost, LinearCost)


def optimize_quality_batch(
    rule: ScoringRule,
    cost: CostModel,
    thetas: Sequence[float] | np.ndarray,
    bounds: np.ndarray,
) -> np.ndarray:
    """``qs(theta)`` for a whole type vector in one NumPy pass.

    Row ``i`` is bitwise-identical to ``optimize_quality(rule, cost,
    thetas[i], bounds)``.  The closed-form families (additive scoring with
    quadratic/linear/power costs) evaluate the same elementwise expressions
    over the full ``(n, m)`` grid at once.  Multiplicative scoring with
    linear cost is multilinear, so its optimum is a box corner: every row
    takes the first best of the ``2**m`` corners (:func:`_best_corners`).
    Every other combination falls back to the per-point numerical optimiser.
    """
    b = np.asarray(bounds, dtype=float)
    if b.shape != (rule.n_dimensions, 2):
        raise ValueError("bounds must be an (m, 2) array of [lo, hi] rows")
    if np.any(b[:, 1] < b[:, 0]):
        raise ValueError("each bound row must satisfy lo <= hi")
    t = np.asarray(thetas, dtype=float)
    if t.ndim != 1:
        raise ValueError("thetas must be a 1-D vector")
    lo, hi = b[:, 0], b[:, 1]
    if t.size == 0:
        return np.empty((0, rule.n_dimensions))

    if _has_closed_form(rule, cost):
        alpha = rule.weights
        if isinstance(cost, QuadraticCost):
            interior = alpha / (2.0 * t[:, None] * np.maximum(cost.betas, 1e-300))
            return np.clip(interior, lo, hi)
        if isinstance(cost, LinearCost):
            marginal_gain = alpha - t[:, None] * cost.betas
            return np.where(marginal_gain > 0.0, hi, lo)
        if isinstance(cost, PowerCost):
            gam = cost.gammas
            theta_beta = t[:, None] * cost.betas
            denom = theta_beta * gam
            # Masked lanes (gamma == 1, denominator <= 0) are overwritten
            # below; the substitutes only keep the exponent/division finite.
            safe_exp = 1.0 / (np.where(gam == 1.0, 2.0, gam) - 1.0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                interior = (alpha / np.where(denom > 0.0, denom, 1.0)) ** safe_exp
            q = np.where(
                denom > 0.0,
                interior,
                np.where(alpha > 0.0, hi, lo),
            )
            q = np.where(gam == 1.0, np.where(alpha > theta_beta, hi, lo), q)
            return np.clip(q, lo, hi)

    if _is_multilinear(rule, cost):
        return _best_corners(rule, cost, t, b)

    return np.stack([_multi_start_quality(rule, cost, float(theta), b) for theta in t])


def _column_fills(table: np.ndarray) -> tuple[float | None, ...]:
    """Per column of ``table``, the value ``np.interp`` returns everywhere.

    A column holding one finite value ``v`` interpolates to ``v`` on the
    grid, between grid points and beyond its ends, so a lookup can fill
    ``v`` instead.  ``-0.0`` is the exception: between grid points
    ``np.interp`` adds a ``+0.0`` slope term and returns ``+0.0``.  Every
    other column (``None``) must be interpolated.
    """
    fills: list[float | None] = []
    for column in table.T:
        v = column[0]
        # Equal floats share their bits except for the sign of zero.
        signed_ok = v != 0.0 or not np.signbit(column).any()
        constant = np.isfinite(v) and (column == v).all() and signed_ok
        fills.append(float(v) if constant else None)
    return tuple(fills)


def _best_corners(
    rule: ScoringRule, cost: CostModel, thetas: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """Per type, the first box corner maximising ``s(q) - c(q, theta)``.

    Every ``(theta, corner)`` pair is priced by the rule's ``value_batch``
    and the cost's ``cost_rows``, so a row does not depend on the other
    types it is searched with.
    """
    corners = _box_corners(bounds)
    n = corners.shape[0]
    costs = cost.cost_rows(np.tile(corners, (thetas.size, 1)), np.repeat(thetas, n))
    gains = rule.value_batch(corners) - costs.reshape(thetas.size, n)
    return corners[np.argmax(gains, axis=1)]


def _best_corner(rule: ScoringRule, cost: CostModel, theta: float, bounds: np.ndarray):
    """:func:`_best_corners` for one type."""
    return _best_corners(rule, cost, np.asarray([float(theta)]), bounds)[0]


class EquilibriumSolver:
    """Precomputed equilibrium strategy tables for one auction environment.

    The environment is ``(s, c, F, N, K)`` plus per-dimension quality bounds.
    Construction tabulates the type-to-quality map, the maximum-score curve
    ``u0(theta)``, the score CDF ``H`` and the payment margin ``m(u)`` on a
    dense grid; all queries afterwards are O(log grid) interpolations, which
    is what lets the federated-learning simulator price hundreds of bids per
    round cheaply (the paper's "linear time" lightweightness claim).

    Parameters
    ----------
    quality_rule:
        The ``s(q)`` part of the scoring rule (common knowledge).
    cost:
        The cost family ``c(q, theta)`` (common knowledge; the realised
        ``theta`` is private).
    model:
        The :class:`~repro.core.valuation.PrivateValueModel` carrying the
        type distribution and the game size ``(N, K)``.
    quality_bounds:
        ``(m, 2)`` array of ``[lo, hi]`` feasible quality ranges.
    win_model:
        ``"paper"`` (Eq. 9, default) or ``"exact"``.
    payment_method:
        Default backend for the payment margin: ``"quadrature"``, ``"euler"``
        or ``"rk4"``.
    grid_size:
        Number of tabulation points across the type support.
    """

    def __init__(
        self,
        quality_rule: ScoringRule,
        cost: CostModel,
        model: PrivateValueModel,
        quality_bounds: Sequence[Sequence[float]] | np.ndarray,
        win_model: str = "paper",
        payment_method: str = "quadrature",
        grid_size: int = 257,
    ):
        if quality_rule.n_dimensions != cost.n_dimensions:
            raise ValueError("scoring rule and cost model disagree on m")
        if win_model not in _WIN_MODELS:
            raise ValueError(f"unknown win model {win_model!r}")
        if payment_method not in MARGIN_METHODS:
            raise ValueError(
                f"unknown payment method {payment_method!r}; "
                f"choose from {list(MARGIN_METHODS.names())}"
            )
        if grid_size < 16:
            raise ValueError("grid_size must be at least 16")
        self.quality_rule = quality_rule
        self.cost = cost
        self.model = model
        self.quality_bounds = np.asarray(quality_bounds, dtype=float)
        self.win_model = win_model
        self.payment_method = payment_method
        self.grid_size = int(grid_size)
        self._margin_cache: dict[tuple[str, str], np.ndarray] = {}
        self._clones: dict[tuple[int, int], EquilibriumSolver] = {}
        self._build_tables()

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        dist = self.model.distribution
        self.theta_grid = np.linspace(dist.lo, dist.hi, self.grid_size)
        qualities = optimize_quality_batch(
            self.quality_rule, self.cost, self.theta_grid, self.quality_bounds
        )
        self.quality_grid = qualities
        self._quality_fills = _column_fills(qualities)
        u0 = self.quality_rule.value_batch(qualities) - self.cost.cost_rows(
            qualities, self.theta_grid
        )
        # The envelope theorem guarantees u0 is non-increasing in theta
        # (du0/dtheta = -c_theta < 0); numerical optimisation noise can
        # produce tiny violations that we iron out.
        u0 = np.minimum.accumulate(u0)
        self.u0_grid = u0
        # Increasing-score view for interpolation and the ODE backends.
        u_incr = u0[::-1].copy()
        theta_for_u = self.theta_grid[::-1].copy()
        span = max(u_incr[-1] - u_incr[0], 1.0)
        eps = 1e-12 * span
        for i in range(1, u_incr.size):
            if u_incr[i] <= u_incr[i - 1]:
                u_incr[i] = u_incr[i - 1] + eps
        self.u_incr = u_incr
        self.h_grid = 1.0 - np.asarray(dist.cdf(theta_for_u), dtype=float)
        self.g_grid = win_kernel(
            self.h_grid, self.model.n_nodes, self.model.k_winners, self.win_model
        )

    def _margin_grid(self, method: str | None = None, model: str | None = None) -> np.ndarray:
        method = method or self.payment_method
        model = model or self.win_model
        key = (method, model)
        if key not in self._margin_cache:
            if model == self.win_model:
                g = self.g_grid
            else:
                g = win_kernel(
                    self.h_grid, self.model.n_nodes, self.model.k_winners, model
                )
            self._margin_cache[key] = MARGIN_METHODS.get(method)(self.u_incr, g)
        return self._margin_cache[key]

    # ------------------------------------------------------------------
    # Strategy queries
    # ------------------------------------------------------------------
    def optimal_quality(self, theta: float) -> np.ndarray:
        """``qs(theta)`` — Che Theorem 1 (interpolated from the table)."""
        self._check_theta(theta)
        out = np.empty(self.quality_rule.n_dimensions)
        for j in range(out.size):
            out[j] = np.interp(theta, self.theta_grid, self.quality_grid[:, j])
        return out

    def max_score(self, theta: float) -> float:
        """``u0(theta) = s(qs) - c(qs, theta)`` — the best attainable score."""
        self._check_theta(theta)
        return float(np.interp(theta, self.theta_grid, self.u0_grid))

    def score_cdf(self, u: float | np.ndarray):
        """``H(u)`` — CDF of the maximum score of a random competitor."""
        return np.interp(u, self.u_incr, self.h_grid, left=0.0, right=1.0)

    def win_probability_at_score(self, u: float, model: str | None = None) -> float:
        """``g(u)`` for a submitted score ``u`` (selectable kernel)."""
        h = float(self.score_cdf(u))
        return float(
            win_kernel(h, self.model.n_nodes, self.model.k_winners, model or self.win_model)
        )

    def win_probability(self, theta: float, model: str | None = None) -> float:
        """Equilibrium winning probability of a type-``theta`` node."""
        return self.win_probability_at_score(self.max_score(theta), model=model)

    def margin_at_score(self, u: float, method: str | None = None) -> float:
        """Profit margin ``m(u) = Int g / g(u)`` for an achieved score ``u``."""
        grid = self._margin_grid(method)
        return float(np.interp(u, self.u_incr, grid, left=0.0, right=grid[-1]))

    def margin(self, theta: float, method: str | None = None) -> float:
        """Equilibrium profit margin ``ps(theta) - c(qs, theta)``."""
        return self.margin_at_score(self.max_score(theta), method=method)

    def payment(self, theta: float, method: str | None = None) -> float:
        """Paper Theorem 1: ``ps(theta) = c(qs, theta) + m(u(theta))``."""
        q = self.optimal_quality(theta)
        return float(self.cost.cost(q, theta) + self.margin(theta, method=method))

    def equilibrium_score(self, theta: float) -> float:
        """Submitted score ``b(u) = u - m(u)`` at equilibrium."""
        u = self.max_score(theta)
        return u - self.margin_at_score(u)

    def expected_profit(self, theta: float, model: str = "exact") -> float:
        """``pi = (ps - c) * Pr{win}`` (Eq. 11) with the chosen win model."""
        return self.margin(theta) * self.win_probability(theta, model=model)

    def bid(self, theta: float) -> tuple[np.ndarray, float]:
        """Return the full equilibrium bid ``(qs(theta), ps(theta))``: one
        row of :meth:`bid_batch`."""
        qualities, payments = self.bid_batch([theta])
        return qualities[0], float(payments[0])

    def bid_with_capacity(
        self, theta: float, capacity: Sequence[float] | np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Equilibrium bid of a node whose available resources cap quality.

        MEC nodes cannot offer more than they currently have (Section II-A:
        resources are dynamic and constrained).  The agent plays the
        equilibrium quality clipped into ``[lo, capacity]`` and prices the
        resulting score with the unconstrained margin curve — a boundedly
        rational strategy that coincides with the exact equilibrium whenever
        the cap does not bind.  One row of :meth:`bid_batch`.
        """
        cap = np.asarray(capacity, dtype=float)
        if cap.shape != (self.quality_rule.n_dimensions,):
            raise ValueError("capacity must have one entry per dimension")
        qualities, payments = self.bid_batch([theta], cap[np.newaxis])
        return qualities[0], float(payments[0])

    def bid_batch(
        self,
        thetas: Sequence[float] | np.ndarray,
        capacities: np.ndarray | None = None,
        with_costs: bool = False,
        ranges: Sequence[tuple[int, "EquilibriumSolver"]] | None = None,
    ):
        """Equilibrium bids for a whole population in one NumPy call.

        ``thetas`` is an ``(n,)`` vector of private types; ``capacities``
        (optional) an ``(n, m)`` array of per-node quality caps.  Returns
        ``(Q, P)`` where ``Q`` is ``(n, m)`` qualities and ``P`` the
        ``(n,)`` asked payments (``(Q, P, costs)`` with
        ``with_costs=True``, saving the caller a re-pricing pass for IR
        checks).  Every step is elementwise per row — the table
        interpolations, the clip, and the rule's ``value_batch`` and the
        cost's ``cost_rows`` — so row ``i`` does not depend on the other
        rows, and :meth:`bid` (no caps) and :meth:`bid_with_capacity` (with
        caps), which are one-row calls of this method, equal it by
        construction.  That is what lets
        :class:`~repro.core.mechanism.FMoreMechanism` collect all N bids of
        a round in one call, bit for bit as each agent's ``make_bid``.

        ``ranges`` prices consecutive row ranges in other games of this
        solver's family: ``(stop, clone)`` pairs in row order, each
        ``clone`` a :meth:`with_population` clone (or this solver), range
        ``i`` covering rows ``[stop_(i-1), stop_i)`` and the last stop
        ``n``.  Qualities, costs and scores come from the tables every
        clone shares, so they are computed once for all rows; only the
        margin lookup ``m(u)`` runs per range, in that range's game.  Row
        ``i`` of a range then equals ``clone.bid_batch`` of that row.
        ``None`` is the one range ``[(n, self)]``.
        """
        t = np.asarray(thetas, dtype=float)
        if t.ndim != 1:
            raise ValueError("thetas must be a 1-D vector")
        dist = self.model.distribution
        if t.size and not (
            t.min() >= dist.lo - 1e-9 and t.max() <= dist.hi + 1e-9
        ):
            raise ValueError(
                f"thetas outside the type support [{dist.lo}, {dist.hi}]"
            )
        m = self.quality_rule.n_dimensions
        qualities = np.empty((t.size, m))
        for j, fill in enumerate(self._quality_fills):
            if fill is None:
                qualities[:, j] = np.interp(t, self.theta_grid, self.quality_grid[:, j])
            else:
                qualities[:, j] = fill
        if capacities is None:
            # Uncapped path mirrors bid(): u comes from the tabulated
            # envelope u0(theta), not from re-evaluating s(q) - c(q, theta).
            costs = self.cost.cost_rows(qualities, t)
            u = np.interp(t, self.theta_grid, self.u0_grid)
        else:
            cap = np.asarray(capacities, dtype=float)
            if cap.shape != (t.size, m):
                raise ValueError("capacities must be an (n, m) array")
            qualities = np.clip(
                qualities,
                self.quality_bounds[:, 0],
                np.minimum(cap, self.quality_bounds[:, 1]),
            )
            costs = self.cost.cost_rows(qualities, t)
            u = self.quality_rule.value_batch(qualities) - costs
        margins = np.empty(t.size)
        start = 0
        for stop, solver in ranges if ranges is not None else ((t.size, self),):
            if solver.quality_grid is not self.quality_grid or stop < start:
                raise ValueError(
                    "ranges must be (stop, clone) pairs in row order, each "
                    "clone a with_population clone of this solver"
                )
            grid = solver._margin_grid()
            margins[start:stop] = np.interp(
                u[start:stop], solver.u_incr, grid, left=0.0, right=grid[-1]
            )
            start = stop
        if start != t.size:
            raise ValueError(f"ranges cover {start} of {t.size} rows")
        payments = costs + margins
        if with_costs:
            return qualities, payments, costs
        return qualities, payments

    # ------------------------------------------------------------------
    # Cross-checks and population sweeps
    # ------------------------------------------------------------------
    def payment_che_closed_form(self, theta: float) -> float:
        """Type-space payment with exponent ``N - K``.

        For ``K = 1`` this is exactly Che's Theorem 2; for ``K = 2`` exactly
        the paper's Proposition 1 (the Eq. 9 kernel collapses:
        ``H^{N-1} + (1-H) H^{N-2} = H^{N-2}``).  For ``K >= 3`` it is the
        natural generalisation and differs from the Eq. 9 kernel; tests pin
        the K<=2 equivalence and the ablation bench quantifies the K>=3 gap.
        """
        self._check_theta(theta)
        dist = self.model.distribution
        n, k = self.model.n_nodes, self.model.k_winners
        exponent = n - k
        survival_at_theta = 1.0 - float(dist.cdf(theta))
        q_theta = self.optimal_quality(theta)
        base_cost = self.cost.cost(q_theta, theta)
        if survival_at_theta <= 0.0:
            return float(base_cost)
        mask = self.theta_grid >= theta
        ts = np.concatenate([[theta], self.theta_grid[mask]])
        integrand = np.empty_like(ts)
        for i, t in enumerate(ts):
            q_t = self.optimal_quality(float(t))
            ratio = (1.0 - float(dist.cdf(t))) / survival_at_theta
            integrand[i] = self.cost.d_theta(q_t, float(t)) * ratio ** exponent
        margin = float(np.trapezoid(integrand, ts))
        return float(base_cost + margin)

    def with_population(self, n_nodes: int | None = None, k_winners: int | None = None):
        """Clone the solver with a different ``(N, K)``, reusing quality tables.

        Only the winning kernel depends on the population, so Theorem-2/3
        sweeps (profit vs ``N``, profit vs ``K``) avoid re-optimising
        qualities.
        """
        new_model = PrivateValueModel(
            distribution=self.model.distribution,
            n_nodes=n_nodes if n_nodes is not None else self.model.n_nodes,
            k_winners=k_winners if k_winners is not None else self.model.k_winners,
        )
        clone = object.__new__(EquilibriumSolver)
        clone.quality_rule = self.quality_rule
        clone.cost = self.cost
        clone.model = new_model
        clone.quality_bounds = self.quality_bounds
        clone.win_model = self.win_model
        clone.payment_method = self.payment_method
        clone.grid_size = self.grid_size
        clone._margin_cache = {}
        clone._clones = {}
        clone.theta_grid = self.theta_grid
        clone.quality_grid = self.quality_grid
        clone._quality_fills = self._quality_fills
        clone.u0_grid = self.u0_grid
        clone.u_incr = self.u_incr
        clone.h_grid = self.h_grid
        clone.g_grid = win_kernel(
            clone.h_grid, new_model.n_nodes, new_model.k_winners, clone.win_model
        )
        return clone

    def clone_for(self, n_nodes: int, k_winners: int) -> "EquilibriumSolver":
        """:meth:`with_population` ``(n_nodes, k_winners)``, memoised here.

        The two-tier auction prices each cluster in its own ``(n_c,
        k_local)`` game; keeping the clones (and their margin tables) on
        the population solver, which the engine caches per game, lets
        every session of that game reuse them.
        """
        key = (int(n_nodes), int(k_winners))
        clone = self._clones.get(key)
        if clone is None:
            clone = self._clones[key] = self.with_population(*key)
        return clone

    def _check_theta(self, theta: float) -> None:
        dist = self.model.distribution
        if not (dist.lo - 1e-9 <= theta <= dist.hi + 1e-9):
            raise ValueError(
                f"theta={theta} outside the type support [{dist.lo}, {dist.hi}]"
            )
