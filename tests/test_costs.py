"""Unit tests for cost models and the single-crossing conditions."""

import numpy as np
import pytest

from repro.core.costs import (
    LinearCost,
    PowerCost,
    QuadraticCost,
    check_single_crossing,
)
from repro.core.equilibrium import EquilibriumSolver
from repro.core.scoring import AdditiveScore
from repro.core.valuation import PrivateValueModel, UniformTheta


def _game(weights, cost, bounds, n_nodes, k_winners, grid_size):
    return EquilibriumSolver(
        AdditiveScore(weights),
        cost,
        PrivateValueModel(UniformTheta(0.1, 1.0), n_nodes, k_winners),
        bounds,
        grid_size=grid_size,
    )


#: Games whose scoring or cost coefficients are not exact binary fractions:
#: the Section V-C cluster testbed and an additive-quadratic game.
_GAMES = {
    "cluster": _game(
        [0.4, 0.3, 0.3], LinearCost([0.25, 0.25, 0.5]), [[0.0, 1.0]] * 3, 31, 8, 129
    ),
    "additive-quadratic": _game(
        [0.6, 0.4], QuadraticCost([0.3, 0.7]), [[0.01, 5.0], [0.05, 1.0]], 20, 4, 65
    ),
}


class TestLinearCost:
    def test_value(self):
        cost = LinearCost([4.0, 2.0])
        assert cost.cost(np.array([1.0, 0.5]), theta=0.5) == pytest.approx(2.5)

    def test_gradient(self):
        cost = LinearCost([4.0, 2.0])
        np.testing.assert_allclose(
            cost.gradient_q(np.array([1.0, 1.0]), 0.5), [2.0, 1.0]
        )

    def test_d_theta_is_cost_over_theta(self):
        cost = LinearCost([4.0, 2.0])
        q = np.array([2.0, 1.0])
        assert cost.d_theta(q, 0.7) == pytest.approx(cost.cost(q, 0.7) / 0.7)

    @pytest.mark.parametrize("n", [1, 2, 31, 64, 1000])
    @pytest.mark.parametrize("game", sorted(_GAMES))
    def test_batch_rows_equal_rows_priced_alone(self, game, n):
        """Bitwise, whatever the batch size: row ``i`` of ``cost_rows`` and
        of a capped ``bid_batch`` is the row priced on its own."""
        solver = _GAMES[game]
        rng = np.random.default_rng(n)
        thetas = rng.uniform(0.1, 1.0, n)
        caps = rng.uniform(0.0, 1.2, (n, solver.cost.n_dimensions))
        costs = solver.cost.cost_rows(caps, thetas)
        alone = [solver.cost.cost_rows(caps[i : i + 1], thetas[i : i + 1]) for i in range(n)]
        assert np.concatenate(alone).tobytes() == costs.tobytes()
        scalar = [solver.cost.cost(caps[i], thetas[i]) for i in range(n)]
        assert np.asarray(scalar).tobytes() == costs.tobytes()
        qualities, payments = solver.bid_batch(thetas, caps)
        for i in range(n):
            q, p = solver.bid_with_capacity(thetas[i], caps[i])
            assert q.tobytes() == qualities[i].tobytes()
            assert p == payments[i]

    def test_increasing_in_theta(self):
        cost = LinearCost([1.0, 1.0])
        q = np.array([1.0, 1.0])
        assert cost.cost(q, 0.9) > cost.cost(q, 0.2)


class TestQuadraticCost:
    def test_value(self):
        cost = QuadraticCost([1.0, 2.0])
        assert cost.cost(np.array([2.0, 1.0]), 0.5) == pytest.approx(3.0)

    def test_gradient_matches_finite_difference(self):
        cost = QuadraticCost([1.5, 0.5])
        q = np.array([1.2, 0.8])
        grad = cost.gradient_q(q, 0.6)
        eps = 1e-6
        for j in range(2):
            qp, qm = q.copy(), q.copy()
            qp[j] += eps
            qm[j] -= eps
            num = (cost.cost(qp, 0.6) - cost.cost(qm, 0.6)) / (2 * eps)
            assert grad[j] == pytest.approx(num, rel=1e-5)


class TestPowerCost:
    def test_gamma_one_equals_linear(self):
        power = PowerCost([2.0, 3.0], gammas=1.0)
        linear = LinearCost([2.0, 3.0])
        q = np.array([1.5, 0.5])
        assert power.cost(q, 0.4) == pytest.approx(linear.cost(q, 0.4))

    def test_gamma_two_equals_quadratic(self):
        power = PowerCost([2.0, 3.0], gammas=2.0)
        quad = QuadraticCost([2.0, 3.0])
        q = np.array([1.5, 0.5])
        assert power.cost(q, 0.4) == pytest.approx(quad.cost(q, 0.4))

    def test_mixed_gammas(self):
        cost = PowerCost([1.0, 1.0], gammas=[1.0, 3.0])
        assert cost.cost(np.array([2.0, 2.0]), 1.0) == pytest.approx(10.0)

    def test_rejects_gamma_below_one(self):
        with pytest.raises(ValueError):
            PowerCost([1.0], gammas=0.5)

    def test_rejects_negative_quality(self):
        cost = PowerCost([1.0], gammas=2.0)
        with pytest.raises(ValueError):
            cost.cost(np.array([-1.0]), 0.5)


class TestSingleCrossing:
    """The paper's assumptions: c_qq >= 0, c_q_theta > 0, c_qq_theta >= 0."""

    @pytest.mark.parametrize(
        "cost",
        [
            LinearCost([1.0, 2.0]),
            QuadraticCost([1.0, 0.5]),
            PowerCost([1.0, 1.0], gammas=[1.5, 3.0]),
        ],
        ids=["linear", "quadratic", "power"],
    )
    def test_families_satisfy_single_crossing(self, cost):
        grid = np.array([[0.5, 0.5], [1.0, 2.0], [3.0, 1.0]])
        report = check_single_crossing(cost, grid, [0.2, 0.5, 0.9])
        assert report.satisfied

    def test_detects_violation(self):
        class DecreasingMarginal(LinearCost):
            # c = (1 - theta) * sum(beta q): marginal cost falls with theta.
            def cost(self, quality, theta):
                return float((1.0 - theta) * np.dot(self.betas, np.asarray(quality)))

        report = check_single_crossing(
            DecreasingMarginal([1.0]), np.array([[1.0]]), [0.3, 0.6]
        )
        assert not report.increasing_marginal
        assert not report.satisfied
