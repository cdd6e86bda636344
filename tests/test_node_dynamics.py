"""Tests for theta re-estimation and the client step cap added for drift."""

import numpy as np
import pytest

from repro.core.costs import LinearCost
from repro.core.equilibrium import EquilibriumSolver
from repro.core.scoring import MultiplicativeScore
from repro.core.valuation import PrivateValueModel, UniformTheta
from repro.fl.client import FLClient, train_cohort
from repro.fl.datasets import make_generator
from repro.fl.nn import Dense, ReLU, SGD, Sequential
from repro.fl.partition import ClientData
from repro.mec.node import EdgeNode
from repro.mec.resources import ResourceProfile, StaticDynamics


@pytest.fixture(scope="module")
def solver():
    rule = MultiplicativeScore(2, 25.0)
    cost = LinearCost([4.0, 2.0])
    model = PrivateValueModel(UniformTheta(0.1, 1.0), 20, 5)
    return EquilibriumSolver(rule, cost, model, [[0.01, 5.0], [0.05, 1.0]], grid_size=65)


class TestThetaJitter:
    def test_zero_jitter_is_deterministic(self, solver):
        node = EdgeNode(0, 0.5, solver, ResourceProfile(1000, 0.8), StaticDynamics())
        rng = np.random.default_rng(0)
        assert node.effective_theta(rng) == 0.5

    def test_jitter_stays_in_support(self, solver):
        node = EdgeNode(
            0, 0.95, solver, ResourceProfile(1000, 0.8), StaticDynamics(),
            theta_jitter=0.5,
        )
        rng = np.random.default_rng(1)
        draws = [node.effective_theta(rng) for _ in range(200)]
        assert min(draws) >= 0.1 - 1e-12
        assert max(draws) <= 1.0 + 1e-12

    def test_jitter_varies_bids(self, solver):
        node = EdgeNode(
            0, 0.5, solver, ResourceProfile(1000, 0.8), StaticDynamics(),
            theta_jitter=0.3,
        )
        rng = np.random.default_rng(2)
        payments = {round(node.make_bid(t, rng).payment, 8) for t in range(10)}
        assert len(payments) > 1

    def test_jittered_bids_remain_ir(self, solver):
        node = EdgeNode(
            0, 0.4, solver, ResourceProfile(2000, 0.9), StaticDynamics(),
            theta_jitter=0.4,
        )
        rng = np.random.default_rng(3)
        for t in range(20):
            bid = node.make_bid(t, rng)
            if bid is None:
                continue
            # Profit under the *re-estimated* cost parameter is the one the
            # node optimises; it must be non-negative under some theta in
            # the jitter window — at minimum the bid covers the support-low
            # cost scaled appropriately.  We assert the weaker invariant
            # that payment covers the best-case (lowest) cost.
            assert bid.payment >= solver.cost.cost(bid.quality, 0.1) - 1e-9

    def test_invalid_jitter(self, solver):
        with pytest.raises(ValueError):
            EdgeNode(0, 0.5, solver, ResourceProfile(100, 0.5), theta_jitter=1.5)


class TestClientStepCap:
    def make_client(self, rng, n, cap):
        gen = make_generator("mnist_o", seed=0)
        x, y = gen.sample_mixed({0: n // 2, 1: n - n // 2}, rng)
        x = x.reshape(x.shape[0], -1)[:, :8]
        data = ClientData(0, x, y, 10)
        return FLClient(data, batch_size=8, max_batches_per_round=cap)

    def model(self, rng):
        return Sequential(
            lambda: [Dense(8), ReLU(), Dense(10)], (8,), optimizer=SGD(0.05), rng=rng
        )

    def test_cap_limits_steps_but_reports_declared_size(self, rng):
        client = self.make_client(rng, 200, cap=3)
        model = self.model(rng)
        (update,) = train_cohort(model, model.get_weights(), [client.train(model, rng)])
        # FedAvg weight (Eq. 3 D_i) still reflects the full declared data.
        assert update.n_samples == 200

    def test_no_cap_trains_everything(self, rng):
        client = self.make_client(rng, 100, cap=None)
        model = self.model(rng)
        (update,) = train_cohort(model, model.get_weights(), [client.train(model, rng)])
        assert update.n_samples == 100

    def test_cap_below_data_size_changes_weights(self, rng):
        client = self.make_client(rng, 160, cap=2)
        model = self.model(rng)
        before = model.get_weights()
        (update,) = train_cohort(model, before, [client.train(model, rng)])
        assert any(not np.allclose(a, b) for a, b in zip(update.weights, before))

    def test_invalid_cap(self, rng):
        with pytest.raises(ValueError):
            self.make_client(rng, 50, cap=0)
