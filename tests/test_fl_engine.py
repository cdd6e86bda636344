"""Tests for client, server (FedAvg), metrics and the trainer loop."""

import numpy as np
import pytest

from repro.fl.client import FLClient, LocalUpdate, train_cohort
from repro.fl.datasets import make_generator
from repro.fl.metrics import (
    accuracy_improvement,
    round_reduction,
    rounds_to_accuracy,
    speedup_percent,
    time_to_accuracy,
)
from repro.fl.nn import Dense, ReLU, SGD, Sequential
from repro.fl.partition import ClientData, heterogeneous_specs, materialize_clients
from repro.fl.selection import FixedSelection, RandomSelection
from repro.fl.server import FedAvgServer, federated_average
from repro.fl.trainer import FederatedTrainer, TrainingHistory, RoundRecord


def tiny_model(rng, dim=8):
    return Sequential(lambda: [Dense(8), ReLU(), Dense(10)], (dim,), optimizer=SGD(0.1), rng=rng)


def make_update(weights, n):
    return LocalUpdate(client_id=0, weights=weights, n_samples=n, train_loss=0.0)


class TestFederatedAverage:
    def test_weighted_mean_eq3(self):
        w_a = [np.array([0.0, 0.0])]
        w_b = [np.array([3.0, 6.0])]
        updates = [
            LocalUpdate(0, w_a, n_samples=1, train_loss=0.0),
            LocalUpdate(1, w_b, n_samples=2, train_loss=0.0),
        ]
        avg = federated_average(updates)
        np.testing.assert_allclose(avg[0], [2.0, 4.0])

    def test_single_update_identity(self):
        w = [np.array([1.0, 2.0]), np.array([[3.0]])]
        avg = federated_average([LocalUpdate(0, w, 5, 0.0)])
        for a, b in zip(avg, w):
            np.testing.assert_allclose(a, b)

    def test_zero_samples_falls_back_to_uniform(self):
        updates = [
            LocalUpdate(0, [np.array([0.0])], 0, 0.0),
            LocalUpdate(1, [np.array([4.0])], 0, 0.0),
        ]
        np.testing.assert_allclose(federated_average(updates)[0], [2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            federated_average([])

    def test_mismatched_parameter_count_rejected(self):
        updates = [
            LocalUpdate(0, [np.array([0.0])], 1, 0.0),
            LocalUpdate(1, [np.array([1.0]), np.array([2.0])], 1, 0.0),
        ]
        with pytest.raises(ValueError):
            federated_average(updates)


class TestFLClient:
    def make_client_data(self, rng, counts):
        gen = make_generator("mnist_o", seed=0)
        x, y = gen.sample_mixed(counts, rng)
        x = x.reshape(x.shape[0], -1)[:, :8]  # flat tiny features for MLP
        return ClientData(0, x, y, 10)

    def test_train_returns_update(self, rng):
        data = self.make_client_data(rng, {0: 20, 1: 20})
        client = FLClient(data, local_epochs=1, batch_size=8)
        model = tiny_model(rng)
        (update,) = train_cohort(model, model.get_weights(), [client.train(model, rng)])
        assert update.n_samples == 40
        assert len(update.weights) == 4

    def test_declared_subset_trains_on_fewer(self, rng):
        data = self.make_client_data(rng, {0: 30, 1: 30})
        client = FLClient(data)
        model = tiny_model(rng)
        plan = client.train(model, rng, declared_samples=20)
        (update,) = train_cohort(model, model.get_weights(), [plan])
        assert update.n_samples == 20

    def test_training_changes_weights(self, rng):
        data = self.make_client_data(rng, {0: 20, 1: 20})
        client = FLClient(data)
        model = tiny_model(rng)
        before = model.get_weights()
        (update,) = train_cohort(model, before, [client.train(model, rng)])
        assert any(
            not np.allclose(a, b) for a, b in zip(update.weights, before)
        )

    def test_empty_client_returns_global(self, rng):
        data = ClientData(0, np.empty((0, 8)), np.empty(0, dtype=int), 10)
        client = FLClient(data)
        model = tiny_model(rng)
        g = model.get_weights()
        (update,) = train_cohort(model, g, [client.train(model, rng)])
        assert update.n_samples == 0
        for a, b in zip(update.weights, g):
            np.testing.assert_array_equal(a, b)

    def test_invalid_args(self, rng):
        data = self.make_client_data(rng, {0: 4})
        with pytest.raises(ValueError):
            FLClient(data, local_epochs=0)
        with pytest.raises(ValueError):
            FLClient(data, batch_size=0)


class TestFedAvgServer:
    def test_broadcast_returns_copies(self, rng):
        server = FedAvgServer(tiny_model(rng))
        w = server.broadcast()
        w[0][...] = 99.0
        assert not np.allclose(server.model.get_weights()[0], 99.0)

    def test_aggregate_installs_mean(self, rng):
        server = FedAvgServer(tiny_model(rng))
        w = server.broadcast()
        shifted = [p + 1.0 for p in w]
        server.aggregate(
            [LocalUpdate(0, w, 1, 0.0), LocalUpdate(1, shifted, 1, 0.0)]
        )
        for a, b in zip(server.model.get_weights(), w):
            np.testing.assert_allclose(a, b + 0.5)


class TestMetrics:
    def test_rounds_to_accuracy(self):
        assert rounds_to_accuracy([0.1, 0.5, 0.9], 0.5) == 2
        assert rounds_to_accuracy([0.1, 0.2], 0.5) is None

    def test_time_to_accuracy(self):
        assert time_to_accuracy([0.1, 0.6], [10.0, 25.0], 0.5) == 25.0
        assert time_to_accuracy([0.1, 0.2], [10.0, 25.0], 0.5) is None

    def test_round_reduction(self):
        assert round_reduction(20, 10) == pytest.approx(50.0)
        assert round_reduction(None, 10) is None

    def test_accuracy_improvement(self):
        assert accuracy_improvement(0.5, 0.64) == pytest.approx(28.0)

    def test_speedup_percent(self):
        assert speedup_percent(100.0, 61.6) == pytest.approx(38.4)


class TestTrainingHistory:
    def make_history(self):
        h = TrainingHistory("X")
        for i, acc in enumerate([0.2, 0.5, 0.8], start=1):
            h.records.append(
                RoundRecord(i, acc, 1.0 - acc, [i], total_payment=float(i), round_seconds=2.0)
            )
        return h

    def test_series(self):
        h = self.make_history()
        assert h.accuracies == [0.2, 0.5, 0.8]
        assert h.cumulative_seconds == [2.0, 4.0, 6.0]
        assert h.total_payment == 6.0
        assert h.final_accuracy == 0.8
        assert h.rounds_to(0.5) == 2

    def test_winner_counts(self):
        h = self.make_history()
        assert h.winner_counts() == {1: 1, 2: 1, 3: 1}


class TestFederatedTrainerLoop:
    def build(self, rng, selection_cls):
        gen = make_generator("mnist_o", seed=0)
        specs = heterogeneous_specs(6, 10, rng, size_range=(20, 40))
        datas = materialize_clients(gen, specs, rng)
        for d in datas:
            d.x = d.x.reshape(d.x.shape[0], -1)[:, :8]
        clients = [FLClient(d, batch_size=8) for d in datas]
        server = FedAvgServer(tiny_model(rng))
        tx, ty = gen.test_set(5, rng)
        tx = tx.reshape(tx.shape[0], -1)[:, :8]
        ids = [c.client_id for c in clients]
        if selection_cls is RandomSelection:
            sel = RandomSelection(ids, 2)
        else:
            sel = FixedSelection(ids, 2, rng)
        return FederatedTrainer(server, clients, sel, tx, ty, rng)

    def test_run_produces_history(self, rng):
        trainer = self.build(rng, RandomSelection)
        history = trainer.run(3)
        assert len(history.records) == 3
        assert all(len(r.winner_ids) == 2 for r in history.records)

    def test_fixed_selection_repeats(self, rng):
        trainer = self.build(rng, FixedSelection)
        history = trainer.run(3)
        first = history.records[0].winner_ids
        assert all(r.winner_ids == first for r in history.records)

    def test_rejects_zero_rounds(self, rng):
        trainer = self.build(rng, RandomSelection)
        with pytest.raises(ValueError):
            trainer.run(0)

    def test_duplicate_client_ids_rejected(self, rng):
        gen = make_generator("mnist_o", seed=0)
        specs = heterogeneous_specs(2, 10, rng, size_range=(10, 20))
        datas = materialize_clients(gen, specs, rng)
        for d in datas:
            d.x = d.x.reshape(d.x.shape[0], -1)[:, :8]
            d.client_id = 0
        clients = [FLClient(d, batch_size=4) for d in datas]
        server = FedAvgServer(tiny_model(rng))
        with pytest.raises(ValueError):
            FederatedTrainer(
                server, clients, RandomSelection([0], 1), np.zeros((1, 8)), np.zeros(1, int), rng
            )
