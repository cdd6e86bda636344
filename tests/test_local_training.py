"""Local training inside one round: RNG discipline, errors, fl_pool path.

Companions to the integration battery in ``test_session.py``: these tests
pin the trainer-level contracts of the winners' local trainings —

* a winner id with no registered client raises a ``ValueError`` naming the
  id (never a bare ``KeyError``), while the hierarchical ``fl_pool``
  modulo mapping keeps resolving out-of-pool ids;
* every winner trains on the shared round stream, one after another in
  winner order.
"""

import numpy as np
import pytest

from repro.api.engine import _PooledClients
from repro.fl.client import FLClient
from repro.fl.models import build_model
from repro.fl.partition import ClientData
from repro.fl.selection import SelectionResult, SelectionStrategy
from repro.fl.server import FedAvgServer
from repro.fl.trainer import FederatedTrainer
from repro.sim.rng import rng_from

N_CLASSES = 10


class FixedSelection(SelectionStrategy):
    """Deterministic winner list — no draws from the round stream."""

    name = "fixed"

    def __init__(self, winner_ids, declared=40):
        self.winner_ids = list(winner_ids)
        self.declared = declared

    def select(self, round_index, rng):
        return SelectionResult(
            winner_ids=list(self.winner_ids),
            declared_samples={w: self.declared for w in self.winner_ids},
        )


def make_clients(n=5, per_client=40, seed=7, batch_size=16):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        x = rng.random((per_client, 8, 8, 1))
        y = rng.integers(0, N_CLASSES, per_client)
        out.append(FLClient(ClientData(i, x, y, N_CLASSES), batch_size=batch_size))
    return out


def make_trainer(clients, winner_ids, seed=1):
    rng = np.random.default_rng(seed)
    test_x = rng.random((30, 8, 8, 1))
    test_y = rng.integers(0, N_CLASSES, 30)
    model = build_model("mnist_o", (8, 8, 1), N_CLASSES, rng_from(seed, "model"), width=0.25)
    return FederatedTrainer(
        FedAvgServer(model),
        clients,
        FixedSelection(winner_ids),
        test_x,
        test_y,
        rng_from(seed, "train"),
    )


class TestMissingWinnerErrors:
    def test_missing_winner_raises_value_error_naming_id(self):
        trainer = make_trainer(make_clients(3), winner_ids=[0, 99])
        with pytest.raises(ValueError, match=r"winner id 99"):
            trainer.run_round(1)

    def test_error_is_not_a_bare_keyerror(self):
        trainer = make_trainer(make_clients(3), winner_ids=[7])
        with pytest.raises(Exception) as excinfo:
            trainer.run_round(1)
        assert not isinstance(excinfo.value, KeyError)

    def test_pooled_clients_resolve_out_of_pool_ids(self):
        """The hierarchical fl_pool modulo mapping must keep working."""
        clients = make_clients(3)
        pooled = _PooledClients(clients)
        trainer = make_trainer(pooled, winner_ids=[100001, 100002])
        record = trainer.run_round(1)
        assert record.winner_ids == [100001, 100002]
        assert record.mean_train_loss > 0.0


class TestRngDiscipline:
    def test_legacy_mode_still_uses_shared_round_stream(self):
        """Every winner trains on the round stream itself: the one
        local-training schedule, under which every stored manifest was
        produced."""
        seen = []

        class RecordingClient(FLClient):
            def train(self, scratch_model, global_weights, rng, declared_samples=None):
                seen.append(rng)
                return super().train(scratch_model, global_weights, rng, declared_samples)

        rng = np.random.default_rng(7)
        clients = [
            RecordingClient(
                ClientData(
                    i, rng.random((40, 8, 8, 1)), rng.integers(0, N_CLASSES, 40), N_CLASSES
                ),
                batch_size=16,
            )
            for i in range(3)
        ]
        trainer = make_trainer(clients, winner_ids=[0, 1])
        trainer.run_round(1)
        assert all(r is trainer.rng for r in seen)

