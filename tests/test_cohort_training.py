"""Cohort training against the per-winner loop it replaced.

A round's winners train as one cohort: each winner's plan is drawn from
the round stream (``FLClient.train``), then one stacked computation trains
them all (``train_cohort``).  The oracle below is the loop local training
ran before: each winner in turn loads the global weights, draws its
subset, step-cap sample and shuffles from the round stream, and trains
alone with ``Sequential.fit``, whose Dropout masks come from the same
stream.  Every member's weights and loss, and the round stream's final
state, must match it byte for byte: on the LSTM, on a Dropout CNN small
enough that its members stack and on a Dropout MLP regressor under mean
squared error, under plain SGD, momentum and Adam.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.fl.nn.model as model_module
from repro.api.engine import _PooledClients
from repro.fl.client import FLClient, train_cohort
from repro.fl.models import cnn_mnist_factory, lstm_factory
from repro.fl.nn import SGD, Adam, Dense, Dropout, MeanSquaredError, ReLU, Sequential
from repro.fl.partition import ClientData

N_CLASSES = 10
VOCAB = 40
SEQ = 12
FEATURES = 6
OUTPUTS = 3


def reference_round(scratch, clients, global_weights, rng, declared):
    """The per-winner loop: ``(weights, loss, n_samples)`` per winner."""
    out = []
    for client, d in zip(clients, declared):
        if client.data.size == 0:
            out.append(([w.copy() for w in global_weights], 0.0, 0))
            continue
        scratch.set_weights(global_weights)
        scratch.optimizer.reset()
        if d is None or d >= client.data.size:
            x, y = client.data.x, client.data.y
        else:
            x, y = client.data.subset(d, rng)
        count = int(y.shape[0])
        if client.max_batches_per_round is not None:
            cap = client.max_batches_per_round * client.batch_size
            if x.shape[0] > cap:
                take = rng.choice(x.shape[0], size=cap, replace=False)
                x, y = x[take], y[take]
        loss = scratch.fit(
            x, y, epochs=client.local_epochs, batch_size=client.batch_size, shuffle_rng=rng
        )
        out.append((scratch.get_weights(), loss, count))
    return out


def mse_layers():
    return [Dense(12), ReLU(), Dropout(0.25), Dense(OUTPUTS)]


def make_global(kind: str, optimizer) -> Sequential:
    rng = np.random.default_rng(3)
    if kind == "lstm":
        return Sequential(lstm_factory(VOCAB, N_CLASSES, width=0.25), (SEQ,),
                          optimizer=optimizer, rng=rng)
    if kind == "mse":
        return Sequential(mse_layers, (FEATURES,), loss=MeanSquaredError(),
                          optimizer=optimizer, rng=rng)
    return Sequential(cnn_mnist_factory(N_CLASSES, width=0.25), (8, 8, 1),
                      optimizer=optimizer, rng=rng)


def make_clients(kind, sizes, batch_size=16, epochs=1, cap=None):
    rng = np.random.default_rng(11)
    clients = []
    for cid, n in enumerate(sizes):
        if kind == "lstm":
            x = rng.integers(0, VOCAB, size=(n, SEQ))
            y = rng.integers(0, N_CLASSES, size=n)
        elif kind == "mse":
            x = rng.standard_normal((n, FEATURES))
            y = rng.standard_normal((n, OUTPUTS))
        else:
            x = rng.standard_normal((n, 8, 8, 1))
            y = rng.integers(0, N_CLASSES, size=n)
        data = ClientData(cid, x, y, N_CLASSES)
        clients.append(FLClient(data, local_epochs=epochs, batch_size=batch_size,
                                max_batches_per_round=cap))
    return clients


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_round(kind, clients, declared=None, optimizer=None, min_width=2):
    """Cohort vs oracle for one round; returns the widest stacked step."""
    optimizer = optimizer if optimizer is not None else SGD(0.3)
    declared = declared if declared is not None else [None] * len(clients)
    global_model = make_global(kind, optimizer)
    weights = global_model.get_weights()

    ref_rng = np.random.default_rng(2024)
    ref_scratch = global_model.clone_architecture(ref_rng)
    want = reference_round(ref_scratch, clients, weights, ref_rng, declared)

    rng = np.random.default_rng(2024)
    scratch = global_model.clone_architecture(rng)
    lent = scratch.get_weights()
    plans = [c.train(scratch, rng, d) for c, d in zip(clients, declared)]
    widths = []
    train_batch = scratch.train_batch

    def spy(x, y):
        widths.append(x.shape[0])
        return train_batch(x, y)

    scratch.train_batch = spy
    got = train_cohort(scratch, weights, plans)

    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(got) == len(want)
    for update, (w_weights, w_loss, w_count) in zip(got, want):
        assert update.train_loss == w_loss
        assert update.n_samples == w_count
        assert all(same(a, b) for a, b in zip(update.weights, w_weights))
    if widths:
        assert max(widths) >= min_width
    # The replica comes back as it was lent.
    assert all(same(a, b) for a, b in zip(scratch.get_weights(), lent))
    return max(widths, default=0)


KINDS = ["lstm", "cnn"]


@pytest.mark.parametrize("kind", KINDS)
def test_unequal_batch_counts_and_remainders(kind):
    # Batch counts 3, 3, 2, 4, 1, 1; last batches of 8, 8, 7, 9, 16 and 7:
    # equal and unequal remainders, and members running out at every step.
    clients = make_clients(kind, [40, 40, 23, 57, 16, 7])
    assert check_round(kind, clients) >= 4


@pytest.mark.parametrize("kind", KINDS)
def test_declared_subset_step_cap_and_two_epochs(kind):
    clients = make_clients(kind, [60, 45, 33, 70], epochs=2, cap=3)
    check_round(kind, clients, declared=[25, None, 20, 50])


@pytest.mark.parametrize("kind", KINDS)
def test_two_epochs_stack_members_that_are_not_adjacent(kind):
    # Per epoch 40 samples give 16, 16, 8, 23 give 16, 7 and 50 give 16,
    # 16, 16, 2: in the second step members 0 and 2 stack, member 1 not.
    clients = make_clients(kind, [40, 23, 50], epochs=2)
    check_round(kind, clients)


@pytest.mark.parametrize("kind", KINDS)
def test_empty_client_single_winner_and_pooled_repeat(kind):
    empty_x = np.empty((0, SEQ), dtype=np.int64) if kind == "lstm" else np.empty((0, 8, 8, 1))
    empty = FLClient(ClientData(7, empty_x, np.empty(0, dtype=np.int64), N_CLASSES),
                     batch_size=16)
    clients = make_clients(kind, [30, 50])
    check_round(kind, [empty, clients[0], empty], min_width=1)
    check_round(kind, [clients[1]], min_width=1)
    check_round(kind, [empty], min_width=1)
    pooled = _PooledClients(clients)
    # Node ids 4 and 6 both resolve onto pool client 0: two plans, one client.
    winners = [pooled[w] for w in (4, 1, 6)]
    assert winners[0] is winners[2]
    check_round(kind, winners, declared=[20, None, 26])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "optimizer", [SGD(0.1, momentum=0.9), Adam(0.01)], ids=["momentum", "adam"]
)
def test_optimizer_state_stays_per_member(kind, optimizer):
    clients = make_clients(kind, [40, 50, 23, 40], epochs=2)
    check_round(kind, clients, declared=[None, 45, None, 30], optimizer=optimizer)


@pytest.mark.parametrize("kind", KINDS)
def test_groups_split_at_the_byte_bound(kind, monkeypatch):
    clients = make_clients(kind, [48, 48, 48, 48, 48])
    member = 16 * make_global(kind, SGD(0.3)).sample_cache_bytes
    monkeypatch.setattr(model_module, "_COHORT_STEP_BYTES", 2 * member)
    assert check_round(kind, clients) == 2


@pytest.mark.parametrize(
    "optimizer", [SGD(0.3), SGD(0.1, momentum=0.9), Adam(0.01)], ids=["sgd", "momentum", "adam"]
)
def test_mean_squared_error_gives_one_loss_per_member(optimizer):
    # Regression targets are (n, outputs) floats, so no declared subset (it
    # stratifies by class); unequal batch counts and remainders, a step cap
    # and two epochs.
    clients = make_clients("mse", [40, 40, 23, 57, 16, 7], epochs=2, cap=3)
    assert check_round("mse", clients, optimizer=optimizer) >= 4


def test_bench_shapes_stack_the_lstm_and_not_the_cnn():
    """The byte bound stacks a bench LSTM round and steps the bench CNN alone."""
    from repro.api import Scenario
    from repro.api.engine import _build_global_model, build_federation

    for dataset, members in (("hpnews", 6), ("mnist_o", 1)):
        scenario = Scenario.from_preset("bench", dataset)
        model = _build_global_model(scenario, build_federation(scenario, 0), 0)
        width = model_module._COHORT_STEP_BYTES // (32 * model.sample_cache_bytes)
        assert (width >= members) if members > 1 else (width == 0)


@pytest.mark.skipif(
    os.environ.get("COHORT_ORACLE_CHILD") == "1", reason="already the other thread count"
)
def test_oracle_holds_at_the_other_blas_thread_count():
    """GEMM blocking follows the BLAS thread count; the oracle must hold at 1 and 2."""
    threads = "2" if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else "1"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, COHORT_ORACLE_CHILD="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
