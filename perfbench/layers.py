"""The program's layers as the benchmark traces them.

:data:`HOOKS` names every traced entry point by dotted path (resolved at
install time, so a moved or deleted target shows up as missing, never as
a silent zero), and :data:`PER_LAYER` says how each per-layer metric is
read from the spans.  The layers are the repo's modules: ``api.engine``,
``core.equilibrium``, ``core.mechanism``/``core.auction``,
``core.hierarchy``, ``fl.client``, ``fl.nn``, ``fl.server``, ``api.store``
and ``api.coordinator``/``api.distributed``.

Counts that are computed rather than timed (GEMM flop as ``2·m·n·k``,
im2col/col2im megabytes from array shapes, bids priced, auction bytes)
repeat exactly between runs of one commit.
"""

from __future__ import annotations

import os
from pathlib import Path

from tracing import Hook, LayerMetric


def _gemm(args, kwargs, result):
    a, b = args[1], args[2]
    k = a.shape[-1]
    return {"nn.gemm_gflop": 2.0 * (a.size // k) * k * b.shape[-1] / 1e9}


def _im2col(args, kwargs, result):
    return {"nn.im2col_mb": result[0].nbytes / 1e6}


def _col2im(args, kwargs, result):
    return {"nn.col2im_mb": args[0].nbytes / 1e6}


def _bids(args, kwargs, result):
    return {"equilibrium.bids_priced_n": float(len(args[1]))}


def _samples(args, kwargs, result):
    return {"client.samples_n": float(args[1].shape[0])}


def _auction_bytes(args, kwargs, result):
    return {"auction.bytes_n": float(result.accounting.total_bytes)}


def _written(args, kwargs, result):
    path = Path(result)
    files = [path] if path.is_file() else [p for p in path.iterdir() if p.is_file()]
    return {"store.bytes_written_mb": sum(os.path.getsize(p) for p in files) / 1e6}


_NN = "repro.fl.nn"

#: Every traced entry point.  ``session.round`` and ``engine.session`` are
#: the top-level spans of a cell; the rest nest under them.
HOOKS: tuple[Hook, ...] = (
    Hook("session.round", "repro.api.engine.Session.__next__"),
    Hook("engine.session", "repro.api.engine.FMoreEngine.session"),
    Hook("engine.build_federation", "repro.api.engine.build_federation"),
    Hook("equilibrium.solver_build", "repro.api.engine.build_solver"),
    Hook("equilibrium.bid_batch", "repro.core.equilibrium.EquilibriumSolver.bid_batch", _bids),
    Hook(
        "equilibrium.with_population",
        "repro.core.equilibrium.EquilibriumSolver.with_population",
    ),
    Hook("mechanism.run_round", "repro.core.mechanism.FMoreMechanism.run_round", _auction_bytes),
    Hook("mechanism.bid_collection", "repro.core.mechanism.FMoreMechanism._collect_bids"),
    Hook("auction.run", "repro.core.auction.MultiDimensionalProcurementAuction.run"),
    Hook("hierarchy.build_population", "repro.api.engine.build_population"),
    Hook(
        "hierarchy.run_round",
        "repro.core.hierarchy.HierarchicalMechanism.run_round",
        _auction_bytes,
    ),
    Hook("client.train", "repro.fl.client.FLClient.train"),
    Hook("nn.train_batch", f"{_NN}.model.Sequential.train_batch", _samples),
    Hook("nn.conv_forward", f"{_NN}.layers.Conv2D.forward"),
    Hook("nn.conv_backward", f"{_NN}.layers.Conv2D.backward"),
    Hook("nn.maxpool_forward", f"{_NN}.layers.MaxPool2D.forward"),
    Hook("nn.maxpool_backward", f"{_NN}.layers.MaxPool2D.backward"),
    Hook("nn.dense_forward", f"{_NN}.layers.Dense.forward"),
    Hook("nn.dense_backward", f"{_NN}.layers.Dense.backward"),
    Hook("nn.gemm", f"{_NN}.backends.NumpyBackend.matmul", _gemm),
    Hook("nn.im2col", f"{_NN}.backends.numpy_im2col", _im2col),
    Hook("nn.col2im", f"{_NN}.backends.numpy_col2im", _col2im),
    Hook("nn.lstm_forward", f"{_NN}.recurrent.LSTM.forward"),
    Hook("nn.lstm_backward", f"{_NN}.recurrent.LSTM.backward"),
    Hook("nn.lstm_step", f"{_NN}.backends.NumpyBackend.lstm_step"),
    Hook("nn.embedding_forward", f"{_NN}.recurrent.Embedding.forward"),
    Hook("nn.embedding_backward", f"{_NN}.recurrent.Embedding.backward"),
    Hook("server.aggregate", "repro.fl.server.FedAvgServer.aggregate"),
    Hook("server.evaluate", "repro.fl.server.FedAvgServer.evaluate"),
    Hook("store.save_checkpoint", "repro.api.store.ExperimentStore.save_checkpoint", _written),
    Hook("store.save_history", "repro.api.store.ExperimentStore.save_history", _written),
    Hook("store.load_history", "repro.api.store.ExperimentStore.load_history"),
    Hook("coordinator.claim", "repro.api.coordinator.WorkerClient.claim"),
    Hook("coordinator.heartbeat", "repro.api.coordinator.WorkerClient.heartbeat"),
    Hook("coordinator.complete", "repro.api.coordinator.WorkerClient.complete"),
)

def _m(name: str, unit: str, kind: str, *spans: str) -> LayerMetric:
    return LayerMetric(name, unit, kind, spans)


PER_LAYER: tuple[LayerMetric, ...] = (
    # api.engine
    _m("engine.build_federation_s", "s", "total", "engine.build_federation"),
    _m("engine.build_federation_n", "count", "calls", "engine.build_federation"),
    # core.equilibrium
    _m("equilibrium.solver_build_s", "s", "total", "equilibrium.solver_build"),
    _m("equilibrium.solver_build_n", "count", "calls", "equilibrium.solver_build"),
    _m("equilibrium.bid_batch_s", "s", "total", "equilibrium.bid_batch"),
    _m("equilibrium.bid_batch_n", "count", "calls", "equilibrium.bid_batch"),
    _m("equilibrium.bids_priced_n", "count", "counter", "equilibrium.bid_batch"),
    _m("equilibrium.with_population_n", "count", "calls", "equilibrium.with_population"),
    # core.mechanism / core.auction
    _m("mechanism.run_round_s", "s", "total", "mechanism.run_round"),
    _m("mechanism.bid_collection_self_s", "s", "self", "mechanism.bid_collection"),
    _m("auction.run_s", "s", "total", "auction.run"),
    _m("auction.bytes_n", "count", "counter", "mechanism.run_round", "hierarchy.run_round"),
    # core.hierarchy
    _m("hierarchy.build_population_s", "s", "total", "hierarchy.build_population"),
    _m("hierarchy.run_round_s", "s", "total", "hierarchy.run_round"),
    _m("hierarchy.run_round_self_s", "s", "self", "hierarchy.run_round"),
    # fl.client
    _m("client.train_s", "s", "total", "client.train"),
    _m("client.train_n", "count", "calls", "client.train"),
    _m("client.samples_n", "count", "counter", "nn.train_batch"),
    # fl.nn, conv kernels
    _m("nn.train_batch_s", "s", "total", "nn.train_batch"),
    _m("nn.train_batch_n", "count", "calls", "nn.train_batch"),
    _m("nn.conv_forward_s", "s", "total", "nn.conv_forward"),
    _m("nn.conv_backward_s", "s", "total", "nn.conv_backward"),
    _m("nn.gemm_s", "s", "total", "nn.gemm"),
    _m("nn.gemm_n", "count", "calls", "nn.gemm"),
    _m("nn.gemm_gflop", "GFLOP", "counter", "nn.gemm"),
    _m("nn.im2col_s", "s", "total", "nn.im2col"),
    _m("nn.im2col_mb", "MB", "counter", "nn.im2col"),
    _m("nn.col2im_s", "s", "total", "nn.col2im"),
    _m("nn.col2im_mb", "MB", "counter", "nn.col2im"),
    _m("nn.maxpool_s", "s", "total", "nn.maxpool_forward", "nn.maxpool_backward"),
    _m("nn.dense_s", "s", "total", "nn.dense_forward", "nn.dense_backward"),
    # fl.nn, recurrent kernels
    _m("nn.lstm_forward_s", "s", "total", "nn.lstm_forward"),
    _m("nn.lstm_backward_s", "s", "total", "nn.lstm_backward"),
    _m("nn.lstm_step_s", "s", "total", "nn.lstm_step"),
    _m("nn.lstm_step_n", "count", "calls", "nn.lstm_step"),
    _m("nn.embedding_s", "s", "total", "nn.embedding_forward", "nn.embedding_backward"),
    # fl.server
    _m("server.aggregate_s", "s", "total", "server.aggregate"),
    _m("server.evaluate_s", "s", "total", "server.evaluate"),
    _m("server.evaluate_n", "count", "calls", "server.evaluate"),
    # api.store
    _m("store.save_checkpoint_s", "s", "total", "store.save_checkpoint"),
    _m("store.save_checkpoint_n", "count", "calls", "store.save_checkpoint"),
    _m("store.save_history_s", "s", "total", "store.save_history"),
    _m("store.load_history_s", "s", "total", "store.load_history"),
    _m("store.bytes_written_mb", "MB", "counter", "store.save_checkpoint", "store.save_history"),
    # api.coordinator / api.distributed
    _m("coordinator.first_claim_s", "s", "external"),
    _m("coordinator.claim_ms", "ms", "median_ms", "coordinator.claim"),
    _m("coordinator.heartbeat_ms", "ms", "median_ms", "coordinator.heartbeat"),
    _m("coordinator.heartbeat_n", "count", "calls", "coordinator.heartbeat"),
    _m("coordinator.complete_ms", "ms", "median_ms", "coordinator.complete"),
    _m("coordinator.drain_s", "s", "external"),
    _m("coordinator.requeue_n", "count", "external"),
    # tracing itself
    _m("trace.overhead_pct", "%", "external"),
    _m("trace.top_level_coverage_pct", "%", "external"),
)

_CELL = {"session.round", "engine.session", "engine.build_federation", "equilibrium.solver_build",
         "equilibrium.bid_batch", "client.train", "nn.train_batch", "nn.gemm",
         "nn.dense_forward", "nn.dense_backward", "server.aggregate", "server.evaluate"}
_CONV = {"nn.conv_forward", "nn.conv_backward", "nn.im2col", "nn.col2im",
         "nn.maxpool_forward", "nn.maxpool_backward"}
_FLAT_AUCTION = {"mechanism.run_round", "mechanism.bid_collection", "auction.run"}

#: Spans each workload must record; a metric over any of them that records
#: nothing is reported absent.  Other spans may legitimately stay at zero
#: (no conv kernel runs on the LSTM workload, no store on the flat one).
EXPECTED: dict[str, set[str]] = {
    "flat_cnn": _CELL | _CONV | _FLAT_AUCTION,
    "hier_1e5": _CELL | _CONV | {
        "equilibrium.with_population", "hierarchy.build_population", "hierarchy.run_round",
    },
    "service_lstm": _CELL | _FLAT_AUCTION | {
        "nn.lstm_forward", "nn.lstm_backward", "nn.lstm_step", "nn.embedding_forward",
        "nn.embedding_backward", "store.save_checkpoint", "store.save_history",
        "store.load_history", "coordinator.claim", "coordinator.heartbeat",
        "coordinator.complete",
    },
}
