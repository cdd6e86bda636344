"""Federated-learning substrate: models, data, clients, FedAvg, selection.

This package is the paper's "RandFL" baseline plus everything FMore plugs
into: a numpy NN library (:mod:`repro.fl.nn`), synthetic datasets
(:mod:`repro.fl.datasets`), non-IID partitioning
(:mod:`repro.fl.partition`), the FedAvg server/client pair and the
selection strategies of Section V.
"""

from .client import FLClient, LocalPlan, LocalUpdate, train_cohort
from .datasets import (
    DATASET_NAMES,
    IMAGE_PRESETS,
    TEXT_PRESETS,
    DataGenerator,
    ImageSpec,
    SyntheticImageGenerator,
    SyntheticTextGenerator,
    TextSpec,
    make_generator,
)
from .metrics import (
    accuracy_improvement,
    round_reduction,
    rounds_to_accuracy,
    speedup_percent,
    time_to_accuracy,
)
from .models import build_model, cnn_cifar_factory, cnn_mnist_factory, lstm_factory
from .partition import (
    ClientData,
    ClientSpec,
    dirichlet_specs,
    heterogeneous_specs,
    materialize_clients,
    shard_specs,
)
from .selection import (
    AuctionSelection,
    FixedSelection,
    RandomSelection,
    SelectionResult,
    SelectionStrategy,
)
from .serialize import load_weights, save_weights, weights_equal
from .server import FedAvgServer, federated_average
from .trainer import FederatedTrainer, RoundRecord, RoundTimer, TrainingHistory

__all__ = [
    "DataGenerator",
    "ImageSpec",
    "TextSpec",
    "SyntheticImageGenerator",
    "SyntheticTextGenerator",
    "IMAGE_PRESETS",
    "TEXT_PRESETS",
    "DATASET_NAMES",
    "make_generator",
    "ClientSpec",
    "ClientData",
    "heterogeneous_specs",
    "shard_specs",
    "dirichlet_specs",
    "materialize_clients",
    "FLClient",
    "LocalPlan",
    "LocalUpdate",
    "train_cohort",
    "FedAvgServer",
    "federated_average",
    "SelectionStrategy",
    "SelectionResult",
    "RandomSelection",
    "FixedSelection",
    "AuctionSelection",
    "FederatedTrainer",
    "TrainingHistory",
    "RoundRecord",
    "RoundTimer",
    "rounds_to_accuracy",
    "time_to_accuracy",
    "round_reduction",
    "accuracy_improvement",
    "speedup_percent",
    "build_model",
    "cnn_mnist_factory",
    "cnn_cifar_factory",
    "lstm_factory",
    "save_weights",
    "load_weights",
    "weights_equal",
]
