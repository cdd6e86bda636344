"""From-scratch numpy neural-network substrate used by the FL engine.

Replaces the paper's TensorFlow dependency.  Layers are gradient-checked
against finite differences; the :class:`Sequential` container exposes the
``get_weights``/``set_weights`` interface FedAvg averages over.
"""

from .initializers import glorot_uniform, he_normal, orthogonal, zeros
from .layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from .losses import Loss, MeanSquaredError, SoftmaxCrossEntropy
from .model import Sequential
from .optimizers import SGD, Adam, Optimizer
from .recurrent import LSTM, Embedding

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "Conv2D",
    "MaxPool2D",
    "Embedding",
    "LSTM",
    "Loss",
    "SoftmaxCrossEntropy",
    "MeanSquaredError",
    "Optimizer",
    "SGD",
    "Adam",
    "Sequential",
    "glorot_uniform",
    "he_normal",
    "orthogonal",
    "zeros",
]
