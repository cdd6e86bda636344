"""The paper's model zoo: two CNNs and an LSTM classifier.

Footnotes 1-2 of the paper give the exact TensorFlow architectures:

* MNIST CNN (8 layers):  3x3x32 Conv -> 3x3x64 Conv -> 2x2 MaxPool ->
  Dropout -> Flatten -> 128 Dense -> Dropout -> 10 Dense -> Softmax.
* CIFAR CNN (11 layers): 3x3x32 Conv -> Dropout -> 2x2 MaxPool ->
  3x3x64 Conv -> Dropout -> 2x2 MaxPool -> Flatten -> Dropout ->
  1024 Dense -> Dropout -> 10 Dense -> Softmax.
* HPNews LSTM: Embedding -> LSTM -> Dense -> Softmax (standard Keras text
  classifier; exact sizes unstated in the paper).

``width`` scales the filter/unit counts so benchmark presets can run the
same architectures at laptop speed; ``width=1.0`` is the paper-faithful
configuration.  Softmax itself is fused into the cross-entropy loss.

The factories are frozen dataclasses rather than closures, so a
:class:`Sequential` built from them pickles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .nn import (
    LSTM,
    Conv2D,
    Dense,
    Dropout,
    Embedding,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
    SGD,
)

__all__ = [
    "cnn_mnist_factory",
    "cnn_cifar_factory",
    "lstm_factory",
    "build_model",
    "smallest_image_size",
]


def _scaled(base: int, width: float) -> int:
    return max(int(round(base * width)), 2)


@dataclass(frozen=True)
class _MnistLayers:
    n_classes: int
    width: float
    dropout: float

    def __call__(self):
        return [
            Conv2D(_scaled(32, self.width), kernel_size=3),
            ReLU(),
            Conv2D(_scaled(64, self.width), kernel_size=3),
            ReLU(),
            MaxPool2D(2),
            Dropout(self.dropout),
            Flatten(),
            Dense(_scaled(128, self.width)),
            ReLU(),
            Dropout(self.dropout),
            Dense(self.n_classes),
        ]


@dataclass(frozen=True)
class _CifarLayers:
    n_classes: int
    width: float
    dropout: float

    def __call__(self):
        return [
            Conv2D(_scaled(32, self.width), kernel_size=3),
            ReLU(),
            Dropout(self.dropout),
            MaxPool2D(2),
            Conv2D(_scaled(64, self.width), kernel_size=3),
            ReLU(),
            Dropout(self.dropout),
            MaxPool2D(2),
            Flatten(),
            Dropout(self.dropout),
            Dense(_scaled(1024, self.width)),
            ReLU(),
            Dropout(self.dropout),
            Dense(self.n_classes),
        ]


@dataclass(frozen=True)
class _LstmLayers:
    vocab_size: int
    n_classes: int
    embed_dim: int
    hidden: int
    width: float

    def __call__(self):
        return [
            Embedding(self.vocab_size, _scaled(self.embed_dim, self.width)),
            LSTM(_scaled(self.hidden, self.width)),
            Dense(self.n_classes),
        ]


def cnn_mnist_factory(n_classes: int = 10, width: float = 1.0, dropout: float = 0.2):
    """Layer factory for the paper's MNIST CNN (footnote 1)."""
    return _MnistLayers(int(n_classes), float(width), float(dropout))


def cnn_cifar_factory(n_classes: int = 10, width: float = 1.0, dropout: float = 0.2):
    """Layer factory for the paper's CIFAR-10 CNN (footnote 2)."""
    return _CifarLayers(int(n_classes), float(width), float(dropout))


def lstm_factory(
    vocab_size: int,
    n_classes: int = 10,
    embed_dim: int = 32,
    hidden: int = 32,
    width: float = 1.0,
):
    """Layer factory for the HPNews LSTM classifier."""
    return _LstmLayers(
        int(vocab_size), int(n_classes), int(embed_dim), int(hidden), float(width)
    )


def _model_factory(dataset_name, input_shape, n_classes, width, vocab_size):
    if dataset_name in ("mnist_o", "mnist_f"):
        return cnn_mnist_factory(n_classes, width)
    if dataset_name == "cifar10":
        size = input_shape[0]
        # Width-scaled small nets are fragile under the paper's 0.2 dropout;
        # keep dropout proportional to capacity.
        drop = 0.2 if width >= 0.75 else 0.1
        if size >= 10:
            return cnn_cifar_factory(n_classes, width, dropout=drop)
        return cnn_mnist_factory(n_classes, width, dropout=drop)
    if dataset_name == "hpnews":
        if vocab_size is None:
            raise ValueError("hpnews model requires vocab_size")
        return lstm_factory(vocab_size, n_classes, width=max(width, 0.25))
    raise ValueError(f"unknown dataset {dataset_name!r}")


def build_model(
    dataset_name: str,
    input_shape: tuple[int, ...],
    n_classes: int,
    rng: np.random.Generator,
    width: float = 1.0,
    lr: float = 0.05,
    vocab_size: int | None = None,
) -> Sequential:
    """Build the paper's model for a dataset name at a given width.

    The CIFAR CNN needs images of at least 10x10 for its two pool stages;
    smaller presets automatically fall back to the single-pool MNIST
    architecture (identical code path, one fewer stage).
    """
    factory = _model_factory(dataset_name, input_shape, n_classes, width, vocab_size)
    return Sequential(factory, input_shape, optimizer=SGD(lr), rng=rng)


def smallest_image_size(
    dataset_name: str, n_classes: int, channels: int, width: float = 1.0
) -> int:
    """The smallest square image side :func:`build_model` accepts.

    Read from the layers themselves: Conv2D and MaxPool2D reject, in
    ``output_shape``, an input their window does not fit, so the answer is
    the first side whose shape passes through every layer.
    """
    for size in itertools.count(1):
        shape = (size, size, channels)
        layers = _model_factory(dataset_name, shape, n_classes, width, None)()
        try:
            for layer in layers:
                shape = layer.output_shape(shape)
        except ValueError:
            continue
        return size
