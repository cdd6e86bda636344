"""Synthetic stand-ins for the paper's four datasets.

The paper evaluates on MNIST (MNIST-O), Fashion-MNIST (MNIST-F), CIFAR-10
and the HuffPost news-category corpus (HPNews).  This reproduction runs
offline, so the datasets are replaced by *procedural generators* that
preserve the property the experiments rely on: tasks of graded difficulty
where model accuracy grows with the amount and the class diversity of
training data.

* ``mnist_o``  — 1-channel images from well-separated smooth class
  prototypes with light noise: easy, accuracy saturates quickly (the paper
  reaches ~95%).
* ``mnist_f``  — same construction with overlapping prototypes and heavier
  noise: medium difficulty (~84% in the paper).
* ``cifar10``  — 3-channel images, two prototype modes per class, colour
  jitter and large shifts: the hard image task (~50-60% in the paper).
* ``hpnews``   — token sequences whose unigram distribution mixes a
  class-specific topic with a shared background vocabulary; classified
  with the LSTM (~46-60% in the paper).

Generators synthesise samples *on demand* (``sample``/``sample_mixed``), so
federated clients of any size and class mix can be materialised without a
fixed pool; a fixed held-out test set comes from :meth:`test_set`.
Every generator is deterministic given its construction seed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataGenerator",
    "ImageSpec",
    "TextSpec",
    "SyntheticImageGenerator",
    "SyntheticTextGenerator",
    "IMAGE_PRESETS",
    "TEXT_PRESETS",
    "make_generator",
    "DATASET_NAMES",
]


class DataGenerator(ABC):
    """A class-conditional sampler with a fixed input shape and label set."""

    name: str
    n_classes: int
    input_shape: tuple[int, ...]

    @abstractmethod
    def sample(self, class_id: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` inputs of class ``class_id``."""

    def sample_mixed(
        self, class_counts: dict[int, int], rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw a shuffled dataset with ``class_counts[c]`` samples of class c."""
        xs: list[np.ndarray] = []
        ys: list[np.ndarray] = []
        for cls, count in sorted(class_counts.items()):
            if not (0 <= cls < self.n_classes):
                raise ValueError(f"class {cls} outside [0, {self.n_classes})")
            if count <= 0:
                continue
            xs.append(self.sample(cls, count, rng))
            ys.append(np.full(count, cls, dtype=np.int64))
        if not xs:
            empty_x = np.empty((0, *self.input_shape), dtype=self._dtype())
            return empty_x, np.empty(0, dtype=np.int64)
        x = np.concatenate(xs, axis=0)
        y = np.concatenate(ys, axis=0)
        order = rng.permutation(x.shape[0])
        return x[order], y[order]

    def test_set(self, n_per_class: int, rng: np.random.Generator):
        """A balanced held-out evaluation set."""
        counts = {c: n_per_class for c in range(self.n_classes)}
        return self.sample_mixed(counts, rng)

    def _dtype(self):
        return np.float64


@dataclass(frozen=True)
class ImageSpec:
    """Difficulty knobs of a synthetic image task.

    ``prototype_blend`` pulls class prototypes towards a shared field (more
    overlap = harder); ``modes`` gives each class several visual variants
    (intra-class variation, the CIFAR-like regime); ``noise_std`` and
    ``max_shift`` control per-sample corruption; ``color_jitter`` perturbs
    channels independently.
    """

    name: str
    size: int = 14
    channels: int = 1
    n_classes: int = 10
    noise_std: float = 0.25
    max_shift: int = 1
    prototype_blend: float = 0.0
    modes: int = 1
    color_jitter: float = 0.0
    smoothness: float = 1.6


IMAGE_PRESETS: dict[str, ImageSpec] = {
    # Noise levels calibrated so accuracy grows substantially with training
    # set size in the federated regime (hundreds to thousands of samples),
    # mirroring the relative difficulty MNIST < Fashion < CIFAR.
    "mnist_o": ImageSpec(name="mnist_o", noise_std=1.10, max_shift=1),
    "mnist_f": ImageSpec(
        name="mnist_f", noise_std=1.50, max_shift=1, prototype_blend=0.40
    ),
    "cifar10": ImageSpec(
        name="cifar10",
        channels=3,
        noise_std=1.00,
        max_shift=2,
        prototype_blend=0.55,
        modes=2,
        color_jitter=0.35,
    ),
}


class SyntheticImageGenerator(DataGenerator):
    """Procedural image classes built from smooth random prototype fields.

    Each (class, mode, channel) triple owns a Gaussian-filtered noise field
    normalised to zero mean / unit variance.  A sample rolls the field by a
    random shift, adds white noise and (for colour tasks) channel jitter.
    Convolutional models exploit the spatially-local structure, so the CNN >
    MLP ordering of the original datasets is preserved.
    """

    def __init__(self, spec: ImageSpec, seed: int = 0):
        self.spec = spec
        self.name = spec.name
        self.n_classes = spec.n_classes
        self.input_shape = (spec.size, spec.size, spec.channels)
        rng = np.random.default_rng(seed)
        common = self._smooth_field(rng, spec)
        protos = np.empty(
            (spec.n_classes, spec.modes, spec.size, spec.size, spec.channels)
        )
        for cls in range(spec.n_classes):
            for mode in range(spec.modes):
                raw = self._smooth_field(rng, spec)
                protos[cls, mode] = (
                    (1.0 - spec.prototype_blend) * raw + spec.prototype_blend * common
                )
        self._prototypes = protos

    @staticmethod
    def _smooth_field(rng: np.random.Generator, spec: ImageSpec) -> np.ndarray:
        # Imported on first use so that text-only processes never load scipy.
        from scipy import ndimage

        field = rng.standard_normal((spec.size, spec.size, spec.channels))
        for ch in range(spec.channels):
            field[:, :, ch] = ndimage.gaussian_filter(
                field[:, :, ch], sigma=spec.smoothness, mode="wrap"
            )
        field -= field.mean()
        std = field.std()
        if std > 0:
            field /= std
        return field

    def sample(self, class_id: int, n: int, rng: np.random.Generator) -> np.ndarray:
        if not (0 <= class_id < self.n_classes):
            raise ValueError(f"class {class_id} outside [0, {self.n_classes})")
        if n < 0:
            raise ValueError("n must be non-negative")
        spec = self.spec
        modes = rng.integers(spec.modes, size=n)
        shifts = rng.integers(-spec.max_shift, spec.max_shift + 1, size=(n, 2))
        # Rolling an image by (dy, dx) reads pixel ((i - dy) % S, (j - dx) % S)
        # of its prototype, so one gather builds every shifted image.
        pixels = np.arange(spec.size)
        rows = (pixels - shifts[:, :1]) % spec.size
        cols = (pixels - shifts[:, 1:]) % spec.size
        out = self._prototypes[class_id][
            modes[:, None, None], rows[:, :, None], cols[:, None, :]
        ]
        if spec.color_jitter > 0.0 and spec.channels > 1:
            jitter = 1.0 + spec.color_jitter * rng.standard_normal((n, spec.channels))
            out *= jitter[:, None, None, :]
        out += spec.noise_std * rng.standard_normal(out.shape)
        return out


@dataclass(frozen=True)
class TextSpec:
    """Difficulty knobs of the synthetic headline task.

    Tokens are drawn from a mixture ``topic_weight * topic(class) +
    (1 - topic_weight) * background``; lower ``topic_weight`` means fewer
    class-bearing tokens per headline and a harder task.
    """

    name: str
    vocab_size: int = 800
    seq_len: int = 12
    n_classes: int = 10
    topic_words: int = 40
    topic_weight: float = 0.55
    zipf_exponent: float = 1.1


TEXT_PRESETS: dict[str, TextSpec] = {
    "hpnews": TextSpec(name="hpnews", topic_weight=0.70),
}


class SyntheticTextGenerator(DataGenerator):
    """Class-topical token sequences standing in for news headlines."""

    def __init__(self, spec: TextSpec, seed: int = 0):
        if spec.topic_words * spec.n_classes >= spec.vocab_size:
            raise ValueError("vocabulary too small for the requested topics")
        self.spec = spec
        self.name = spec.name
        self.n_classes = spec.n_classes
        self.input_shape = (spec.seq_len,)
        rng = np.random.default_rng(seed)
        # Background: Zipf-like mass over the whole vocabulary.
        ranks = np.arange(1, spec.vocab_size + 1, dtype=float)
        background = ranks ** (-spec.zipf_exponent)
        background /= background.sum()
        # Each class gets an exclusive topical word block.
        perm = rng.permutation(spec.vocab_size)
        self._distributions = np.empty((spec.n_classes, spec.vocab_size))
        for cls in range(spec.n_classes):
            block = perm[cls * spec.topic_words : (cls + 1) * spec.topic_words]
            topic = np.zeros(spec.vocab_size)
            weights = rng.dirichlet(np.ones(spec.topic_words) * 2.0)
            topic[block] = weights
            self._distributions[cls] = (
                spec.topic_weight * topic + (1.0 - spec.topic_weight) * background
            )
            self._distributions[cls] /= self._distributions[cls].sum()

    def sample(self, class_id: int, n: int, rng: np.random.Generator) -> np.ndarray:
        if not (0 <= class_id < self.n_classes):
            raise ValueError(f"class {class_id} outside [0, {self.n_classes})")
        if n < 0:
            raise ValueError("n must be non-negative")
        spec = self.spec
        flat = rng.choice(
            spec.vocab_size,
            size=n * spec.seq_len,
            p=self._distributions[class_id],
        )
        return flat.reshape(n, spec.seq_len).astype(np.int64)

    def _dtype(self):
        return np.int64


DATASET_NAMES = ("mnist_o", "mnist_f", "cifar10", "hpnews")


def make_generator(
    name: str,
    seed: int = 0,
    image_size: int | None = None,
) -> DataGenerator:
    """Factory for the four paper datasets by name.

    ``image_size`` overrides the preset resolution (the ``paper`` scenario
    preset in :mod:`repro.api.scenario` asks for larger images; benches use
    the default compact resolution for speed — the learning dynamics are
    unchanged).
    """
    if name in IMAGE_PRESETS:
        spec = IMAGE_PRESETS[name]
        if image_size is not None:
            spec = ImageSpec(**{**spec.__dict__, "size": int(image_size)})
        return SyntheticImageGenerator(spec, seed=seed)
    if name in TEXT_PRESETS:
        return SyntheticTextGenerator(TEXT_PRESETS[name], seed=seed)
    raise ValueError(f"unknown dataset {name!r}; choose from {DATASET_NAMES}")
