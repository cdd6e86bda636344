"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.fl.datasets import (
    DATASET_NAMES,
    IMAGE_PRESETS,
    ImageSpec,
    SyntheticImageGenerator,
    SyntheticTextGenerator,
    TextSpec,
    make_generator,
)


class TestFactory:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_all_names_construct(self, name):
        gen = make_generator(name, seed=0)
        assert gen.n_classes == 10
        assert gen.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_generator("imagenet")

    def test_image_size_override(self):
        gen = make_generator("mnist_o", image_size=28)
        assert gen.input_shape == (28, 28, 1)

    def test_cifar_has_three_channels(self):
        assert make_generator("cifar10").input_shape[-1] == 3


class TestImageGenerator:
    def test_sample_shape_and_determinism(self):
        gen = make_generator("mnist_o", seed=3)
        rng = np.random.default_rng(0)
        x = gen.sample(2, 5, rng)
        assert x.shape == (5, *gen.input_shape)
        x2 = gen.sample(2, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(x, x2)

    def test_same_seed_same_prototypes(self):
        a = make_generator("mnist_o", seed=5)
        b = make_generator("mnist_o", seed=5)
        np.testing.assert_array_equal(a._prototypes, b._prototypes)

    def test_different_seed_different_prototypes(self):
        a = make_generator("mnist_o", seed=5)
        b = make_generator("mnist_o", seed=6)
        assert not np.allclose(a._prototypes, b._prototypes)

    def test_classes_are_statistically_distinct(self):
        gen = make_generator("mnist_o", seed=1)
        rng = np.random.default_rng(2)
        a = gen.sample(0, 60, rng).mean(axis=0)
        b = gen.sample(1, 60, rng).mean(axis=0)
        # Mean images converge to the prototypes, which differ.
        assert np.abs(a - b).mean() > 0.1

    def test_harder_presets_have_more_noise(self):
        assert (
            IMAGE_PRESETS["mnist_o"].noise_std
            < IMAGE_PRESETS["mnist_f"].noise_std
        )
        assert IMAGE_PRESETS["mnist_f"].prototype_blend < IMAGE_PRESETS["cifar10"].prototype_blend

    def test_sample_mixed_counts_and_shuffle(self):
        gen = make_generator("mnist_f", seed=0)
        rng = np.random.default_rng(1)
        x, y = gen.sample_mixed({0: 10, 3: 5}, rng)
        assert x.shape[0] == 15
        assert np.sum(y == 0) == 10 and np.sum(y == 3) == 5
        # Shuffled: labels are not sorted runs.
        assert not (np.all(y[:10] == 0) and np.all(y[10:] == 3))

    def test_sample_mixed_empty(self):
        gen = make_generator("mnist_o", seed=0)
        x, y = gen.sample_mixed({}, np.random.default_rng(0))
        assert x.shape[0] == 0 and y.shape[0] == 0

    def test_rejects_bad_class(self):
        gen = make_generator("mnist_o", seed=0)
        with pytest.raises(ValueError):
            gen.sample(10, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gen.sample(-1, 1, np.random.default_rng(0))

    def test_test_set_balanced(self):
        gen = make_generator("mnist_o", seed=0)
        x, y = gen.test_set(7, np.random.default_rng(0))
        counts = np.bincount(y, minlength=10)
        np.testing.assert_array_equal(counts, np.full(10, 7))


def _rolled_sample(gen, class_id, n, rng):
    """The per-image ``np.roll`` sampler the one-gather version replaced."""
    spec = gen.spec
    out = np.empty((n, *gen.input_shape))
    modes = rng.integers(spec.modes, size=n)
    shifts = rng.integers(-spec.max_shift, spec.max_shift + 1, size=(n, 2))
    for i in range(n):
        img = gen._prototypes[class_id, modes[i]]
        img = np.roll(img, shift=tuple(shifts[i]), axis=(0, 1))
        if spec.color_jitter > 0.0 and spec.channels > 1:
            jitter = 1.0 + spec.color_jitter * rng.standard_normal(spec.channels)
            img = img * jitter
        out[i] = img
    out += spec.noise_std * rng.standard_normal(out.shape)
    return out


class TestImageSamplerOracle:
    """``sample`` equals the rolled loop byte for byte and leaves the rng
    in the same state, so every later draw of a federation build is
    unchanged."""

    @pytest.mark.parametrize("size", [9, 14, 28])
    @pytest.mark.parametrize("name", ["mnist_o", "mnist_f", "cifar10"])
    def test_bytes_and_rng_state_match_rolled_loop(self, name, size):
        gen = make_generator(name, seed=4, image_size=size)
        for n in (0, 1, 7, 300):
            for class_id in (0, gen.n_classes - 1):
                rng = np.random.default_rng(1000 * n + class_id)
                ref_rng = np.random.default_rng(1000 * n + class_id)
                got = gen.sample(class_id, n, rng)
                want = _rolled_sample(gen, class_id, n, ref_rng)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (name, size, n, class_id)
                assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestTextGenerator:
    def test_tokens_in_vocabulary(self):
        gen = make_generator("hpnews", seed=0)
        rng = np.random.default_rng(0)
        x = gen.sample(3, 50, rng)
        assert x.dtype == np.int64
        assert x.min() >= 0
        assert x.max() < gen.spec.vocab_size

    def test_sequence_shape(self):
        gen = make_generator("hpnews", seed=0)
        x = gen.sample(0, 4, np.random.default_rng(1))
        assert x.shape == (4, gen.spec.seq_len)

    def test_class_topics_are_distinct(self):
        gen = make_generator("hpnews", seed=0)
        rng = np.random.default_rng(2)
        a = np.bincount(gen.sample(0, 300, rng).ravel(), minlength=gen.spec.vocab_size)
        b = np.bincount(gen.sample(1, 300, rng).ravel(), minlength=gen.spec.vocab_size)
        # Total-variation distance between class unigram counts is large.
        a = a / a.sum()
        b = b / b.sum()
        assert 0.5 * np.abs(a - b).sum() > 0.3

    def test_rejects_vocab_too_small(self):
        with pytest.raises(ValueError):
            SyntheticTextGenerator(
                TextSpec(name="x", vocab_size=100, topic_words=40, n_classes=10)
            )

    def test_distributions_normalised(self):
        gen = make_generator("hpnews", seed=0)
        np.testing.assert_allclose(gen._distributions.sum(axis=1), np.ones(10))


class TestDifficultyKnobs:
    def test_blend_increases_class_overlap(self):
        rng = np.random.default_rng(0)
        base = dict(name="x", noise_std=0.0, max_shift=0)
        sep = SyntheticImageGenerator(ImageSpec(**base, prototype_blend=0.0), seed=1)
        blended = SyntheticImageGenerator(ImageSpec(**base, prototype_blend=0.9), seed=1)

        def class_gap(gen):
            a = gen.sample(0, 1, rng)[0]
            b = gen.sample(1, 1, rng)[0]
            return np.abs(a - b).mean()

        assert class_gap(blended) < class_gap(sep)

    def test_modes_create_intra_class_variation(self):
        rng = np.random.default_rng(0)
        spec = ImageSpec(name="x", noise_std=0.0, max_shift=0, modes=2)
        gen = SyntheticImageGenerator(spec, seed=1)
        samples = gen.sample(0, 40, rng)
        # With two noiseless modes there are exactly two distinct images.
        unique = np.unique(samples.round(9).reshape(40, -1), axis=0)
        assert unique.shape[0] == 2
