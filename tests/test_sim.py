"""Tests for the experiment harness: presets, rng, reporting, averaging."""

import numpy as np
import pytest

from repro.api import Scenario
from repro.api.engine import SeriesStats, average_histories
from repro.fl.models import build_model
from repro.sim.reporting import ascii_table, fmt, paper_vs_measured, series_table
from repro.sim.rng import rng_from, spawn_rngs
from repro.fl.trainer import RoundRecord, TrainingHistory


class TestConfig:
    """The named scenario presets and construction-time validation."""

    @pytest.mark.parametrize("scale", ["smoke", "bench", "paper"])
    @pytest.mark.parametrize("ds", ["mnist_o", "cifar10", "hpnews"])
    def test_presets_construct(self, scale, ds):
        scenario = Scenario.from_preset(scale, ds)
        assert scenario.dataset == ds
        assert scenario.name == f"{scale}-{ds}"
        assert 1 <= scenario.k_winners <= scenario.n_clients

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            Scenario.from_preset("huge", "mnist_o")

    def test_with_creates_modified_copy(self):
        scenario = Scenario.from_preset("smoke")
        changed = scenario.with_(n_rounds=7)
        assert changed.n_rounds == 7
        assert scenario.n_rounds == 3  # original intact

    def test_validation(self):
        """Bad federation shapes, component parameters and training
        fields fail at construction, not later inside a run."""
        with pytest.raises(ValueError, match="n_clients"):
            Scenario(n_clients=1)
        with pytest.raises(ValueError, match="k_winners"):
            Scenario(n_clients=10, k_winners=11)
        with pytest.raises(ValueError, match="invalid theta spec"):
            Scenario(theta={"name": "uniform", "lo": 1.0, "hi": 0.5})
        with pytest.raises(ValueError, match="invalid scoring spec"):
            Scenario(scoring={"name": "multiplicative", "scale": 0.0})
        with pytest.raises(ValueError, match="psi"):
            Scenario(psi=1.5)
        # Training fields fail here too, not in evaluation, in the model
        # build or inside a store worker.
        for field_name, bad in [
            ("test_per_class", 0),
            ("model_width", 0.0),
            ("model_width", float("nan")),
            ("model_width", float("inf")),
            ("lr", 0.0),
            ("lr", -0.1),
            ("lr", float("nan")),
            ("lr", float("inf")),
            ("batch_size", 0),
            ("local_epochs", 0),
            ("max_batches_per_round", 0),
            # A bool is no number (True would hash apart from 1), and an
            # integer field takes no fraction (2.5 batches would run).
            ("lr", True),
            ("model_width", True),
            ("local_epochs", True),
            ("batch_size", True),
            ("n_rounds", True),
            ("max_batches_per_round", True),
            ("max_batches_per_round", 2.5),
            ("batch_size", 16.5),
            ("n_rounds", 2.5),
        ]:
            with pytest.raises(ValueError, match=field_name):
                Scenario(**{field_name: bad})
        # Data fields fail here too, not in build_federation or the model
        # build: an unknown dataset, an image too small for the CNN, class
        # bounds outside the dataset's classes, negative, non-integer or
        # repeated seeds.
        for field_name, kwargs in [
            ("dataset", {"dataset": "mnist"}),
            ("image_size", {"image_size": 0}),
            ("image_size", {"image_size": 5}),
            ("image_size", {"dataset": "cifar10", "image_size": 1}),
            ("image_size", {"dataset": "cifar10", "image_size": 5}),
            # hpnews is text: its generator ignores the field, which would
            # still enter the content hash.
            ("image_size", {"dataset": "hpnews", "image_size": 28}),
            ("image_size", {"dataset": "hpnews", "image_size": 3}),
            ("min_classes", {"min_classes": 0}),
            ("max_classes", {"max_classes": 99}),
            ("min_classes", {"min_classes": 4, "max_classes": 2}),
            ("data_seed", {"data_seed": -1}),
            ("seeds", {"seeds": (-1,)}),
            # A bool or a fractional number is no seed: int() would take
            # True as 1 and truncate 1.5 to 1 without a word.
            ("data_seed", {"data_seed": 3.7}),
            ("data_seed", {"data_seed": True}),
            ("seeds", {"seeds": (1.5,)}),
            ("seeds", {"seeds": 1.5}),
            ("seeds", {"seeds": (0, True)}),
            # A repeated seed would run its cells twice and weigh double
            # in every seed average.
            ("seeds", {"seeds": (0, 1, 0)}),
            ("seeds", {"seeds": (2, 2.0)}),
            # Nor is it any other number: a bool, or a fraction in an
            # integer field, fails here and not in the run.
            ("n_clients", {"n_clients": 10.5}),
            ("k_winners", {"k_winners": True}),
            ("k_winners", {"k_winners": 2.5}),
            ("test_per_class", {"test_per_class": True}),
            ("test_per_class", {"test_per_class": 5.5}),
            ("min_classes", {"min_classes": True}),
            ("max_classes", {"max_classes": 2.5}),
            ("image_size", {"image_size": 14.5}),
            ("grid_size", {"grid_size": 33.5}),
            ("size_range", {"size_range": (60.5, 300)}),
            ("core_choices", {"core_choices": (1, True)}),
            ("theta_jitter", {"theta_jitter": True}),
            ("theta_jitter", {"theta_jitter": float("nan")}),
            ("availability_min_fraction", {"availability_min_fraction": True}),
            ("psi", {"psi": True}),
        ]:
            with pytest.raises(ValueError, match=field_name):
                Scenario(**kwargs)
        # An integral float in an integer field is that integer, at one
        # address; a real field keeps the number it was given.
        assert (
            Scenario(k_winners=2.0, test_per_class=5.0).to_json()
            == Scenario(k_winners=2, test_per_class=5).to_json()
        )
        assert type(Scenario(lr=1).lr) is int
        # The smallest size is accepted, and its model builds.
        for dataset, channels in (("mnist_o", 1), ("cifar10", 3)):
            scenario = Scenario(dataset=dataset, image_size=6)
            shape = (6, 6, channels)
            build_model(dataset, shape, 10, rng_from(0, "t"), scenario.model_width)

    def test_dataset_lr_calibration(self):
        def lr(ds):
            return Scenario.from_preset("bench", ds).lr

        assert lr("cifar10") < lr("mnist_o")
        assert lr("hpnews") > lr("mnist_o")


class TestRng:
    def test_spawn_independence(self):
        a, b = spawn_rngs(1, 2)
        assert not np.allclose(a.random(10), b.random(10))

    def test_named_streams_reproducible(self):
        x = rng_from(5, "data").random(5)
        y = rng_from(5, "data").random(5)
        np.testing.assert_array_equal(x, y)

    def test_named_streams_distinct(self):
        x = rng_from(5, "data").random(5)
        y = rng_from(5, "theta").random(5)
        assert not np.allclose(x, y)

    def test_seed_changes_stream(self):
        x = rng_from(5, "data").random(5)
        y = rng_from(6, "data").random(5)
        assert not np.allclose(x, y)


class TestReporting:
    def test_fmt(self):
        assert fmt(None) == "n/a"
        assert fmt(0.123456) == "0.1235"
        assert fmt(12345.6) == "12,345.6"
        assert fmt("abc") == "abc"
        assert fmt(float("nan")) == "nan"

    def test_ascii_table_alignment(self):
        table = ascii_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}

    def test_ascii_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            ascii_table(["a"], [[1, 2]])

    def test_series_table(self):
        out = series_table("T", "round", [1, 2], {"acc": [0.1, 0.2]})
        assert "T" in out and "round" in out and "acc" in out

    def test_paper_vs_measured(self):
        out = paper_vs_measured([("accuracy", 0.95, 0.93)])
        assert "paper" in out and "measured" in out


class TestRunner:
    """Seed-averaged series (``RunResult.averaged``)."""

    def make_history(self, accs):
        h = TrainingHistory("X")
        for i, a in enumerate(accs, start=1):
            h.records.append(RoundRecord(i, a, 1 - a, [0], 0.0, round_seconds=1.0))
        return h

    def test_average(self):
        h1 = self.make_history([0.2, 0.4])
        h2 = self.make_history([0.4, 0.6])
        stats = average_histories([h1, h2])
        assert isinstance(stats["accuracy"], SeriesStats)
        np.testing.assert_allclose(stats["accuracy"].mean, [0.3, 0.5])
        np.testing.assert_allclose(stats["accuracy"].std, [0.1, 0.1])
        np.testing.assert_allclose(stats["cumulative_seconds"].mean, [1.0, 2.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            average_histories([self.make_history([0.1]), self.make_history([0.1, 0.2])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_histories([])
