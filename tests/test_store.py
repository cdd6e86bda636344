"""The durable experiment store: manifests, cell reuse, metrics frames.

Pins the tentpole contracts of :mod:`repro.api.store` and
:mod:`repro.api.metrics`:

* ``scenario_hash`` addresses everything a cell's result depends on and
  nothing it doesn't (the run plan and executor are excluded, so growing
  a sweep keeps hitting stored cells);
* ``RunResult.save(store)`` / ``RunResult.load(store, scenario)``
  round-trip exactly (``averaged()`` and ``metrics()`` agree);
* re-running against a store computes only the missing ``(scheme, seed)``
  cells unless ``force=True``;
* ``--resume`` against a store written by a *different* scenario fails
  fast, listing the stored hashes;
* a manifest or scenario file that does not parse is a hard
  ``StoreError`` naming the file, never a silent re-run.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.__main__ import EXIT_INCOMPLETE, main
from repro.api import (
    ExperimentStore,
    FMoreEngine,
    MetricsFrame,
    RunResult,
    Scenario,
    StoreError,
    StoreMismatchError,
    scenario_hash,
)
from repro.api import engine as engine_module

POLICIES = {
    "audit_blacklist": {
        "defect_fraction": 0.3,
        "shortfall": 0.5,
        "strikes_to_ban": 1,
    },
    "churn": {"departure_prob": 0.25, "arrival_prob": 0.6},
}


def _scenario(**overrides) -> Scenario:
    return Scenario.from_preset(
        "smoke",
        "mnist_o",
        schemes=("FMore", "RandFL"),
        seeds=(0,),
        n_clients=8,
        k_winners=3,
        n_rounds=3,
        test_per_class=6,
        size_range=(30, 90),
        grid_size=17,
        policies=POLICIES,
        **overrides,
    )


@pytest.fixture(scope="module")
def scenario():
    return _scenario()


@pytest.fixture(scope="module")
def result(scenario):
    return FMoreEngine().run(scenario)


class TestScenarioHash:
    def test_plan_and_executor_do_not_change_the_address(self, scenario):
        h = scenario_hash(scenario)
        assert h == scenario_hash(scenario.with_(seeds=(0, 1, 2)))
        assert h == scenario_hash(scenario.with_(schemes=("RandFL",)))
        assert h == scenario_hash(
            scenario.with_(execution={"executor": "process", "max_workers": 4})
        )

    def test_cell_shaping_fields_do_change_it(self, scenario):
        h = scenario_hash(scenario)
        assert h != scenario_hash(scenario.with_(n_rounds=4))
        assert h != scenario_hash(scenario.with_(k_winners=2))
        assert h != scenario_hash(scenario.with_(policies={}))
        assert h != scenario_hash(
            scenario.with_(scoring={**scenario.scoring, "scale": 30.0})
        )

    def test_stable_across_json_round_trip(self, scenario):
        assert scenario_hash(scenario) == scenario_hash(
            Scenario.from_json(scenario.to_json())
        )


class TestManifests:
    def test_history_round_trips_exactly(self, tmp_path, scenario, result):
        store = ExperimentStore(tmp_path)
        history = result.history("FMore")
        store.save_history(scenario, "FMore", 0, history)
        loaded = store.load_history(scenario, "FMore", 0)
        assert loaded == history
        # Policy actions survive the trip (the FMore cell files some).
        assert any(r.policy_actions for r in loaded.records)

    def test_run_result_save_load(self, tmp_path, scenario, result):
        store = result.save(ExperimentStore(tmp_path))
        loaded = RunResult.load(store, scenario)
        assert loaded.histories == result.histories
        for scheme, stats in loaded.averaged().items():
            np.testing.assert_array_equal(
                stats["accuracy"].mean, result.averaged()[scheme]["accuracy"].mean
            )
        assert loaded.metrics() == result.metrics()

    def test_load_lists_missing_cells(self, tmp_path, scenario, result):
        store = ExperimentStore(tmp_path)
        store.save_history(scenario, "FMore", 0, result.history("FMore"))
        with pytest.raises(StoreError, match="RandFL/seed0"):
            RunResult.load(store, scenario)

    def test_cells_enumeration(self, tmp_path, scenario, result):
        store = result.save(ExperimentStore(tmp_path))
        h = scenario_hash(scenario)
        assert store.cells(scenario) == [(h, "FMore", 0), (h, "RandFL", 0)]


class TestCellReuse:
    def _counting_engine(self, monkeypatch):
        """An engine whose session builds are observable."""
        built: list[tuple[str, int]] = []
        original = engine_module.make_session

        def counting(scenario, scheme, seed, **kwargs):
            built.append((scheme, seed))
            return original(scenario, scheme, seed, **kwargs)

        monkeypatch.setattr(engine_module, "make_session", counting)
        return FMoreEngine(), built

    def test_second_run_computes_nothing(self, tmp_path, monkeypatch, scenario):
        engine, built = self._counting_engine(monkeypatch)
        first = engine.run(scenario, store=tmp_path)
        assert sorted(built) == [("FMore", 0), ("RandFL", 0)]
        built.clear()
        second = engine.run(scenario, store=tmp_path)
        assert built == []
        assert second.histories == first.histories

    def test_growing_the_sweep_reuses_completed_cells(
        self, tmp_path, monkeypatch, scenario
    ):
        engine, built = self._counting_engine(monkeypatch)
        engine.run(scenario, store=tmp_path)
        built.clear()
        grown = engine.run(scenario.with_(seeds=(0, 1)), store=tmp_path)
        # Seed 0 came from the store; only seed 1's cells were computed.
        assert sorted(built) == [("FMore", 1), ("RandFL", 1)]
        assert grown.history("FMore", 0).records
        assert len(grown.histories["FMore"]) == 2

    def test_force_recomputes(self, tmp_path, monkeypatch, scenario):
        engine, built = self._counting_engine(monkeypatch)
        engine.run(scenario, store=tmp_path)
        built.clear()
        engine.run(scenario, store=tmp_path, force=True)
        assert sorted(built) == [("FMore", 0), ("RandFL", 0)]


class TestMismatchFailFast:
    def test_resume_against_foreign_store_raises(self, tmp_path, scenario, result):
        result.save(ExperimentStore(tmp_path))
        other = scenario.with_(n_rounds=5)
        with pytest.raises(StoreMismatchError) as excinfo:
            FMoreEngine().run(other, store=tmp_path, resume=True)
        message = str(excinfo.value)
        assert scenario_hash(scenario)[:12] in message  # the stored hash
        assert scenario_hash(other)[:12] in message     # the requested hash

    def test_resume_against_empty_store_is_fine(self, tmp_path, scenario):
        # Nothing stored -> nothing to mismatch; the run starts fresh.
        run = FMoreEngine().run(scenario, store=tmp_path / "new", resume=True)
        assert len(run.histories["FMore"]) == 1

    def test_resume_without_store_rejected(self, scenario):
        with pytest.raises(ValueError, match="store"):
            FMoreEngine().run(scenario, resume=True)


class TestMetricsFrame:
    def test_columns_and_policy_trajectories(self, result):
        frame = result.metrics()
        assert len(frame) == 2 * 3  # (scheme, round) rows
        assert frame.column("scheme")[:3] == ["FMore"] * 3
        bans = frame.filter(scheme="FMore").column("bans_total_mean")
        assert bans == sorted(bans)  # cumulative
        expected_bans = sum(
            1
            for record in result.history("FMore").records
            for action in record.policy_actions
            if action.kind == "ban"
        )
        assert bans[-1] == pytest.approx(expected_bans)
        # RandFL runs no pipeline: its policy columns are flat zero.
        assert set(frame.filter(scheme="RandFL").column("bans_total_mean")) == {0.0}

    def test_accuracy_matches_averaged(self, result):
        frame = result.metrics()
        acc = frame.filter(scheme="FMore").column("accuracy_mean")
        np.testing.assert_allclose(
            acc, result.averaged()["FMore"]["accuracy"].mean
        )

    def test_csv_and_json_round_trip(self, result, tmp_path):
        frame = result.metrics()
        text = frame.to_csv(tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text() == text
        assert text.splitlines()[0].startswith("scheme,round,accuracy_mean")
        assert len(text.splitlines()) == len(frame) + 1
        assert MetricsFrame.from_json(frame.to_json()) == frame

    def test_unknown_column_lists_choices(self, result):
        with pytest.raises(KeyError, match="accuracy_mean"):
            result.metrics().column("nope")

    def test_alpha_columns_appear_with_guidance(self):
        scenario = _scenario().with_(
            schemes=("FMore",),
            scoring={"name": "additive", "weights": [0.6, 0.4]},
            policies={"guidance": {"target_mix": [2.0, 1.0], "every": 1}},
        )
        frame = FMoreEngine().run(scenario).metrics()
        assert "alpha0" in frame.columns and "alpha1" in frame.columns
        final_alphas = frame.rows[-1][-2:]
        assert all(isinstance(a, float) for a in final_alphas)


class TestCLI:
    ARGS = [
        "--preset",
        "smoke",
        "--set",
        "n_clients=8",
        "--set",
        "k_winners=3",
        "--set",
        "n_rounds=3",
        "--set",
        "test_per_class=6",
        "--set",
        "size_range=30,90",
        "--set",
        "grid_size=17",
        "--set",
        "schemes=FMore,RandFL",
    ]

    def test_run_store_stop_resume_report(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(
            ["run", *self.ARGS, "--store", store, "--checkpoint-every", "1",
             "--stop-after", "1"]
        )
        assert code == EXIT_INCOMPLETE
        assert "--resume" in capsys.readouterr().out
        assert main(["run", *self.ARGS, "--store", store, "--resume"]) == 0
        assert "store: manifests under" in capsys.readouterr().out
        csv_path = tmp_path / "metrics.csv"
        assert main(["report", "--store", store, "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "FMore" in out and "RandFL" in out
        assert csv_path.read_text().startswith("scheme,round,accuracy_mean")

    def test_resume_against_wrong_store_exits_with_hashes(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", *self.ARGS, "--store", store]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="different scenario spec"):
            main(
                ["run", *self.ARGS, "--set", "n_rounds=2", "--store", store,
                 "--resume"]
            )

    def test_report_without_runs_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no runs stored"):
            main(["report", "--store", str(tmp_path / "empty")])


class TestCorruptStore:
    """A store file that does not parse is a hard ``StoreError`` naming it.

    A damaged manifest is never silently re-run; ``--force`` replaces it.
    The CLI turns the error into one ``error:`` line and exit status 1.
    """

    #: A scenario file that parses but holds neither hash nor spec.
    NO_KEYS = b'{"format": 1}'

    @pytest.fixture
    def store(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main(["run", *TestCLI.ARGS, "--store", str(root)]) == 0
        capsys.readouterr()
        return root

    @staticmethod
    def _cut(path):
        original = path.read_bytes()
        path.write_bytes(original[:100])
        return original

    @staticmethod
    def _assert_one_error_line(excinfo, path):
        message = excinfo.value.code
        assert isinstance(message, str), message
        assert message.startswith(f"error: corrupt store file {path}: ")
        assert "\n" not in message

    def test_engine_run_raises_naming_the_manifest(self, store):
        (manifest,) = store.glob("runs/*/FMore-seed0.json")
        scenario = ExperimentStore(store).load_scenario(manifest.parent.name)
        self._cut(manifest)
        with pytest.raises(StoreError, match=re.escape(f"corrupt store file {manifest}")):
            FMoreEngine().run(scenario, store=str(store))

    def test_cli_run_fails_then_force_restores_the_manifest(self, store):
        (manifest,) = store.glob("runs/*/FMore-seed0.json")
        original = self._cut(manifest)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *TestCLI.ARGS, "--store", str(store)])
        self._assert_one_error_line(excinfo, manifest)
        assert manifest.read_bytes() == original[:100]  # not re-run
        assert main(["run", *TestCLI.ARGS, "--store", str(store), "--force"]) == 0
        assert manifest.read_bytes() == original

    def test_cli_force_restores_the_scenario_file(self, store, capsys):
        (spec,) = store.glob("scenarios/*.json")
        original = spec.read_bytes()
        # Cut short, or parsing but without its hash and spec.
        for damaged in (original[:100], self.NO_KEYS):
            spec.write_bytes(damaged)
            assert main(["run", *TestCLI.ARGS, "--store", str(store), "--force"]) == 0
            assert spec.read_bytes() == original
        assert main(["report", "--store", str(store)]) == 0
        assert main(["run", *TestCLI.ARGS, "--store", str(store), "--resume"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("damage", [b"\xff\xfe{", b"[1, 2]"])
    def test_undecodable_or_non_object_manifest_names_the_file(self, store, damage):
        (manifest,) = store.glob("runs/*/FMore-seed0.json")
        manifest.write_bytes(damage)
        with pytest.raises(StoreError, match=re.escape(f"corrupt store file {manifest}")):
            ExperimentStore(store).load_history(manifest.parent.name, "FMore", 0)

    @pytest.mark.parametrize(
        "pattern, damage",
        [
            pytest.param("runs/*/FMore-seed0.json", None, id="runs/*/FMore-seed0.json"),
            pytest.param("scenarios/*.json", None, id="scenarios/*.json"),
            pytest.param("scenarios/*.json", NO_KEYS, id="scenarios/*.json-no-keys"),
        ],
    )
    def test_cli_report_fails_with_one_line(self, store, pattern, damage):
        (damaged,) = store.glob(pattern)
        if damage is None:
            self._cut(damaged)
        else:
            damaged.write_bytes(damage)
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--store", str(store)])
        self._assert_one_error_line(excinfo, damaged)

    def test_cli_report_names_a_stored_spec_that_no_longer_validates(self, store):
        """A spec written by a version that had the within-round training
        pool: its ``execution.local_training`` sub-spec no longer loads."""
        import hashlib
        import json

        (current,) = store.glob("scenarios/*.json")
        spec = json.loads(current.read_text())["scenario"]
        spec["execution"]["local_training"] = {"executor": "thread", "max_workers": 2}
        # That version's scenario_hash: the plan-free fields plus a marker.
        payload = {
            k: v for k, v in spec.items() if k not in ("schemes", "seeds", "execution")
        }
        payload["local_training"] = True
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        old_hash = hashlib.sha256(canonical.encode()).hexdigest()
        old = store / "scenarios" / f"{old_hash}.json"
        old.write_text(
            json.dumps({"format": 1, "scenario_hash": old_hash, "scenario": spec})
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--store", str(store)])
        message = excinfo.value.code
        assert isinstance(message, str), message
        assert message.startswith(f"error: stored scenario {old} does not validate: ")
        assert "local_training" in message
        assert "\n" not in message


# ----------------------------------------------------------------------
# Concurrent writers of one path
# ----------------------------------------------------------------------
def _write_manifest(path, writer, n):
    from repro.api.store import _write_json

    _write_json(path, {"writer": writer, "n": n})


def _write_weights(path, writer, n):
    from repro.fl.serialize import save_weights

    save_weights(path, [np.full(64, writer * 1000.0 + n)])


class TestConcurrentWrites:
    """Two workers finishing one stolen cell write the same files at once:
    each write must land whole, and no writer may lose its temp file to
    another's ``os.replace``."""

    THREADS = 4
    WRITES = 300

    @pytest.mark.parametrize("write", [_write_manifest, _write_weights])
    def test_threads_racing_on_one_path(self, tmp_path, write):
        import json
        import threading

        from repro.fl.serialize import load_weights

        path = tmp_path / "cell.out"
        errors = []
        start = threading.Barrier(self.THREADS)

        def writer(i):
            start.wait()
            try:
                for n in range(self.WRITES):
                    write(path, i, n)
            except Exception as exc:  # collected: the main thread asserts
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no debris
        last = self.WRITES - 1
        if write is _write_manifest:
            assert json.loads(path.read_text())["n"] == last
        else:
            (weights,) = load_weights(path)
            assert weights[0] % 1000.0 == last

    def test_atomic_write_keeps_the_umask_mode(self, tmp_path):
        import os

        from repro.fl.serialize import atomic_write

        umask = os.umask(0o022)
        try:
            path = atomic_write(tmp_path / "x.json", b"{}")
        finally:
            os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o644
        assert path.read_bytes() == b"{}"
