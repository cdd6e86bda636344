"""Tests for the executor subsystem and the engine's cell fan-out.

The contract the sweep layer rests on: every executor — serial and
process here — returns bitwise-identical ``RunResult`` histories for the
same scenario, because each ``(scheme, seed)`` cell derives its
randomness from named per-cell seed streams and nothing else.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.__main__ import main
from repro.api import engine as engine_module
from repro.api import (
    EXECUTORS,
    Executor,
    FMoreEngine,
    ProcessExecutor,
    Scenario,
    SerialExecutor,
)


class TestExecutorRegistry:
    def test_registered_names(self):
        assert EXECUTORS.names() == ("process", "serial", "service")

    def test_create_from_spec(self):
        executor = EXECUTORS.create({"name": "process", "max_workers": 3})
        assert isinstance(executor, ProcessExecutor)
        assert executor.max_workers == 3
        assert not executor.in_process

    def test_worker_count_bounded_by_items(self):
        assert ProcessExecutor(max_workers=8).worker_count(2) == 2
        assert ProcessExecutor(max_workers=2).worker_count(8) == 2
        assert SerialExecutor().worker_count(0) == 1

    def test_invalid_max_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessExecutor(max_workers=0)

    def test_map_preserves_order(self):
        for executor in (SerialExecutor(), ProcessExecutor(2)):
            assert executor.map(abs, [-3, -1, -2]) == [3, 1, 2]

    def test_is_abstract(self):
        with pytest.raises(TypeError):
            Executor()


class TestExecutionSpec:
    def test_default_is_serial(self):
        assert Scenario().execution == {"executor": "serial", "max_workers": None}

    def test_canonicalised_and_round_tripped(self):
        scenario = Scenario(execution={"executor": "process", "max_workers": 2})
        assert scenario.execution == {"executor": "process", "max_workers": 2}
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario
        assert again.execution == scenario.execution
        integral = Scenario(execution={"executor": "process", "max_workers": 2.0})
        assert integral == scenario
        assert type(integral.execution["max_workers"]) is int

    def test_unknown_executor_rejected(self):
        # thread: the retired in-process pool; distributed: the store
        # queue the service executor absorbed.
        for name in ("gpu_farm", "thread", "distributed"):
            with pytest.raises(ValueError, match=f"unknown executor '{name}'"):
                Scenario(execution={"executor": name})

    def test_unknown_key_rejected(self):
        # local_training: the retired within-round pool; a stored spec that
        # still carries it must fail, not load under another schedule.
        for key, value in (
            ("pool", 4),
            ("local_training", {"executor": "thread", "max_workers": 2}),
        ):
            with pytest.raises(ValueError, match=rf"unknown execution keys \['{key}'\]"):
                Scenario(execution={"executor": "serial", key: value})

    def test_bad_max_workers_rejected(self):
        for bad in (0, 2.7, True, "3"):
            with pytest.raises(ValueError, match="max_workers"):
                Scenario(execution={"executor": "process", "max_workers": bad})

    def test_cli_parallel_sets_process_spec(self, capsys):
        assert main(["scenario", "--preset", "smoke", "--parallel", "2"]) == 0
        out = capsys.readouterr().out
        import json

        spec = json.loads(out)
        assert spec["execution"] == {"executor": "process", "max_workers": 2}

    def test_cli_executor_flag(self, capsys):
        assert main(["scenario", "--preset", "smoke", "--executor", "process"]) == 0
        import json

        spec = json.loads(capsys.readouterr().out)
        assert spec["execution"]["executor"] == "process"


@pytest.fixture(scope="module")
def plan():
    return Scenario.from_preset(
        "smoke",
        "mnist_o",
        schemes=("FMore", "RandFL", "FixFL"),
        seeds=(0, 1),
        n_rounds=2,
    )


@pytest.fixture(scope="module")
def serial_result(plan):
    return FMoreEngine().run(plan)


class TestExecutorDeterminism:
    """Acceptance: process histories == serial, bitwise."""

    @pytest.mark.parametrize("executor", ["process"])
    def test_identical_to_serial(self, plan, serial_result, executor):
        scenario = plan.with_(
            execution={"executor": executor, "max_workers": 2}
        )
        result = FMoreEngine().run(scenario)
        assert set(result.histories) == set(serial_result.histories)
        for scheme, histories in result.histories.items():
            reference = serial_result.histories[scheme]
            assert len(histories) == len(reference) == len(plan.seeds)
            for mine, ref in zip(histories, reference):
                assert mine.scheme == ref.scheme
                assert mine.records == ref.records

    def test_seed_order_preserved(self, plan, serial_result):
        # histories[scheme][i] must correspond to seeds[i].
        scenario = plan.with_(
            schemes=("RandFL",), execution={"executor": "process", "max_workers": 2}
        )
        result = FMoreEngine().run(scenario)
        for i, seed in enumerate(scenario.seeds):
            assert (
                result.histories["RandFL"][i].records
                == serial_result.histories["RandFL"][i].records
            )
            assert result.history("RandFL", seed) is result.histories["RandFL"][i]

    def test_cluster_scenario_parallel_matches_serial(self):
        scenario = Scenario.from_preset(
            "cluster_cifar10",
            seeds=(0, 1),
            n_clients=6,
            k_winners=2,
            n_rounds=1,
            size_range=(30, 80),
            test_per_class=4,
            model_width=0.12,
            grid_size=65,
        )
        serial = FMoreEngine().run(scenario)
        parallel = FMoreEngine().run(
            scenario.with_(execution={"executor": "process", "max_workers": 2})
        )
        for scheme in scenario.schemes:
            for mine, ref in zip(
                parallel.histories[scheme], serial.histories[scheme]
            ):
                assert mine.records == ref.records
                assert mine.cumulative_seconds == ref.cumulative_seconds


class TestEngineCacheWithExecutors:
    def test_serial_run_still_one_grid_build(self, plan):
        engine = FMoreEngine()
        engine.run(plan.with_(schemes=("FMore",), seeds=(0, 1, 2), n_rounds=1))
        assert engine.cache_misses == 1
        assert engine.cache_hits == 2


class TestSerialFederationReuse:
    """The serial run builds each seed's federation once, in seed order,
    and holds one at a time."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """``(seed, earlier seeds still alive)`` per federation build."""
        built: list[tuple[int, list[int]]] = []
        refs: list[tuple[int, weakref.ref]] = []
        original = engine_module.build_federation

        def counting(scenario, seed):
            gc.collect()
            built.append((seed, [s for s, ref in refs if ref() is not None]))
            federation = original(scenario, seed)
            refs.append((seed, weakref.ref(federation)))
            return federation

        monkeypatch.setattr(engine_module, "build_federation", counting)
        return built

    def test_two_seeds_build_two_federations_one_at_a_time(self, plan, builds):
        # 2 seeds x 3 schemes: seed 0's federation is unreachable by the
        # time seed 1's is built.
        FMoreEngine().run(plan.with_(n_rounds=1))
        assert builds == [(0, []), (1, [])]

    def test_stored_seed_builds_no_federation(self, plan, builds, tmp_path):
        scenario = plan.with_(n_rounds=1)
        FMoreEngine().run(scenario.with_(seeds=(0,)), store=tmp_path)
        builds.clear()
        FMoreEngine().run(scenario, store=tmp_path)
        assert [seed for seed, _ in builds] == [1]
