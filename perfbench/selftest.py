"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

Run from the repository root::

    python -m pytest perfbench/selftest.py -q

The unit tests (span arithmetic, hook resolution, output checks) take a
second; the tiny-scale runs start every workload untraced and traced with
``--seconds 1`` (an untraced run still completes its first pass over all
cells or sweeps) and take about three minutes on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from tracing import (  # noqa: E402
    Hook,
    LayerMetric,
    Tracer,
    layer_metrics,
    self_times,
    top_level_coverage,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _trace(spans, names=("root", "child", "grandchild"), counters=None, missing=()):
    return {"names": list(names), "spans": spans, "counters": counters or {},
            "missing": list(missing)}


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_each_childs_duration():
    trace = _trace([
        [0, 0.0, 10.0, -1],   # root
        [1, 1.0, 3.0, 0],
        [1, 4.0, 7.0, 0],
        [2, 4.5, 5.5, 2],     # grandchild counts against its parent only
    ])
    own = self_times(trace)
    assert own[0] == pytest.approx(10.0 - 2.0 - 3.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)


def test_top_level_coverage_counts_only_parentless_spans():
    trace = _trace([[0, 0.0, 4.0, -1], [1, 1.0, 2.0, 0], [0, 6.0, 10.0, -1]])
    assert top_level_coverage(trace) == pytest.approx(0.8)


def test_layer_metrics_report_absent_never_zero():
    table = [
        LayerMetric("root_s", "s", "total", ("root",)),
        LayerMetric("root_self_s", "s", "self", ("root",)),
        LayerMetric("child_n", "count", "calls", ("child",)),
        LayerMetric("child_ms", "ms", "median_ms", ("child",)),
        LayerMetric("flop", "GFLOP", "counter", ("child",)),
        LayerMetric("idle_s", "s", "total", ("grandchild",)),
        LayerMetric("gone_s", "s", "total", ("gone",)),
        LayerMetric("extra", "%", "external"),
    ]
    trace = _trace([[0, 0.0, 4.0, -1], [1, 1.0, 2.0, 0], [1, 2.0, 4.0, 0]],
                   counters={"flop": 3.0}, missing=["gone"])
    metrics, absent = layer_metrics([trace], table, {"root", "child", "gone"}, {"extra": 1.5})
    assert metrics["root_s"] == (4.0, "s")
    assert metrics["root_self_s"] == (1.0, "s")
    assert metrics["child_n"] == (2.0, "count")
    assert metrics["child_ms"] == (1500.0, "ms")
    assert metrics["flop"] == (3.0, "GFLOP")
    assert metrics["idle_s"] == (0.0, "s")  # not expected here: a true zero
    assert metrics["extra"] == (1.5, "%")
    assert absent == ["gone_s"]
    # An expected span with no call is absent too, not zero.
    _, absent = layer_metrics([trace], table, {"grandchild"}, {"extra": 0.0})
    assert absent == ["idle_s"]


def test_tracer_wraps_by_dotted_name_and_restores():
    module = types.ModuleType("perfbench_selftest_target")

    class Box:
        def outer(self, n):
            return module.inner(n) + 1

    def inner(n):
        return n * 2

    module.Box, module.inner = Box, inner
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        tracer.install([
            Hook("outer", f"{module.__name__}.Box.outer"),
            Hook("inner", f"{module.__name__}.inner", lambda a, k, r: {"inner_n": a[0]}),
            Hook("nowhere", f"{module.__name__}.Box.nowhere"),
        ])
        assert Box().outer(3) == 7
        tracer.uninstall()
        assert Box().outer(3) == 7 and module.inner is inner
        trace = tracer.export()
    finally:
        del sys.modules[module.__name__]
    assert trace["missing"] == ["nowhere"]
    assert [trace["names"][s[0]] for s in trace["spans"]] == ["outer", "inner"]
    assert [s[3] for s in trace["spans"]] == [-1, 0]  # inner nests under outer
    assert trace["counters"] == {"inner_n": 3.0}
    assert len(trace["spans"]) == 2  # nothing recorded after uninstall


def test_every_hook_target_resolves():
    from layers import HOOKS
    from tracing import resolve

    for hook in HOOKS:
        resolve(hook.target)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _history(n_rounds=3, winners=2):
    from repro.fl.trainer import RoundRecord, TrainingHistory

    records = [
        RoundRecord(round_index=r + 1, accuracy=0.5, loss=1.0,
                    winner_ids=list(range(winners)), total_payment=2.0,
                    payments={w: 1.0 for w in range(winners)})
        for r in range(n_rounds)
    ]
    return TrainingHistory(scheme="FMore", records=records)


def test_output_checks_fire_on_corrupted_results():
    import workloads

    scenario = workloads.flat_scenario(0).with_(n_rounds=3, k_winners=2)
    assert workloads.bad_rounds(_history(), scenario, "cell") == (0, [])

    corruptions = {
        "missing round": lambda h: h.records.pop(),
        "winner count": lambda h: h.records[0].winner_ids.append(9),
        "negative payment": lambda h: h.records[1].payments.update({0: -1.0}),
        "nan payment": lambda h: setattr(h.records[1], "total_payment", math.nan),
        "nan accuracy": lambda h: setattr(h.records[2], "accuracy", math.nan),
    }
    for label, corrupt in corruptions.items():
        history = _history()
        corrupt(history)
        failed, problems = workloads.bad_rounds(history, scenario, "cell")
        assert failed == 1 and problems, label

    assert workloads.above_chance([0.05, 0.1], 10, "cells")
    assert not workloads.above_chance([0.3, 0.1], 10, "cells")
    assert workloads.above_chance([math.nan], 10, "cells")

    seg = workloads.Segment()
    seg.record_digest("cell", workloads.cell_digest(_history()))
    seg.record_digest("cell", workloads.cell_digest(_history()))
    assert not seg.problems
    tampered = _history()
    tampered.records[0].accuracy = 0.51
    seg.record_digest("cell", workloads.cell_digest(tampered))
    assert seg.problems


# ----------------------------------------------------------------------
# Tiny-scale runs of the real command
# ----------------------------------------------------------------------
def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in declared} == set(result["metrics"])
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, metric["name"]


def test_bare_benchmark_directory_fails_without_a_result():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = _run("--workload", BENCHMARK["workloads"][0]["name"], "--seed", "0",
                    "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
