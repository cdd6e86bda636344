"""Every module under ``benchmarks/`` imports.

The figure benches run only under pytest-benchmark and the CI bench job,
so an API change could break them without a tier-1 failure; importing
each one catches removed or renamed names at collection speed.
"""

import importlib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_MODULES = sorted(
    p.stem
    for p in (REPO_ROOT / "benchmarks").glob("*.py")
    if p.stem not in ("__init__", "conftest")
)


def test_bench_modules_found():
    assert "figcurves" in BENCH_MODULES
    assert "bench_headline" in BENCH_MODULES


@pytest.mark.parametrize("module", BENCH_MODULES)
def test_bench_module_imports(module, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    importlib.import_module(f"benchmarks.{module}")
