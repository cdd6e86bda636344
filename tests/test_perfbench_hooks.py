"""The perfbench hooks still see the program's kernels.

``perfbench/layers.py`` names every traced entry point by dotted path,
and its tracer patches that attribute.  A call site that bound a kernel
at import time (``from .backends import numpy_col2im``) would escape the
patch: the hook still resolves, but its span records no call and the
traced benchmark reports the metric absent.  These checks run the
benchmark's own ``tracing`` and ``layers`` modules, unedited, over one
small CNN fit and one small LSTM fit.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from repro.fl.models import build_model
from repro.sim.rng import rng_from

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``tracing`` and ``layers`` modules."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    return importlib.import_module("tracing"), importlib.import_module("layers")


def traced_spans(perfbench, fit) -> set[str]:
    """Names of the ``nn.*`` spans one call of ``fit`` records."""
    tracing, layers = perfbench
    tracer = tracing.Tracer()
    tracer.install(hook for hook in layers.HOOKS if hook.name.startswith("nn."))
    try:
        fit()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    return {tracer.names[name_id] for name_id, *_ in tracer.spans}


def test_every_hook_resolves(perfbench):
    tracing, layers = perfbench
    for hook in layers.HOOKS:
        tracing.resolve(hook.target)


def test_cnn_fit_records_the_conv_kernels(perfbench):
    rng = np.random.default_rng(0)
    model = build_model("mnist_o", (9, 9, 1), 10, rng_from(0, "hooks"), width=0.25)
    x = rng.standard_normal((8, 9, 9, 1))
    y = rng.integers(0, 10, size=8)
    seen = traced_spans(perfbench, lambda: model.fit(x, y, batch_size=4))
    want = {
        "nn.gemm",
        "nn.im2col",
        "nn.col2im",
        "nn.conv_forward",
        "nn.conv_backward",
        "nn.dense_forward",
        "nn.maxpool_forward",
    }
    assert want - seen == set()


def test_lstm_fit_records_the_recurrent_kernels(perfbench):
    rng = np.random.default_rng(0)
    model = build_model(
        "hpnews", (12,), 10, rng_from(0, "hooks"), width=0.25, vocab_size=800
    )
    x = rng.integers(0, 800, size=(8, 12))
    y = rng.integers(0, 10, size=8)
    seen = traced_spans(perfbench, lambda: model.fit(x, y, batch_size=4))
    want = {
        "nn.gemm",
        "nn.lstm_step",
        "nn.lstm_forward",
        "nn.lstm_backward",
        "nn.embedding_forward",
    }
    assert want - seen == set()
