"""Golden manifests: training results pinned across commits.

``PRESET_PINS`` (``test_api.py``) pins what a preset *is*; nothing else
pins what a cell *computes*.  These digests are the SHA-256 of the
seed-0 FMore and RandFL manifests of three smoke scenarios, recorded
before local training became one stacked computation per round: the
LSTM task and both CNN tasks, whose models carry Dropout layers.  A
manifest holds the whole round history (accuracy, loss, mean training
loss, winners, payments), so a change that moves one bit of any winner's
local training, of FedAvg or of the evaluation changes a digest here.

The digests were recorded with numpy 2.4.6 and its bundled OpenBLAS
0.3.31.188.0 on an x86-64 host with AVX-512, and are the same with one
and with two OpenBLAS threads, so the test holds under either
``OPENBLAS_NUM_THREADS``.  Another numpy or BLAS build, or a CPU without
AVX-512, may split a GEMM's sums or round an ``exp`` differently, so the
test skips there, naming the build it found; ``test_cohort_training.py``
checks training against its reference on every build.  A change that has
to move the digests re-pins them on purpose and says so.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.api import FMoreEngine, Scenario

#: The numpy and BLAS the digests were recorded with (on an AVX-512 CPU).
RECORDED_NUMPY = "2.4.6"
RECORDED_BLAS = ("scipy-openblas", "0.3.31.188.0")


def _other_build() -> str | None:
    """What differs from the recorded build here, or None if nothing does."""
    if np.__version__ != RECORDED_NUMPY:
        return f"numpy {np.__version__}"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if (blas.get("name"), blas.get("version")) != RECORDED_BLAS:
        return f"BLAS {blas.get('name')} {blas.get('version')}"
    from numpy._core._multiarray_umath import __cpu_features__

    if not __cpu_features__.get("AVX512F"):
        return "a CPU without AVX-512"
    return None


OTHER_BUILD = _other_build()

GOLDEN_MANIFESTS = {
    "hpnews": {
        "FMore-seed0.json": "1eacab31a9437948d3f129d0aa0760b42b55aca0c4453a371d0e845ad1a9574d",
        "RandFL-seed0.json": "e6db7e3cd9db7bdb671ebf107d8bb9c26bd803623b797961369c4f72997dd3ed",
    },
    "mnist_o": {
        "FMore-seed0.json": "3c2445d193b24fde18f924e08696f72d2804a5137bede6336bf0d082e7c05533",
        "RandFL-seed0.json": "924dc510a85c774c98766f4575ccce8f2a72079bc31659bc31c08ee794cff823",
    },
    "cifar10": {
        "FMore-seed0.json": "ee00b2b3d9edfebff6730a95fc4506023d5d02e70b670c8c0fc3f8bdf6252714",
        "RandFL-seed0.json": "dc466fbf9c8bc5597a0040f901b88ca9e2c20d115491ce61351957f253952508",
    },
}


@pytest.mark.skipif(
    OTHER_BUILD is not None,
    reason=f"goldens recorded on numpy {RECORDED_NUMPY}, {' '.join(RECORDED_BLAS)} "
    f"and an AVX-512 CPU; this build has {OTHER_BUILD}",
)
@pytest.mark.parametrize("dataset", list(GOLDEN_MANIFESTS))
def test_smoke_manifests_match_their_goldens(dataset, tmp_path):
    scenario = Scenario.from_preset(
        "smoke", dataset, schemes=("FMore", "RandFL"), seeds=(0,)
    )
    FMoreEngine().run(scenario, store=tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(tmp_path, "runs").rglob("*.json"))
    }
    assert digests == GOLDEN_MANIFESTS[dataset]
