"""A process that never runs a scipy routine never loads scipy.

scipy is imported inside the functions that call it (the image prototype
blur, the truncated-normal and beta type families, the numerical quality
fallback, the guidance check), so ``import repro`` and a text cell on the
paper's game start without it.  Every check runs in a fresh interpreter:
this test session loaded scipy long ago.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Prints, as the last line of stdout, the scipy modules the process loaded.
_REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'scipy' or m.startswith('scipy.'))))\n"
)

#: A small smoke cell: the preset's game and model, fewer rounds and data.
_SMALL = (
    "n_clients=8, k_winners=3, n_rounds=2, test_per_class=6, "
    "size_range=(30, 90), grid_size=17"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return env


def _run(args: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args],
        env=_env(),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _scipy_modules(code: str, cwd: Path | None = None) -> list[str]:
    proc = _run(["-c", code + _REPORT], cwd=cwd)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_modules("import repro, repro.__main__\n") == []


def test_hpnews_sweep_through_the_engine_loads_no_scipy(tmp_path):
    code = (
        "from repro.api import FMoreEngine, Scenario\n"
        f"s = Scenario.from_preset('smoke', 'hpnews', {_SMALL},\n"
        "                          schemes=('FMore', 'RandFL'))\n"
        f"FMoreEngine().run(s, store={str(tmp_path / 'store')!r})\n"
    )
    assert _scipy_modules(code) == []


def test_hpnews_cli_run_loads_no_scipy(tmp_path):
    proc = _run(
        [
            "-X", "importtime", "-m", "repro", "run", "hpnews",
            "--preset", "smoke", "--set", "n_rounds=2",
            "--set", "schemes=FMore,RandFL", "--store", str(tmp_path / "store"),
        ]
    )
    assert "store: manifests under" in proc.stdout
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "repro.api.engine" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []


def test_image_run_loads_only_the_blur():
    code = (
        "from repro.api import FMoreEngine, Scenario\n"
        f"FMoreEngine().run(Scenario.from_preset('smoke', 'mnist_o', {_SMALL},\n"
        "                                      schemes=('FMore',)))\n"
    )
    loaded = _scipy_modules(code)
    assert "scipy.ndimage" in loaded
    assert not [
        m for m in loaded
        if m.startswith(("scipy.stats", "scipy.optimize"))
    ]


def test_thread_sweep_importing_the_blur_matches_serial(tmp_path):
    """The first ``scipy.ndimage`` import may run on a worker thread.

    In a fresh interpreter a thread sweep builds its federations, and so
    imports the blur, on the pool's threads (one at a time, under the cell
    runner's lock); its manifests must equal a serial sweep's.
    """
    code = (
        "import sys\n"
        "from repro.api import FMoreEngine, Scenario\n"
        f"s = Scenario.from_preset('smoke', 'mnist_o', {_SMALL},\n"
        "                          schemes=('FMore',), seeds=(0, 1))\n"
        "assert 'scipy.ndimage' not in sys.modules\n"
        "FMoreEngine().run(\n"
        "    s.with_(execution={'executor': 'thread', 'max_workers': 2}),\n"
        "    store='threaded')\n"
        "FMoreEngine().run(s, store='serial')\n"
    )
    assert "scipy.ndimage" in _scipy_modules(code, cwd=tmp_path)
    threaded = sorted((tmp_path / "threaded" / "runs").rglob("*.json"))
    serial = sorted((tmp_path / "serial" / "runs").rglob("*.json"))
    assert len(threaded) == len(serial) == 2
    for a, b in zip(threaded, serial):
        assert a.relative_to(tmp_path / "threaded") == b.relative_to(tmp_path / "serial")
        assert a.read_bytes() == b.read_bytes()
