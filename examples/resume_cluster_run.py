"""Crash-and-resume a cluster testbed run through the experiment store.

Long Section V-C runs (hundreds of CIFAR-10 rounds on the simulated
32-machine cluster) should survive a crash.  This example runs the
``cluster_cifar10`` preset (shrunk to demo scale) into an
:class:`~repro.api.ExperimentStore`, kills the run after two rounds,
resumes it in a *fresh engine* — as a new process would — and verifies
the resumed histories are bitwise-identical to an uninterrupted run.

Run:  python examples/resume_cluster_run.py      (~60 s)
"""

import tempfile
from pathlib import Path

from repro.analysis import result_tables
from repro.api import (
    ExperimentStore,
    FMoreEngine,
    IncompleteRunError,
    Scenario,
    scenario_hash,
)

scenario = Scenario.from_preset(
    "cluster_cifar10",
    seeds=(3,),
    n_rounds=6,
    size_range=(150, 900),
    test_per_class=25,
    model_width=0.18,
    grid_size=65,
)
store = ExperimentStore(Path(tempfile.mkdtemp()) / "cluster-store")
print(
    f"cluster scenario {scenario.name!r} "
    f"(content address {scenario_hash(scenario)[:12]}…)\n"
    f"store: {store.root}\n"
)

# ----------------------------------------------------------------------
# 1. The "crash": checkpoint every round, stop after round 2 of each cell.
#    (A real crash between checkpoints loses at most checkpoint_every
#    rounds; --stop-after is the controlled stand-in so the demo is
#    deterministic.)
# ----------------------------------------------------------------------
try:
    FMoreEngine().run(scenario, store=store, checkpoint_every=1, stop_after=2)
except IncompleteRunError as exc:
    print(f"interrupted: {exc}\n")

for scheme in scenario.schemes:
    checkpoint = store.load_checkpoint(scenario, scheme, 3)
    print(
        f"  {scheme}: checkpoint at round {checkpoint.round_index}, "
        f"{len(checkpoint.weights)} weight arrays, "
        f"{len(checkpoint.policy_states)} policy state(s)"
    )

# ----------------------------------------------------------------------
# 2. The resume: a fresh engine (think: a new process after the crash)
#    picks every cell up from its checkpoint and completes the run.
# ----------------------------------------------------------------------
print("\nresuming…")
resumed = FMoreEngine().run(scenario, store=store, resume=True)

# ----------------------------------------------------------------------
# 3. Proof: an uninterrupted run of the same scenario is bitwise-equal.
# ----------------------------------------------------------------------
uninterrupted = FMoreEngine().run(scenario)
assert resumed.histories == uninterrupted.histories
print("resumed histories are bitwise-identical to the uninterrupted run\n")

print(result_tables(resumed, target_accuracy=0.2))
frame = resumed.metrics()
print(
    f"\nmetrics frame: {len(frame)} rows x {len(frame.columns)} columns "
    "(frame.to_csv('cluster.csv') exports it)"
)

# A second run against the store computes nothing: every cell's manifest
# already exists, so this returns instantly with identical results.
again = FMoreEngine().run(scenario, store=store)
assert again.histories == resumed.histories
print("re-run against the store reused every manifest (no training ran)")
