"""Checkpoint/resume: snapshots restore bitwise-identically.

The contract under test (ISSUE 4 acceptance): snapshot a session at round
``r``, resume it — in the same process, through a store round-trip, or in
a worker process — and the completed history (records, payments, policy
actions) equals the uninterrupted session's *exactly*.  Both the paper
preset's simulation game (with a churn + audit + psi-schedule pipeline)
and the Section V-C cluster testbed (with closed-loop guidance) are
pinned, under the serial and the process executor.

A process killed inside a store write resumes the same way: a forked run
(or queue worker) is killed right after each of its file replaces and
unlinks in turn, and the recovered store lands the uninterrupted
manifests byte for byte.
"""

from __future__ import annotations

import itertools
import os
import shutil
import signal
import time
import traceback

import pytest

from repro.__main__ import main
from repro.api import (
    ExperimentStore,
    FMoreEngine,
    IncompleteRunError,
    JobQueue,
    Scenario,
    StoreError,
    run_worker,
)

PAPER_POLICIES = {
    "churn": {"departure_prob": 0.25, "arrival_prob": 0.6},
    "audit_blacklist": {
        "defect_fraction": 0.3,
        "shortfall": 0.5,
        "strikes_to_ban": 1,
    },
    "selection": {
        "name": "per_node_psi",
        "schedule": "geometric",
        "psi0": 0.9,
        "decay": 0.9,
    },
}

# Guidance retunes every 2 rounds over 3, so a snapshot after round 1
# carries a *partially filled* observation window — the restore must
# preserve it for the round-2 alpha update to come out identical.
CLUSTER_POLICIES = {"guidance": {"target_mix": [2.0, 1.0, 1.0], "every": 2}}


def _paper_scenario(**overrides):
    """The paper preset's component mix at test scale, with policies."""
    defaults = dict(
        n_clients=10,
        k_winners=3,
        n_rounds=4,
        test_per_class=10,
        size_range=(60, 300),
        grid_size=33,
        model_width=0.12,
        image_size=14,
        batch_size=16,
        policies=PAPER_POLICIES,
    )
    return Scenario.from_preset(
        "paper",
        "mnist_o",
        schemes=("FMore", "RandFL"),
        seeds=(0,),
        **{**defaults, **overrides},
    )


def _cluster_scenario(**overrides):
    return Scenario.from_preset(
        "cluster_cifar10",
        seeds=(0,),
        n_clients=8,
        k_winners=3,
        n_rounds=3,
        test_per_class=8,
        size_range=(60, 240),
        model_width=0.15,
        grid_size=17,
        policies=CLUSTER_POLICIES,
        **overrides,
    )


@pytest.fixture(scope="module")
def paper_reference():
    scenario = _paper_scenario()
    return scenario, FMoreEngine().run(scenario)


@pytest.fixture(scope="module")
def cluster_reference():
    scenario = _cluster_scenario()
    return scenario, FMoreEngine().run(scenario)


@pytest.fixture(scope="module")
def interrupted_store(tmp_path_factory, paper_reference):
    """A store left behind by a 'crash' after round 2 of every cell."""
    scenario, _ = paper_reference
    root = tmp_path_factory.mktemp("interrupted")
    with pytest.raises(IncompleteRunError) as excinfo:
        FMoreEngine().run(
            scenario, store=root, checkpoint_every=1, stop_after=2
        )
    assert sorted(excinfo.value.cells) == [("FMore", 0), ("RandFL", 0)]
    return root


class TestSnapshotRestore:
    @pytest.mark.parametrize("scheme", ["FMore", "RandFL"])
    def test_paper_preset_bitwise(self, scheme, paper_reference):
        scenario, reference = paper_reference
        engine = FMoreEngine()
        session = engine.session(scenario, scheme, 0)
        next(session)
        next(session)
        checkpoint = session.snapshot()
        assert checkpoint.round_index == 2
        resumed = FMoreEngine().resume(checkpoint).run()
        assert resumed == reference.history(scheme)

    def test_cluster_preset_bitwise_mid_guidance_window(self, cluster_reference):
        scenario, reference = cluster_reference
        engine = FMoreEngine()
        session = engine.session(scenario, "FMore", 0)
        next(session)  # guidance window holds round 1; update due round 2
        checkpoint = session.snapshot()
        resumed = FMoreEngine().resume(checkpoint).run()
        assert resumed == reference.history("FMore")
        kinds = [
            a.kind for r in resumed.records for a in r.policy_actions
        ]
        assert "alpha_update" in kinds  # the closed loop actually ran

    def test_checkpoint_survives_the_store(self, tmp_path, paper_reference):
        """Disk round-trip (JSON + npz) loses nothing: still bitwise."""
        scenario, reference = paper_reference
        session = FMoreEngine().session(scenario, "FMore", 0)
        next(session)
        store = ExperimentStore(tmp_path)
        store.save_checkpoint(session.snapshot())
        loaded = store.load_checkpoint(scenario, "FMore", 0)
        assert loaded is not None and loaded.round_index == 1
        resumed = FMoreEngine().resume(loaded).run()
        assert resumed == reference.history("FMore")

    def test_snapshot_then_continue_does_not_disturb_the_donor(
        self, paper_reference
    ):
        """Taking a snapshot is observation, not interference."""
        scenario, reference = paper_reference
        session = FMoreEngine().session(scenario, "FMore", 0)
        next(session)
        session.snapshot()
        assert session.run() == reference.history("FMore")


class TestEngineResumeThroughStore:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_resumed_run_matches_uninterrupted(
        self, executor, tmp_path, interrupted_store, paper_reference
    ):
        scenario, reference = paper_reference
        root = tmp_path / "store"
        shutil.copytree(interrupted_store, root)
        plan = scenario.with_(
            execution={"executor": executor, "max_workers": 2}
        )
        resumed = FMoreEngine().run(plan, store=root, resume=True)
        assert resumed.histories == reference.histories
        # The finished cells are durable manifests; checkpoints are gone.
        store = ExperimentStore(root)
        for scheme in scenario.schemes:
            assert store.has_cell(scenario, scheme, 0)
            assert store.load_checkpoint(scenario, scheme, 0) is None

    def test_cluster_resume_under_process_executor(
        self, tmp_path, cluster_reference
    ):
        scenario, reference = cluster_reference
        root = tmp_path / "store"
        with pytest.raises(IncompleteRunError):
            FMoreEngine().run(scenario, store=root, stop_after=1)
        plan = scenario.with_(
            execution={"executor": "process", "max_workers": 2}
        )
        resumed = FMoreEngine().run(plan, store=root, resume=True)
        assert resumed.histories == reference.histories

    def test_paused_cell_writes_its_checkpoint_once(
        self, tmp_path, monkeypatch, paper_reference
    ):
        """A cell paused on a round its checkpoint schedule also hits is
        saved once, not once per reason."""
        scenario, _ = paper_reference
        saved = []
        original = ExperimentStore.save_checkpoint

        def counting(self, checkpoint):
            saved.append((checkpoint.scheme, checkpoint.round_index))
            return original(self, checkpoint)

        monkeypatch.setattr(ExperimentStore, "save_checkpoint", counting)
        with pytest.raises(IncompleteRunError):
            FMoreEngine().run(
                scenario, store=tmp_path, checkpoint_every=1, stop_after=1
            )
        assert sorted(saved) == [("FMore", 1), ("RandFL", 1)]

    def test_manifests_equal_uninterrupted_store_bytes(
        self, tmp_path, interrupted_store, paper_reference
    ):
        """The resume-smoke CI contract: byte-identical manifests."""
        scenario, reference = paper_reference
        root = tmp_path / "resumed"
        shutil.copytree(interrupted_store, root)
        FMoreEngine().run(scenario, store=root, resume=True)
        pristine = reference.save(ExperimentStore(tmp_path / "pristine"))
        store = ExperimentStore(root)
        for scheme in scenario.schemes:
            a = store.manifest_path(scenario, scheme, 0).read_bytes()
            b = pristine.manifest_path(scenario, scheme, 0).read_bytes()
            assert a == b


class TestRestoreValidation:
    def test_restore_needs_fresh_session(self, paper_reference):
        scenario, _ = paper_reference
        engine = FMoreEngine()
        session = engine.session(scenario, "FMore", 0)
        next(session)
        checkpoint = session.snapshot()
        with pytest.raises(ValueError, match="fresh session"):
            session.restore(checkpoint)

    def test_wrong_cell_rejected(self, paper_reference):
        scenario, _ = paper_reference
        engine = FMoreEngine()
        session = engine.session(scenario, "FMore", 0)
        next(session)
        checkpoint = session.snapshot()
        other = engine.session(scenario, "RandFL", 0)
        with pytest.raises(StoreError, match="addresses cell"):
            other.restore(checkpoint)

    def test_wrong_scenario_rejected(self, paper_reference):
        scenario, _ = paper_reference
        session = FMoreEngine().session(scenario, "FMore", 0)
        next(session)
        checkpoint = session.snapshot()
        longer = _paper_scenario(n_rounds=6)
        fresh = FMoreEngine().session(longer, "FMore", 0)
        with pytest.raises(StoreError, match="would not reproduce"):
            fresh.restore(checkpoint)

    def test_corrupt_embedded_scenario_rejected(self, paper_reference):
        scenario, _ = paper_reference
        session = FMoreEngine().session(scenario, "FMore", 0)
        next(session)
        checkpoint = session.snapshot()
        checkpoint.scenario["n_rounds"] = 99  # no longer matches the hash
        with pytest.raises(StoreError, match="corrupt"):
            FMoreEngine().resume(checkpoint)

    def test_stop_after_requires_store(self, paper_reference):
        scenario, _ = paper_reference
        with pytest.raises(ValueError, match="store"):
            FMoreEngine().run(scenario, stop_after=1)


# ----------------------------------------------------------------------
# Process kills inside store writes
# ----------------------------------------------------------------------
_KILLED = 75  # exit status of a child stopped at its kill point


def _killed_at(n: int, leg) -> bool:
    """Run ``leg()`` in a forked child whose ``n``-th ``os.replace`` or
    ``os.unlink`` completes and then ends the process, as a kill would.

    Every durable store write lands through ``os.replace``
    (``atomic_write``) and every removal through ``os.unlink``, so the
    kill points are the store's file transitions.  Returns ``True`` when
    the child was killed, ``False`` when ``leg`` finished first.  The
    child is forked, not spawned, so that it starts warm: a fresh
    interpreter per kill point would cost a second of imports each.
    """
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        status = 1
        try:
            calls = itertools.count(1)

            def killing(real):
                def call(*args, **kwargs):
                    result = real(*args, **kwargs)
                    if next(calls) == n:
                        os._exit(_KILLED)
                    return result

                return call

            os.replace = killing(os.replace)
            os.unlink = killing(os.unlink)
            leg()
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60.0
    while not (waited := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"child hung at kill point {n}")
        time.sleep(0.005)
    code = os.waitstatus_to_exitcode(waited[1])
    assert code in (0, _KILLED), f"child failed at kill point {n} (exit {code})"
    return code == _KILLED


def _manifests(root) -> dict:
    runs = root / "runs"
    return {p.relative_to(runs): p.read_bytes() for p in sorted(runs.rglob("*.json"))}


class TestProcessKills:
    """A process killed at any store transition, then recovered from the
    store, lands the uninterrupted run's manifests byte for byte, and the
    store still reports.

    Each leg runs the paper scenario's FMore cell with a checkpoint after
    every round, in a forked child killed right after its ``n``-th file
    replace or unlink, for every ``n`` until the child finishes.
    """

    @staticmethod
    def _wrong_kill_points(tmp_path, reference, prepare, leg, recover):
        expected = _manifests(reference)
        wrong = []
        for n in itertools.count(1):
            root = tmp_path / f"kill-{n}"
            prepare(root)
            if not _killed_at(n, lambda: leg(root)):
                break
            recover(root)
            if _manifests(root) != expected or main(["report", "--store", str(root)]):
                wrong.append(n)
        return wrong, n - 1

    @pytest.fixture(scope="class")
    def fmore_reference(self, tmp_path_factory, paper_reference):
        scenario, reference = paper_reference
        root = tmp_path_factory.mktemp("kill-reference")
        ExperimentStore(root).save_history(
            scenario, "FMore", 0, reference.history("FMore")
        )
        return scenario.with_(schemes=("FMore",)), root

    def test_in_process_run(self, tmp_path, fmore_reference):
        scenario, reference = fmore_reference
        engine = FMoreEngine()
        wrong, points = self._wrong_kill_points(
            tmp_path,
            reference,
            prepare=lambda root: None,
            leg=lambda root: engine.run(scenario, store=root, checkpoint_every=1),
            recover=lambda root: engine.run(scenario, store=root, resume=True),
        )
        # At least the scenario file, 3 checkpoints of 2 files and the
        # manifest were kill points.
        assert points >= 8
        assert wrong == [], f"wrong manifests at kill points {wrong} of {points}"

    def test_worker_drain(self, tmp_path, fmore_reference):
        scenario, reference = fmore_reference

        def prepare(root):
            JobQueue(ExperimentStore(root)).enqueue(
                scenario,
                [("FMore", 0)],
                resume=True,
                checkpoint_every=1,
                lease_seconds=0.0,
            )

        wrong, points = self._wrong_kill_points(
            tmp_path,
            reference,
            prepare=prepare,
            leg=lambda root: run_worker(root, exit_when_idle=True),
            recover=lambda root: run_worker(root, exit_when_idle=True),
        )
        # At least 4 heartbeats, 3 checkpoints of 2 files and the manifest.
        assert points >= 11
        assert wrong == [], f"wrong manifests at kill points {wrong} of {points}"
