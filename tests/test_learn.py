"""Learned-bidder subsystem: ``BID_LEARNERS``, the trainer, artifacts.

The contracts under test:

* **Determinism** — training is a pure function of ``(scenario, scheme,
  env_seed, train_seed)``: re-running produces identical curves and
  weights, for both registered learners.
* **Bitwise resume** — a training run checkpointed through the store and
  resumed (in-process or in a *fresh process* via the CLI) continues
  bitwise-identically to a never-interrupted run; the same holds for a
  federated run whose population deploys the ``learned`` policy.
* **Artifacts** — save/load round-trips the learner exactly; a digest
  mismatch refuses to deploy.
* **Env quality-of-life** — ``sample_action``, the ``rounds_waited`` /
  ``last_payoff`` observation keys, and validation errors (not silent
  clamps) for malformed actions.
* **The incentive report** — ``learned_episodes > 0`` trains the
  adversary and emits the ``learned_deviation`` row.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import ExperimentStore, FMoreEngine, Scenario, StoreError
from repro.analysis import run_incentive_sweep
from repro.strategic import AuctionEnv, BID_POLICIES
from repro.strategic.learn import (
    BID_LEARNERS,
    DEFAULT_MARKUPS,
    BidLearnerTrainer,
    BidObservation,
    LearnedBidding,
    N_FEATURES,
    PolicyGradientLearner,
    QTableLearner,
    artifact_digest,
    evaluate,
    features,
    greedy_controller,
    jitter_controller,
    load_policy_artifact,
    save_policy_artifact,
)
from repro.sim.rng import rng_from

REPO_ROOT = Path(__file__).resolve().parent.parent


def _scenario(**overrides):
    defaults = dict(
        schemes=("FMore",),
        seeds=(0,),
        n_clients=10,
        k_winners=3,
        n_rounds=2,
        test_per_class=8,
        size_range=(60, 240),
        grid_size=17,
        model_width=0.12,
        batch_size=16,
    )
    return Scenario.from_preset(
        "smoke", "mnist_o", **{**defaults, **overrides}
    )


def _ob(**overrides):
    defaults = dict(
        theta=0.4,
        equilibrium_payment=2.0,
        last_threshold=None,
        rounds_waited=0,
        last_payoff=0.0,
    )
    return BidObservation(**{**defaults, **overrides})


@pytest.fixture(scope="module")
def shared_engine():
    return FMoreEngine()


# ----------------------------------------------------------------------
# Learners (no env needed)
# ----------------------------------------------------------------------
class TestLearners:
    def test_family_is_registered(self):
        assert set(BID_LEARNERS.names()) >= {"q_table", "pg_mlp"}

    @pytest.mark.parametrize("name", ["q_table", "pg_mlp"])
    def test_create_from_registry(self, name):
        learner = BID_LEARNERS.create(name)
        assert learner.name == name
        assert learner.markups == list(DEFAULT_MARKUPS)

    def test_markup_menu_validation(self):
        with pytest.raises(ValueError):
            QTableLearner(markups=())
        with pytest.raises(ValueError):
            QTableLearner(markups=(0.0, -1.5))
        with pytest.raises(ValueError):
            PolicyGradientLearner(markups=(0.1, 0.1))

    @pytest.mark.parametrize("name", ["q_table", "pg_mlp"])
    def test_untrained_learner_is_truthful(self, name):
        # Menu index 0 is markup 0.0; a fresh learner must tie-break there.
        learner = BID_LEARNERS.create(name)
        assert learner.markups[0] == 0.0
        assert learner.greedy(_ob()) == 0
        assert learner.greedy(_ob(rounds_waited=3, last_payoff=-0.5)) == 0

    def test_q_table_update_math(self):
        learner = QTableLearner(lr=0.5, discount=0.0)
        ob = _ob()
        idx = learner._index(ob)
        learner.update(ob, 2, 1.0, None, True)
        assert learner.q[idx, 2] == pytest.approx(0.5)
        learner.update(ob, 2, 1.0, None, True)
        assert learner.q[idx, 2] == pytest.approx(0.75)
        # Learnt preference shows up greedily.
        assert learner.greedy(ob) == 2

    def test_q_table_bootstraps_from_next_state(self):
        learner = QTableLearner(lr=1.0, discount=0.5)
        nxt = _ob(rounds_waited=2)
        learner.update(nxt, 1, 4.0, None, True)  # q[nxt, 1] = 4
        ob = _ob()
        learner.update(ob, 0, 1.0, nxt, False)
        assert learner.q[learner._index(ob), 0] == pytest.approx(1.0 + 0.5 * 4.0)

    def test_act_is_deterministic_given_stream(self):
        for name in ("q_table", "pg_mlp"):
            a = BID_LEARNERS.create(name)
            b = BID_LEARNERS.create(name)
            ra, rb = rng_from(7, "t"), rng_from(7, "t")
            acts_a = [a.act(_ob(rounds_waited=i % 3), ra) for i in range(20)]
            acts_b = [b.act(_ob(rounds_waited=i % 3), rb) for i in range(20)]
            assert acts_a == acts_b

    def test_epsilon_decays_and_round_trips(self):
        learner = QTableLearner(epsilon=0.5, epsilon_decay=0.5, epsilon_min=0.1)
        learner.finish_episode()
        assert learner.epsilon == pytest.approx(0.25)
        clone = QTableLearner(epsilon=0.5, epsilon_decay=0.5, epsilon_min=0.1)
        clone.load_state(learner.state_dict())
        assert clone.epsilon == pytest.approx(0.25)
        with pytest.raises(ValueError, match="unknown q_table state"):
            clone.load_state({"nonsense": 1})

    def test_pg_mlp_learns_from_reinforce(self):
        learner = PolicyGradientLearner(lr=0.5, init_seed=3)
        ob = _ob()
        before = learner._probs(ob).copy()
        rng = rng_from(0, "pg")
        learner.begin_episode()
        # Only action 3 pays; everything else loses.
        for _ in range(30):
            action = learner.act(ob, rng)
            learner.update(ob, action, 1.0 if action == 3 else -1.0, ob, False)
        learner.finish_episode()
        after = learner._probs(ob)
        assert after[3] > before[3]
        assert not learner._actions  # buffers cleared at the boundary

    def test_features_are_bounded(self):
        vec = features(
            _ob(last_threshold=1e9, last_payoff=-1e9, rounds_waited=100)
        )
        assert vec.shape == (N_FEATURES,)
        assert np.all(np.abs(vec) <= max(1.0, abs(vec[0])))

    @pytest.mark.parametrize("name", ["q_table", "pg_mlp"])
    def test_spec_weights_state_rebuild_identically(self, name):
        learner = BID_LEARNERS.create(name)
        rng = rng_from(1, "fill")
        for i in range(12):
            ob = _ob(rounds_waited=i % 4, last_payoff=float(i % 2))
            learner.update(ob, learner.act(ob, rng), float(i), ob, False)
        learner.finish_episode()
        clone = BID_LEARNERS.create(learner.spec())
        clone.load_state(learner.state_dict())
        clone.set_weights(learner.weights())
        for wa, wb in zip(learner.weights(), clone.weights()):
            assert np.array_equal(wa, wb)
        for i in range(8):
            ob = _ob(theta=0.1 * i, rounds_waited=i % 5)
            assert learner.greedy(ob) == clone.greedy(ob)


# ----------------------------------------------------------------------
# Artifacts and the `learned` bid policy
# ----------------------------------------------------------------------
class TestArtifacts:
    def _trained(self):
        learner = QTableLearner()
        rng = rng_from(2, "fill")
        for i in range(10):
            ob = _ob(rounds_waited=i % 3)
            learner.update(ob, learner.act(ob, rng), float(i % 4), ob, False)
        learner.finish_episode()
        return learner

    def test_round_trip_and_digest(self, tmp_path):
        learner = self._trained()
        path = tmp_path / "policy.json"
        digest = save_policy_artifact(path, learner)
        assert digest == artifact_digest(path)
        loaded = load_policy_artifact(path)
        assert isinstance(loaded, QTableLearner)
        assert np.array_equal(loaded.q, learner.q)
        assert loaded.epsilon == learner.epsilon
        # Deterministic file content: saving again byte-matches.
        assert save_policy_artifact(tmp_path / "again.json", learner) == digest

    def test_learned_policy_is_registered_and_pins_digest(self, tmp_path):
        path = tmp_path / "policy.json"
        digest = save_policy_artifact(path, self._trained())
        policy = BID_POLICIES.create(
            {"name": "learned", "artifact": str(path), "digest": digest}
        )
        assert isinstance(policy, LearnedBidding)
        assert policy.digest == digest
        with pytest.raises(ValueError, match="digest"):
            BID_POLICIES.create(
                {"name": "learned", "artifact": str(path), "digest": "0" * 64}
            )

    def test_unreadable_artifact_fails_loudly(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises((ValueError, OSError)):
            BID_POLICIES.create({"name": "learned", "artifact": str(missing)})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            load_policy_artifact(bad)

    def test_learned_policy_state_round_trip(self, tmp_path):
        path = tmp_path / "policy.json"
        save_policy_artifact(path, self._trained())
        policy = LearnedBidding(path)
        policy._last_threshold = 3.25
        policy._waits = {4: 2}
        policy._last_payoffs = {4: -0.5}
        clone = LearnedBidding(path)
        clone.load_state(json.loads(json.dumps(policy.state_dict())))
        assert clone._last_threshold == 3.25
        assert clone._waits == {4: 2}
        assert clone._last_payoffs == {4: -0.5}
        with pytest.raises(ValueError, match="unknown learned state"):
            clone.load_state({"pending": {}})


# ----------------------------------------------------------------------
# Training loop: determinism and bitwise resume
# ----------------------------------------------------------------------
class TestTrainer:
    @pytest.mark.parametrize("name", ["q_table", "pg_mlp"])
    def test_training_is_deterministic(self, name, shared_engine):
        scenario = _scenario()
        runs = []
        for _ in range(2):
            trainer = BidLearnerTrainer(
                scenario, name, train_seed=3, engine=shared_engine
            )
            curve = trainer.train(3)
            runs.append((curve, trainer.learner))
        (curve_a, la), (curve_b, lb) = runs
        assert curve_a == curve_b
        assert la.state_dict() == lb.state_dict()
        for wa, wb in zip(la.weights(), lb.weights()):
            assert np.array_equal(wa, wb)

    def test_resume_is_bitwise_identical(self, tmp_path, shared_engine):
        scenario = _scenario()
        store = ExperimentStore(tmp_path / "store", keep_last_n=2)
        first = BidLearnerTrainer(
            scenario, "q_table", store=store, checkpoint_every=2,
            engine=shared_engine,
        )
        first.train(3)
        resumed = BidLearnerTrainer(
            scenario, "q_table", store=store, checkpoint_every=2,
            engine=shared_engine,
        )
        curve = resumed.train(6, resume=True)
        straight = BidLearnerTrainer(
            scenario, "q_table", engine=shared_engine
        )
        reference = straight.train(6)
        assert curve == reference
        assert resumed.learner.state_dict() == straight.learner.state_dict()
        for wa, wb in zip(
            resumed.learner.weights(), straight.learner.weights()
        ):
            assert np.array_equal(wa, wb)

    def test_resume_from_an_earlier_retained_episode(
        self, tmp_path, shared_engine
    ):
        scenario = _scenario()
        store = ExperimentStore(tmp_path / "store", keep_last_n=3)
        trainer = BidLearnerTrainer(
            scenario, "q_table", store=store, checkpoint_every=1,
            engine=shared_engine,
        )
        trainer.train(3)
        rounds = store.checkpoint_rounds(scenario, "learn_q_table", 0)
        assert rounds == [1, 2, 3]
        # Restore episode 1 explicitly and replay: must match the straight run.
        early = store.load_checkpoint(
            scenario, "learn_q_table", 0, round_index=1
        )
        replay = BidLearnerTrainer(
            scenario, "q_table", engine=shared_engine
        )
        replay.restore(early)
        assert replay.episodes_done == 1
        curve = replay.train(3)
        assert curve == trainer.curve

    def test_restore_validates_the_binding(self, tmp_path, shared_engine):
        scenario = _scenario()
        store = ExperimentStore(tmp_path / "store")
        trainer = BidLearnerTrainer(
            scenario, "q_table", store=store, engine=shared_engine
        )
        trainer.train(1)
        checkpoint = store.load_checkpoint(scenario, "learn_q_table", 0)
        assert checkpoint is not None
        with pytest.raises(StoreError, match="cell scheme"):
            BidLearnerTrainer(
                scenario, "pg_mlp", engine=shared_engine
            ).restore(checkpoint)
        with pytest.raises(StoreError, match="env cell"):
            BidLearnerTrainer(
                scenario, "q_table", env_seed=9, engine=shared_engine
            ).restore(checkpoint)
        with pytest.raises(StoreError, match="train seed"):
            BidLearnerTrainer(
                scenario, "q_table", train_seed=9, engine=shared_engine
            ).restore(checkpoint)

    def test_newest_checkpoint_default_and_retained(self, tmp_path, shared_engine):
        scenario = _scenario()
        default = ExperimentStore(tmp_path / "default")  # keeps the newest
        assert default.load_checkpoint(scenario, "learn_q_table", 0) is None
        trainer = BidLearnerTrainer(
            scenario, "q_table", store=default, engine=shared_engine
        )
        trainer.train(2)
        checkpoint = default.load_checkpoint(scenario, "learn_q_table", 0)
        assert checkpoint.round_index == 2
        retained = ExperimentStore(tmp_path / "kept", keep_last_n=2)
        trainer2 = BidLearnerTrainer(
            scenario, "q_table", store=retained, checkpoint_every=1,
            engine=shared_engine,
        )
        trainer2.train(3)
        newest = retained.load_checkpoint(scenario, "learn_q_table", 0)
        assert newest.round_index == 3

    def test_evaluate_replays_identically(self, shared_engine):
        scenario = _scenario()
        truthful = evaluate(
            scenario, lambda ob: ob.equilibrium_payment, episodes=2,
            engine=shared_engine,
        )
        assert truthful[0] == truthful[1]  # same cell, same bids, same payoff
        jitter = jitter_controller(payment_scale=0.1, seed=0)
        jittered = evaluate(
            scenario, jitter, episodes=2, engine=shared_engine
        )
        assert len(jittered) == 2

    def test_greedy_controller_matches_deployed_policy(
        self, tmp_path, shared_engine
    ):
        scenario = _scenario()
        trainer = BidLearnerTrainer(
            scenario, "q_table", engine=shared_engine
        )
        trainer.train(3)
        controller = greedy_controller(trainer.learner)
        ob = _ob()
        expected = ob.equilibrium_payment * (
            1.0 + trainer.learner.markups[trainer.learner.greedy(ob)]
        )
        assert controller(ob) == pytest.approx(expected)


# ----------------------------------------------------------------------
# Fresh-process resume (the CLI path, satellite: process round-trip)
# ----------------------------------------------------------------------
class TestFreshProcessResume:
    CLI = (
        "--preset", "smoke",
        "--set", "n_clients=10", "--set", "k_winners=3",
        "--set", "n_rounds=2", "--set", "test_per_class=8",
        "--set", "size_range=60,240", "--set", "grid_size=17",
        "--set", "model_width=0.12", "--set", "batch_size=16",
        "--seed", "0",
    )

    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src")
            + (os.pathsep + env["PYTHONPATH"] if "PYTHONPATH" in env else "")
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "train-bidder", *self.CLI, *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        return proc.stdout

    def test_resume_in_a_fresh_process_is_bitwise(self, tmp_path):
        store_a = tmp_path / "interrupted"
        art_a = tmp_path / "a.json"
        # Train 2 episodes in one process, then resume to 4 in another.
        self._run("--store", str(store_a), "--episodes", "2",
                  "--checkpoint-every", "1")
        self._run("--store", str(store_a), "--episodes", "4", "--resume",
                  "--checkpoint-every", "1", "--artifact", str(art_a))
        # Uninterrupted 4-episode run in a third process.
        store_b = tmp_path / "straight"
        art_b = tmp_path / "b.json"
        self._run("--store", str(store_b), "--episodes", "4",
                  "--checkpoint-every", "1", "--artifact", str(art_b))
        assert art_a.read_bytes() == art_b.read_bytes()
        # The final checkpoint state files byte-match too.
        state_a = sorted(store_a.rglob("round-4/state.json"))
        state_b = sorted(store_b.rglob("round-4/state.json"))
        assert state_a and state_b
        assert state_a[0].read_bytes() == state_b[0].read_bytes()


# ----------------------------------------------------------------------
# Deployment: learned mixes inside federated runs
# ----------------------------------------------------------------------
class TestLearnedDeployment:
    @pytest.fixture(scope="class")
    def deployed(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("learned-mix")
        engine = FMoreEngine()
        scenario = _scenario(n_rounds=3)
        trainer = BidLearnerTrainer(scenario, "q_table", engine=engine)
        trainer.train(4)
        artifact = tmp / "policy.json"
        digest = trainer.save_artifact(artifact)
        mixed = scenario.with_(
            bidding={
                "mix": [
                    {
                        "name": "learned",
                        "artifact": str(artifact),
                        "digest": digest,
                        "fraction": 0.3,
                        "label": "adaptive",
                    }
                ]
            }
        )
        return engine, mixed, engine.run(mixed)

    def test_payoff_columns_and_determinism(self, deployed):
        engine, mixed, result = deployed
        frame = result.metrics()
        assert frame.column("payoff_adaptive_mean")
        assert FMoreEngine().run(mixed).histories == result.histories

    def test_process_executor_matches_serial(self, deployed):
        _, mixed, result = deployed
        plan = mixed.with_(
            execution={"executor": "process", "max_workers": 2}
        )
        assert FMoreEngine().run(plan).histories == result.histories

    def test_checkpointed_run_resumes_bitwise(self, tmp_path, deployed):
        engine, mixed, result = deployed
        session = engine.session(mixed, "FMore", 0)
        next(session)
        checkpoint = session.snapshot()
        entries = {e["label"]: e for e in checkpoint.bid_policy_states}
        assert "adaptive" in entries
        assert entries["adaptive"]["name"] == "learned"
        store = ExperimentStore(tmp_path)
        store.save_checkpoint(checkpoint)
        loaded = store.load_checkpoint(mixed, "FMore", 0)
        resumed = FMoreEngine().resume(loaded).run()
        assert resumed == result.history("FMore")


# ----------------------------------------------------------------------
# Env quality-of-life satellites
# ----------------------------------------------------------------------
class TestEnvQoL:
    @pytest.fixture()
    def env(self, shared_engine):
        return AuctionEnv(_scenario(n_rounds=3), seed=0, engine=shared_engine)

    def test_observation_has_wait_and_payoff_keys(self, env):
        obs = env.reset()
        assert obs["rounds_waited"] == 0
        assert obs["last_payoff"] == 0.0
        obs, reward, done, info = env.step(None)  # truthful bid
        if not done:
            if info["won"]:
                assert obs["rounds_waited"] == 0
                assert obs["last_payoff"] == pytest.approx(reward)
            else:
                assert obs["rounds_waited"] == 1
                assert obs["last_payoff"] == 0.0

    def test_losing_bids_accumulate_waits(self, env):
        obs = env.reset()
        eq = obs["equilibrium_payment"]
        for expected in (1, 2):
            obs, _, done, info = env.step(eq * 1000.0)  # absurd ask: loses
            assert not info["won"]
            if not done:
                assert obs["rounds_waited"] == expected

    def test_sample_action_is_seeded_and_feasible(self, shared_engine):
        scenario = _scenario(n_rounds=3)
        a = AuctionEnv(scenario, seed=0, engine=shared_engine)
        b = AuctionEnv(scenario, seed=0, engine=shared_engine)
        a.reset()
        b.reset()
        draws_a = [a.sample_action() for _ in range(3)]
        draws_b = [b.sample_action() for _ in range(3)]
        for da, db in zip(draws_a, draws_b):
            assert np.array_equal(da, db)
        # The sampled action is accepted by step() as-is.
        _, _, _, info = a.step(draws_a[0])
        assert isinstance(info["won"], bool)
        # An explicit generator overrides the env stream.
        c = AuctionEnv(scenario, seed=0, engine=shared_engine)
        c.reset()
        custom = c.sample_action(rng_from(5, "mine"))
        assert not np.array_equal(custom, draws_a[0])

    def test_sample_action_requires_reset(self, shared_engine):
        env = AuctionEnv(_scenario(), seed=0, engine=shared_engine)
        with pytest.raises(RuntimeError, match="reset"):
            env.sample_action()

    def test_out_of_box_quality_vector_raises(self, env):
        obs = env.reset()
        m = len(obs["equilibrium_quality"])
        action = np.concatenate(
            [np.full(m, 1e9), [obs["equilibrium_payment"]]]
        )
        with pytest.raises(ValueError, match="quality box"):
            env.step(action)
        with pytest.raises(ValueError, match="finite"):
            env.step(
                np.concatenate([np.full(m, np.nan), [obs["equilibrium_payment"]]])
            )

    def test_bad_payments_raise(self, env):
        env.reset()
        with pytest.raises(ValueError, match="payment"):
            env.step(-1.0)
        with pytest.raises(ValueError, match="payment"):
            env.step(0.0)
        with pytest.raises(ValueError, match="payment"):
            env.step(float("inf"))

    def test_in_box_qualities_still_step(self, env):
        obs = env.reset()
        action = np.concatenate(
            [obs["equilibrium_quality"], [obs["equilibrium_payment"]]]
        )
        _, _, done, info = env.step(action)
        assert isinstance(info["won"], bool)


# ----------------------------------------------------------------------
# Incentive report integration
# ----------------------------------------------------------------------
class TestLearnedIncentiveRow:
    def test_sweep_emits_learned_deviation_row(self, tmp_path, shared_engine):
        scenario = _scenario()
        store = ExperimentStore(tmp_path / "store")
        report = run_incentive_sweep(
            scenario,
            store=store,
            deviations=[{"name": "fixed_markup", "markup": 0.15}],
            fraction=0.2,
            engine=shared_engine,
            learned_episodes=2,
        )
        rows = {r.policy for r in report.rows}
        assert rows == {"fixed_markup", "learned_deviation"}
        assert "learned_deviation" in report.to_markdown()
        # The trainer checkpointed into the store and the artifact landed
        # under learners/ — a re-run resumes instead of retraining.
        assert store.checkpoint_rounds(scenario, "learn_q_table", 0) == [2]
        assert list((store.root / "learners").rglob("*.json"))
        again = run_incentive_sweep(
            scenario,
            store=store,
            deviations=[{"name": "fixed_markup", "markup": 0.15}],
            fraction=0.2,
            engine=shared_engine,
            learned_episodes=2,
        )
        learned = [r for r in report.rows if r.policy == "learned_deviation"]
        learned_again = [
            r for r in again.rows if r.policy == "learned_deviation"
        ]
        assert learned[0].deviant_payoff == learned_again[0].deviant_payoff

    def test_sweep_without_store_uses_a_temp_artifact(self, shared_engine):
        report = run_incentive_sweep(
            _scenario(),
            deviations=[],
            fraction=0.2,
            engine=shared_engine,
            learned_episodes=1,
        )
        assert [r.policy for r in report.rows] == ["learned_deviation"]
