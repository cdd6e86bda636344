"""Strategic-bidder subsystem: ``BID_POLICIES``, bidding mixes, the gym.

The contracts under test:

* **Hash/manifest compatibility** — a scenario without a ``bidding`` spec
  serialises, hashes and stores exactly as before the field existed, and
  an all-truthful run never touches the strategic path (no ``bid_payoff``
  actions, no payoff columns).
* **Determinism** — mixed-population runs are reproducible, identical
  under the serial and process executors, and checkpoint/resume
  bitwise-identically including per-node policy state (regret matching
  mid-learning).
* **Store retention** — ``keep_last_n``/``keep_every_k`` keep a pruned
  trajectory of round checkpoints; the default layout stays flat.
* **The gym** — ``AuctionEnv`` steps one controlled bidder through a
  session, rewards realized payoff, and snapshots/restores.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import ExperimentStore, FMoreEngine, Scenario, StoreError, scenario_hash
from repro.api.distributed import JobQueue
from repro.strategic import (
    AuctionEnv,
    BID_POLICIES,
    BidBatch,
    ExternalBidPolicy,
    FixedMarkupBidding,
    RegretMatchingBidding,
    RoundFeedback,
    TruthfulBidding,
    build_bid_policies,
)
from repro.analysis import run_incentive_sweep

MIX = [
    {"name": "fixed_markup", "markup": 0.25, "fraction": 0.3, "label": "greedy"},
    {"name": "regret_matching", "fraction": 0.2},
]

#: Mixes in which every node bids truthfully, however labelled and split.
TRUTHFUL_MIXES = {
    "control": [{"name": "truthful", "fraction": 0.3, "label": "ctl"}],
    "all": [{"name": "truthful", "fraction": 1.0, "label": "all"}],
    "two_halves": [
        {"name": "truthful", "fraction": 0.5, "label": "a"},
        {"name": "truthful", "fraction": 0.5, "label": "b"},
    ],
}


def _scenario(**overrides):
    defaults = dict(
        schemes=("FMore",),
        seeds=(0,),
        n_clients=10,
        k_winners=3,
        n_rounds=3,
        test_per_class=8,
        size_range=(60, 240),
        grid_size=17,
        model_width=0.12,
        batch_size=16,
    )
    return Scenario.from_preset(
        "smoke", "mnist_o", **{**defaults, **overrides}
    )


@pytest.fixture(scope="module")
def base_reference():
    scenario = _scenario()
    return scenario, FMoreEngine().run(scenario)


@pytest.fixture(scope="module")
def auction_reference():
    scenario = _scenario(schemes=("FMore", "PsiFMore"), seeds=(0, 1, 2))
    return scenario, FMoreEngine().run(scenario)


def _records_sans_payoff(history):
    """Every record as a dict, minus the mix's own ``bid_payoff`` actions."""
    out = []
    for record in history.records:
        data = record.to_dict()
        data["policy_actions"] = [
            a for a in data["policy_actions"] if a["kind"] != "bid_payoff"
        ]
        out.append(data)
    return out


@pytest.fixture(scope="module")
def mixed_reference():
    scenario = _scenario(bidding={"mix": MIX})
    return scenario, FMoreEngine().run(scenario)


class TestRegistryAndSpecValidation:
    def test_family_is_registered(self):
        for name in (
            "truthful",
            "fixed_markup",
            "random_jitter",
            "regret_matching",
            "adaptive_heuristic",
            "external",
        ):
            assert name in BID_POLICIES.names()

    def test_bad_spec_keys_rejected(self):
        with pytest.raises(ValueError, match="bidding"):
            _scenario(bidding={"mixx": []})

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_fraction_must_be_in_unit_interval(self, fraction):
        with pytest.raises(ValueError):
            _scenario(
                bidding={"mix": [{"name": "fixed_markup", "fraction": fraction}]}
            )

    def test_fractions_must_not_oversubscribe(self):
        with pytest.raises(ValueError, match="sum"):
            _scenario(
                bidding={
                    "mix": [
                        {"name": "fixed_markup", "fraction": 0.7},
                        {"name": "random_jitter", "fraction": 0.6},
                    ]
                }
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            _scenario(
                bidding={
                    "mix": [
                        {"name": "fixed_markup", "fraction": 0.2, "label": "x"},
                        {"name": "random_jitter", "fraction": 0.2, "label": "x"},
                    ]
                }
            )

    def test_truthful_label_reserved(self):
        with pytest.raises(ValueError, match="truthful"):
            _scenario(
                bidding={
                    "mix": [
                        {
                            "name": "fixed_markup",
                            "fraction": 0.2,
                            "label": "truthful",
                        }
                    ]
                }
            )

    def test_unknown_policy_and_params_fail_at_validation(self):
        with pytest.raises(ValueError, match="unknown bid policy"):
            _scenario(bidding={"mix": [{"name": "nope", "fraction": 0.2}]})
        with pytest.raises((TypeError, ValueError)):
            _scenario(
                bidding={
                    "mix": [{"name": "fixed_markup", "fraction": 0.2, "bogus": 1}]
                }
            )

    def test_per_scheme_override_and_revert(self):
        s = _scenario(
            schemes=("FMore", "RandFL"),
            bidding={
                "mix": MIX,
                "per_scheme": {
                    "RandFL": None,
                    "FMore": {"mix": [{"name": "random_jitter", "fraction": 0.5}]},
                },
            },
        )
        assert s.bidding_for("RandFL") == []
        assert [e["name"] for e in s.bidding_for("FMore")] == ["random_jitter"]
        with pytest.raises(ValueError):
            _scenario(bidding={"mix": MIX, "per_scheme": {"NoSuchScheme": None}})

    def test_bidding_round_trips_through_json(self):
        s = _scenario(bidding={"mix": MIX})
        clone = Scenario.from_dict(json.loads(json.dumps(s.to_dict())))
        assert clone.bidding == s.bidding
        assert clone == s


class TestHashAndManifestCompat:
    def test_empty_bidding_is_omitted_from_the_dict(self):
        s = _scenario()
        assert "bidding" not in s.to_dict()
        assert scenario_hash(s) == scenario_hash(s.with_(bidding={}))

    def test_mix_changes_the_content_address(self):
        s = _scenario()
        assert scenario_hash(s) != scenario_hash(s.with_(bidding={"mix": MIX}))

    def test_all_truthful_run_never_enters_the_strategic_path(
        self, base_reference
    ):
        _, result = base_reference
        kinds = [
            a.kind
            for h in result.histories["FMore"]
            for r in h.records
            for a in r.policy_actions
        ]
        assert "bid_payoff" not in kinds
        assert not any(
            c.startswith("payoff_") for c in result.metrics().columns
        )

    def test_default_scenario_manifests_are_byte_stable(
        self, tmp_path, base_reference
    ):
        """The pre-PR store contract: no ``bidding`` key anywhere on disk."""
        scenario, result = base_reference
        store = ExperimentStore(tmp_path)
        result.save(store)
        manifest = next((tmp_path / "runs").rglob("FMore-seed0.json"))
        assert "bidding" not in manifest.read_text()
        spec = next((tmp_path / "scenarios").glob("*.json"))
        assert "bidding" not in spec.read_text()

    @pytest.mark.parametrize("mix", list(TRUTHFUL_MIXES))
    def test_labelled_truthful_control_bids_like_the_hot_path(
        self, mix, auction_reference
    ):
        """Differential oracle: an all-truthful mix runs every round of
        both auction schemes exactly as no mix does."""
        scenario, reference = auction_reference
        control = scenario.with_(bidding={"mix": TRUTHFUL_MIXES[mix]})
        result = FMoreEngine().run(control)
        for scheme in scenario.schemes:
            for got, want in zip(
                result.histories[scheme], reference.histories[scheme], strict=True
            ):
                # The mix did take the strategic path.
                assert any(
                    a.kind == "bid_payoff"
                    for r in got.records
                    for a in r.policy_actions
                )
                assert _records_sans_payoff(got) == _records_sans_payoff(want)


class TestMixedPopulationRuns:
    def test_bid_payoff_reported_once_per_round_with_all_groups(
        self, mixed_reference
    ):
        _, result = mixed_reference
        for history in result.histories["FMore"]:
            for record in history.records:
                payoffs = [
                    a for a in record.policy_actions if a.kind == "bid_payoff"
                ]
                assert len(payoffs) == 1
                groups = payoffs[0].payload["groups"]
                assert set(groups) == {"greedy", "regret_matching", "truthful"}
                assert groups["greedy"]["n"] == 3
                assert groups["regret_matching"]["n"] == 2
                assert groups["truthful"]["n"] == 5

    def test_payoff_columns_in_metrics(self, mixed_reference):
        _, result = mixed_reference
        frame = result.metrics()
        for label in ("greedy", "regret_matching", "truthful"):
            mean = frame.column(f"payoff_{label}_mean")
            assert all(v is None or isinstance(v, float) for v in mean)
            assert frame.column(f"payoff_{label}_min")

    def test_rerun_is_deterministic(self, mixed_reference):
        scenario, result = mixed_reference
        again = FMoreEngine().run(scenario)
        assert again.histories == result.histories

    def test_process_executor_matches_serial(self, mixed_reference):
        scenario, result = mixed_reference
        plan = scenario.with_(
            seeds=(0,), execution={"executor": "process", "max_workers": 2}
        )
        assert FMoreEngine().run(plan).histories == result.histories

    def test_markup_shading_actually_changes_the_outcome(
        self, base_reference, mixed_reference
    ):
        _, base = base_reference
        _, mixed = mixed_reference
        assert mixed.history("FMore") != base.history("FMore")


class TestCheckpointRoundTrip:
    def test_snapshot_carries_policy_state_and_resumes_bitwise(
        self, tmp_path, mixed_reference
    ):
        scenario, reference = mixed_reference
        session = FMoreEngine().session(scenario, "FMore", 0)
        next(session)
        next(session)  # two rounds: regret matching has live regrets
        checkpoint = session.snapshot()
        entries = {e["label"]: e for e in checkpoint.bid_policy_states}
        assert set(entries) == {"greedy", "regret_matching"}
        assert entries["regret_matching"]["state"]["regrets"]  # learnt something
        assert checkpoint.bidding_rng_state is not None
        store = ExperimentStore(tmp_path)
        store.save_checkpoint(checkpoint)
        loaded = store.load_checkpoint(scenario, "FMore", 0)
        resumed = FMoreEngine().resume(loaded).run()
        assert resumed == reference.history("FMore")

    def test_old_checkpoints_without_policy_fields_still_load(
        self, tmp_path, base_reference
    ):
        scenario, reference = base_reference
        session = FMoreEngine().session(scenario, "FMore", 0)
        next(session)
        store = ExperimentStore(tmp_path)
        path = store.save_checkpoint(session.snapshot())
        state = json.loads((path / "state.json").read_text())
        # A checkpoint written before the strategic subsystem existed.
        state.pop("bid_policy_states", None)
        state.pop("bidding_rng_state", None)
        (path / "state.json").write_text(json.dumps(state))
        loaded = store.load_checkpoint(scenario, "FMore", 0)
        assert loaded.bid_policy_states == []
        assert FMoreEngine().resume(loaded).run() == reference.history("FMore")


class TestPolicyTransforms:
    def _batch(self):
        return BidBatch(
            round_index=0,
            node_ids=[7, 9],
            thetas=np.array([0.3, 0.6]),
            capacities=np.array([[5.0, 1.0], [5.0, 1.0]]),
            qualities=np.array([[1.0, 0.5], [2.0, 0.6]]),
            payments=np.array([1.0, 2.0]),
            costs=np.array([0.5, 1.0]),
            bounds=np.array([[0.0, 10.0], [0.0, 1.0]]),
        )

    def test_fixed_markup_scales_the_ask(self):
        batch = self._batch()
        q, p = FixedMarkupBidding(markup=0.25).shade(batch, None)
        assert np.array_equal(q, batch.qualities)
        assert np.allclose(p, [1.25, 2.5])
        with pytest.raises(ValueError):
            FixedMarkupBidding(markup=-1.0)
        assert FixedMarkupBidding(markup=-0.1).enforce_ir is False

    def test_truthful_is_the_identity(self):
        batch = self._batch()
        q, p = TruthfulBidding().shade(batch, None)
        assert q is batch.qualities and p is batch.payments

    def test_clip_qualities_respects_capacity_and_bounds(self):
        batch = self._batch()
        wild = np.array([[99.0, 99.0], [-1.0, 0.2]])
        clipped = batch.clip_qualities(wild)
        assert np.allclose(clipped, [[5.0, 1.0], [0.0, 0.2]])

    def test_regret_matching_state_round_trips(self):
        policy = RegretMatchingBidding(markups=(0.0, 0.1))
        policy._regrets = {7: [0.5, -0.25]}
        policy._pending = {9: (1, 2.0)}
        clone = RegretMatchingBidding(markups=(0.0, 0.1))
        clone.load_state(json.loads(json.dumps(policy.state_dict())))
        assert clone._regrets == {7: [0.5, -0.25]}
        assert clone._pending == {9: (1, 2.0)}
        with pytest.raises(ValueError, match="unknown"):
            clone.load_state({"bogus": 1})
        with pytest.raises(ValueError):
            RegretMatchingBidding(markups=())
        with pytest.raises(ValueError):
            RegretMatchingBidding(markups=(0.1, 0.1))

    def test_regret_matching_learns_from_counterfactuals(self):
        policy = RegretMatchingBidding(markups=(0.0, 0.5))
        batch = self._batch()
        rng = np.random.default_rng(0)
        policy.shade(batch, rng)
        feedback = RoundFeedback(
            round_index=0,
            node_ids=[7, 9],
            submitted=np.array([True, True]),
            won=np.array([True, False]),
            payments=np.array([1.0, 0.0]),
            costs=np.array([0.5, 1.0]),
            values=np.array([3.0, 2.5]),
            bid_payments=np.array([1.0, 2.0]),
            threshold=1.5,
        )
        policy.observe(feedback, rng)
        assert policy._pending == {}
        assert set(policy._regrets) <= {7, 9}
        assert np.allclose(feedback.payoffs, [0.5, 0.0])

    def test_external_policy_applies_and_clears_pending_actions(self):
        policy = ExternalBidPolicy()
        policy.set_action(7, 9.0)
        batch = self._batch()
        q, p = policy.shade(batch, None)
        assert p[0] == 9.0 and p[1] == 2.0
        assert policy.pending == {}

    def test_stateless_policies_reject_state(self):
        with pytest.raises(ValueError, match="stateless"):
            FixedMarkupBidding().load_state({"x": 1})

    def test_build_bid_policies_assigns_contiguous_blocks(self):
        ids = list(range(10))
        assignments = build_bid_policies(MIX, ids)
        greedy = [i for i, p in assignments.items() if p.label == "greedy"]
        regret = [i for i, p in assignments.items() if p.label == "regret_matching"]
        assert greedy == [0, 1, 2] and regret == [3, 4]
        # Unlabelled truthful entries stay on the hot path entirely...
        assert build_bid_policies(
            [{"name": "truthful", "fraction": 0.5}], ids
        ) == {}
        # ...while labelled ones become an addressable control group.
        control = build_bid_policies(
            [{"name": "truthful", "fraction": 0.5, "label": "ctl"}], ids
        )
        assert sorted(control) == [0, 1, 2, 3, 4]
        assert all(p.label == "ctl" for p in control.values())


class TestStoreRetention:
    def _checkpoints(self, store, scenario, rounds=3):
        session = FMoreEngine().session(scenario, "FMore", 0)
        for _ in range(rounds):
            next(session)
            store.save_checkpoint(session.snapshot())

    def test_default_layout_stays_flat(self, tmp_path, base_reference):
        scenario, _ = base_reference
        store = ExperimentStore(tmp_path)
        self._checkpoints(store, scenario, rounds=2)
        cell = (
            tmp_path / "checkpoints" / scenario_hash(scenario) / "FMore-seed0"
        )
        assert (cell / "state.json").exists()
        assert not any(p.name.startswith("round-") for p in cell.iterdir())
        assert store.load_checkpoint(scenario, "FMore", 0).round_index == 2

    def test_retention_keeps_last_n_and_every_k(self, tmp_path, base_reference):
        scenario, _ = base_reference
        store = ExperimentStore(tmp_path, keep_last_n=1, keep_every_k=2)
        self._checkpoints(store, scenario, rounds=3)
        assert store.checkpoint_rounds(scenario, "FMore", 0) == [2, 3]
        assert (
            store.load_checkpoint(scenario, "FMore", 0, round_index=2).round_index
            == 2
        )
        assert store.load_checkpoint(scenario, "FMore", 0).round_index == 3
        with pytest.raises(StoreError, match="round"):
            store.load_checkpoint(scenario, "FMore", 0, round_index=1)

    def test_keep_last_n_prunes_old_rounds(self, tmp_path, base_reference):
        scenario, _ = base_reference
        store = ExperimentStore(tmp_path, keep_last_n=2)
        self._checkpoints(store, scenario, rounds=3)
        assert store.checkpoint_rounds(scenario, "FMore", 0) == [2, 3]

    def test_retained_round_resumes_bitwise(self, tmp_path, base_reference):
        scenario, reference = base_reference
        store = ExperimentStore(tmp_path, keep_last_n=3)
        self._checkpoints(store, scenario, rounds=2)
        early = store.load_checkpoint(scenario, "FMore", 0, round_index=1)
        assert FMoreEngine().resume(early).run() == reference.history("FMore")

    def test_flat_checkpoint_readable_by_retaining_store(
        self, tmp_path, base_reference
    ):
        scenario, _ = base_reference
        ExperimentStore(tmp_path)  # flat writer
        self._checkpoints(ExperimentStore(tmp_path), scenario, rounds=1)
        retaining = ExperimentStore(tmp_path, keep_last_n=4)
        assert retaining.checkpoint_rounds(scenario, "FMore", 0) == [1]
        assert retaining.load_checkpoint(scenario, "FMore", 0).round_index == 1

    def test_clear_checkpoint_removes_round_dirs(self, tmp_path, base_reference):
        scenario, _ = base_reference
        store = ExperimentStore(tmp_path, keep_last_n=2)
        self._checkpoints(store, scenario, rounds=2)
        store.clear_checkpoint(scenario, "FMore", 0)
        assert store.load_checkpoint(scenario, "FMore", 0) is None
        assert store.checkpoint_rounds(scenario, "FMore", 0) == []

    def test_retention_arguments_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentStore(tmp_path, keep_last_n=0)
        with pytest.raises(ValueError):
            ExperimentStore(tmp_path, keep_every_k=0)


class TestAuctionEnv:
    def test_reset_observation_shape(self, base_reference):
        scenario, _ = base_reference
        env = AuctionEnv(scenario, scheme="FMore", seed=0)
        obs = env.reset()
        for key in (
            "round_index",
            "rounds_remaining",
            "n_clients",
            "k_winners",
            "theta",
            "capacity",
            "equilibrium_quality",
            "equilibrium_payment",
            "last_threshold",
        ):
            assert key in obs
        assert obs["round_index"] == 1 and obs["last_threshold"] is None

    def test_truthful_episode_matches_rounds(self, base_reference):
        scenario, _ = base_reference
        env = AuctionEnv(scenario, scheme="FMore", seed=0)
        env.reset()
        rewards, done = [], False
        while not done:
            _, reward, done, info = env.step(None)
            rewards.append(reward)
            assert isinstance(info["won"], bool)
        assert len(rewards) == scenario.n_rounds

    def test_absurd_overbid_loses(self, base_reference):
        scenario, _ = base_reference
        env = AuctionEnv(scenario, scheme="FMore", seed=0)
        obs = env.reset()
        _, reward, _, info = env.step(1000.0 * obs["equilibrium_payment"])
        assert info["won"] is False and reward == 0.0

    def test_snapshot_restore_replays_identically(self, base_reference):
        scenario, _ = base_reference
        env = AuctionEnv(scenario, scheme="FMore", seed=0)
        env.reset()
        env.step(None)
        checkpoint = env.snapshot()
        _, reward_a, done_a, info_a = env.step(0.9)
        env.restore(checkpoint)
        _, reward_b, done_b, info_b = env.step(0.9)
        assert (reward_a, done_a, info_a["won"]) == (
            reward_b,
            done_b,
            info_b["won"],
        )

    def test_malformed_action_rejected(self, base_reference):
        scenario, _ = base_reference
        env = AuctionEnv(scenario, scheme="FMore", seed=0)
        env.reset()
        with pytest.raises(ValueError):
            env.step([1.0, 2.0])  # neither scalar nor m+1 vector

    def test_selection_only_schemes_rejected(self, base_reference):
        scenario, _ = base_reference
        env = AuctionEnv(scenario.with_(schemes=("RandFL",)), scheme="RandFL")
        with pytest.raises(ValueError):
            env.reset()


class TestIncentiveSweep:
    def test_sweep_mechanics_and_exports(self, tmp_path):
        scenario = _scenario(n_rounds=2)
        report = run_incentive_sweep(
            scenario,
            store=tmp_path,
            deviations=[{"name": "fixed_markup", "markup": 0.5}],
            fraction=0.3,
        )
        assert [r.policy for r in report.rows] == ["fixed_markup"]
        row = report.rows[0]
        assert row.scheme == "FMore"
        assert row.ic_gap == pytest.approx(
            row.deviant_payoff - row.truthful_payoff
        )
        markdown = report.to_markdown()
        assert "fixed_markup" in markdown and "| FMore |" in markdown
        csv_path = tmp_path / "ic.csv"
        report.to_csv(csv_path)
        assert csv_path.read_text().startswith("scheme,policy,")
        # The sweep went through the store: manifests for control + variant.
        assert len(list((tmp_path / "runs").rglob("FMore-seed0.json"))) == 2

    def test_fraction_rounding_to_zero_nodes_fails_loudly(self, tmp_path):
        scenario = _scenario(n_rounds=1)
        with pytest.raises(ValueError, match="fraction"):
            run_incentive_sweep(
                scenario, store=tmp_path, deviations=[], fraction=0.01
            )


class TestClaimShuffle:
    def test_shuffled_claims_stay_exclusive_and_drain(self, tmp_path):
        scenario = _scenario(schemes=("FMore", "RandFL"), seeds=(0, 1, 2))
        cells = [(s, seed) for s in scenario.schemes for seed in scenario.seeds]
        queue = JobQueue(tmp_path)
        queue.enqueue(scenario, cells)
        claimed = []
        workers = [JobQueue(tmp_path), JobQueue(tmp_path)]
        while True:
            job = workers[len(claimed) % 2].claim(f"w{len(claimed) % 2}")
            if job is None:
                break
            claimed.append(job.cell)
        assert sorted(claimed) == sorted(cells)

    def test_scan_order_is_deterministic_per_worker_and_pass(self, tmp_path):
        scenario = _scenario(schemes=("FMore", "RandFL"), seeds=(0, 1, 2, 3))
        cells = [(s, seed) for s in scenario.schemes for seed in scenario.seeds]
        JobQueue(tmp_path).enqueue(scenario, cells)
        first = JobQueue(tmp_path).claim("worker-a")
        # A fresh queue with the same label repeats the same scan order.
        again = JobQueue(tmp_path).claim("worker-a")
        assert first is not None and again is not None
        assert again.cell != first.cell  # first pick is locked, so the
        # second claimer walks the same shuffled order and takes the next.
