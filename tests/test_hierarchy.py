"""Two-tier hierarchical auctions: spec, sharding, determinism, resume.

The contracts under test (the hierarchical-variant ISSUE acceptance):

* the ``clusters`` spec canonicalises once and round-trips through JSON
  with no implicit state, and flat scenarios are untouched — their
  content hashes are pinned to the values main produced before the
  variant existed;
* the cluster partition is a seeded experiment constant — it depends on
  ``assignment_seed`` alone, never on the run seed;
* the ``executor``/``max_workers`` keys of the retired in-round fan-out
  load from stored specs only at their old defaults, and drop without
  moving the content address (the CI hierarchical leg's hash is pinned);
* the ``clusters`` skews are finite and the assignment seed non-negative;
* checkpoint/resume mid-hierarchical-run restores bitwise, including
  through a store round-trip with byte-identical manifests;
* the rankings (``descending_order`` and one-segment
  ``segmented_top_k``) equal the historical full ``sorted()`` order
  bitwise, ties included.

The round itself is checked against the previous implementation in
``tests/test_prop_hierarchy.py``.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.__main__ import main
from repro.api import (
    ExperimentStore,
    FMoreEngine,
    IncompleteRunError,
    Scenario,
    scenario_hash,
)
from repro.core.auction import descending_order, segmented_top_k
from repro.core.hierarchy import assign_clusters, build_population
from repro.sim.rng import rng_from

# The values scenario_hash() produced on main before the hierarchical
# variant landed.  A drift here means flat manifests written by earlier
# runs are no longer addressable — the one thing this PR must not do.
FLAT_HASH_PINS = {
    "smoke": "eeeae5bdcfafe01203f030d891b26a3129fe0a6a6cb85c577fc4cca00f39ae0e",
    "paper": "f8d0aecbdcea401204f5cce71b31ff40b2a8413f8d61fdaff30367885ddff12f",
}

# The spec of the CI resume-smoke hierarchical leg (``HIER_ARGS``), word-split
# as the workflow's unquoted ``$HIER_ARGS`` is, and its content address
# before the in-round executor keys were retired.
HIER_ARGS = """
    --preset smoke --set variant=hierarchical --set n_clients=2000
    --set k_winners=4 --set n_rounds=3 --set test_per_class=8
    --set grid_size=17 --set schemes=FMore,PsiFMore
    --set clusters={"count":40,"k_clusters":2,"k_local":2,"size_dist":"lognormal","fl_pool":8}
""".split()
HIER_ARGS_HASH = "1d16a4f46d1e7004917441996f6acfd0066e2cba46767981ac298f5a69fe7e9f"

CLUSTERS = {
    "count": 8,
    "k_clusters": 4,
    "k_local": 2,
    "size_dist": "lognormal",
    "theta_skew": 0.05,
    "capacity_skew": 0.2,
}


def _hier_scenario(**overrides):
    """A hierarchical smoke game small enough to train in-tests."""
    defaults = dict(
        name="hier-test",
        variant="hierarchical",
        n_clients=48,
        k_winners=6,
        n_rounds=2,
        test_per_class=8,
        size_range=(60, 240),
        grid_size=17,
        clusters=CLUSTERS,
    )
    return Scenario.from_preset(
        "smoke",
        "mnist_o",
        schemes=("FMore",),
        seeds=(0,),
        **{**defaults, **overrides},
    )


@pytest.fixture(scope="module")
def hier_reference():
    scenario = _hier_scenario()
    return scenario, FMoreEngine().run(scenario)


# ----------------------------------------------------------------------
# The clusters spec
# ----------------------------------------------------------------------
class TestClustersSpec:
    def test_canonical_spec_round_trips_through_json(self):
        scenario = _hier_scenario()
        # Canonicalisation filled every defaulted key explicitly.
        assert scenario.clusters["assignment_seed"] == 0
        assert scenario.clusters["fl_pool"] == 48
        assert not {"executor", "max_workers"} & set(scenario.clusters)
        restored = Scenario.from_dict(scenario.to_dict())
        assert restored.clusters == scenario.clusters
        assert restored == scenario
        assert scenario_hash(restored) == scenario_hash(scenario)

    def test_flat_scenarios_carry_no_clusters_key(self):
        flat = Scenario.from_preset("smoke", "mnist_o")
        assert flat.clusters == {}
        assert "clusters" not in flat.to_dict()

    def test_flat_hashes_pinned_to_main(self):
        smoke = Scenario.from_preset("smoke", "mnist_o")
        paper = Scenario.from_preset(
            "paper", "mnist_o", schemes=("FMore", "RandFL"), seeds=(0,)
        )
        assert scenario_hash(smoke) == FLAT_HASH_PINS["smoke"]
        assert scenario_hash(paper) == FLAT_HASH_PINS["paper"]

    def test_clusters_spec_rejected_on_flat_variants(self):
        with pytest.raises(ValueError, match="variant='hierarchical'"):
            Scenario.from_preset("smoke", "mnist_o", clusters={"count": 4})

    def test_hierarchical_needs_count(self):
        with pytest.raises(ValueError, match="count"):
            _hier_scenario(clusters={})

    def test_round_policies_rejected(self):
        with pytest.raises(ValueError, match="round policies"):
            _hier_scenario(policies={"churn": {"departure_prob": 0.1}})

    def test_second_score_rejected(self):
        with pytest.raises(ValueError, match="first_score"):
            _hier_scenario(payment_rule="second_score")

    def test_ci_hierarchical_spec_keeps_its_address(self, capsys):
        assert main(["scenario", *HIER_ARGS]) == 0
        scenario = Scenario.from_json(capsys.readouterr().out)
        assert scenario_hash(scenario) == HIER_ARGS_HASH

    def test_stored_executor_defaults_load_and_drop(self):
        """Every hierarchical spec stored before the ranking ran inline
        carries ``"executor": "serial", "max_workers": null``."""
        scenario = _hier_scenario()
        spec = scenario.to_dict()
        clusters = {**spec["clusters"], "executor": "serial", "max_workers": None}
        loaded = Scenario.from_dict({**spec, "clusters": clusters})
        assert loaded == scenario
        assert loaded.to_dict() == spec
        assert scenario_hash(loaded) == scenario_hash(scenario)

    @pytest.mark.parametrize(
        "retired",
        [
            {"executor": "thread"},
            {"executor": "process"},
            {"executor": "distributed"},
            {"executor": "service"},
            {"max_workers": 2},
        ],
        ids=lambda retired: "-".join(f"{k}={v}" for k, v in retired.items()),
    )
    def test_retired_executor_keys_rejected(self, retired):
        with pytest.raises(ValueError) as excinfo:
            _hier_scenario(clusters={**CLUSTERS, **retired})
        message = str(excinfo.value)
        assert "['executor', 'max_workers'] are retired" in message
        assert "runs inline" in message

    @pytest.mark.parametrize(
        "key, value",
        [
            ("theta_skew", float("nan")),
            ("theta_skew", float("inf")),
            ("theta_skew", -0.1),
            ("capacity_skew", float("nan")),
            ("capacity_skew", float("inf")),
            ("capacity_skew", -0.1),
            ("assignment_seed", -1),
        ],
    )
    def test_non_finite_skews_and_negative_seed_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"clusters {key} must be"):
            _hier_scenario(clusters={**CLUSTERS, key: value})


# ----------------------------------------------------------------------
# Seeded cluster assignment
# ----------------------------------------------------------------------
class TestClusterAssignment:
    def _population(self, assignment_seed=0, pop_seed=0):
        spec = _hier_scenario(
            clusters={**CLUSTERS, "assignment_seed": assignment_seed}
        ).clusters
        n = 400
        return build_population(
            n,
            np.linspace(0.1, 1.0, n),
            (60, 240),
            spec,
            rng_from(pop_seed, "hier-pop-test"),
            rng_from(spec["assignment_seed"], "hier-clusters-test"),
            category_floor=0.1,
            availability_min_fraction=0.6,
            theta_jitter=0.02,
            theta_support=(0.1, 1.0),
        )

    def test_partition_depends_on_assignment_seed_alone(self):
        a = self._population(assignment_seed=0, pop_seed=0)
        b = self._population(assignment_seed=0, pop_seed=7)
        c = self._population(assignment_seed=5, pop_seed=0)
        assert np.array_equal(a.cluster_ids, b.cluster_ids)
        assert not np.array_equal(a.cluster_ids, c.cluster_ids)

    def test_assignment_is_deterministic(self):
        ids1 = assign_clusters(1000, 10, "lognormal", rng_from(3, "part"))
        ids2 = assign_clusters(1000, 10, "lognormal", rng_from(3, "part"))
        assert np.array_equal(ids1, ids2)

    def test_members_partition_the_population(self):
        pop = self._population()
        assert int(pop.cluster_sizes.sum()) == pop.n_nodes
        gathered = np.sort(np.concatenate(pop.members))
        assert np.array_equal(gathered, np.arange(pop.n_nodes))
        for cid, idx in enumerate(pop.members):
            assert np.all(pop.cluster_ids[idx] == cid)

    def test_skews_stay_inside_the_supports(self):
        pop = self._population()
        assert np.all((pop.thetas >= 0.1) & (pop.thetas <= 1.0))
        assert np.all((pop.data_sizes >= 60) & (pop.data_sizes <= 240))


# ----------------------------------------------------------------------
# The cluster_round record
# ----------------------------------------------------------------------
class TestExecutorDeterminism:
    def test_cluster_round_actions_and_metrics_columns(self, hier_reference):
        _, reference = hier_reference
        history = reference.history("FMore")
        for record in history.records:
            kinds = [a.kind for a in record.policy_actions]
            assert kinds == ["cluster_round"]
            payload = record.policy_actions[0].payload
            assert len(payload["selected"]) <= CLUSTERS["k_clusters"]
            assert payload["n_local_winners"] >= len(payload["selected"])
        frame = reference.metrics()
        assert "cluster_selected_mean" in frame.columns
        selected = frame.filter(scheme="FMore").column("cluster_selected_mean")
        assert all(1 <= v <= CLUSTERS["k_clusters"] for v in selected)


# ----------------------------------------------------------------------
# Checkpoint/resume mid-hierarchical-run
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_snapshot_restores_bitwise(self, hier_reference):
        scenario, reference = hier_reference
        session = FMoreEngine().session(scenario, "FMore", 0)
        next(session)
        checkpoint = session.snapshot()
        assert checkpoint.round_index == 1
        resumed = FMoreEngine().resume(checkpoint).run()
        assert resumed == reference.history("FMore")

    def test_store_resume_manifests_byte_identical(
        self, tmp_path, hier_reference
    ):
        scenario, reference = hier_reference
        root = tmp_path / "store"
        with pytest.raises(IncompleteRunError):
            FMoreEngine().run(
                scenario, store=root, checkpoint_every=1, stop_after=1
            )
        resumed = FMoreEngine().run(scenario, store=root, resume=True)
        assert resumed.histories == reference.histories
        pristine = reference.save(ExperimentStore(tmp_path / "pristine"))
        store = ExperimentStore(root)
        a = store.manifest_path(scenario, "FMore", 0).read_bytes()
        b = pristine.manifest_path(scenario, "FMore", 0).read_bytes()
        assert a == b
        assert store.load_checkpoint(scenario, "FMore", 0) is None


# ----------------------------------------------------------------------
# Rankings: the full sort and the top k of one segment
# ----------------------------------------------------------------------
def _reference_order(scores, tiebreak):
    """The historical full sort: descending score, ascending tie-break."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], tiebreak[i]))


def _top_k(scores, tiebreak, k):
    """One segment's top ``k``, without the padding."""
    return segmented_top_k(scores, tiebreak, [0], k)[0].tolist()


class TestPartialRanking:
    @pytest.mark.parametrize("trial", range(5))
    def test_descending_order_matches_sorted(self, trial):
        rng = np.random.default_rng(trial)
        scores = rng.normal(size=200)
        tiebreak = rng.random(200)
        assert descending_order(scores, tiebreak).tolist() == _reference_order(
            scores, tiebreak
        )

    @pytest.mark.parametrize("k", [1, 7, 50, 199, 200, 300])
    def test_top_k_order_is_the_full_sorts_head(self, k):
        rng = np.random.default_rng(99)
        # Integer scores force heavy boundary ties.
        scores = rng.integers(0, 10, size=200).astype(float)
        tiebreak = rng.random(200)
        expected = _reference_order(scores, tiebreak)[: min(k, 200)]
        assert _top_k(scores, tiebreak, k) == expected

    def test_all_tied_scores(self):
        scores = np.zeros(50)
        tiebreak = np.random.default_rng(1).random(50)
        expected = _reference_order(scores, tiebreak)[:5]
        assert _top_k(scores, tiebreak, 5) == expected
