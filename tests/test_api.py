"""Tests for the declarative API: registries, Scenario, FMoreEngine.

Pins the contracts the README documents: registry round-trips, Scenario
JSON round-trips, the named presets, bitwise agreement of the vectorised
``bid_batch`` with the per-bid loop, and one grid build per advertised
game across a multi-seed run.
"""

import numpy as np
import pytest

from repro.api import FMoreEngine, Scenario
from repro.core import (
    CobbDouglasScore,
    EquilibriumSolver,
    LinearCost,
    MultiplicativeScore,
    PowerCost,
    PrivateValueModel,
    ScaledBetaTheta,
    UniformTheta,
)
from repro.core.psi import PsiSelection
from repro.core.registry import (
    COST_MODELS,
    MARGIN_METHODS,
    PAYMENT_RULES,
    SCORING_RULES,
    THETA_DISTRIBUTIONS,
    WINNER_SELECTIONS,
    Registry,
)


class TestRegistry:
    def test_decorator_registration_and_create(self):
        reg = Registry("widget")

        @reg.register("box")
        class Box:
            def __init__(self, size=1):
                self.size = size

        assert "box" in reg
        assert reg.names() == ("box",)
        assert reg.create("box").size == 1
        assert reg.create({"name": "box", "size": 7}).size == 7
        assert reg.create({"name": "box"}, size=9).size == 9

    def test_duplicate_name_rejected(self):
        reg = Registry("widget")
        reg.register("a", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", lambda: 2)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="linear"):
            COST_MODELS.get("cubic")
        with pytest.raises(KeyError):
            SCORING_RULES.create({"name": "nope"})

    def test_spec_requires_name(self):
        with pytest.raises(ValueError, match="name"):
            COST_MODELS.create({"betas": [1.0]})

    def test_bad_params_report_component(self):
        with pytest.raises(TypeError, match="linear"):
            COST_MODELS.create({"name": "linear", "bogus": 3})

    @pytest.mark.parametrize(
        "registry, spec, cls, attr, expected",
        [
            (COST_MODELS, {"name": "linear", "betas": [4.0, 2.0]}, LinearCost, "betas", [4.0, 2.0]),
            (COST_MODELS, {"name": "power", "betas": [1.0], "gammas": 3.0}, PowerCost, "gammas", [3.0]),
            (SCORING_RULES, {"name": "multiplicative", "n_dimensions": 2, "scale": 25.0}, MultiplicativeScore, "scale", 25.0),
            (SCORING_RULES, {"name": "cobb_douglas", "weights": [0.6, 0.4]}, CobbDouglasScore, "weights", [0.6, 0.4]),
            (THETA_DISTRIBUTIONS, {"name": "uniform", "lo": 0.1, "hi": 1.0}, UniformTheta, "hi", 1.0),
            (THETA_DISTRIBUTIONS, {"name": "scaled_beta", "lo": 0.1, "hi": 1.0, "a": 2.0, "b": 5.0}, ScaledBetaTheta, "b", 5.0),
            (WINNER_SELECTIONS, {"name": "psi", "psi": 0.7}, PsiSelection, "psi", 0.7),
        ],
    )
    def test_round_trip_name_create_same_params(self, registry, spec, cls, attr, expected):
        obj = registry.create(spec)
        assert isinstance(obj, cls)
        value = getattr(obj, attr)
        if isinstance(value, np.ndarray):
            assert value.tolist() == expected
        else:
            assert value == pytest.approx(expected)

    def test_expected_families_registered(self):
        assert set(SCORING_RULES.names()) >= {
            "additive", "perfect_complementary", "cobb_douglas", "multiplicative",
        }
        assert set(COST_MODELS.names()) >= {"linear", "quadratic", "power"}
        assert set(THETA_DISTRIBUTIONS.names()) >= {
            "uniform", "truncated_normal", "scaled_beta",
        }
        assert set(WINNER_SELECTIONS.names()) >= {"top_k", "psi", "per_node_psi"}
        assert set(PAYMENT_RULES.names()) == {"first_score", "second_score"}
        assert set(MARGIN_METHODS.names()) == {"quadrature", "euler", "rk4"}


class TestScenario:
    def test_json_round_trip(self):
        scenario = Scenario.from_preset("smoke", "mnist_o", seeds=(0, 1))
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario

    def test_dict_round_trip_preserves_tuples(self):
        scenario = Scenario.from_preset("bench", "cifar10")
        again = Scenario.from_dict(scenario.to_dict())
        assert again.size_range == scenario.size_range
        assert isinstance(again.seeds, tuple)
        assert again == scenario

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="warp_speed"):
            Scenario.from_dict({"warp_speed": 9})

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(n_clients=10, k_winners=11)
        with pytest.raises(ValueError):
            Scenario(schemes=("Oracle",))
        with pytest.raises(ValueError):
            Scenario(seeds=())
        with pytest.raises(ValueError):
            Scenario(scoring={"name": "nope"})
        with pytest.raises(ValueError):
            Scenario(payment_rule="third_score")
        with pytest.raises(ValueError):
            Scenario(psi=1.5)

    def test_with_overrides_parses_cli_values(self):
        scenario = Scenario().with_overrides(
            ["n_rounds=5", "seeds=0,1,2", "schemes=FMore,RandFL", "psi=null", "lr=0.05"]
        )
        assert scenario.n_rounds == 5
        assert scenario.seeds == (0, 1, 2)
        assert scenario.schemes == ("FMore", "RandFL")
        assert scenario.psi is None
        assert scenario.lr == 0.05

    def test_with_overrides_accepts_scalar_seeds_and_schemes(self):
        """`--set seeds=0` / `--set schemes=FMore` parse to scalars; the
        scenario must lift them to one-element tuples, not iterate them."""
        scenario = Scenario().with_overrides(["seeds=0", "schemes=FMore"])
        assert scenario.seeds == (0,)
        assert scenario.schemes == ("FMore",)

    def test_with_overrides_rejects_unknown_key(self):
        # The message must list the valid override paths (satellite of the
        # policy-pipeline redesign: no opaque constructor errors).
        with pytest.raises(ValueError, match="unknown scenario override"):
            Scenario().with_overrides(["rounds=5"])
        with pytest.raises(ValueError, match="valid paths"):
            Scenario().with_overrides(["rounds=5"])

    def test_with_overrides_dotted_spec_paths(self):
        scenario = Scenario().with_overrides(
            ["scoring.scale=30", "execution.max_workers=3"]
        )
        assert scenario.scoring["scale"] == 30
        assert scenario.execution["max_workers"] == 3
        # Untouched sibling keys survive the nested merge.
        assert scenario.scoring["name"] == "multiplicative"

    def test_with_overrides_dotted_policy_paths(self):
        scenario = Scenario().with_overrides(
            ['policies.selection={"name": "psi", "psi": 0.7}']
        ).with_overrides(["policies.selection.psi=0.4"])
        assert scenario.policies["selection"] == {"name": "psi", "psi": 0.4}

    def test_with_overrides_dotted_rejects_non_spec_fields(self):
        with pytest.raises(ValueError, match="does not support dotted"):
            Scenario().with_overrides(["seeds.0=1"])
        with pytest.raises(ValueError, match="unknown scenario override"):
            Scenario().with_overrides(["bogus.name=linear"])


# (scenario_hash, sha256 of to_json()) of every named preset, recorded
# before the presets moved into Scenario: the values existing stores hold.
# A preset's name feeds its seed streams and its hash addresses stored
# manifests, so a drift here silently orphans every stored run of it.
PRESET_PINS = {
    "smoke/mnist_o": (
        "eeeae5bdcfafe01203f030d891b26a3129fe0a6a6cb85c577fc4cca00f39ae0e",
        "1f4ab6d85002ec9f0758cf08a1094d072f91f3da3b2adc2edcffe3bfb9e43aae",
    ),
    "smoke/mnist_f": (
        "76c575e7f4c264a35b23f8265de8e3ba902ac81c1c012f73f15038c7e1a0fc73",
        "cbf84bc5079d7093a27d6f78d69027c600f06372e1643b5cae800e74068f4fe0",
    ),
    "smoke/cifar10": (
        "d5ff8b60907391c07f58059fa665aa9ce85e3d6672af3815e23bb9ad4e6b4e62",
        "27f530a5abd049f9f4f2f0575147d84b31b05fc85f41725e1eabd08731a3a720",
    ),
    "smoke/hpnews": (
        "a3b969cf989e531f9fff17bcbb4faf546eb1fa556403f908a7c86b94bd7a1e49",
        "838713dadacb45f5f2b0b5f2cb31c1f8f2f14874131a54bf05cbce2ce95643d4",
    ),
    "bench/mnist_o": (
        "73ea22c3d8d217b28e8bb09974ae07e0b673ba02bcae123dbbfe6233929fee5d",
        "e894e221c7f6492384abfe71befac38b66e8368c1afe58cb9ccf751a22e5131f",
    ),
    "bench/mnist_f": (
        "a3a43e8131cdede5946d4128b2cdf7928eff920bd1196737b388ca6a584b3349",
        "0e0418b80d0d1e15246f8af733beca80481a47f15552012c3f3dd6fc315d2617",
    ),
    "bench/cifar10": (
        "39f6a7c91ed497acde54cc2172d8a31b528bed04d8b6f3fdd31f5535c4497cda",
        "4e61c858c08e6a51e115fb2b386dc63ac9982822cca197dc6cbc5aad1b84fdf7",
    ),
    "bench/hpnews": (
        "684e83e51427af9c0fbd9515669c4241a6702c2cda16a48ea36378942164dbdb",
        "63862b907c0d9a178f18a27072bfb4433ddc5aef748426bd4251ce208f2b7c29",
    ),
    "paper/mnist_o": (
        "f8d0aecbdcea401204f5cce71b31ff40b2a8413f8d61fdaff30367885ddff12f",
        "4d7c5306b6c06dc904d92ad33e814263862bcd64e62088495fc22b6dc56d4be0",
    ),
    "paper/mnist_f": (
        "4c5d0f069e36476fe8d1c4430e07c2124a00ca836d47047c44511ff97191fea3",
        "889437e86b5a4d775b39e2c6e0184096bc4e6f82c12d89fbd6a8dec6edc63b08",
    ),
    "paper/cifar10": (
        "dbc2685924ad59405c2ddc104cddc1add95f97fd8dba718aeb672ccd3ebb1735",
        "a1390545b164955d44d96ad14ca2b85887a199a69215d77df12ebeb4a4cd5736",
    ),
    "paper/hpnews": (
        "bbb14ca4a60383dd721d6ce0980c22e3ed8669ebf46bd142a08c9509f0bc6a40",
        "6be22052990b43d02d58a97f2821cf0055be3e7463765a2e60145fb8ea221a16",
    ),
    "cluster_cifar10": (
        "0319023179a3471896e366eba00ae8ed4bbd5836ac521d52a393c767efb48bf0",
        "a3955eaca292032b5025b6deca22bbc7a1546420c282e5d62308301f389361ec",
    ),
}


class TestPresetPins:
    def test_every_preset_is_pinned(self):
        from repro.api.scenario import PRESET_NAMES

        scales = {key.split("/")[0] for key in PRESET_PINS}
        assert scales == set(PRESET_NAMES)

    @pytest.mark.parametrize("key", list(PRESET_PINS))
    def test_hash_and_json_unchanged(self, key):
        import hashlib

        from repro.api import scenario_hash

        scale, _, dataset = key.partition("/")
        scenario = Scenario.from_preset(scale, dataset or None)
        digest = hashlib.sha256(scenario.to_json().encode()).hexdigest()
        assert (scenario_hash(scenario), digest) == PRESET_PINS[key]


@pytest.fixture(scope="module")
def smoke_scenario():
    return Scenario.from_preset(
        "smoke", "mnist_o", schemes=("FMore", "RandFL", "FixFL"), seeds=(0,)
    )


class TestEngine:
    def test_scenario_json_round_trip_same_histories(self, smoke_scenario):
        """A serialized scenario runs to the same result (CLI contract)."""
        scenario = smoke_scenario.with_(schemes=("FMore",), n_rounds=2)
        a = FMoreEngine().run(scenario)
        b = FMoreEngine().run(Scenario.from_json(scenario.to_json()))
        assert a.history("FMore").accuracies == b.history("FMore").accuracies
        assert a.history("FMore").total_payment == b.history("FMore").total_payment

    def test_solver_cached_across_seeds_and_schemes(self, smoke_scenario):
        """Acceptance: a 3-seed run builds the equilibrium grid once."""
        engine = FMoreEngine()
        scenario = smoke_scenario.with_(
            schemes=("FMore", "PsiFMore"), seeds=(0, 1, 2), n_rounds=1
        )
        engine.run(scenario)
        assert engine.cache_misses == 1
        # One build; each of the other five auction cells looks it up once.
        assert engine.cache_hits == 5

    def test_run_builds_grid_once(self, monkeypatch, smoke_scenario):
        """A multi-seed run solves the equilibrium tables exactly once."""
        from repro.core import equilibrium

        builds = []
        original = equilibrium.EquilibriumSolver._build_tables

        def counting(self):
            builds.append(1)
            return original(self)

        monkeypatch.setattr(equilibrium.EquilibriumSolver, "_build_tables", counting)
        scenario = smoke_scenario.with_(schemes=("FMore",), seeds=(0, 1, 2), n_rounds=1)
        histories = FMoreEngine().run(scenario).histories
        assert len(histories["FMore"]) == 3
        assert len(builds) == 1

    def test_different_game_different_cache_entry(self, smoke_scenario):
        engine = FMoreEngine()
        engine.solver_for(smoke_scenario)
        engine.solver_for(smoke_scenario)  # hit
        engine.solver_for(smoke_scenario.with_(grid_size=33))  # new game
        assert engine.cache_misses == 2
        assert engine.cache_hits == 1

    def test_registry_spec_reaches_the_game(self, smoke_scenario):
        """Swapping the theta spec changes the solver's distribution."""
        scenario = smoke_scenario.with_(
            theta={"name": "scaled_beta", "lo": 0.1, "hi": 1.0, "a": 2.0, "b": 5.0}
        )
        solver = FMoreEngine().solver_for(scenario)
        assert isinstance(solver.model.distribution, ScaledBetaTheta)


@pytest.fixture(scope="module")
def sim_solver():
    return EquilibriumSolver(
        MultiplicativeScore(2, 25.0),
        LinearCost([4.0, 2.0]),
        PrivateValueModel(UniformTheta(0.1, 1.0), 30, 6),
        [[0.01, 5.0], [0.05, 1.0]],
        grid_size=65,
    )


class TestBidBatch:
    def test_agrees_with_per_bid_loop_capped(self, sim_solver):
        rng = np.random.default_rng(0)
        thetas = np.asarray(sim_solver.model.distribution.sample(rng, 64))
        caps = np.column_stack(
            [rng.uniform(0.3, 5.0, 64), rng.uniform(0.1, 1.0, 64)]
        )
        qualities, payments = sim_solver.bid_batch(thetas, caps)
        for i, (theta, cap) in enumerate(zip(thetas, caps)):
            q, p = sim_solver.bid_with_capacity(float(theta), cap)
            np.testing.assert_array_equal(qualities[i], q)
            assert payments[i] == p

    def test_agrees_with_per_bid_loop_uncapped(self, sim_solver):
        rng = np.random.default_rng(1)
        thetas = np.asarray(sim_solver.model.distribution.sample(rng, 64))
        qualities, payments = sim_solver.bid_batch(thetas)
        for i, theta in enumerate(thetas):
            q, p = sim_solver.bid(float(theta))
            np.testing.assert_array_equal(qualities[i], q)
            assert payments[i] == p

    def test_empty_population(self, sim_solver):
        qualities, payments = sim_solver.bid_batch(np.empty(0))
        assert qualities.shape == (0, 2)
        assert payments.shape == (0,)

    def test_shape_validation(self, sim_solver):
        with pytest.raises(ValueError, match="1-D"):
            sim_solver.bid_batch(np.ones((2, 2)))
        with pytest.raises(ValueError, match="\\(n, m\\)"):
            sim_solver.bid_batch(np.asarray([0.5]), np.ones((2, 2)))
        with pytest.raises(ValueError, match="support"):
            sim_solver.bid_batch(np.asarray([5.0]))

    def test_overridden_make_bid_not_bypassed_by_batch_path(self, sim_solver):
        """A subclass customising make_bid alone must keep its override."""
        from repro.core.auction import MultiDimensionalProcurementAuction
        from repro.core.bids import Bid
        from repro.core.mechanism import FMoreMechanism
        from repro.mec.node import EdgeNode
        from repro.mec.resources import ResourceProfile

        class ShadedNode(EdgeNode):
            def make_bid(self, round_index, rng):
                bid = super().make_bid(round_index, rng)
                if bid is None:
                    return None
                return Bid(bid.node_id, bid.quality, bid.payment + 100.0)

        agents = [
            ShadedNode(
                node_id=i,
                theta=0.2 + 0.1 * i,
                solver=sim_solver,
                profile=ResourceProfile(data_size=1000, category_proportion=0.5),
            )
            for i in range(4)
        ]
        auction = MultiDimensionalProcurementAuction(sim_solver.quality_rule, 2)
        record = FMoreMechanism(auction).run_round(
            agents, 1, np.random.default_rng(0)
        )
        # Every collected bid must carry the override's +100 shading.
        assert record.accounting.n_bids == 4
        for sb in record.outcome.scored_bids:
            assert sb.bid.payment > 100.0


class TestCLI:
    def test_run_with_scenario_file(self, tmp_path, capsys):
        from repro.__main__ import main

        scenario = Scenario.from_preset(
            "smoke", "mnist_o", schemes=("RandFL", "FMore"), seeds=(0,)
        ).with_(n_rounds=1)
        path = tmp_path / "scenario.json"
        path.write_text(scenario.to_json())
        assert main(["run", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "RandFL" in out and "FMore" in out
        assert "solver cache: 1 build(s)" in out

    def test_scenario_command_round_trips(self, capsys):
        from repro.__main__ import main

        assert main(["scenario", "--preset", "smoke", "--set", "seeds=0,1"]) == 0
        out = capsys.readouterr().out
        scenario = Scenario.from_json(out)
        assert scenario.seeds == (0, 1)
        assert scenario.name == "smoke-mnist_o"

    def test_compare_accepts_schemes_flag(self, capsys):
        from repro.__main__ import main

        assert main(
            ["compare", "mnist_o", "--schemes", "RandFL,FixFL", "--rounds", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "RandFL" in out and "FixFL" in out
        assert "FMore" not in out

    def test_compare_rejects_unknown_scheme(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["compare", "mnist_o", "--schemes", "Oracle"])

    def test_psifmore_reachable_from_cli(self, capsys):
        """The satellite fix: PsiFMore can be compared from the CLI."""
        from repro.__main__ import main

        assert main(
            [
                "run",
                "--preset",
                "smoke",
                "--schemes",
                "PsiFMore",
                "--set",
                "n_rounds=1",
                "--set",
                "psi=0.8",
            ]
        ) == 0
        assert "PsiFMore" in capsys.readouterr().out

    @pytest.mark.parametrize("win_model", ["paper", "exact"])
    def test_incentive_gate_warns_under_paper_kernel(self, win_model, monkeypatch, capsys):
        """`report --incentives --assert-ic` says when it gates Eq. 9's kernel."""
        import repro.analysis
        from repro.__main__ import main

        swept = []

        def sweep(scenario, **kwargs):
            swept.append(scenario.win_model)
            return repro.analysis.IncentiveReport(scenario.name, kwargs["fraction"])

        monkeypatch.setattr(repro.analysis, "run_incentive_sweep", sweep)
        argv = ["report", "--incentives", "--preset", "smoke", "--assert-ic"]
        assert main([*argv, "--set", f"win_model={win_model}"]) == 0
        assert swept == [win_model]
        warnings = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning:") and "--set win_model=exact" in line
        ]
        assert len(warnings) == (win_model == "paper")
