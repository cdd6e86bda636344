"""Tests for the CLI entry point and the cluster-testbed scenario."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.__main__ import main
from repro.api import (
    FMoreEngine,
    Scenario,
    build_agents,
    build_federation,
    build_solver,
)
from repro.core.costs import LinearCost
from repro.core.equilibrium import EquilibriumSolver
from repro.core.scoring import AdditiveScore
from repro.core.valuation import PrivateValueModel, UniformTheta
from repro.fl.datasets import make_generator
from repro.fl.partition import heterogeneous_specs, materialize_clients
from repro.mec.cluster import (
    SimulatedCluster,
    build_cluster_specs,
    cluster_quality_extractor,
)
from repro.mec.node import EdgeNode
from repro.mec.resources import UniformAvailabilityDynamics
from repro.sim.rng import rng_from

#: A 6-node testbed small enough to train in a second.
SMALL_CLUSTER = dict(
    n_clients=6, k_winners=2, n_rounds=2, size_range=(30, 80),
    test_per_class=4, model_width=0.12, grid_size=65,
)


def build_cluster_environment(scenario: Scenario, seed: int) -> SimpleNamespace:
    """Hand-assemble the Section V-C testbed: data, machines, auction, agents.

    An independent oracle for the engine's registry-driven assembly: every
    component is constructed directly from the scenario's fields, drawing
    from the testbed's named seed streams.
    """
    assert scenario.variant == "cluster"
    data_rng = rng_from(seed, f"cluster-data-{scenario.name}")
    theta_rng = rng_from(seed, f"cluster-theta-{scenario.name}")
    hw_rng = rng_from(seed, f"cluster-hw-{scenario.name}")

    generator = make_generator(scenario.dataset, seed=scenario.data_seed)
    specs = heterogeneous_specs(
        scenario.n_clients,
        generator.n_classes,
        data_rng,
        size_range=scenario.size_range,
        min_classes=scenario.min_classes,
        max_classes=scenario.max_classes,
    )
    clients_data = materialize_clients(generator, specs, data_rng)
    test_x, test_y = generator.test_set(scenario.test_per_class, data_rng)

    cluster_specs = build_cluster_specs(
        [c.size for c in clients_data],
        hw_rng,
        category_proportions=[c.category_proportion for c in clients_data],
        core_choices=scenario.core_choices,
        bandwidth_range_mbps=scenario.bandwidth_range_mbps,
    )
    lo, hi = scenario.theta["lo"], scenario.theta["hi"]
    model = PrivateValueModel(
        UniformTheta(lo, hi), n_nodes=scenario.n_clients, k_winners=scenario.k_winners
    )
    solver = EquilibriumSolver(
        AdditiveScore(scenario.scoring["weights"]),
        LinearCost(scenario.cost["betas"]),
        model,
        [[0.0, 1.0]] * 3,
        grid_size=scenario.grid_size,
    )
    max_data = scenario.size_range[1]
    extractor = cluster_quality_extractor(
        max_cores=max(scenario.core_choices),
        max_bandwidth_mbps=scenario.bandwidth_range_mbps[1],
        max_data_size=max_data,
    )
    thetas = UniformTheta(lo, hi).sample(theta_rng, scenario.n_clients)
    agents = [
        EdgeNode(
            node_id=spec.node_id,
            theta=float(theta),
            solver=solver,
            profile=spec.profile,
            dynamics=UniformAvailabilityDynamics(scenario.availability_min_fraction),
            quality_extractor=extractor,
        )
        for spec, theta in zip(cluster_specs, thetas)
    ]
    return SimpleNamespace(
        generator=generator,
        clients_data=clients_data,
        test_x=test_x,
        test_y=test_y,
        cluster=SimulatedCluster(cluster_specs),
        solver=solver,
        agents=agents,
        max_data_size=max_data,
        initial_weights=[],
    )


class TestClusterConfig:
    """The testbed's configuration: the ``cluster_cifar10`` preset."""

    def test_defaults_match_paper_setup(self):
        scenario = Scenario.from_preset("cluster_cifar10")
        assert scenario.n_clients == 31   # 32 machines minus the aggregator
        assert scenario.scoring["weights"] == [0.4, 0.3, 0.3]
        assert scenario.dataset == "cifar10"

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario.from_preset("cluster_cifar10", n_clients=5, k_winners=6)
        with pytest.raises(ValueError):
            Scenario.from_preset("cluster_cifar10", size_range=(0, 10))
        with pytest.raises(ValueError, match="trains cifar10"):
            Scenario.from_preset("cluster_cifar10", "mnist_o")


class TestClusterEnvironment:
    """The engine's cluster assembly: ``build_federation``/``build_agents``."""

    @pytest.fixture(scope="class")
    def env(self):
        scenario = Scenario.from_preset("cluster_cifar10", **SMALL_CLUSTER)
        federation = build_federation(scenario, 0)
        agents = build_agents(scenario, federation, build_solver(scenario))
        return scenario, federation, agents

    def test_one_agent_per_client(self, env):
        scenario, federation, agents = env
        assert len(agents) == scenario.n_clients
        assert len(federation.clients_data) == scenario.n_clients
        agent_ids = {a.node_id for a in agents}
        client_ids = {c.client_id for c in federation.clients_data}
        assert agent_ids == client_ids

    def test_cluster_profiles_match_client_data(self, env):
        _, federation, _ = env
        for c in federation.clients_data:
            assert federation.cluster.specs[c.client_id].profile.data_size == c.size

    def test_quality_extractor_in_unit_box(self, env):
        _, _, agents = env
        for agent in agents:
            q = agent.quality_extractor(agent.profile)
            assert np.all(q >= 0.0) and np.all(q <= 1.0)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="Oracle"):
            Scenario.from_preset("cluster_cifar10", schemes=("Oracle",))

    def test_fixfl_scheme_supported(self):
        scenario = Scenario.from_preset(
            "cluster_cifar10", schemes=("FixFL",), **{**SMALL_CLUSTER, "n_rounds": 1}
        )
        results = FMoreEngine().run(scenario).comparison()
        assert len(results["FixFL"].records) == 1


class TestClusterScenario:
    """The Section V-C testbed as a variant="cluster" Scenario."""

    def test_from_preset_cluster(self):
        scenario = Scenario.from_preset("cluster_cifar10")
        assert scenario.variant == "cluster"
        assert scenario.dataset == "cifar10"
        assert scenario.n_clients == 31
        assert scenario.schemes == ("FMore", "RandFL")
        assert scenario.scoring == {"name": "additive", "weights": [0.4, 0.3, 0.3]}
        # The hand-built solver defaulted to quadrature; the lift keeps it.
        assert scenario.payment_method == "quadrature"
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_unknown_preset_lists_names(self):
        with pytest.raises(ValueError, match="cluster_cifar10"):
            Scenario.from_preset("warp")

    def test_engine_matches_legacy_assembly_bitwise(self):
        """Differential oracle: engine-driven cluster histories equal a
        hand-assembled loop over build_cluster_environment."""
        from repro.core.auction import MultiDimensionalProcurementAuction
        from repro.core.mechanism import FMoreMechanism
        from repro.fl.client import FLClient
        from repro.fl.models import build_model
        from repro.fl.selection import AuctionSelection, RandomSelection
        from repro.fl.server import FedAvgServer
        from repro.fl.trainer import FederatedTrainer

        seed = 1
        scenario = Scenario.from_preset("cluster_cifar10", seeds=(seed,), **SMALL_CLUSTER)
        env = build_cluster_environment(scenario, seed)
        expected = {}
        client_ids = [c.client_id for c in env.clients_data]
        max_data = env.max_data_size
        for scheme in ("FMore", "RandFL"):
            global_model = build_model(
                scenario.dataset,
                env.generator.input_shape,
                env.generator.n_classes,
                rng_from(seed, "cluster-model"),
                width=scenario.model_width,
                lr=scenario.lr,
            )
            if env.initial_weights:
                global_model.set_weights(env.initial_weights)
            else:
                env.initial_weights = global_model.get_weights()
            clients = [
                FLClient(d, local_epochs=scenario.local_epochs, batch_size=scenario.batch_size)
                for d in env.clients_data
            ]
            if scheme == "RandFL":
                selection = RandomSelection(client_ids, scenario.k_winners)
            else:
                auction = MultiDimensionalProcurementAuction(
                    env.solver.quality_rule, scenario.k_winners
                )
                selection = AuctionSelection(
                    FMoreMechanism(auction),
                    env.agents,
                    quality_to_samples=lambda q: int(round(q[2] * max_data)),
                )
            trainer = FederatedTrainer(
                FedAvgServer(global_model),
                clients,
                selection,
                env.test_x,
                env.test_y,
                rng_from(seed, f"cluster-train-{scheme}"),
                timer=env.cluster,
            )
            expected[scheme] = trainer.run(scenario.n_rounds)

        mine = FMoreEngine().run(scenario).comparison()
        for scheme, reference in expected.items():
            assert mine[scheme].records == reference.records
            assert mine[scheme].cumulative_seconds == reference.cumulative_seconds

    def test_cluster_timer_comes_from_federation(self):
        scenario = Scenario.from_preset("cluster_cifar10", **SMALL_CLUSTER)
        federation = build_federation(scenario, 0)
        assert federation.cluster is not None
        assert len(federation.cluster_specs) == scenario.n_clients
        for c in federation.clients_data:
            assert federation.cluster.specs[c.client_id].profile.data_size == c.size

    def test_cluster_needs_three_scoring_dimensions(self):
        scenario = Scenario.from_preset("cluster_cifar10", **SMALL_CLUSTER).with_(
            scoring={"name": "additive", "weights": [0.5, 0.5]},
            cost={"name": "linear", "betas": [0.25, 0.25]},
        )
        federation = build_federation(scenario, 0)
        solver = build_solver(scenario)
        with pytest.raises(ValueError, match="3-D"):
            build_agents(scenario, federation, solver)


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "compare" in out

    def test_sweep_k(self, capsys):
        assert main(["sweep-k", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "payment" in out and "score" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["dance"])
