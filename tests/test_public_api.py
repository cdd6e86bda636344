"""Public-API contract tests: documented imports exist and are stable.

A downstream user follows README examples; this suite pins the surface
those examples rely on, so accidental renames fail loudly.
"""

import importlib

import pytest


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        for name in ("core", "fl", "mec", "sim", "analysis", "api"):
            mod = importlib.import_module(f"repro.{name}")
            assert mod is not None

    @pytest.mark.parametrize(
        "symbol",
        [
            "Scenario",
            "FMoreEngine",
            "RunResult",
            "Federation",
            "SCHEME_NAMES",
            "Session",
            "RoundEvent",
            "make_session",
            "ExperimentStore",
            "Checkpoint",
            "MetricsFrame",
            "scenario_hash",
            "StoreError",
            "StoreMismatchError",
            "IncompleteRunError",
        ],
    )
    def test_api_exports(self, symbol):
        api = importlib.import_module("repro.api")
        assert hasattr(api, symbol), f"repro.api.{symbol} missing"
        assert symbol in api.__all__

    @pytest.mark.parametrize(
        "symbol",
        [
            "ScoringRule",
            "AdditiveScore",
            "PerfectComplementaryScore",
            "CobbDouglasScore",
            "MultiplicativeScore",
            "LinearCost",
            "QuadraticCost",
            "PowerCost",
            "UniformTheta",
            "PrivateValueModel",
            "EquilibriumSolver",
            "MultiDimensionalProcurementAuction",
            "Bid",
            "TopKSelection",
            "PsiSelection",
            "PerNodePsiSelection",
            "Blacklist",
            "BudgetedAuction",
            "FMoreMechanism",
            "optimal_quality_mix",
            "check_incentive_compatibility",
            "ROUND_POLICIES",
            "RoundPolicy",
            "PolicyAction",
            "SelectionPolicy",
            "GuidancePolicy",
            "AuditBlacklistPolicy",
            "ChurnPolicy",
            "build_policy_pipeline",
            "RankPsiSchedule",
            "simulate_deliveries",
        ],
    )
    def test_core_exports(self, symbol):
        core = importlib.import_module("repro.core")
        assert hasattr(core, symbol), f"repro.core.{symbol} missing"
        assert symbol in core.__all__

    def test_core_payment_rules_is_the_registry(self):
        """One PAYMENT_RULES: the registry Scenario checks against."""
        core = importlib.import_module("repro.core")
        registry = importlib.import_module("repro.core.registry")
        assert core.PAYMENT_RULES is registry.PAYMENT_RULES
        assert "PAYMENT_RULES" in core.__all__
        assert tuple(core.PAYMENT_RULES) == ("first_score", "second_score")
        assert len(core.PAYMENT_RULES) == 2
        assert "first_score" in core.PAYMENT_RULES

    def test_core_margin_methods_is_the_registry(self):
        """One margin table: the solver checks and dispatches through the
        registry Scenario checks against."""
        core = importlib.import_module("repro.core")
        registry = importlib.import_module("repro.core.registry")
        assert core.MARGIN_METHODS is registry.MARGIN_METHODS
        assert not hasattr(core, "MARGIN_BACKENDS")
        assert tuple(core.MARGIN_METHODS) == ("euler", "quadrature", "rk4")

    def test_a_registered_margin_method_builds_a_solver(self, monkeypatch):
        from repro.api import Scenario, build_solver
        from repro.core import MARGIN_METHODS, EquilibriumSolver, quadrature_margin

        monkeypatch.setitem(MARGIN_METHODS._factories, "trapz", quadrature_margin)
        scenario = Scenario.from_preset("smoke", "mnist_o", payment_method="trapz")
        solver = build_solver(scenario)
        reference = build_solver(scenario.with_(payment_method="quadrature"))
        theta = float(solver.theta_grid[len(solver.theta_grid) // 2])
        assert solver.payment(theta) == reference.payment(theta)
        with pytest.raises(ValueError, match="unknown payment method 'nope'"):
            EquilibriumSolver(
                solver.quality_rule, solver.cost, solver.model,
                solver.quality_bounds, payment_method="nope",
            )

    @pytest.mark.parametrize(
        "symbol",
        [
            "Sequential",
            "Dense",
            "Conv2D",
            "LSTM",
            "Embedding",
            "make_generator",
            "heterogeneous_specs",
            "FLClient",
            "FedAvgServer",
            "FederatedTrainer",
            "RandomSelection",
            "FixedSelection",
            "AuctionSelection",
            "build_model",
        ],
    )
    def test_fl_exports(self, symbol):
        fl = importlib.import_module("repro.fl")
        nn = importlib.import_module("repro.fl.nn")
        assert hasattr(fl, symbol) or hasattr(nn, symbol)

    @pytest.mark.parametrize(
        "symbol",
        ["EdgeNode", "ResourceProfile", "SimulatedCluster", "ComputeModel", "Link"],
    )
    def test_mec_exports(self, symbol):
        mec = importlib.import_module("repro.mec")
        assert hasattr(mec, symbol)

    @pytest.mark.parametrize(
        "symbol",
        ["rng_from", "spawn_rngs", "ascii_table", "series_table", "paper_vs_measured"],
    )
    def test_sim_exports(self, symbol):
        sim = importlib.import_module("repro.sim")
        assert hasattr(sim, symbol)

    def test_experiment_shims_removed(self):
        """The deprecated builder shims are gone (migrate to repro.api)."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.experiment")
        sim = importlib.import_module("repro.sim")
        for legacy in ("run_comparison", "run_scheme", "build_federation"):
            assert not hasattr(sim, legacy)

    @pytest.mark.parametrize(
        "module", ["repro.sim.config", "repro.sim.cluster_experiment", "repro.sim.runner"]
    )
    def test_legacy_config_modules_removed(self, module):
        """Presets live in Scenario; runs go through FMoreEngine."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_legacy_config_surface_removed(self):
        from repro.api import Scenario

        for bridge in ("from_config", "from_cluster_config", "to_config"):
            assert not hasattr(Scenario, bridge)
        sim = importlib.import_module("repro.sim")
        for legacy in (
            "preset",
            "PRESET_NAMES",
            "ExperimentConfig",
            "AuctionConfig",
            "run_seeds",
            "averaged_comparison",
            "average_histories",
            "SeriesStats",
        ):
            assert not hasattr(sim, legacy)

    @pytest.mark.parametrize(
        "symbol",
        [
            "headline_metrics",
            "summarize_schemes",
            "verify_all",
            "payment_score_sweep_n",
            "selection_rank_proportions",
        ],
    )
    def test_analysis_exports(self, symbol):
        analysis = importlib.import_module("repro.analysis")
        assert hasattr(analysis, symbol)


class TestDocstrings:
    """Every public module must explain itself (deliverable e)."""

    @pytest.mark.parametrize(
        "module",
        [
            "repro",
            "repro.api.scenario",
            "repro.api.engine",
            "repro.core.registry",
            "repro.core.scoring",
            "repro.core.costs",
            "repro.core.valuation",
            "repro.core.equilibrium",
            "repro.core.odesolvers",
            "repro.core.auction",
            "repro.core.psi",
            "repro.core.guidance",
            "repro.core.properties",
            "repro.core.mechanism",
            "repro.core.blacklist",
            "repro.core.budget",
            "repro.fl.nn.layers",
            "repro.fl.nn.recurrent",
            "repro.fl.nn.losses",
            "repro.fl.nn.optimizers",
            "repro.fl.nn.model",
            "repro.fl.datasets",
            "repro.fl.partition",
            "repro.fl.client",
            "repro.fl.server",
            "repro.fl.selection",
            "repro.fl.trainer",
            "repro.fl.metrics",
            "repro.mec.resources",
            "repro.mec.node",
            "repro.mec.network",
            "repro.mec.timing",
            "repro.mec.cluster",
            "repro.api.store",
            "repro.api.metrics",
            "repro.fl.serialize",
            "repro.sim",
            "repro.sim.rng",
            "repro.sim.reporting",
            "repro.analysis.equilibrium_analysis",
            "repro.analysis.convergence",
            "repro.analysis.theory_report",
        ],
    )
    def test_module_docstring(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 40

    def test_key_classes_documented(self):
        from repro.core import EquilibriumSolver, MultiDimensionalProcurementAuction
        from repro.fl import FederatedTrainer
        from repro.mec import EdgeNode

        for cls in (
            EquilibriumSolver,
            MultiDimensionalProcurementAuction,
            FederatedTrainer,
            EdgeNode,
        ):
            assert cls.__doc__ and len(cls.__doc__.strip()) > 40
