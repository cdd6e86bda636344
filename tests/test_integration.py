"""Integration tests: the full FMore pipeline end to end at smoke scale.

These assert the paper's *qualitative* claims on tiny instances:
ordering of schemes, auction bookkeeping flowing into training records,
psi-FMore interpolating between FMore and RandFL, and the cluster timing
pipeline producing monotone cumulative clocks.
"""

import numpy as np
import pytest

from repro.analysis import headline_metrics, selection_rank_proportions
from repro.api import FMoreEngine, Scenario, build_federation, run_scheme


@pytest.fixture(scope="module")
def smoke_results():
    scenario = Scenario.from_preset("smoke", "mnist_o", seeds=(3,), n_rounds=6)
    return scenario, FMoreEngine().run(scenario).comparison()


class TestEndToEnd:
    def test_all_schemes_complete(self, smoke_results):
        scenario, results = smoke_results
        for scheme, history in results.items():
            assert len(history.records) == scenario.n_rounds
            assert all(0.0 <= a <= 1.0 for a in history.accuracies)

    def test_fmore_pays_others_do_not(self, smoke_results):
        _, results = smoke_results
        assert results["FMore"].total_payment > 0.0
        assert results["RandFL"].total_payment == 0.0
        assert results["FixFL"].total_payment == 0.0

    def test_fmore_records_scores_and_ranks(self, smoke_results):
        _, results = smoke_results
        for record in results["FMore"].records:
            assert record.scores
            assert record.winner_ranks
            assert record.all_scores
            # Winners carry the top scores of the round.
            assert max(record.scores.values()) <= max(record.all_scores) + 1e-12

    def test_winner_count_is_k(self, smoke_results):
        scenario, results = smoke_results
        for record in results["FMore"].records:
            assert len(record.winner_ids) == scenario.k_winners

    def test_fmore_selects_higher_quality_nodes(self, smoke_results):
        """The selection skew the paper's Fig 8 shows: FMore's winners hold
        more data x diversity than the population average."""
        scenario, results = smoke_results
        federation = build_federation(scenario, 3)
        value = {
            c.client_id: c.size * max(c.category_proportion, 0.05)
            for c in federation.clients_data
        }
        population_mean = np.mean(list(value.values()))
        fmore_winners = [
            value[w] for r in results["FMore"].records for w in r.winner_ids
        ]
        assert np.mean(fmore_winners) > population_mean

    def test_histories_share_initial_conditions(self):
        """Same (scenario, seed): schemes must start from identical weights."""
        scenario = Scenario.from_preset("smoke", "mnist_o", n_rounds=1)
        federation = build_federation(scenario, 0)
        h1 = run_scheme(scenario, "RandFL", 0, federation=federation)
        h2 = run_scheme(scenario, "FixFL", 0, federation=federation)
        assert federation.initial_weights  # populated by the first run
        assert len(h1.records) == len(h2.records) == 1

    def test_reproducible_given_seed(self):
        scenario = Scenario.from_preset("smoke", "mnist_o", n_rounds=2)
        a = run_scheme(scenario, "FMore", seed=11)
        b = run_scheme(scenario, "FMore", seed=11)
        assert a.accuracies == b.accuracies
        assert [r.winner_ids for r in a.records] == [r.winner_ids for r in b.records]

    def test_headline_metrics_computable(self, smoke_results):
        _, results = smoke_results
        m = headline_metrics(results, target_accuracy=0.2)
        assert m.fmore_final_accuracy >= 0.0


class TestPsiFMore:
    def test_psi_spreads_winners(self):
        scenario = Scenario.from_preset("smoke", "mnist_o", n_rounds=6)
        h_psi = run_scheme(scenario.with_(psi=0.3), "PsiFMore", seed=5)
        h_top = run_scheme(scenario, "FMore", seed=5)
        distinct_psi = len(h_psi.winner_counts())
        distinct_top = len(h_top.winner_counts())
        assert distinct_psi >= distinct_top

    def test_rank_proportions_shift_with_psi(self):
        scenario = Scenario.from_preset(
            "smoke", "mnist_o", n_rounds=5, n_clients=12, k_winners=3
        )
        h_hi = run_scheme(scenario.with_(psi=0.95), "PsiFMore", seed=7)
        h_lo = run_scheme(scenario.with_(psi=0.25), "PsiFMore", seed=7)
        top3_hi = selection_rank_proportions(h_hi, rank_cutoffs=(3,))[3]
        top3_lo = selection_rank_proportions(h_lo, rank_cutoffs=(3,))[3]
        assert top3_hi >= top3_lo


class TestClusterPipeline:
    def test_cluster_round_times_positive_and_cumulative(self):
        scenario = Scenario.from_preset(
            "cluster_cifar10", seeds=(1,), n_clients=8, k_winners=3, n_rounds=3,
            size_range=(40, 150), test_per_class=5, model_width=0.12,
        )
        results = FMoreEngine().run(scenario).comparison()
        for history in results.values():
            times = history.cumulative_seconds
            assert all(t > 0 for t in times)
            assert all(b >= a for a, b in zip(times, times[1:]))

    def test_fmore_declares_training_sizes(self):
        scenario = Scenario.from_preset(
            "cluster_cifar10", schemes=("FMore",), seeds=(1,), n_clients=8,
            k_winners=3, n_rounds=2, size_range=(40, 150), test_per_class=5,
            model_width=0.12,
        )
        results = FMoreEngine().run(scenario).comparison()
        for record in results["FMore"].records:
            assert record.scores


class TestAbstention:
    def test_unprofitable_nodes_abstain(self):
        """If the cost scale dwarfs the score scale, nobody should bid at a
        loss — the auction may then select fewer than K nodes, but every
        submitted bid stays individually rational."""
        from repro.core.costs import LinearCost
        from repro.core.equilibrium import EquilibriumSolver
        from repro.core.scoring import MultiplicativeScore
        from repro.core.valuation import PrivateValueModel, UniformTheta
        from repro.mec.node import EdgeNode
        from repro.mec.resources import ResourceProfile

        rule = MultiplicativeScore(2, 0.001)  # valuation ~ 0
        cost = LinearCost([50.0, 50.0])
        model = PrivateValueModel(UniformTheta(0.5, 1.0), 10, 2)
        solver = EquilibriumSolver(rule, cost, model, [[0.01, 5], [0.05, 1]], grid_size=65)
        node = EdgeNode(0, 0.9, solver, ResourceProfile(3000, 0.9), min_margin=1e-6)
        rng = np.random.default_rng(0)
        bid = node.make_bid(1, rng)
        if bid is not None:
            assert bid.payment - solver.cost.cost(bid.quality, 0.9) >= -1e-9
