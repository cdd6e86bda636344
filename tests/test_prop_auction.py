"""Property-based tests (hypothesis) for auction invariants."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.api import Scenario
from repro.api.engine import build_agents, build_federation, build_solver
from repro.core.auction import MultiDimensionalProcurementAuction
from repro.core.bids import Bid
from repro.core.costs import LinearCost, PowerCost, QuadraticCost
from repro.core.equilibrium import EquilibriumSolver
from repro.core.mechanism import FMoreMechanism
from repro.core.psi import PsiSelection
from repro.core.scoring import AdditiveScore, MultiplicativeScore
from repro.core.valuation import PrivateValueModel, UniformTheta
from repro.mec.node import EdgeNode
from repro.mec.resources import ResourceProfile, UniformAvailabilityDynamics

finite_quality = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
finite_payment = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@st.composite
def bid_lists(draw, min_size=1, max_size=20):
    n = draw(st.integers(min_size, max_size))
    bids = []
    for i in range(n):
        q = np.array([draw(finite_quality), draw(finite_quality)])
        bids.append(Bid(i, q, draw(finite_payment)))
    return bids


@given(bids=bid_lists(), k=st.integers(1, 6), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_winner_count_and_uniqueness(bids, k, seed):
    auction = MultiDimensionalProcurementAuction(AdditiveScore([0.5, 0.5]), k)
    out = auction.run(bids, np.random.default_rng(seed))
    assert len(out.winners) == min(k, len(bids))
    assert len(set(out.winner_ids)) == len(out.winners)


@given(bids=bid_lists(min_size=2), k=st.integers(1, 5), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_winners_have_best_scores(bids, k, seed):
    """Top-K selection: no loser may outscore any winner."""
    auction = MultiDimensionalProcurementAuction(AdditiveScore([0.5, 0.5]), k)
    out = auction.run(bids, np.random.default_rng(seed))
    winner_set = set(out.winner_ids)
    winner_scores = [w.score for w in out.winners]
    loser_scores = [sb.score for sb in out.scored_bids if sb.node_id not in winner_set]
    if winner_scores and loser_scores:
        assert min(winner_scores) >= max(loser_scores) - 1e-9


@given(bids=bid_lists(min_size=2), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_scores_sorted_descending(bids, seed):
    auction = MultiDimensionalProcurementAuction(AdditiveScore([0.3, 0.7]), 3)
    out = auction.run(bids, np.random.default_rng(seed))
    scores = out.scores
    assert np.all(np.diff(scores) <= 1e-9)


@given(bids=bid_lists(min_size=3), k=st.integers(1, 4), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_second_score_dominates_first_score_payments(bids, k, seed):
    first = MultiDimensionalProcurementAuction(AdditiveScore([0.5, 0.5]), k)
    second = MultiDimensionalProcurementAuction(
        AdditiveScore([0.5, 0.5]), k, payment_rule="second_score"
    )
    out1 = first.run(list(bids), np.random.default_rng(seed))
    out2 = second.run(list(bids), np.random.default_rng(seed))
    assert out2.total_payment >= out1.total_payment - 1e-9


@given(
    bids=bid_lists(min_size=4, max_size=15),
    psi=st.floats(0.1, 1.0, exclude_min=False),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_psi_selection_always_fills(bids, psi, k, seed):
    auction = MultiDimensionalProcurementAuction(
        AdditiveScore([0.5, 0.5]), k, selection=PsiSelection(psi)
    )
    out = auction.run(bids, np.random.default_rng(seed))
    assert len(out.winners) == min(k, len(bids))


@given(bids=bid_lists(min_size=1), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_first_score_charged_equals_asked(bids, seed):
    auction = MultiDimensionalProcurementAuction(AdditiveScore([0.5, 0.5]), 3)
    out = auction.run(bids, np.random.default_rng(seed))
    for w in out.winners:
        assert w.charged_payment == w.asked_payment


# ----------------------------------------------------------------------
# The mechanism's batched bid collection against per-agent make_bid
# ----------------------------------------------------------------------
def _paper_game(n_nodes, k_winners, **options):
    """The simulator's game ``25 q1 q2 - theta (4 q1 + 2 q2)`` for one
    population, winning kernel and margin method."""
    return EquilibriumSolver(
        MultiplicativeScore(2, 25.0),
        LinearCost([4.0, 2.0]),
        PrivateValueModel(UniformTheta(0.1, 1.0), n_nodes, k_winners),
        [[0.01, 5.0], [0.05, 1.0]],
        **options,
    )


def _additive_game(cost):
    """``0.6 q1 + 0.4 q2`` against ``cost``, N=20 and K=4: coefficients
    that are not exact binary fractions, so a row's score and cost round
    in their last bit by the order of their products and sums."""
    return EquilibriumSolver(
        AdditiveScore([0.6, 0.4]),
        cost,
        PrivateValueModel(UniformTheta(0.1, 1.0), 20, 4),
        [[0.01, 5.0], [0.05, 1.0]],
        grid_size=65,
    )


#: Game families the agents bid in, each built once.
_GAMES = {
    "paper": _paper_game(30, 6, grid_size=65),
    "paper-exact-kernel": _paper_game(12, 3, win_model="exact", grid_size=33),
    "paper-one-winner-rk4": _paper_game(8, 1, payment_method="rk4", grid_size=33),
    "additive-linear": _additive_game(LinearCost([0.3, 0.7])),
    "additive-quadratic": _additive_game(QuadraticCost([0.3, 0.7])),
    "additive-power": _additive_game(PowerCost([0.3, 0.7], [1.5, 2.5])),
}

#: One agent: its type, data size (samples) and category proportion.
_agents = st.tuples(
    st.floats(0.1, 1.0), st.integers(0, 6000), st.floats(0.0, 1.0)
)


@given(
    game=st.sampled_from(sorted(_GAMES)),
    agents=st.lists(_agents, min_size=1, max_size=20),
    min_fraction=st.floats(0.05, 1.0),
    jitter=st.sampled_from([0.0, 0.2, 1.0]),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
@example(
    game="paper",
    agents=[(0.1 + 0.8 * i / 19, 500 + 200 * i, 0.2 + 0.04 * i) for i in range(20)],
    min_fraction=0.4,
    jitter=0.2,
    k=6,
    seed=42,
)
@settings(max_examples=40, deadline=None)
def test_mechanism_batch_path_matches_sequential_make_bid(
    game, agents, min_fraction, jitter, k, seed
):
    """run_round's batched collection == per-agent make_bid, exactly."""
    solver = _GAMES[game]

    def population():
        return [
            EdgeNode(
                node_id=i,
                theta=theta,
                solver=solver,
                profile=ResourceProfile(data_size=size, category_proportion=share),
                dynamics=UniformAvailabilityDynamics(min_fraction),
                theta_jitter=jitter,
            )
            for i, (theta, size, share) in enumerate(agents)
        ]

    auction = MultiDimensionalProcurementAuction(solver.quality_rule, k)
    record = FMoreMechanism(auction).run_round(
        population(), 3, np.random.default_rng(seed)
    )
    rng = np.random.default_rng(seed)
    expected = {}
    for agent in population():
        bid = agent.make_bid(3, rng)
        if bid is not None:
            expected[agent.node_id] = (bid.quality, bid.payment)
    got = {
        sb.node_id: (sb.bid.quality, sb.bid.payment)
        for sb in record.outcome.scored_bids
    }
    assert set(got) == set(expected)
    for node_id, (quality, payment) in expected.items():
        assert got[node_id][0].tobytes() == quality.tobytes()
        assert got[node_id][1] == payment


def test_cluster_mechanism_matches_sequential_make_bid():
    """The Section V-C testbed (``0.4 q1 + 0.3 q2 + 0.3 q3``): five rounds
    of run_round's batched collection == per-agent make_bid, exactly."""
    scenario = Scenario.from_preset("cluster_cifar10")
    federation = build_federation(scenario, 0)
    solver = build_solver(scenario)
    auction = MultiDimensionalProcurementAuction(solver.quality_rule, scenario.k_winners)
    mismatched, compared = [], 0
    for round_index in range(5):
        record = FMoreMechanism(auction).run_round(
            build_agents(scenario, federation, solver),
            round_index,
            np.random.default_rng([0, round_index]),
        )
        got = {sb.node_id: sb.bid for sb in record.outcome.scored_bids}
        rng = np.random.default_rng([0, round_index])
        for agent in build_agents(scenario, federation, solver):
            bid = agent.make_bid(round_index, rng)
            assert (bid is None) == (agent.node_id not in got)
            if bid is None:
                continue
            compared += 1
            other = got[agent.node_id]
            if (
                other.quality.tobytes() != bid.quality.tobytes()
                or other.payment != bid.payment
            ):
                mismatched.append((round_index, agent.node_id))
    assert compared > 0
    assert mismatched == []
