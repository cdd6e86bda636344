"""The two-tier round against its previous implementation (hypothesis).

``ParentRound`` below is a verbatim copy of the per-cluster round this
module's loop-free round replaced: one ``bid_batch`` call per distinct
cluster size, one argpartition ``top_k_order`` per cluster, and a
Python loop building each head's sums.  It is the oracle: on the same
population and RNG stream both must produce byte-identical
``MechanismRound`` pickles (head ``ScoredBid`` qualities, winners,
accounting, the ``cluster_round`` payload) and leave the RNG in the same
state.  Alongside it:

* a one-cluster round with ``k_local = K`` plays the population game,
  so its asks equal the population solver's flat ``bid_batch`` and its
  winners the head of ``descending_order``;
* the tie rule (higher score, then smaller key, then lower index) on a
  hand-built population whose members and heads tie exactly;
* ``bid_batch`` row ranges against each clone's own ``bid_batch``, and
  the clone memo shared by every session of a game;
* ``segmented_top_k`` against per-segment ``descending_order``.
"""

from __future__ import annotations

import copy
import pickle
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Scenario, build_solver
from repro.api.executor import SerialExecutor
from repro.core import (
    AdditiveScore,
    EquilibriumSolver,
    PrivateValueModel,
    QuadraticCost,
    UniformTheta,
)
from repro.core.auction import (
    AuctionOutcome,
    MultiDimensionalProcurementAuction,
    descending_order,
    segmented_top_k,
)
from repro.core.bids import AuctionWinner, Bid, ScoredBid
from repro.core.hierarchy import (
    HierarchicalMechanism,
    ShardedPopulation,
    assign_clusters,
    build_population,
)
from repro.core.mechanism import (
    BID_ASK_BYTES_PER_NODE,
    FLOAT_BYTES,
    MechanismRound,
    RoundAccounting,
)
from repro.core.policies import PolicyAction
from repro.core.psi import PsiSelection, TopKSelection


# ----------------------------------------------------------------------
# The oracle: the previous round, verbatim
# ----------------------------------------------------------------------
def top_k_order(scores: np.ndarray, tiebreak: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` indices of :func:`descending_order`, without a full sort.

    ``np.argpartition`` finds the k-th largest score in O(n); boundary
    ties are resolved exactly as the full sort would — every index with a
    strictly greater score is in, and the remaining slots go to the tied
    indices with the smallest tie-break keys.  Only the selected ``k``
    indices are then ordered.  Equivalence against the full-sort path is
    pinned bitwise in tests (continuous tie-break keys make exact
    (score, tiebreak) collisions a measure-zero event).
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    if k >= n:
        return descending_order(scores, tiebreak)
    boundary = scores[np.argpartition(-scores, k - 1)[k - 1]]
    definite = np.flatnonzero(scores > boundary)
    tied = np.flatnonzero(scores == boundary)
    need = k - definite.size
    if need < tied.size:
        tied = tied[np.argpartition(tiebreak[tied], need - 1)[:need]]
    chosen = np.concatenate([definite, tied])
    return chosen[np.lexsort((tiebreak[chosen], -scores[chosen]))]


def _local_winners_chunk(
    payload: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, int]],
) -> list[tuple[int, np.ndarray]]:
    """Winner determination for a chunk of clusters — pure array math.

    Each item is ``(cluster_id, member_idx, scores, tiebreak, k_local)``
    with the score/tiebreak slices pre-gathered by the caller, so the
    payload is plain ndarrays: picklable for the process pool, and free
    of RNG state so every executor returns bitwise-identical winners.
    Returns ``(cluster_id, winning member_idx in rank order)`` per item.
    """
    out: list[tuple[int, np.ndarray]] = []
    for cid, idx, scores, tiebreak, k in payload:
        order = top_k_order(scores, tiebreak, int(k))
        out.append((cid, idx[order]))
    return out


class ParentRound(HierarchicalMechanism):
    """The previous ``HierarchicalMechanism.run_round``, unchanged."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._clones: dict[tuple[int, int], EquilibriumSolver] = {}

    def _cluster_solver(self, size: int) -> EquilibriumSolver:
        key = (int(size), min(self.k_local, int(size)))
        clone = self._clones.get(key)
        if clone is None:
            clone = self.solver.with_population(key[0], key[1])
            self._clones[key] = clone
        return clone

    def run_round(
        self,
        agents: Sequence,
        round_index: int,
        rng: np.random.Generator,
    ) -> MechanismRound:
        """One two-tier round; ``agents`` is ignored (the population bids).

        All randomness — availability fractions, per-round theta
        re-estimates, member and head tie-break keys, the head-tier
        admission draw — is consumed here from ``rng`` in a fixed order;
        the executor fan-out below is deterministic array work.
        """
        pop = self.population
        n = pop.n_nodes
        dist = self.solver.model.distribution
        # -- per-round dynamics (vectorised, fixed draw order) -----------
        fracs = rng.uniform(pop.availability_min_fraction, 1.0, n)
        if pop.theta_jitter > 0.0:
            width = (dist.hi - dist.lo) * pop.theta_jitter
            thetas = np.clip(
                pop.thetas + rng.uniform(-width, width, n), dist.lo, dist.hi
            )
        else:
            thetas = pop.thetas
        member_tiebreak = rng.random(n)
        head_tiebreak = rng.random(pop.cluster_count)

        # -- equilibrium pricing: one bid_batch per distinct cluster size --
        caps = np.column_stack(
            [
                np.floor(pop.data_sizes * fracs) / pop.samples_per_quality_unit,
                pop.category_proportions,
            ]
        )
        m = self.auction.scoring.quality_rule.n_dimensions
        qualities = np.empty((n, m))
        payments = np.empty(n)
        eligible = np.zeros(n, dtype=bool)
        by_size: dict[int, list[np.ndarray]] = {}
        for members in pop.members:
            if members.size:
                by_size.setdefault(int(members.size), []).append(members)
        for size, groups in by_size.items():
            idx = np.concatenate(groups)
            clone = self._cluster_solver(size)
            q, p, costs = clone.bid_batch(thetas[idx], caps[idx], with_costs=True)
            qualities[idx] = q
            payments[idx] = p
            eligible[idx] = (p - costs) >= -1e-12
        scores = self.auction.scoring.score_batch(qualities, payments)

        # -- local tier: per-cluster winner determination (fanned out) ----
        tasks = []
        for cid, members in enumerate(pop.members):
            live = members[eligible[members]]
            if live.size:
                tasks.append(
                    (
                        cid,
                        live,
                        scores[live],
                        member_tiebreak[live],
                        min(self.k_local, live.size),
                    )
                )
        if self.executor is None or len(tasks) <= 1:
            chunk_results = [_local_winners_chunk(tasks)]
        else:
            workers = self.executor.worker_count(len(tasks))
            chunks = [tasks[i::workers] for i in range(workers) if tasks[i::workers]]
            chunk_results = self.executor.map(_local_winners_chunk, chunks)
        local_winners = dict(
            pair for chunk in chunk_results for pair in chunk
        )

        # -- top tier: cluster heads compete for k_clusters slots ----------
        head_cids = sorted(local_winners)
        head_scores = np.asarray(
            [float(scores[local_winners[cid]].sum()) for cid in head_cids]
        )
        head_order = descending_order(
            head_scores, head_tiebreak[np.asarray(head_cids, dtype=int)]
        )
        scored_heads: list[ScoredBid] = []
        for pos in head_order:
            cid = head_cids[int(pos)]
            win_idx = local_winners[cid]
            head_bid = Bid(
                node_id=-(cid + 1),  # synthetic: never collides with nodes
                quality=qualities[win_idx].sum(axis=0),
                payment=float(payments[win_idx].sum()),
            )
            scored_heads.append(ScoredBid(head_bid, float(head_scores[int(pos)])))
        positions = self.auction.selection.select(
            len(scored_heads), self.auction.k_winners, rng
        )

        # -- materialise the global winner set (pay-as-bid) ----------------
        winners: list[AuctionWinner] = []
        selected_cids: list[int] = []
        for pos in positions:
            cid = -(scored_heads[pos].node_id) - 1
            selected_cids.append(int(cid))
            for i in local_winners[int(cid)]:
                winners.append(
                    AuctionWinner(
                        node_id=int(pop.node_ids[i]),
                        quality=qualities[i].copy(),
                        asked_payment=float(payments[i]),
                        charged_payment=float(payments[i]),
                        score=float(scores[i]),
                        rank=len(winners),
                    )
                )
        outcome = AuctionOutcome(
            winners, scored_heads, self.auction.k_winners, self.auction.payment_rule
        )

        # -- accounting + the per-tier action record -----------------------
        n_bids = int(eligible.sum())
        accounting = RoundAccounting(
            n_asked=n,
            n_bids=n_bids,
            downlink_bytes=BID_ASK_BYTES_PER_NODE * n,
            uplink_bytes=FLOAT_BYTES * (m + 1) * n_bids,
            comparisons=int(
                sum(
                    np.ceil(t[1].size * np.log2(t[1].size)) if t[1].size > 1 else 0
                    for t in tasks
                )
                + (
                    np.ceil(len(scored_heads) * np.log2(len(scored_heads)))
                    if len(scored_heads) > 1
                    else 0
                )
            ),
        )
        sizes = pop.cluster_sizes
        action = PolicyAction(
            kind="cluster_round",
            round_index=round_index,
            payload={
                "clusters": int(pop.cluster_count),
                "bidding_clusters": len(head_cids),
                "selected": selected_cids,
                "k_local": self.k_local,
                "n_local_winners": len(winners),
                "head_payment": float(sum(w.charged_payment for w in winners)),
                "mean_cluster_size": float(sizes.mean()) if sizes.size else 0.0,
            },
        )
        record = MechanismRound(
            round_index, outcome, accounting, abstained=[], actions=[action]
        )
        self.history.append(record)
        return record


# ----------------------------------------------------------------------
# Games and populations
# ----------------------------------------------------------------------
def _paper_solver(grid_size=33):
    return build_solver(
        Scenario.from_preset(
            "smoke", "mnist_o", n_clients=50, k_winners=5, grid_size=grid_size
        )
    )


#: The paper's game (multiplicative score, linear cost: every type plays
#: the same box corner, so asks vary through the capacity caps) and an
#: additive-quadratic game whose qualities vary with the type.
GAMES = {
    "paper": _paper_solver(),
    "quadratic": EquilibriumSolver(
        AdditiveScore([0.5, 0.5]),
        QuadraticCost([1.0, 1.0]),
        PrivateValueModel(UniformTheta(0.1, 1.0), n_nodes=50, k_winners=5),
        [[0.0, 10.0], [0.0, 1.0]],
        grid_size=33,
    ),
}


def _population(
    solver,
    n,
    count,
    size_dist,
    seed,
    *,
    ties=False,
    theta_jitter=0.0,
    availability_min_fraction=0.5,
):
    """A seeded population; ``ties`` draws every attribute from two or
    three values, so members and whole clusters tie exactly."""
    rng = np.random.default_rng(seed)
    dist = solver.model.distribution
    cluster_ids = assign_clusters(n, count, size_dist, rng)
    if ties:
        thetas = rng.choice([dist.lo, 0.5 * (dist.lo + dist.hi), dist.hi], n)
        data_sizes = rng.choice([200.0, 600.0], n)
        cats = rng.choice([0.5, 1.0], n)
    else:
        thetas = rng.uniform(dist.lo, dist.hi, n)
        data_sizes = np.round(np.exp(rng.uniform(np.log(60), np.log(1200), n)))
        cats = rng.uniform(0.05, 1.0, n)
    return ShardedPopulation(
        node_ids=np.arange(n, dtype=np.int64),
        thetas=thetas,
        data_sizes=data_sizes,
        category_proportions=cats,
        cluster_ids=cluster_ids,
        cluster_count=count,
        availability_min_fraction=availability_min_fraction,
        theta_jitter=theta_jitter,
    )


def _mechanisms(solver, population, k_local, k_clusters, psi, executor=None):
    """The round under test and the oracle, over one auction."""
    selection = PsiSelection(0.7) if psi else TopKSelection()
    auction = MultiDimensionalProcurementAuction(
        solver.quality_rule, k_clusters, selection=selection
    )
    new = HierarchicalMechanism(auction, population, solver, k_local, executor)
    old = ParentRound(auction, population, solver, k_local)
    return new, old


def _assert_rounds_identical(new, old, seed, n_rounds=2):
    rng_new = np.random.default_rng(seed)
    rng_old = np.random.default_rng(seed)
    for r in range(n_rounds):
        got = new.run_round((), r, rng_new)
        want = old.run_round((), r, rng_old)
        # Readable failures first, then every byte.
        assert got.outcome.winner_ids == want.outcome.winner_ids
        assert [sb.node_id for sb in got.outcome.scored_bids] == [
            sb.node_id for sb in want.outcome.scored_bids
        ]
        assert got.accounting == want.accounting
        assert got.actions == want.actions
        assert pickle.dumps(got) == pickle.dumps(want)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


# ----------------------------------------------------------------------
# The loop-free round equals the previous one
# ----------------------------------------------------------------------
@given(
    game=st.sampled_from(sorted(GAMES)),
    n=st.integers(1, 400),
    count=st.integers(1, 40),
    size_dist=st.sampled_from(["uniform", "lognormal"]),
    k_local=st.integers(1, 12),
    k_clusters=st.integers(1, 6),
    psi=st.booleans(),
    ties=st.booleans(),
    jitter=st.booleans(),
    workers=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_round_bitwise_equals_the_previous_round(
    game, n, count, size_dist, k_local, k_clusters, psi, ties, jitter, workers, seed
):
    solver = GAMES[game]
    population = _population(
        solver,
        n,
        count,
        size_dist,
        seed,
        ties=ties,
        # Exact ties need every node to bid at full availability.
        theta_jitter=0.05 if jitter and not ties else 0.0,
        availability_min_fraction=1.0 if ties else 0.4,
    )
    executor = None if workers is None else SerialExecutor(max_workers=workers)
    new, old = _mechanisms(solver, population, k_local, k_clusters, psi, executor)
    _assert_rounds_identical(new, old, seed)


@pytest.mark.parametrize("k_local", [1, 2, 3, 9])
def test_round_bitwise_at_scale(k_local):
    """6,000 bidders in 300 lognormal clusters (4 empty, 101 below 9
    members), priced in 66 distinct cluster games."""
    solver = GAMES["paper"]
    population = _population(solver, 6000, 300, "lognormal", 7, theta_jitter=0.02)
    new, old = _mechanisms(solver, population, k_local, 8, psi=False)
    _assert_rounds_identical(new, old, 11, n_rounds=3)


# ----------------------------------------------------------------------
# One cluster with k_local = K plays the population game
# ----------------------------------------------------------------------
@given(
    n=st.integers(2, 500),
    k=st.integers(1, 6),
    jitter=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_one_cluster_round_is_the_flat_population_game(n, k, jitter, seed):
    k = min(k, n)
    scenario = Scenario.from_preset(
        "smoke", "mnist_o", n_clients=n, k_winners=k, grid_size=17
    )
    solver = build_solver(scenario)
    dist = solver.model.distribution
    spec = {
        "count": 1,
        "size_dist": "uniform",
        "theta_skew": 0.05,
        "capacity_skew": 0.2,
    }
    population = build_population(
        n,
        np.random.default_rng(seed).uniform(dist.lo, dist.hi, n),
        (60, 1200),
        spec,
        np.random.default_rng(seed + 1),
        np.random.default_rng(seed + 2),
        category_floor=0.05,
        availability_min_fraction=0.5,
        theta_jitter=0.05 if jitter else 0.0,
        theta_support=(dist.lo, dist.hi),
    )
    auction = MultiDimensionalProcurementAuction(solver.quality_rule, 1)
    mechanism = HierarchicalMechanism(auction, population, solver, k_local=k)
    priced = []
    bid_batch = solver.bid_batch

    def spy(*args, **kwargs):
        priced.append(bid_batch(*args, **kwargs))
        return priced[-1]

    solver.bid_batch = spy
    rng = np.random.default_rng(seed)
    replay = copy.deepcopy(rng)
    record = mechanism.run_round((), 0, rng)

    # The same draws, priced flat in the population game.
    fracs = replay.uniform(population.availability_min_fraction, 1.0, n)
    thetas = population.thetas
    if population.theta_jitter > 0.0:
        width = (dist.hi - dist.lo) * population.theta_jitter
        thetas = np.clip(thetas + replay.uniform(-width, width, n), dist.lo, dist.hi)
    member_tiebreak = replay.random(n)
    caps = np.column_stack(
        [
            np.floor(population.data_sizes * fracs)
            / population.samples_per_quality_unit,
            population.category_proportions,
        ]
    )
    qualities, payments = bid_batch(thetas, caps)
    assert len(priced) == 1
    # One cluster: its rows are the population in node order.
    assert priced[0][0].tobytes() == qualities.tobytes()
    assert priced[0][1].tobytes() == payments.tobytes()
    scores = auction.scoring.score_batch(qualities, payments)
    expected = descending_order(scores, member_tiebreak)[:k]
    assert record.outcome.winner_ids == expected.tolist()
    assert [w.asked_payment for w in record.outcome.winners] == payments[
        expected
    ].tolist()


# ----------------------------------------------------------------------
# The tie rule: higher score, then the smaller key, then the lower index
# ----------------------------------------------------------------------
def test_exact_ties_go_to_the_smallest_keys():
    """Two clusters of four identical nodes: every member ties exactly,
    and so do the two heads."""
    solver = GAMES["paper"]
    dist = solver.model.distribution
    n = 8
    population = ShardedPopulation(
        node_ids=np.arange(n, dtype=np.int64),
        thetas=np.full(n, 0.5 * (dist.lo + dist.hi)),
        data_sizes=np.full(n, 500.0),
        category_proportions=np.full(n, 0.5),
        cluster_ids=np.array([0, 1, 0, 1, 0, 1, 0, 1]),
        cluster_count=2,
        availability_min_fraction=1.0,
        theta_jitter=0.0,
    )
    k_local = 2
    for mechanism in _mechanisms(solver, population, k_local, 1, psi=False):
        rng = np.random.default_rng(2024)
        replay = copy.deepcopy(rng)
        record = mechanism.run_round((), 0, rng)
        replay.uniform(1.0, 1.0, n)  # the availability draw
        member_keys = replay.random(n)
        head_keys = replay.random(2)

        heads = record.outcome.scored_bids
        assert heads[0].score == heads[1].score
        assert heads[0].bid.payment == heads[1].bid.payment
        winner = int(np.argmin(head_keys))
        assert [-sb.node_id - 1 for sb in heads] == [winner, 1 - winner]
        members = np.flatnonzero(population.cluster_ids == winner)
        expected = members[np.argsort(member_keys[members])][:k_local]
        assert record.outcome.winner_ids == expected.tolist()
        assert len({w.score for w in record.outcome.winners}) == 1


def test_equal_keys_go_to_the_lower_index():
    scores = np.array([1.0, 2.0, 2.0, 2.0, 0.0, 5.0, 5.0])
    keys = np.array([0.3, 0.7, 0.2, 0.2, 0.1, 0.4, 0.4])
    assert descending_order(scores, keys).tolist() == [5, 6, 2, 3, 1, 0, 4]
    top = segmented_top_k(scores, keys, [0, 5], 3)
    assert top.tolist() == [[2, 3, 1], [5, 6, -1]]


# ----------------------------------------------------------------------
# segmented_top_k: each segment's head of descending_order
# ----------------------------------------------------------------------
@given(
    lengths=st.lists(st.integers(1, 30), min_size=1, max_size=12),
    k=st.integers(1, 35),
    levels=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_segmented_top_k_is_each_segments_head(lengths, k, levels, seed):
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    # Few score levels force ties inside and across segments.
    scores = rng.integers(0, levels, n).astype(float)
    keys = rng.random(n)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    out = segmented_top_k(scores, keys, starts, k)
    assert out.shape == (len(lengths), min(k, max(lengths)))
    for s, (start, length) in enumerate(zip(starts, lengths)):
        stop = start + length
        head = start + descending_order(scores[start:stop], keys[start:stop])[:k]
        row = out[s]
        assert row[row >= 0].tolist() == head.tolist()
        assert np.all(row[len(head) :] == -1)


def test_segmented_top_k_rejects_empty_segments():
    with pytest.raises(ValueError, match="non-empty"):
        segmented_top_k(np.zeros(4), np.zeros(4), [0, 2, 2], 1)
    assert segmented_top_k(np.zeros(0), np.zeros(0), [], 3).shape == (0, 0)


# ----------------------------------------------------------------------
# bid_batch row ranges and the clone memo
# ----------------------------------------------------------------------
@pytest.mark.parametrize("game", sorted(GAMES))
@pytest.mark.parametrize("capped", [False, True])
def test_ranges_equal_each_clones_own_bid_batch(game, capped):
    solver = GAMES[game]
    dist = solver.model.distribution
    rng = np.random.default_rng(4)
    n = 300
    thetas = rng.uniform(dist.lo, dist.hi, n)
    caps = rng.uniform(0.05, 1.5, (n, 2)) if capped else None
    clones = [solver.with_population(7, 2), solver, solver.with_population(40, 9)]
    stops = [80, 81, n]
    q, p, c = solver.bid_batch(
        thetas, caps, with_costs=True, ranges=list(zip(stops, clones))
    )
    start = 0
    for stop, clone in zip(stops, clones):
        part = clone.bid_batch(
            thetas[start:stop],
            None if caps is None else caps[start:stop],
            with_costs=True,
        )
        for got, want in zip((q, p, c), part):
            assert got[start:stop].tobytes() == want.tobytes()
        start = stop
    # No ranges is the one range priced by the solver itself.
    flat = solver.bid_batch(thetas, caps)
    one = solver.bid_batch(thetas, caps, ranges=[(n, solver)])
    assert flat[1].tobytes() == one[1].tobytes()


def test_ranges_are_validated():
    solver = GAMES["paper"]
    thetas = np.full(10, solver.model.distribution.lo)
    stranger = _paper_solver()
    with pytest.raises(ValueError, match="clone"):
        solver.bid_batch(thetas, ranges=[(10, stranger)])
    with pytest.raises(ValueError, match="cover 6 of 10"):
        solver.bid_batch(thetas, ranges=[(6, solver)])
    with pytest.raises(ValueError, match="row order"):
        solver.bid_batch(thetas, ranges=[(6, solver), (4, solver), (10, solver)])


def test_clones_are_shared_by_every_session_of_a_game():
    solver = _paper_solver(grid_size=17)
    assert solver.clone_for(12, 3) is solver.clone_for(12, 3)
    assert solver.clone_for(12, 3) is not solver.clone_for(12, 2)
    population = _population(solver, 500, 30, "lognormal", 1)
    first, _ = _mechanisms(solver, population, 2, 4, psi=False)
    second, _ = _mechanisms(solver, population, 2, 4, psi=False)
    first.run_round((), 0, np.random.default_rng(0))
    built = dict(solver._clones)
    second.run_round((), 0, np.random.default_rng(0))
    assert solver._clones == built
    assert [c for _, c in second._size_ranges()] == [
        c for _, c in first._size_ranges()
    ]
