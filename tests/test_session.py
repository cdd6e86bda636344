"""Streaming session API: event structure + session-vs-batch equivalence.

The contract under test: ``engine.session(scenario, scheme, seed)`` yields
one :class:`~repro.api.RoundEvent` per protocol round, and replaying the
stream reconstructs the *exact* :class:`~repro.fl.trainer.TrainingHistory`
that the batch surface (``engine.run`` / ``run_scheme``) produces — under
the serial and the process executor alike.  The paper-default simulation
game and the Section V-C cluster testbed are both pinned (shrunk to test
size; the presets' component mix and seed streams are unchanged).
"""

from __future__ import annotations

import pytest

from repro.api import (
    FMoreEngine,
    RoundEvent,
    Scenario,
    build_federation,
    run_scheme,
)
from repro.fl.trainer import TrainingHistory


def _paper_default_scenario(**overrides):
    """The paper preset's component mix at test scale."""
    return Scenario.from_preset(
        "paper",
        "mnist_o",
        schemes=("FMore", "RandFL"),
        seeds=(0,),
        n_clients=10,
        k_winners=3,
        n_rounds=3,
        test_per_class=10,
        size_range=(60, 300),
        grid_size=33,
        model_width=0.12,
        image_size=14,
        batch_size=16,
        **overrides,
    )


def _cluster_scenario(**overrides):
    return Scenario.from_preset(
        "cluster_cifar10",
        seeds=(0,),
        n_clients=8,
        k_winners=3,
        n_rounds=2,
        test_per_class=8,
        size_range=(60, 240),
        model_width=0.15,
        grid_size=17,
        **overrides,
    )


def _replay_histories(scenario) -> dict[str, list[TrainingHistory]]:
    """Drive every cell through the streaming surface, event by event.

    Mirrors the serial engine loop's sharing contract: one federation per
    seed, shared across that seed's schemes.
    """
    engine = FMoreEngine()
    histories: dict[str, list[TrainingHistory]] = {s: [] for s in scenario.schemes}
    for seed in scenario.seeds:
        federation = build_federation(scenario, seed)
        for scheme in scenario.schemes:
            session = engine.session(scenario, scheme, seed, federation=federation)
            events = list(session)
            assert len(events) == scenario.n_rounds
            for i, event in enumerate(events):
                assert isinstance(event, RoundEvent)
                assert event.round_index == i + 1
                assert event.scheme == scheme and event.seed == seed
            replayed = TrainingHistory(
                scheme=session.history.scheme,
                records=[e.record for e in events],
            )
            assert replayed == session.history
            histories[scheme].append(replayed)
    return histories


@pytest.fixture(scope="module")
def paper_replay():
    """Event-by-event replay of the paper-default plan (executor-free)."""
    return _replay_histories(_paper_default_scenario())


@pytest.fixture(scope="module")
def cluster_replay():
    return _replay_histories(_cluster_scenario())


class TestSessionEquivalence:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_paper_default_stream_matches_batch(self, executor, paper_replay):
        scenario = _paper_default_scenario(
            execution={"executor": executor, "max_workers": 2}
        )
        batch = FMoreEngine().run(scenario)
        assert paper_replay == batch.histories

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_cluster_cifar10_stream_matches_batch(self, executor, cluster_replay):
        scenario = _cluster_scenario(
            execution={"executor": executor, "max_workers": 2}
        )
        batch = FMoreEngine().run(scenario)
        assert cluster_replay == batch.histories

    def test_run_scheme_is_a_drained_session(self, paper_replay):
        direct = run_scheme(_paper_default_scenario(), "FMore", 0)
        assert [direct] == paper_replay["FMore"]


class TestSessionSurface:
    def test_early_stop_yields_valid_prefix(self):
        scenario = _paper_default_scenario()
        engine = FMoreEngine()
        full = engine.session(scenario, "FMore", 0).run()
        session = engine.session(scenario, "FMore", 0)
        events = [next(session), next(session)]
        assert session.rounds_run == 2
        assert session.rounds_remaining == scenario.n_rounds - 2
        assert session.history.records == full.records[:2]
        assert events[0].record == full.records[0]

    def test_exhausted_session_stops(self):
        scenario = _paper_default_scenario()
        session = FMoreEngine().session(scenario, "RandFL", 0)
        session.run()
        with pytest.raises(StopIteration):
            next(session)
        # Draining again is a no-op on a complete history.
        assert len(session.run().records) == scenario.n_rounds

    def test_events_surface_auction_metadata(self):
        scenario = _paper_default_scenario()
        session = FMoreEngine().session(scenario, "FMore", 0)
        event = next(session)
        assert event.n_bids > 0
        assert event.winner_ids == event.record.winner_ids
        assert event.payments and set(event.payments) == set(event.winner_ids)
        assert event.total_payment == pytest.approx(sum(event.payments.values()))
        assert event.actions == []  # default pipeline files no actions

    def test_checkpointable_weights_between_events(self):
        scenario = _paper_default_scenario()
        session = FMoreEngine().session(scenario, "FMore", 0)
        next(session)
        snapshot = session.trainer.server.model.get_weights()
        assert snapshot and all(w is not None for w in snapshot)
