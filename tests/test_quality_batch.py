"""Tests for the vectorised strategy-grid build (optimize_quality_batch).

The executor refactor made the grid build one NumPy pass; these tests pin
the contract that made that safe — bitwise equality with the per-point
optimiser on every cost family, for drawn types and quality boxes — plus
the ``with_population`` clone and ``bid_batch`` edge cases the engine's
solver cache leans on.  The preset games' tables are pinned by digest,
and their builds must not reach the numerical optimiser at all.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

from repro.api import Scenario
from repro.api.engine import build_solver
from repro.api.scenario import PRESET_NAMES
from repro.core.costs import LinearCost, PowerCost, QuadraticCost
from repro.core.equilibrium import (
    EquilibriumSolver,
    optimize_quality,
    optimize_quality_batch,
    win_kernel,
)
from repro.core.scoring import AdditiveScore, MultiplicativeScore
from repro.core.valuation import PrivateValueModel, UniformTheta
from repro.fl.datasets import DATASET_NAMES

BOUNDS = np.asarray([[0.01, 5.0], [0.05, 1.0]], dtype=float)
THETAS = np.linspace(0.1, 1.0, 257)


def _families():
    return [
        ("additive-linear", AdditiveScore([0.6, 0.4]), LinearCost([4.0, 2.0])),
        ("additive-quadratic", AdditiveScore([0.6, 0.4]), QuadraticCost([4.0, 2.0])),
        ("additive-power", AdditiveScore([0.6, 0.4]), PowerCost([4.0, 2.0], [1.0, 2.5])),
        ("additive-power-uniform", AdditiveScore([0.6, 0.4]), PowerCost([4.0, 2.0], 1.7)),
        # Multilinear: the corner search, shared with the per-point path.
        ("multiplicative-linear", MultiplicativeScore(2, 25.0), LinearCost([4.0, 2.0])),
    ]


@st.composite
def boxes(draw):
    """A 2-D quality box: each row's lower edge at 0 or anywhere in
    [0, 5], its width from a single point to a wide interval."""
    rows = []
    for _ in range(2):
        lo = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
        rows.append([lo, lo + draw(st.sampled_from([0.0, 0.01, 0.5, 1.0, 4.0]))])
    return np.asarray(rows)


class TestBatchEqualsLoop:
    @pytest.mark.parametrize("name,rule,cost", _families(), ids=[f[0] for f in _families()])
    @given(
        thetas=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=40).map(np.asarray),
        bounds=boxes(),
    )
    @example(thetas=THETAS, bounds=BOUNDS)
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_per_point(self, name, rule, cost, thetas, bounds):
        batch = optimize_quality_batch(rule, cost, thetas, bounds)
        loop = np.stack(
            [optimize_quality(rule, cost, float(t), bounds) for t in thetas]
        )
        assert batch.shape == (thetas.size, 2)
        assert batch.tobytes() == loop.tobytes(), f"{name}: batch differs from per-point loop"

    def test_empty_thetas(self):
        out = optimize_quality_batch(
            AdditiveScore([0.5, 0.5]), LinearCost([1.0, 1.0]), [], BOUNDS
        )
        assert out.shape == (0, 2)

    def test_rejects_bad_bounds(self):
        rule, cost = AdditiveScore([0.5, 0.5]), LinearCost([1.0, 1.0])
        with pytest.raises(ValueError, match="bounds"):
            optimize_quality_batch(rule, cost, [0.5], [[0.0, 1.0]])
        with pytest.raises(ValueError, match="lo <= hi"):
            optimize_quality_batch(rule, cost, [0.5], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="1-D"):
            optimize_quality_batch(rule, cost, [[0.5]], BOUNDS)

    def test_solver_grid_matches_per_point_build(self):
        """_build_tables now uses the batch path; the tables must be the
        exact grids the per-point loop produced."""
        solver = EquilibriumSolver(
            AdditiveScore([0.4, 0.3]),
            QuadraticCost([0.25, 0.5]),
            PrivateValueModel(UniformTheta(0.1, 1.0), 20, 5),
            [[0.0, 1.0], [0.0, 1.0]],
            grid_size=129,
        )
        expected = np.stack(
            [
                optimize_quality(
                    solver.quality_rule, solver.cost, float(t), solver.quality_bounds
                )
                for t in solver.theta_grid
            ]
        )
        assert (solver.quality_grid == expected).all()


def _table_sha256(solver: EquilibriumSolver) -> str:
    digest = hashlib.sha256()
    for table in (
        solver.quality_grid,
        solver.u0_grid,
        solver.g_grid,
        solver._margin_grid(),
    ):
        digest.update(np.ascontiguousarray(table, dtype=np.float64).tobytes())
    return digest.hexdigest()


#: Every preset game: the scale presets' bounds and (N, K), the service
#: benchmark's data-size range, and the cluster testbed.
_PRESET_GAMES = {
    "smoke": Scenario.from_preset("smoke"),
    "bench": Scenario.from_preset("bench"),
    "paper": Scenario.from_preset("paper"),
    "service": Scenario.from_preset("bench", "hpnews", size_range=(400, 800)),
    "cluster": Scenario.from_preset("cluster_cifar10"),
}

#: SHA-256 of (quality, u0, g, margin) tables as the multi-start optimiser
#: built them, before the multilinear games moved to the corner search.
_TABLE_SHA256 = {
    "smoke-65": "539997b60c552dacb231e1c30898213008f47b494db7d1b233cd0ff74eb355d0",
    "smoke-129": "8fd90741cb5ef42b1928cfdf2ccc1c63c84825527ea5e1f3a71f58a7aa667b18",
    "smoke-257": "5d78d5d56a4362963075b96cd561eb2fd1bb2e64dad9b03d293b0736d397f88a",
    "bench-65": "e3eff1d6d2554cc8252d8adbe1bdf27137d52580223bf35b0b7d8d1584509f41",
    "bench-129": "200bdcd51939db43422d38ccf014046bc510880b63c55ea5a505f363f1a2d0ad",
    "bench-257": "b637a3dd3194e733a6d6200a87c5c1086c0de958af2cd985d6d4e39f0371a850",
    "paper-65": "071c73d58457dc5d98220ba348d2251ec5ba2f031af1cb2813916fad5542eba5",
    "paper-129": "91f75742bc467174b31d87f15b31e6e86bdd066020d7ed4042f3a8e8ebfa59e1",
    "paper-257": "218135650ba6db69837e006f409deedbf1853d255c1910742f41cba46bd3b402",
    "service-65": "2fc1239b1ad53811441f26da198bf4c8f01ecd743cc88b6472af11793dafc7dd",
    "service-129": "daa95763c89c6aa971e95c3ad77c305e20001194f3d0e971a691c198584a1b01",
    "service-257": "340c999a3efa792f231194adcd248ebbd5493639d11bb466468d59068fc3a302",
    "cluster-65": "497a42b1b40ef8cc2aaac353ce014cf750280404cb479e6fee3dc75a5cffdb6d",
    "cluster-129": "0c24aa28717ecc53fa94931ae754d185e7c463d229e0d4fa919ec3548cee7c87",
    "cluster-257": "4443e246be04def8a417146ac8f4c03d90f4779963966dace3e915ae624104db",
}


def _hier_1e5() -> Scenario:
    """The two-tier game of the N=10^5 hierarchical benchmark workload."""
    return Scenario.from_preset("bench", "mnist_o", schemes=("FMore",)).with_(
        name="bench-hier-1e5",
        variant="hierarchical",
        n_clients=100_000,
        k_winners=8,
        clusters={"count": 1000, "k_clusters": 8, "k_local": 1, "fl_pool": 16},
    )


class TestPresetTables:
    @pytest.mark.parametrize("key", sorted(_TABLE_SHA256))
    def test_tables_bitwise_pinned(self, key):
        game, grid = key.rsplit("-", 1)
        scenario = _PRESET_GAMES[game].with_(grid_size=int(grid))
        assert _table_sha256(build_solver(scenario)) == _TABLE_SHA256[key]

    def test_preset_builds_never_run_the_optimiser(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("optimize.minimize called in a preset build")

        monkeypatch.setattr(optimize, "minimize", refuse)
        scenarios = [_hier_1e5()]
        for preset in PRESET_NAMES:
            if preset == "cluster_cifar10":
                scenarios.append(Scenario.from_preset(preset))
            else:
                scenarios.extend(
                    Scenario.from_preset(preset, ds) for ds in DATASET_NAMES
                )
        for scenario in scenarios:
            assert build_solver(scenario).quality_grid.shape[0] == scenario.grid_size


@pytest.fixture(scope="module")
def solver():
    return EquilibriumSolver(
        MultiplicativeScore(2, 25.0),
        LinearCost([4.0, 2.0]),
        PrivateValueModel(UniformTheta(0.1, 1.0), 30, 6),
        BOUNDS,
        grid_size=65,
    )


class TestWithPopulationClones:
    def test_quality_tables_shared_not_copied(self, solver):
        clone = solver.with_population(n_nodes=50, k_winners=10)
        assert clone.theta_grid is solver.theta_grid
        assert clone.quality_grid is solver.quality_grid
        assert clone.u0_grid is solver.u0_grid
        assert clone.u_incr is solver.u_incr
        assert clone.h_grid is solver.h_grid
        assert clone.model.n_nodes == 50
        assert clone.model.k_winners == 10

    def test_winning_kernel_refreshed(self, solver):
        clone = solver.with_population(k_winners=solver.model.k_winners + 5)
        expected = win_kernel(
            clone.h_grid,
            clone.model.n_nodes,
            clone.model.k_winners,
            clone.win_model,
        )
        assert (clone.g_grid == expected).all()
        assert not np.array_equal(clone.g_grid, solver.g_grid)

    def test_margin_cache_isolated(self, solver):
        # Populate the original's cache, then clone: the clone must start
        # empty and filling it must not leak entries back.
        solver.margin(0.5)
        assert solver._margin_cache
        before = dict(solver._margin_cache)
        clone = solver.with_population(n_nodes=60)
        assert clone._margin_cache == {}
        clone.margin(0.5)
        assert clone._margin_cache
        key = next(iter(clone._margin_cache))
        assert solver._margin_cache.keys() == before.keys()
        assert solver._margin_cache[key] is not clone._margin_cache[key]

    def test_clone_payments_differ_with_population(self, solver):
        """More competition lowers the equilibrium payment (Theorem 2)."""
        crowded = solver.with_population(n_nodes=300)
        assert crowded.payment(0.3) < solver.payment(0.3)

    def test_default_clone_matches_original(self, solver):
        clone = solver.with_population()
        assert (clone.g_grid == solver.g_grid).all()
        assert clone.payment(0.4) == solver.payment(0.4)


class TestBidBatchEdges:
    def test_empty_thetas_uncapped(self, solver):
        qualities, payments = solver.bid_batch(np.empty(0))
        assert qualities.shape == (0, 2)
        assert payments.shape == (0,)

    def test_empty_thetas_with_costs_and_caps(self, solver):
        qualities, payments, costs = solver.bid_batch(
            np.empty(0), capacities=np.empty((0, 2)), with_costs=True
        )
        assert qualities.shape == (0, 2)
        assert payments.shape == (0,)
        assert costs.shape == (0,)

    def test_empty_thetas_skip_support_check(self, solver):
        # An empty vector has no min/max; it must not trip the support
        # validation that guards non-empty inputs.
        qualities, payments = solver.bid_batch([])
        assert payments.size == 0
