"""Shared fixtures: small, fast auction environments and datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AdditiveScore,
    EquilibriumSolver,
    LinearCost,
    MultiplicativeScore,
    PrivateValueModel,
    QuadraticCost,
    UniformTheta,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def additive_quadratic_solver() -> EquilibriumSolver:
    """Additive score + quadratic cost: interior optima, closed-form qs."""
    rule = AdditiveScore([0.5, 0.5])
    cost = QuadraticCost([1.0, 1.0])
    model = PrivateValueModel(UniformTheta(0.1, 1.0), n_nodes=10, k_winners=3)
    return EquilibriumSolver(rule, cost, model, [[0.0, 10.0], [0.0, 1.0]], grid_size=129)


@pytest.fixture(scope="session")
def single_winner_solver() -> EquilibriumSolver:
    """K=1 environment where Che's Theorem 2 closed form applies exactly."""
    rule = AdditiveScore([0.5, 0.5])
    cost = QuadraticCost([1.0, 1.0])
    model = PrivateValueModel(UniformTheta(0.1, 1.0), n_nodes=8, k_winners=1)
    return EquilibriumSolver(rule, cost, model, [[0.0, 10.0], [0.0, 1.0]], grid_size=257)


@pytest.fixture(scope="session")
def multiplicative_solver() -> EquilibriumSolver:
    """The simulator's environment: s = 25*q1*q2, linear cost."""
    rule = MultiplicativeScore(n_dimensions=2, scale=25.0)
    cost = LinearCost([4.0, 2.0])
    model = PrivateValueModel(UniformTheta(0.1, 1.0), n_nodes=30, k_winners=6)
    return EquilibriumSolver(rule, cost, model, [[0.01, 5.0], [0.05, 1.0]], grid_size=129)
