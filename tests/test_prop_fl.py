"""Property-based tests for FL substrate invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.psi import PsiSelection, negative_binomial_fill_probability
from repro.fl.client import LocalUpdate
from repro.fl.server import federated_average


@st.composite
def weight_updates(draw):
    n_updates = draw(st.integers(1, 5))
    shapes = [(3,), (2, 2)]
    updates = []
    for i in range(n_updates):
        ws = [
            np.asarray(
                draw(
                    st.lists(
                        st.floats(-10, 10, allow_nan=False),
                        min_size=int(np.prod(s)),
                        max_size=int(np.prod(s)),
                    )
                )
            ).reshape(s)
            for s in shapes
        ]
        updates.append(LocalUpdate(i, ws, draw(st.integers(0, 100)), 0.0))
    return updates


@given(updates=weight_updates())
@settings(max_examples=50, deadline=None)
def test_fedavg_within_convex_hull(updates):
    """Eq. 3: every averaged coordinate lies inside [min, max] of inputs."""
    avg = federated_average(updates)
    for j, a in enumerate(avg):
        stack = np.stack([u.weights[j] for u in updates])
        assert np.all(a >= stack.min(axis=0) - 1e-9)
        assert np.all(a <= stack.max(axis=0) + 1e-9)


@given(updates=weight_updates(), scale=st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_fedavg_homogeneous(updates, scale):
    """Scaling all inputs scales the average (linearity of Eq. 3)."""
    avg = federated_average(updates)
    scaled = [
        LocalUpdate(u.client_id, [w * scale for w in u.weights], u.n_samples, 0.0)
        for u in updates
    ]
    avg_scaled = federated_average(scaled)
    for a, b in zip(avg, avg_scaled):
        np.testing.assert_allclose(b, a * scale, atol=1e-9)


@given(n=st.integers(1, 30), weight=st.integers(1, 50))
@settings(max_examples=30, deadline=None)
def test_fedavg_identical_updates_fixed_point(n, weight):
    w = [np.arange(4.0).reshape(2, 2)]
    updates = [LocalUpdate(i, [x.copy() for x in w], weight, 0.0) for i in range(n)]
    avg = federated_average(updates)
    np.testing.assert_allclose(avg[0], w[0])


@given(
    psi=st.floats(0.05, 1.0),
    n=st.integers(2, 40),
    k=st.integers(1, 10),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_psi_selection_valid_positions(psi, n, k, seed):
    k = min(k, n)
    chosen = PsiSelection(psi).select(n, k, np.random.default_rng(seed))
    assert len(chosen) == k
    assert all(0 <= pos < n for pos in chosen)
    assert len(set(chosen)) == k


@given(psi=st.floats(0.05, 1.0), n=st.integers(2, 25), k=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_fill_probability_in_unit_interval(psi, n, k):
    k = min(k, n)
    p = negative_binomial_fill_probability(psi, n, k)
    assert 0.0 <= p <= 1.0
