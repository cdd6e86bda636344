"""Property-based tests for the equilibrium strategy (Thms 1-3, 5; IR)."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.costs import LinearCost, QuadraticCost
from repro.core.equilibrium import (
    EquilibriumSolver,
    _best_corner,
    _column_fills,
    _multi_start_quality,
    optimize_quality_batch,
    win_kernel,
)
from repro.core.scoring import AdditiveScore, MultiplicativeScore
from repro.core.valuation import PrivateValueModel, UniformTheta

thetas = st.floats(min_value=0.1, max_value=1.0, allow_nan=False)


@given(theta=thetas)
@settings(max_examples=40, deadline=None)
def test_payment_covers_cost_everywhere(additive_quadratic_solver, theta):
    """IR: the equilibrium payment is never below the node's cost (Eq. 5)."""
    s = additive_quadratic_solver
    q = s.optimal_quality(theta)
    assert s.payment(theta) >= s.cost.cost(q, theta) - 1e-9


@given(theta=thetas)
@settings(max_examples=40, deadline=None)
def test_expected_profit_nonnegative(additive_quadratic_solver, theta):
    assert additive_quadratic_solver.expected_profit(theta) >= -1e-12


@given(t1=thetas, t2=thetas)
@settings(max_examples=40, deadline=None)
def test_max_score_monotone(additive_quadratic_solver, t1, t2):
    """u0(theta) decreasing: cheaper types can always offer better deals."""
    s = additive_quadratic_solver
    lo, hi = min(t1, t2), max(t1, t2)
    assert s.max_score(lo) >= s.max_score(hi) - 1e-9


@given(t1=thetas, t2=thetas)
@settings(max_examples=40, deadline=None)
def test_margin_monotone(additive_quadratic_solver, t1, t2):
    s = additive_quadratic_solver
    lo, hi = min(t1, t2), max(t1, t2)
    assert s.margin(lo) >= s.margin(hi) - 1e-9


@given(theta=thetas, shrink=st.floats(0.01, 0.99))
@settings(max_examples=40, deadline=None)
def test_incentive_compatibility_quality_understatement(
    additive_quadratic_solver, theta, shrink
):
    """Theorem 5: declaring q_hat < q* (same p) can only lower the score."""
    s = additive_quadratic_solver
    q_star, p_star = s.bid(theta)
    q_hat = q_star * shrink
    truthful = s.quality_rule.value(q_star) - p_star
    deviant = s.quality_rule.value(q_hat) - p_star
    assert deviant <= truthful + 1e-9


@given(
    h=st.floats(0.0, 1.0),
    n=st.integers(2, 40),
    k_small=st.integers(1, 10),
    extra=st.integers(1, 10),
)
@settings(max_examples=80, deadline=None)
def test_exact_win_kernel_monotone_in_k(h, n, k_small, extra):
    """More winners can only help: g_exact increasing in K."""
    k1 = min(k_small, n)
    k2 = min(k_small + extra, n)
    g1 = win_kernel(h, n, k1, "exact")
    g2 = win_kernel(h, n, k2, "exact")
    assert g2 >= g1 - 1e-12


@given(h=st.floats(0.0, 1.0), n1=st.integers(2, 20), extra=st.integers(1, 20))
@settings(max_examples=80, deadline=None)
def test_exact_win_kernel_decreasing_in_n(h, n1, extra):
    """More competitors can only hurt, at fixed K."""
    k = 1
    g1 = win_kernel(h, n1, k, "exact")
    g2 = win_kernel(h, n1 + extra, k, "exact")
    assert g2 <= g1 + 1e-12


# Gauss-Legendre nodes on [0, 1]: exact for the kernels, which are
# polynomials in H of degree N - 1 < 128.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_H = 0.5 * (_GL_NODES + 1.0)


@given(n=st.integers(1, 60), k_fraction=st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_win_kernel_expected_winner_count(n, k_fraction):
    """What Eq. 9 is: ``N * integral_0^1 W(H) dH`` is the expected number of
    winners among N i.i.d. bidders.  The order-statistic kernel gives K;
    the paper's gives ``sum_{i=1..K} 1/C(N-1, i-1)`` — K only when K = 1
    or N <= 2, about ``1 + 1/(N-1)`` otherwise."""
    from scipy.special import comb

    k = 1 + int(k_fraction * (n - 1))

    def winners(model):
        return n * 0.5 * float(_GL_WEIGHTS @ win_kernel(_GL_H, n, k, model))

    paper = sum(1.0 / comb(n - 1, i - 1, exact=True) for i in range(1, k + 1))
    assert winners("exact") == pytest.approx(k, rel=1e-9)
    assert winners("paper") == pytest.approx(paper, rel=1e-9)


@given(
    h=st.floats(0.0, 1.0),
    n=st.integers(1, 120),
    k_fraction=st.floats(0.0, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_exact_win_kernel_matches_scipy_binomials(h, n, k_fraction):
    """``math.comb`` gives the exact kernel the same integer coefficients
    that ``scipy.special.comb(..., exact=True)`` did, so its value is the
    same float."""
    from scipy.special import comb

    k = 1 + int(k_fraction * (n - 1))
    h_arr = np.asarray([h])
    reference = np.zeros(1)
    for i in range(k):
        reference += comb(n - 1, i, exact=True) * (1.0 - h_arr) ** i * h_arr ** (
            n - 1 - i
        )
    assert win_kernel(h_arr, n, k, "exact").tobytes() == reference.tobytes()


@given(
    h=st.floats(0.0, 1.0),
    n=st.integers(1, 60),
    k_fraction=st.floats(0.0, 1.0),
    model=st.sampled_from(["paper", "exact"]),
)
@settings(max_examples=120, deadline=None)
def test_win_kernel_is_bounded(h, n, k_fraction, model):
    """Both kernels stay in [0, 1] for every K (Eq. 9 included)."""
    k = 1 + int(k_fraction * (n - 1))
    w = win_kernel(h, n, k, model)
    assert -1e-12 <= w <= 1.0 + 1e-12


@given(
    lo=st.floats(0.05, 0.5),
    width=st.floats(0.1, 2.0),
    n=st.integers(3, 15),
)
@settings(max_examples=10, deadline=None)
def test_worst_type_zero_margin_across_environments(lo, width, n):
    """The highest-cost type always earns zero margin, whatever F's support."""
    hi = lo + width
    rule = AdditiveScore([1.0])
    cost = QuadraticCost([1.0])
    model = PrivateValueModel(UniformTheta(lo, hi), n_nodes=n, k_winners=min(2, n))
    solver = EquilibriumSolver(rule, cost, model, [[0.0, 50.0]], grid_size=65)
    assert solver.margin(hi) == pytest.approx(0.0, abs=1e-6)


@st.composite
def multilinear_games(draw):
    """``scale * prod(q) - theta * betas . q`` on a box, with a theta grid.

    Betas may be zero and a bound row may be a single point (lo == hi);
    theta grids range from a narrow band to a wide one.
    """
    m = draw(st.integers(1, 3))
    scale = draw(st.floats(0.5, 50.0))
    betas = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 7.3]), min_size=m, max_size=m
        )
    )
    bounds = []
    for _ in range(m):
        lo = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
        width = draw(st.sampled_from([0.0, 0.01, 0.5, 1.0, 4.0]))
        bounds.append([lo, lo + width])
    theta_lo = draw(st.floats(0.01, 3.0))
    theta_width = draw(st.sampled_from([0.0, 0.1, 0.9, 5.0]))
    thetas = np.linspace(theta_lo, theta_lo + theta_width, 17)
    return MultiplicativeScore(m, scale), LinearCost(betas), np.asarray(bounds), thetas


@given(game=multilinear_games())
@example(
    # Corners (0, 0) and (1, 0) tie at the maximum 0 for every theta here;
    # the first one in corner order wins.
    game=(
        MultiplicativeScore(2, 1.0),
        LinearCost([0.0, 4.0]),
        np.asarray([[0.0, 1.0], [0.0, 1.0]]),
        np.linspace(0.5, 1.0, 17),
    )
)
@settings(max_examples=60, deadline=None)
def test_vertex_table_is_the_best_corner_and_matches_multi_start(game):
    """The multilinear batch path is exact: each row is, byte for byte,
    the per-point corner search at its theta (ties included), and its
    objective is no more than 1e-14 (relative to the size of the
    objective's terms) below the multi-start optimiser's, whose L-BFGS-B
    starts can land a rounding step off the corner."""
    rule, cost, bounds, thetas = game
    table = optimize_quality_batch(rule, cost, thetas, bounds)
    for theta, q in zip(thetas, table):
        theta = float(theta)
        assert q.tobytes() == _best_corner(rule, cost, theta, bounds).tobytes()
        ref = _multi_start_quality(rule, cost, theta, bounds)
        s_ref, c_ref = rule.value(ref), cost.cost(ref, theta)
        gap = (s_ref - c_ref) - (rule.value(q) - cost.cost(q, theta))
        assert gap <= 1e-14 * (abs(s_ref) + abs(c_ref))


# ----------------------------------------------------------------------
# bid_batch fills a quality column that holds one value
# ----------------------------------------------------------------------
_FILL_SOLVER = EquilibriumSolver(
    MultiplicativeScore(2, 25.0),
    LinearCost([4.0, 2.0]),
    PrivateValueModel(UniformTheta(0.1, 1.0), n_nodes=10, k_winners=3),
    [[0.01, 5.0], [0.05, 1.0]],
    grid_size=17,
)
_GRID = _FILL_SOLVER.theta_grid


@st.composite
def quality_columns(draw):
    """One table column: constant (``+-0.0`` included), signed zeros, or
    varying; returns the column and whether it must be filled."""
    kind = draw(st.sampled_from(["constant", "zeros", "varying"]))
    if kind == "constant":
        v = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0)))
        return np.full(_GRID.size, v), not (v == 0.0 and np.signbit(v))
    if kind == "zeros":
        signs = draw(st.lists(st.booleans(), min_size=_GRID.size, max_size=_GRID.size))
        column = np.where(signs, -0.0, 0.0)
        return column, not np.signbit(column).any()
    values = draw(
        st.lists(
            st.floats(-10.0, 10.0), min_size=_GRID.size, max_size=_GRID.size
        ).filter(lambda v: len(set(v)) > 1)
    )
    return np.asarray(values), False


#: Grid points, the support edges and 1e-9 beyond them, and points between.
_fill_thetas = st.lists(
    st.one_of(
        st.sampled_from(list(_GRID)),
        st.sampled_from([0.1 - 1e-9, 0.1, 1.0, 1.0 + 1e-9]),
        st.floats(0.1, 1.0),
    ),
    min_size=1,
    max_size=40,
)


@given(
    columns=st.lists(quality_columns(), min_size=2, max_size=2),
    thetas=_fill_thetas,
    cap_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
@example(
    # A -0.0 column between grid points: np.interp returns +0.0 there.
    columns=[(np.full(_GRID.size, -0.0), False), (np.full(_GRID.size, 2.0), True)],
    thetas=[0.5 * (_GRID[3] + _GRID[4]), float(_GRID[5])],
    cap_seed=None,
)
@settings(max_examples=150, deadline=None)
def test_bid_batch_fill_equals_np_interp_bytewise(columns, thetas, cap_seed):
    """Filling a column gives the bytes ``np.interp`` gives on every row."""
    table = np.stack([column for column, _ in columns], axis=1)
    solver = copy.copy(_FILL_SOLVER)
    solver.quality_grid = table
    solver._quality_fills = _column_fills(table)
    assert [f is not None for f in solver._quality_fills] == [
        filled for _, filled in columns
    ]
    reference = copy.copy(solver)
    reference._quality_fills = (None, None)  # np.interp on every column
    t = np.asarray(thetas)
    caps = None
    if cap_seed is not None:
        caps = np.random.default_rng(cap_seed).uniform(-1.0, 6.0, size=(t.size, 2))
    got = solver.bid_batch(t, caps, with_costs=True)
    want = reference.bid_batch(t, caps, with_costs=True)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_paper_game_columns_are_filled(multiplicative_solver, additive_quadratic_solver):
    """The multilinear game plays one corner for every theta; the additive
    quadratic game's interior optimum moves with theta."""
    assert None not in multiplicative_solver._quality_fills
    assert multiplicative_solver.with_population(5, 2)._quality_fills == (
        multiplicative_solver._quality_fills
    )
    assert additive_quadratic_solver._quality_fills == (None, None)
