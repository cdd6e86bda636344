"""Unit tests for scoring rules (paper Eq. 4 and the Section III-A families)."""

import numpy as np
import pytest

from repro.core.scoring import (
    AdditiveScore,
    CobbDouglasScore,
    MultiplicativeScore,
    PerfectComplementaryScore,
    QuasiLinearScoringRule,
    normalize_weights,
)


class TestNormalizeWeights:
    def test_sums_to_one(self):
        w = normalize_weights([1.0, 3.0])
        assert w.sum() == pytest.approx(1.0)
        assert w[1] == pytest.approx(0.75)

    def test_rejects_zero_sum(self):
        with pytest.raises(ValueError):
            normalize_weights([0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_weights([])


class TestAdditiveScore:
    def test_value_is_weighted_sum(self):
        rule = AdditiveScore([0.4, 0.3, 0.3])
        assert rule.value(np.array([1.0, 2.0, 3.0])) == pytest.approx(1.9)

    def test_gradient_is_weights(self):
        rule = AdditiveScore([0.4, 0.6])
        np.testing.assert_allclose(rule.gradient(np.array([5.0, 2.0])), [0.4, 0.6])

    @pytest.mark.parametrize("n", [1, 2, 31, 64, 1000])
    @pytest.mark.parametrize(
        "weights", [[0.4, 0.3, 0.3], [0.6, 0.4]], ids=["cluster", "additive-quadratic"]
    )
    def test_batch_rows_equal_rows_scored_alone(self, weights, n):
        """Bitwise, whatever the batch size: weights that are not exact
        binary fractions round a row's sum by the order of its terms."""
        rule = AdditiveScore(weights)
        q = np.random.default_rng(n).uniform(0.0, 1.0, (n, rule.n_dimensions))
        batch = rule.value_batch(q)
        alone = np.concatenate([rule.value_batch(row[None]) for row in q])
        assert alone.tobytes() == batch.tobytes()
        assert np.asarray([rule.value(row) for row in q]).tobytes() == batch.tobytes()

    def test_rejects_wrong_dimensionality(self):
        rule = AdditiveScore([1.0, 1.0])
        with pytest.raises(ValueError):
            rule.value(np.array([1.0, 2.0, 3.0]))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            AdditiveScore([0.5, -0.5])


class TestPerfectComplementaryScore:
    def test_value_is_min(self):
        rule = PerfectComplementaryScore([0.5, 0.5])
        # The walk-through example: min(0.5*q1, 0.5*q2).
        assert rule.value(np.array([4.0, 2.0])) == pytest.approx(1.0)

    def test_gradient_selects_binding_dimension(self):
        rule = PerfectComplementaryScore([1.0, 1.0])
        grad = rule.gradient(np.array([3.0, 1.0]))
        np.testing.assert_allclose(grad, [0.0, 1.0])

    def test_batch(self):
        rule = PerfectComplementaryScore([1.0, 2.0])
        q = np.array([[1.0, 1.0], [4.0, 1.0]])
        np.testing.assert_allclose(rule.value_batch(q), [1.0, 2.0])


class TestCobbDouglasScore:
    def test_value(self):
        rule = CobbDouglasScore([0.5, 0.5])
        assert rule.value(np.array([4.0, 9.0])) == pytest.approx(6.0)

    def test_zero_weight_dimension_is_neutral(self):
        rule = CobbDouglasScore([1.0, 0.0])
        assert rule.value(np.array([3.0, 0.0])) == pytest.approx(3.0)

    def test_gradient_matches_finite_difference(self):
        rule = CobbDouglasScore([0.3, 0.7], scale=2.0)
        q = np.array([2.0, 5.0])
        grad = rule.gradient(q)
        eps = 1e-6
        for j in range(2):
            qp, qm = q.copy(), q.copy()
            qp[j] += eps
            qm[j] -= eps
            num = (rule.value(qp) - rule.value(qm)) / (2 * eps)
            assert grad[j] == pytest.approx(num, rel=1e-4)

    def test_rejects_negative_quality(self):
        rule = CobbDouglasScore([0.5, 0.5])
        with pytest.raises(ValueError):
            rule.value(np.array([-1.0, 1.0]))


class TestMultiplicativeScore:
    def test_paper_simulation_rule(self):
        # Section V-A: s(q1, q2) = 25 * q1 * q2.
        rule = MultiplicativeScore(n_dimensions=2, scale=25.0)
        assert rule.value(np.array([4.0, 0.5])) == pytest.approx(50.0)

    def test_gradient(self):
        rule = MultiplicativeScore(n_dimensions=2, scale=25.0)
        np.testing.assert_allclose(
            rule.gradient(np.array([4.0, 0.5])), [12.5, 100.0]
        )

    def test_gradient_exact_at_zero(self):
        rule = MultiplicativeScore(n_dimensions=2, scale=1.0)
        np.testing.assert_allclose(rule.gradient(np.array([0.0, 3.0])), [3.0, 0.0])


class TestQuasiLinearScoringRule:
    def test_score_subtracts_payment(self):
        rule = QuasiLinearScoringRule(AdditiveScore([1.0, 1.0]))
        assert rule.score(np.array([1.0, 2.0]), payment=0.5) == pytest.approx(2.5)

    def test_min_max_normalisation(self):
        # Walk-through example of Section III-B normalises before scoring.
        rule = QuasiLinearScoringRule(
            AdditiveScore([0.5, 0.5]), lower=[1000, 5], upper=[5000, 100]
        )
        q = np.array([3000.0, 52.5])
        normalized = rule.normalize(q)
        np.testing.assert_allclose(normalized, [0.5, 0.5])
        assert rule.score(q, 0.1) == pytest.approx(0.4)

    def test_score_batch_matches_scalar(self):
        rule = QuasiLinearScoringRule(
            AdditiveScore([0.5, 0.5]), lower=[0, 0], upper=[10, 1]
        )
        qs = np.array([[5.0, 0.5], [10.0, 1.0]])
        ps = np.array([0.1, 0.2])
        batch = rule.score_batch(qs, ps)
        np.testing.assert_allclose(
            batch, [rule.score(qs[0], ps[0]), rule.score(qs[1], ps[1])]
        )

    def test_requires_both_bounds(self):
        with pytest.raises(ValueError):
            QuasiLinearScoringRule(AdditiveScore([1.0]), lower=[0.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            QuasiLinearScoringRule(AdditiveScore([1.0]), lower=[5.0], upper=[1.0])
