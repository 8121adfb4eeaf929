"""Loss criteria: hand values, analytic gradients, and smoothness properties."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedrive.errors import ShapeError
from conedrive.layers import smooth_l1, softmax_cross_entropy
from zoo_models import check_loss


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((1, 3)), np.array([2]))
        assert loss == pytest.approx(math.log(3.0), rel=1e-9)

    def test_confident_correct(self):
        loss, _ = softmax_cross_entropy(np.array([[10.0, 0.0, 0.0]]), np.array([1]))
        assert loss == pytest.approx(math.log(1.0 + 2.0 * math.exp(-10.0)), rel=1e-9)
        assert loss == pytest.approx(9.08e-5, rel=1e-2)

    def test_batch_of_identical_rows(self):
        row = np.array([[0.3, -1.2, 2.0]])
        single, _ = softmax_cross_entropy(row, np.array([3]))
        double, _ = softmax_cross_entropy(np.vstack([row, row]), np.array([3, 3]))
        assert double == pytest.approx(single, rel=1e-12)

    def test_no_overflow_for_huge_logits(self):
        loss, grad = softmax_cross_entropy(
            np.array([[1e4, -1e4, 0.0]]), np.array([2]))
        assert np.isfinite(loss) and np.isfinite(grad).all()
        assert loss == pytest.approx(2e4, rel=1e-6)

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ShapeError, match="out of range"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([1, 4]))
        with pytest.raises(ShapeError, match="out of range"):
            softmax_cross_entropy(np.zeros((1, 3)), np.array([0]))

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(0, 3, (4, 3))
            classes = rng.integers(1, 4, 4)
            loss, _ = softmax_cross_entropy(logits, classes)
            assert loss >= 0.0

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        _, grad = softmax_cross_entropy(logits, np.array([2, 1]))
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = z / z.sum(axis=1, keepdims=True)
        p[0, 1] -= 1.0
        p[1, 0] -= 1.0
        np.testing.assert_allclose(grad, p / 2.0, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 2, (3, 3))
        classes = rng.integers(1, 4, 3)
        err = check_loss(lambda x: softmax_cross_entropy(x, classes), logits)
        assert err < 1e-6


class TestSmoothL1:
    @pytest.mark.parametrize("d,want", [(0.0, 0.0), (0.5, 0.125), (3.0, 2.5)])
    def test_hand_values(self, d, want):
        loss, _ = smooth_l1(np.array([d]), np.array([0.0]))
        assert loss == pytest.approx(want, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="mismatch"):
            smooth_l1(np.zeros((2, 1)), np.zeros((1, 2)))

    def test_continuous_at_transition(self):
        eps = 1e-6
        below, _ = smooth_l1(np.array([1.0 - eps]), np.array([0.0]))
        above, _ = smooth_l1(np.array([1.0 + eps]), np.array([0.0]))
        assert abs(above - below) < 1e-5

    def test_gradient_continuous_at_transition(self):
        eps = 1e-6
        _, g_below = smooth_l1(np.array([1.0 - eps]), np.array([0.0]))
        _, g_above = smooth_l1(np.array([1.0 + eps]), np.array([0.0]))
        assert abs(g_above[0] - g_below[0]) < 1e-5

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.normal(0, 2, (4, 2))
        # keep |d| away from the 1.0 kink so central differences are valid
        target = pred - np.where(rng.random((4, 2)) < 0.5, 0.4, 1.7)
        err = check_loss(lambda x: smooth_l1(x, target), pred)
        assert err < 1e-6

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_bounded_by_abs(self, d):
        loss, _ = smooth_l1(np.array([d]), np.array([0.0]))
        assert 0.0 <= loss <= abs(d) + 1e-12
