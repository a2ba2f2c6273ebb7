"""Tests for loss functions and their gradients."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.losses import huber_loss, l1_loss, mse_loss
from tests.nn.gradcheck import numerical_gradient


class TestMSE:
    def test_value(self):
        value, __ = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert value == pytest.approx(2.5)

    def test_zero_at_match(self, rng):
        x = rng.standard_normal(10)
        value, grad = mse_loss(x, x.copy())
        assert value == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_gradient_matches_numeric(self, rng):
        preds = rng.standard_normal((3, 4))
        targets = rng.standard_normal((3, 4))
        __, grad = mse_loss(preds, targets)
        numeric = numerical_gradient(lambda: mse_loss(preds, targets)[0], preds)
        np.testing.assert_allclose(grad, numeric, atol=1e-7)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            mse_loss(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mse_loss(np.array([]), np.array([]))


class TestLossAxis:
    @pytest.mark.parametrize("loss", [mse_loss, l1_loss, huber_loss])
    def test_axis_gives_one_loss_per_row(self, loss, rng):
        # A member stack's (members, batch) predictions: each row is
        # one member's batch, reduced exactly as on its own.
        preds = rng.standard_normal((3, 7)) * 2
        targets = rng.standard_normal((3, 7))
        values, grads = loss(preds, targets, axis=-1)
        assert values.shape == (3,)
        for row in range(3):
            value, grad = loss(preds[row], targets[row])
            assert values[row] == value
            np.testing.assert_array_equal(grads[row], grad)

    def test_full_reduction_stays_a_float(self, rng):
        value, __ = mse_loss(rng.standard_normal(5), rng.standard_normal(5), axis=-1)
        assert isinstance(value, float)


class TestL1:
    def test_value(self):
        value, __ = l1_loss(np.array([1.0, -3.0]), np.array([0.0, 0.0]))
        assert value == pytest.approx(2.0)

    def test_gradient_is_scaled_sign(self):
        __, grad = l1_loss(np.array([2.0, -2.0]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(grad, [0.5, -0.5])

    def test_gradient_matches_numeric_away_from_kink(self, rng):
        preds = rng.standard_normal((5,)) + 3.0  # keep away from 0 diff
        targets = np.zeros(5)
        __, grad = l1_loss(preds, targets)
        numeric = numerical_gradient(lambda: l1_loss(preds, targets)[0], preds)
        np.testing.assert_allclose(grad, numeric, atol=1e-6)


class TestHuber:
    def test_quadratic_region(self):
        value, __ = huber_loss(np.array([0.5]), np.array([0.0]), delta=1.0)
        assert value == pytest.approx(0.125)

    def test_linear_region(self):
        value, __ = huber_loss(np.array([3.0]), np.array([0.0]), delta=1.0)
        assert value == pytest.approx(2.5)

    def test_gradient_matches_numeric(self, rng):
        preds = rng.standard_normal((6,)) * 3
        targets = rng.standard_normal((6,))
        __, grad = huber_loss(preds, targets, delta=1.0)
        numeric = numerical_gradient(
            lambda: huber_loss(preds, targets, delta=1.0)[0], preds
        )
        np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_invalid_delta(self):
        with pytest.raises(ConfigurationError):
            huber_loss(np.zeros(2), np.zeros(2), delta=0.0)

    def test_smaller_than_mse_in_tails(self, rng):
        preds = np.array([100.0])
        targets = np.array([0.0])
        huber_value, __ = huber_loss(preds, targets, delta=1.0)
        mse_value, __ = mse_loss(preds, targets)
        assert huber_value < mse_value
