"""Tests for window extraction, batching and the Trainer."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.models import GRUForecaster
from repro.nn.optimizers import RMSProp
from repro.nn.training import (
    Trainer,
    TrainingHistory,
    iterate_minibatches,
    make_windows,
    train_forecaster,
)


class TestMakeWindows:
    def test_window_content(self):
        inputs, targets = make_windows([np.arange(6.0)], window=3)
        np.testing.assert_allclose(inputs[0], [0, 1, 2])
        assert targets[0] == 3.0
        assert len(inputs) == 3  # starts 0, 1, 2

    def test_windows_never_straddle_series(self):
        series = [np.arange(5.0), np.arange(100.0, 105.0)]
        inputs, __ = make_windows(series, window=3)
        # no window mixes small and large values
        for window in inputs:
            assert window.max() - window.min() < 50

    def test_short_series_skipped(self):
        inputs, __ = make_windows([np.arange(2.0), np.arange(10.0)], window=3)
        assert len(inputs) == 7  # only the long series contributes

    def test_all_short_raises(self):
        with pytest.raises(TrainingError):
            make_windows([np.arange(3.0)], window=5)

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            make_windows([np.arange(5.0)], window=0)

    def test_counts(self):
        inputs, targets = make_windows([np.arange(10.0)] * 3, window=4)
        assert len(inputs) == 3 * 6
        assert len(targets) == len(inputs)


class TestIterateMinibatches:
    def test_covers_all_rows(self, rng):
        inputs = rng.random((25, 3))
        targets = rng.random(25)
        seen = 0
        for bx, by in iterate_minibatches(inputs, targets, 8, rng=0):
            assert len(bx) == len(by)
            seen += len(bx)
        assert seen == 25

    def test_shuffling_changes_order(self, rng):
        inputs = np.arange(40, dtype=float).reshape(20, 2)
        targets = np.arange(20, dtype=float)
        first_batch, __ = next(iterate_minibatches(inputs, targets, 20, rng=1))
        assert not np.array_equal(first_batch, inputs)

    def test_no_shuffle_preserves_order(self):
        inputs = np.arange(10, dtype=float).reshape(5, 2)
        targets = np.arange(5, dtype=float)
        batch, __ = next(
            iterate_minibatches(inputs, targets, 5, shuffle=False)
        )
        np.testing.assert_array_equal(batch, inputs)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            list(iterate_minibatches(np.zeros((3, 2)), np.zeros(4), 2))

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigurationError):
            list(iterate_minibatches(np.zeros((3, 2)), np.zeros(3), 0))


class TestTrainer:
    def make_ar_data(self, rng, n=300, window=4):
        """Windows of a noiseless AR-ish signal the model can learn."""
        t = np.arange(n)
        series = 0.5 + 0.3 * np.sin(2 * np.pi * t / 12)
        return make_windows([series], window)

    def test_loss_decreases(self, rng):
        inputs, targets = self.make_ar_data(rng)
        model = GRUForecaster(window=4, embed_dim=8, hidden_dim=8, rng=0)
        trainer = Trainer(model, epochs=5, batch_size=16, rng=1)
        history = trainer.fit(inputs, targets)
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_model_in_eval_mode_after_fit(self, rng):
        inputs, targets = self.make_ar_data(rng, n=60)
        model = GRUForecaster(window=4, embed_dim=6, hidden_dim=6, rng=0)
        Trainer(model, epochs=1, rng=0).fit(inputs, targets)
        assert not model.training

    def test_evaluate_metrics(self, rng):
        inputs, targets = self.make_ar_data(rng, n=60)
        model = GRUForecaster(window=4, embed_dim=6, hidden_dim=6, rng=0)
        trainer = Trainer(model, epochs=2, rng=0)
        trainer.fit(inputs, targets)
        metrics = trainer.evaluate(inputs, targets)
        assert set(metrics) == {"mae", "rmse"}
        assert metrics["rmse"] >= metrics["mae"] >= 0

    def test_invalid_epochs(self):
        model = GRUForecaster(window=3, embed_dim=4, hidden_dim=4, rng=0)
        with pytest.raises(ConfigurationError):
            Trainer(model, epochs=0)

    def test_default_optimizer_is_rmsprop(self):
        model = GRUForecaster(window=3, embed_dim=4, hidden_dim=4, rng=0)
        assert isinstance(Trainer(model).optimizer, RMSProp)

    def test_history_final_loss(self):
        history = TrainingHistory(epoch_losses=[2.0, 1.0])
        assert history.final_loss == 1.0
        with pytest.raises(TrainingError):
            TrainingHistory().final_loss  # noqa: B018


class TestTrainForecaster:
    def test_convenience_wrapper(self, rng):
        series = [0.5 + 0.1 * rng.standard_normal(30) for __ in range(3)]
        model = GRUForecaster(window=4, embed_dim=6, hidden_dim=6, rng=0)
        history = train_forecaster(model, series, window=4, epochs=2, rng=1)
        assert len(history.epoch_losses) == 2


class TestValidationAndEarlyStopping:
    def make_data(self, n=200):
        t = np.arange(n)
        series = 0.5 + 0.3 * np.sin(2 * np.pi * t / 12)
        return make_windows([series], 4)

    def test_validation_losses_recorded(self):
        inputs, targets = self.make_data()
        model = GRUForecaster(window=4, embed_dim=6, hidden_dim=6, rng=0)
        trainer = Trainer(model, epochs=3, validation_fraction=0.2, rng=1)
        history = trainer.fit(inputs, targets)
        assert len(history.validation_losses) == 3
        assert history.best_validation_loss <= history.validation_losses[0]

    def test_early_stopping_halts(self):
        inputs, targets = self.make_data()
        model = GRUForecaster(window=4, embed_dim=6, hidden_dim=6, rng=0)
        # learning rate 0 -> no improvement -> stop after `patience`
        from repro.nn.optimizers import SGD
        trainer = Trainer(
            model,
            optimizer=SGD(list(model.parameters()), lr=1e-12),
            epochs=50, validation_fraction=0.2, patience=2, rng=1,
        )
        history = trainer.fit(inputs, targets)
        assert history.stopped_early
        assert len(history.epoch_losses) <= 4

    def test_best_weights_restored(self):
        inputs, targets = self.make_data()
        model = GRUForecaster(window=4, embed_dim=6, hidden_dim=6, rng=0)
        trainer = Trainer(model, epochs=6, validation_fraction=0.25,
                          patience=5, rng=2)
        history = trainer.fit(inputs, targets)
        val_loss, __ = trainer.loss_fn(
            model(inputs), targets
        )
        # restored model cannot be wildly worse than the best epoch
        assert np.isfinite(val_loss)

    def test_restored_weights_stay_on_the_optimizer_buffer(self):
        # The early-stopping restore copies into the parameter arrays;
        # rebinding them would leave the optimizer stepping a detached
        # buffer, so a further step would no longer move the model.
        inputs, targets = self.make_data()
        model = GRUForecaster(window=4, embed_dim=6, hidden_dim=6, rng=0)
        trainer = Trainer(model, epochs=3, validation_fraction=0.25,
                          patience=2, rng=2)
        trainer.fit(inputs, targets)
        before = [p.value.copy() for p in model.parameters()]
        for param in model.parameters():
            param.grad[...] = 1.0
        trainer.optimizer.step()
        for kept, param in zip(before, model.parameters()):
            assert not np.array_equal(kept, param.value), param.name

    def test_invalid_validation_fraction(self):
        model = GRUForecaster(window=3, embed_dim=4, hidden_dim=4, rng=0)
        with pytest.raises(ConfigurationError):
            Trainer(model, validation_fraction=1.0)

    def test_patience_requires_validation(self):
        model = GRUForecaster(window=3, embed_dim=4, hidden_dim=4, rng=0)
        with pytest.raises(ConfigurationError):
            Trainer(model, patience=2)

    def test_no_validation_history_raises(self):
        history = TrainingHistory(epoch_losses=[1.0])
        with pytest.raises(TrainingError):
            history.best_validation_loss  # noqa: B018
