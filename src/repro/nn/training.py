"""Training utilities: window extraction, mini-batching and a Trainer.

STPT's pattern-recognition phase sweeps a fixed-size window over each
(sanitized) representative time series, producing supervised pairs
``(window, next value)``. Series are *stacked, not concatenated*
(Section 4.2) — a window never straddles two series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.losses import loss_value, mse_loss
from repro.nn.models import SequenceForecaster
# Trainer.fit clips through its optimizer, so clip_grad_norm is unused
# here; perfbench's traced run wraps repro.nn.training.clip_grad_norm,
# so the name stays importable until that wrapper is dropped.
from repro.nn.optimizers import Optimizer, RMSProp, clip_grad_norm  # noqa: F401
from repro.obs import get_metrics, get_tracer
from repro.rng import RngLike, ensure_rng


def make_windows(
    series_list: Iterable[np.ndarray], window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Slide a window over each series producing (inputs, targets).

    Series shorter than ``window + 1`` contribute nothing; an error is
    raised only when *no* series is long enough, because a quadtree's
    coarse levels legitimately produce short segments.

    Implemented on :func:`numpy.lib.stride_tricks.sliding_window_view`:
    consecutive equal-length series (the common case — every quadtree
    level yields same-length segments) are stacked and windowed in one
    shot; the window order is that of a per-window loop over the series.
    """
    if window <= 0:
        raise ConfigurationError("window must be positive")
    arrays = [np.asarray(series, dtype=float).ravel() for series in series_list]
    input_parts: list[np.ndarray] = []
    target_parts: list[np.ndarray] = []
    index = 0
    while index < len(arrays):
        # Group the maximal run of consecutive same-length series so the
        # concatenated window order matches a per-series loop exactly.
        length = arrays[index].size
        stop = index + 1
        while stop < len(arrays) and arrays[stop].size == length:
            stop += 1
        if length > window:
            block = np.stack(arrays[index:stop])
            views = np.lib.stride_tricks.sliding_window_view(
                block, window + 1, axis=1
            ).reshape(-1, window + 1)
            input_parts.append(views[:, :window])
            target_parts.append(views[:, window])
        index = stop
    if not input_parts:
        raise TrainingError(
            f"no series was long enough to produce a window of size {window}"
        )
    # np.concatenate copies, detaching the result from the strided views.
    inputs = np.concatenate(input_parts) if len(input_parts) > 1 else np.array(
        input_parts[0]
    )
    targets = np.concatenate(target_parts) if len(target_parts) > 1 else np.array(
        target_parts[0]
    )
    return inputs, targets


def iterate_minibatches(
    inputs: np.ndarray,
    targets: np.ndarray,
    batch_size: int,
    rng: RngLike = None,
    shuffle: bool = True,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield mini-batches; the final partial batch is kept."""
    if batch_size <= 0:
        raise ConfigurationError("batch_size must be positive")
    if len(inputs) != len(targets):
        raise ConfigurationError("inputs and targets must have equal length")
    order = np.arange(len(inputs))
    if shuffle:
        ensure_rng(rng).shuffle(order)
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        yield inputs[idx], targets[idx]


@dataclass
class TrainingHistory:
    """Per-epoch loss trace of a training run."""

    epoch_losses: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise TrainingError("no epochs were run")
        return self.epoch_losses[-1]

    @property
    def best_validation_loss(self) -> float:
        if not self.validation_losses:
            raise TrainingError("no validation split was used")
        return min(self.validation_losses)


class Trainer:
    """Fits a :class:`SequenceForecaster` on (window, next-value) pairs.

    Defaults follow Appendix C: RMSProp, learning rate 1e-3, batch size
    32, 20 epochs, MSE loss. Gradients are clipped to a global norm of
    5 to keep BPTT stable on noisy (DP-sanitized) training data;
    ``grad_clip=0`` disables the clip. The clip covers the parameters
    the optimizer steps.
    """

    def __init__(
        self,
        model: SequenceForecaster,
        optimizer: Optimizer | None = None,
        loss_fn: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]] = mse_loss,
        epochs: int = 20,
        batch_size: int = 32,
        grad_clip: float = 5.0,
        validation_fraction: float = 0.0,
        patience: int | None = None,
        rng: RngLike = None,
    ) -> None:
        if epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if not grad_clip >= 0.0:
            raise ConfigurationError(
                f"grad_clip must be >= 0 (0 disables clipping), got {grad_clip}"
            )
        if not 0.0 <= validation_fraction < 1.0:
            raise ConfigurationError("validation_fraction must be in [0, 1)")
        if patience is not None:
            if patience <= 0:
                raise ConfigurationError("patience must be positive")
            if validation_fraction <= 0.0:
                raise ConfigurationError(
                    "early stopping needs a validation split"
                )
        self.model = model
        self.optimizer = optimizer or RMSProp(list(model.parameters()), lr=1e-3)
        self.loss_fn = loss_fn
        self.epochs = epochs
        self.batch_size = batch_size
        self.grad_clip = grad_clip
        self.validation_fraction = validation_fraction
        self.patience = patience
        self._rng = ensure_rng(rng)

    def fit(self, inputs: np.ndarray, targets: np.ndarray) -> TrainingHistory:
        inputs = np.asarray(inputs, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if len(inputs) != len(targets):
            raise ConfigurationError(
                f"{len(inputs)} inputs but {len(targets)} targets"
            )
        if len(inputs) == 0:
            raise TrainingError("no training samples")
        if self.validation_fraction > 0.0:
            order = np.arange(len(inputs))
            self._rng.shuffle(order)
            cut = max(1, int(len(inputs) * self.validation_fraction))
            if cut >= len(inputs):
                raise TrainingError("validation split leaves no training data")
            val_idx, train_idx = order[:cut], order[cut:]
            val_x, val_y = inputs[val_idx], targets[val_idx]
            inputs, targets = inputs[train_idx], targets[train_idx]
        else:
            val_x = val_y = None

        tracer = get_tracer()
        metrics = get_metrics()
        history = TrainingHistory()
        best_val = np.inf
        best_state: dict | None = None
        epochs_since_best = 0
        self.model.train()
        with tracer.span(
            "nn.fit", epochs=self.epochs, samples=len(inputs)
        ) as fit_span:
            for epoch in range(self.epochs):
                epoch_loss = 0.0
                count = 0
                grad_norm = 0.0
                with tracer.span("nn.epoch", epoch=epoch) as epoch_span:
                    for batch_x, batch_y in iterate_minibatches(
                        inputs, targets, self.batch_size, rng=self._rng
                    ):
                        step_started = time.perf_counter()
                        self.optimizer.zero_grad()
                        preds = self.model(batch_x)
                        loss, grad = self.loss_fn(preds, batch_y)
                        self.model.backward(grad)
                        if self.grad_clip:
                            grad_norm = self.optimizer.clip_grad_norm(
                                self.grad_clip
                            )
                        self.optimizer.step()
                        metrics.histogram(
                            "nn.step.seconds",
                            time.perf_counter() - step_started,
                        )
                        epoch_loss += loss * len(batch_x)
                        count += len(batch_x)
                    mean_loss = epoch_loss / count
                    epoch_span.set_attribute("loss", mean_loss)
                    epoch_span.set_attribute("grad_norm", grad_norm)
                metrics.gauge("nn.epoch.loss", mean_loss)
                metrics.gauge("nn.grad_norm", grad_norm)
                history.epoch_losses.append(mean_loss)

                if val_x is not None:
                    # Gradient-free loss: validation only needs the scalar.
                    val_loss = loss_value(
                        self.loss_fn, self.model(val_x), val_y
                    )
                    history.validation_losses.append(val_loss)
                    if val_loss < best_val - 1e-12:
                        best_val = val_loss
                        # Snapshotting every parameter is only worth it
                        # when early stopping may restore the snapshot
                        # later.
                        if self.patience is not None:
                            best_state = self.model.state_dict()
                        epochs_since_best = 0
                    else:
                        epochs_since_best += 1
                        if (
                            self.patience is not None
                            and epochs_since_best >= self.patience
                        ):
                            history.stopped_early = True
                            break
            fit_span.set_attribute("final_loss", history.epoch_losses[-1])
            fit_span.set_attribute("stopped_early", history.stopped_early)
        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        return history

    def evaluate(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> dict[str, float]:
        """MAE and RMSE of one-step predictions (Fig. 8a/8b metrics)."""
        self.model.eval()
        preds = self.model(np.asarray(inputs, dtype=float))
        errors = preds - np.asarray(targets, dtype=float)
        return {
            "mae": float(np.mean(np.abs(errors))),
            "rmse": float(np.sqrt(np.mean(errors**2))),
        }


def train_forecaster(
    model: SequenceForecaster,
    series_list: Sequence[np.ndarray],
    window: int,
    epochs: int = 20,
    batch_size: int = 32,
    lr: float = 1e-3,
    rng: RngLike = None,
) -> TrainingHistory:
    """Convenience wrapper: windows + RMSProp trainer in one call."""
    inputs, targets = make_windows(series_list, window)
    trainer = Trainer(
        model,
        optimizer=RMSProp(list(model.parameters()), lr=lr),
        epochs=epochs,
        batch_size=batch_size,
        rng=rng,
    )
    return trainer.fit(inputs, targets)

__all__ = [
    "make_windows",
    "iterate_minibatches",
    "TrainingHistory",
    "Trainer",
    "train_forecaster",
]
