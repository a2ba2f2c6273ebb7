"""Training utilities: window extraction, mini-batching and a Trainer.

STPT's pattern-recognition phase sweeps a fixed-size window over each
(sanitized) representative time series, producing supervised pairs
``(window, next value)``. Series are *stacked, not concatenated*
(Section 4.2) — a window never straddles two series.

The :class:`Trainer` also trains a *member stack*
(:func:`repro.nn.module.stack_members`): M same-architecture models
that share every step's forward, backward, clip and optimizer call,
each with its own data, generator and minibatch order, and each ending
with the weights its own ``fit`` would have given it, bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, Union

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
    rng: Union[RngLike, Sequence[RngLike]] = None,
    shuffle: bool = True,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield mini-batches; the final partial batch is kept.

    For a member stack, ``inputs`` and ``targets`` lead with a member
    axis, ``(M, samples, ...)``, and ``rng`` is a sequence of M
    generators: each member shuffles its samples with its own, and a
    batch holds every member's next slice of its own order.
    """
    if batch_size <= 0:
        raise ConfigurationError("batch_size must be positive")
    stacked = isinstance(rng, Sequence)
    members = (np.arange(len(rng))[:, None],) if stacked else ()
    axes = len(members) + 1
    if inputs.shape[:axes] != targets.shape[:axes]:
        raise ConfigurationError("inputs and targets must have equal length")
    samples = inputs.shape[axes - 1]
    orders = [
        _epoch_order(samples, generator) if shuffle else np.arange(samples)
        for generator in (rng if stacked else [rng])
    ]
    order = np.stack(orders).reshape(inputs.shape[:axes])
    for start in range(0, samples, batch_size):
        pick = members + (order[..., start : start + batch_size],)
        yield inputs[pick], targets[pick]


def _epoch_order(samples: int, rng: RngLike) -> np.ndarray:
    """One epoch's shuffled sample order."""
    order = np.arange(samples)
    ensure_rng(rng).shuffle(order)
    return order


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
    the optimizer steps. ``loss_fn(predictions, targets, axis=-1)``
    returns the loss, a mean over the batch axis, and its gradient.

    ``model`` may be a member stack: then ``rng`` gives one generator
    per member, :meth:`fit` takes one input and one target array per
    member (all of one length) and returns one history per member, and
    each member's loss, gradient clip and minibatch order are its own.
    A stack trains without a validation split or early stopping.
    """

    def __init__(
        self,
        model: SequenceForecaster,
        optimizer: Optimizer | None = None,
        loss_fn: Callable[..., tuple[float | np.ndarray, np.ndarray]] = mse_loss,
        epochs: int = 20,
        batch_size: int = 32,
        grad_clip: float = 5.0,
        validation_fraction: float = 0.0,
        patience: int | None = None,
        rng: Union[RngLike, Sequence[RngLike]] = None,
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
        members = len(model.members)
        if members and (validation_fraction > 0.0 or patience is not None):
            raise ConfigurationError(
                "a member stack trains without a validation split or "
                "early stopping"
            )
        if not members:
            rngs = [rng]
        elif rng is None:
            rngs = [None] * members
        elif isinstance(rng, Sequence) and len(rng) == members:
            rngs = list(rng)
        else:
            raise ConfigurationError(
                f"a stack of {members} members needs a sequence of "
                f"{members} generators, got {rng!r}"
            )
        self.model = model
        self.optimizer = optimizer or RMSProp(list(model.parameters()), lr=1e-3)
        self.loss_fn = loss_fn
        self.epochs = epochs
        self.batch_size = batch_size
        self.grad_clip = grad_clip
        self.validation_fraction = validation_fraction
        self.patience = patience
        self._rngs = [ensure_rng(generator) for generator in rngs]
        self._rng = self._rngs[0]

    def fit(
        self,
        inputs: np.ndarray | Sequence[np.ndarray],
        targets: np.ndarray | Sequence[np.ndarray],
    ) -> TrainingHistory | list[TrainingHistory]:
        members = self.model.members
        if members:
            if len(inputs) != len(members) or len(targets) != len(members):
                raise ConfigurationError(
                    f"a stack of {len(members)} members needs one input and "
                    f"one target array per member, got {len(inputs)} and "
                    f"{len(targets)}"
                )
            pairs = list(zip(inputs, targets))
        else:
            pairs = [(inputs, targets)]
        pairs = [
            (np.asarray(x, dtype=float), np.asarray(y, dtype=float))
            for x, y in pairs
        ]
        for x, y in pairs:
            if len(x) != len(y):
                raise ConfigurationError(f"{len(x)} inputs but {len(y)} targets")
        samples = {len(x) for x, __ in pairs}
        if len(samples) > 1:
            raise ConfigurationError(
                f"members with unequal sample counts {sorted(samples)} cannot "
                "share minibatch steps"
            )
        if not samples.pop():
            raise TrainingError("no training samples")
        val_x = val_y = None
        if self.validation_fraction > 0.0:
            # Plain models only: __init__ refuses a split for a stack.
            ((inputs, targets),) = pairs
            order = np.arange(len(inputs))
            self._rng.shuffle(order)
            cut = max(1, int(len(inputs) * self.validation_fraction))
            if cut >= len(inputs):
                raise TrainingError("validation split leaves no training data")
            val_idx, train_idx = order[:cut], order[cut:]
            val_x, val_y = inputs[val_idx], targets[val_idx]
            pairs = [(inputs[train_idx], targets[train_idx])]
        # A stack's arrays lead with the member axis; a plain model's
        # have none, and every line below serves both.
        lead = (len(members),) if members else ()
        inputs = np.stack([x for x, __ in pairs]).reshape(lead + pairs[0][0].shape)
        targets = np.stack([y for __, y in pairs]).reshape(lead + pairs[0][1].shape)
        samples = targets.shape[-1]
        rngs = self._rngs if members else self._rng

        tracer = get_tracer()
        metrics = get_metrics()
        histories = [TrainingHistory() for __ in self._rngs]
        history = histories[0]
        best_val = np.inf
        best_state: dict | None = None
        epochs_since_best = 0
        self.model.train()
        with tracer.span(
            "nn.fit",
            epochs=self.epochs,
            samples=samples,
            members=len(members),
        ) as fit_span:
            for epoch in range(self.epochs):
                epoch_loss = 0.0
                count = 0
                grad_norm = 0.0
                with tracer.span("nn.epoch", epoch=epoch) as epoch_span:
                    for batch_x, batch_y in iterate_minibatches(
                        inputs, targets, self.batch_size, rng=rngs
                    ):
                        step_started = time.perf_counter()
                        self.optimizer.zero_grad()
                        preds = self.model(batch_x)
                        loss, grad = self.loss_fn(preds, batch_y, axis=-1)
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
                        # One float per model, one array per stack.
                        epoch_loss = epoch_loss + loss * batch_y.shape[-1]
                        count += batch_y.shape[-1]
                    mean_loss = epoch_loss / count
                    # A stack reports its worst member.
                    epoch_span.set_attribute("loss", float(np.max(mean_loss)))
                    epoch_span.set_attribute("grad_norm", float(np.max(grad_norm)))
                metrics.gauge("nn.epoch.loss", float(np.max(mean_loss)))
                metrics.gauge("nn.grad_norm", float(np.max(grad_norm)))
                for member_history, loss in zip(histories, np.ravel(mean_loss)):
                    member_history.epoch_losses.append(float(loss))

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
            fit_span.set_attribute(
                "final_loss", max(h.epoch_losses[-1] for h in histories)
            )
            fit_span.set_attribute("stopped_early", history.stopped_early)
        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        stack = dict(self.model.named_parameters())
        for index, member in enumerate(members):
            member.load_state_dict(
                {name: param.value[index] for name, param in stack.items()}
            )
            member.eval()
        return histories if members else histories[0]

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
