"""Loss functions returning ``(value, gradient)`` pairs.

Each takes an optional ``axis``: the mean runs over every element by
default, or over ``axis`` only. The trainer passes its batch axis,
``axis=-1``, so a member stack gets one loss per member, each a mean
over that member's batch (and the gradient is scaled by the batch
size, not the stack's).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


def _check_shapes(predictions: np.ndarray, targets: np.ndarray) -> tuple:
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ConfigurationError(
            f"prediction shape {predictions.shape} != target shape {targets.shape}"
        )
    if predictions.size == 0:
        raise ConfigurationError("loss of empty arrays is undefined")
    return predictions, targets


def _mean(values: np.ndarray, axis: int | None) -> float | np.ndarray:
    """Mean over ``axis``: a float for a full reduction, else an array."""
    mean = np.mean(values, axis=axis)
    return float(mean) if np.ndim(mean) == 0 else mean


def _count(diff: np.ndarray, axis: int | None) -> int:
    return diff.size if axis is None else diff.shape[axis]


def mse_loss(
    predictions: np.ndarray, targets: np.ndarray, axis: int | None = None
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean squared error and its gradient w.r.t. predictions."""
    predictions, targets = _check_shapes(predictions, targets)
    diff = predictions - targets
    value = _mean(diff**2, axis)
    grad = (2.0 / _count(diff, axis)) * diff
    return value, grad


def l1_loss(
    predictions: np.ndarray, targets: np.ndarray, axis: int | None = None
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean absolute error; gradient is the (sub)gradient sign/size."""
    predictions, targets = _check_shapes(predictions, targets)
    diff = predictions - targets
    value = _mean(np.abs(diff), axis)
    grad = np.sign(diff) / _count(diff, axis)
    return value, grad


def huber_loss(
    predictions: np.ndarray,
    targets: np.ndarray,
    delta: float = 1.0,
    axis: int | None = None,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Huber loss: quadratic near zero, linear in the tails."""
    if delta <= 0:
        raise ConfigurationError("delta must be positive")
    predictions, targets = _check_shapes(predictions, targets)
    diff = predictions - targets
    abs_diff = np.abs(diff)
    quadratic = abs_diff <= delta
    values = np.where(
        quadratic, 0.5 * diff**2, delta * (abs_diff - 0.5 * delta)
    )
    grads = np.where(quadratic, diff, delta * np.sign(diff))
    return _mean(values, axis), grads / _count(diff, axis)


def mse_value(predictions: np.ndarray, targets: np.ndarray) -> float:
    """MSE value only — no gradient array is materialized."""
    predictions, targets = _check_shapes(predictions, targets)
    return float(np.mean((predictions - targets) ** 2))


def l1_value(predictions: np.ndarray, targets: np.ndarray) -> float:
    """MAE value only — no gradient array is materialized."""
    predictions, targets = _check_shapes(predictions, targets)
    return float(np.mean(np.abs(predictions - targets)))


def huber_value(
    predictions: np.ndarray, targets: np.ndarray, delta: float = 1.0
) -> float:
    """Huber value only — no gradient array is materialized."""
    if delta <= 0:
        raise ConfigurationError("delta must be positive")
    predictions, targets = _check_shapes(predictions, targets)
    diff = predictions - targets
    abs_diff = np.abs(diff)
    values = np.where(
        abs_diff <= delta, 0.5 * diff**2, delta * (abs_diff - 0.5 * delta)
    )
    return float(np.mean(values))


#: Gradient-free twins of the ``(value, gradient)`` loss functions.
_VALUE_FUNCTIONS = {
    mse_loss: mse_value,
    l1_loss: l1_value,
    huber_loss: huber_value,
}


def loss_value(loss_fn, predictions: np.ndarray, targets: np.ndarray) -> float:
    """Loss value without the gradient, when the loss supports it.

    Validation and evaluation loops only need the scalar; for the
    built-in losses this skips materializing the gradient array the
    caller would immediately discard. Unknown loss functions fall back
    to calling ``loss_fn`` and dropping the gradient.
    """
    fast = _VALUE_FUNCTIONS.get(loss_fn)
    if fast is not None:
        return fast(predictions, targets)
    return loss_fn(predictions, targets)[0]

__all__ = [
    "mse_loss",
    "l1_loss",
    "huber_loss",
    "mse_value",
    "l1_value",
    "huber_value",
    "loss_value",
]
