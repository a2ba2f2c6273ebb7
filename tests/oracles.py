"""Reference oracles for the vectorized kernels in ``src/``.

Each function here is the plain loop a fast kernel replaced. They live
with the tests, not in the package, and the equivalence tests hold the
kernels to them under a stated contract:

* :func:`make_windows_reference` — ``repro.nn.training.make_windows``,
  bit-identical;
* :func:`forward_per_step` — the fused ``RNN``/``GRU``/``LSTM.forward``,
  <= 1e-12, and bit-identical at the shapes the tests pin (the stacked
  input gemm may take another BLAS kernel than a per-step one; at
  batch 1 it usually does);
* :func:`sigmoid_reference` — the branch-free ``repro.nn.layers.sigmoid``,
  bit-identical, NaN payloads included;
* :func:`backward_per_step` — the batched BPTT ``backward``, <= 1e-10
  (the time-stacked gemms reassociate the gradient sums);
* :class:`PerParameterSGD`, :class:`PerParameterRMSProp`,
  :class:`PerParameterAdam` — the flat-buffer optimizer steps,
  bit-identical;
* :func:`rollout_per_node_reference` — the batched
  ``predict_autoregressive`` roll-out, <= 1e-12 (one-row gemv and
  batched gemm may differ in the last ulp);
* :func:`evaluate_queries_reference` — the prefix-sum query engine,
  round-off of the table magnitudes.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.recurrent import LSTM


def make_windows_reference(
    series_list: Iterable[np.ndarray], window: int
) -> tuple[np.ndarray, np.ndarray]:
    """One ``(window, next value)`` pair per start index, series by series."""
    if window <= 0:
        raise ConfigurationError("window must be positive")
    inputs: list[np.ndarray] = []
    targets: list[float] = []
    for series in series_list:
        series = np.asarray(series, dtype=float).ravel()
        for start in range(len(series) - window):
            inputs.append(series[start : start + window])
            targets.append(series[start + window])
    if not inputs:
        raise TrainingError(
            f"no series was long enough to produce a window of size {window}"
        )
    return np.asarray(inputs), np.asarray(targets)


def sigmoid_reference(x) -> np.ndarray:
    """Logistic function, each stable form applied on a boolean mask."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def forward_per_step(layer, x, state0=None):
    """Unroll ``layer.cell.step`` over time, keeping every step's cache.

    Takes the same arguments as the wrappers' ``forward``, so it can be
    patched over it; :func:`backward_per_step` consumes the caches.
    """
    x = np.asarray(x, dtype=float)
    batch, steps, __ = x.shape
    hidden = layer.hidden_size
    is_lstm = isinstance(layer, LSTM)
    if state0 is not None:
        state = state0
    elif is_lstm:
        state = (np.zeros((batch, hidden)), np.zeros((batch, hidden)))
    else:
        state = np.zeros((batch, hidden))
    outputs = np.empty((batch, steps, hidden))
    caches = []
    for t in range(steps):
        state, cache = layer.cell.step(x[:, t, :], state)
        caches.append(cache)
        outputs[:, t, :] = state[0] if is_lstm else state
    layer._per_step_caches = caches
    return outputs


def backward_per_step(layer, grad_out):
    """BPTT through ``layer.cell.step_backward``, newest step first."""
    grad_out = np.asarray(grad_out, dtype=float)
    batch, steps, hidden = grad_out.shape
    cell = layer.cell
    caches = layer._per_step_caches
    dx = np.empty((batch, steps, cell.input_size))
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t in reversed(range(steps)):
        dh = grad_out[:, t, :] + dh_next
        if isinstance(layer, LSTM):
            dx_t, dh_next, dc_next = cell.step_backward(dh, dc_next, caches[t])
        else:
            dx_t, dh_next = cell.step_backward(dh, caches[t])
        dx[:, t, :] = dx_t
    return dx


class _PerParameter:
    """Shared plumbing: the parameters are stepped one at a time."""

    def __init__(self, params, lr: float) -> None:
        self.params = list(params)
        self.lr = lr

    def _zeros(self) -> list[np.ndarray]:
        return [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class PerParameterSGD(_PerParameter):
    def __init__(self, params, lr: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.velocity = self._zeros()

    def step(self) -> None:
        for p, velocity in zip(self.params, self.velocity):
            if self.momentum:
                velocity[...] = self.momentum * velocity - self.lr * p.grad
                p.value += velocity
            else:
                p.value -= self.lr * p.grad


class PerParameterRMSProp(_PerParameter):
    def __init__(
        self, params, lr: float = 1e-3, alpha: float = 0.99, eps: float = 1e-8
    ) -> None:
        super().__init__(params, lr)
        self.alpha = alpha
        self.eps = eps
        self.square_avg = self._zeros()

    def step(self) -> None:
        for p, square_avg in zip(self.params, self.square_avg):
            square_avg[...] = (
                self.alpha * square_avg + (1.0 - self.alpha) * p.grad**2
            )
            p.value -= self.lr * p.grad / (np.sqrt(square_avg) + self.eps)


class PerParameterAdam(_PerParameter):
    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.m = self._zeros()
        self.v = self._zeros()
        self.t = 0

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            m[...] = self.beta1 * m + (1.0 - self.beta1) * p.grad
            v[...] = self.beta2 * v + (1.0 - self.beta2) * p.grad**2
            p.value -= (
                self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            )


def rollout_per_node_reference(model, seeds, steps, clip=None):
    """Roll each seed window forward on its own, one node at a time."""
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    rows = [
        model.predict_autoregressive(seeds[i : i + 1], steps, clip=clip)[0]
        for i in range(seeds.shape[0])
    ]
    return np.stack(rows)


def evaluate_queries_reference(queries, matrix) -> np.ndarray:
    """Answer every query by summing its slice of ``matrix``."""
    return np.array([q.evaluate(matrix) for q in queries])
