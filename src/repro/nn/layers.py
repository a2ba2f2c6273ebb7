"""Feed-forward layers: Linear, LayerNorm, Dropout, activations, Sequential.

Every layer follows the cache-and-backward protocol described in
:mod:`repro.nn.module`. Inputs may carry arbitrary leading dimensions;
layers operate on the trailing feature axis, which lets the same Linear
serve both ``(batch, features)`` and ``(batch, time, features)`` tensors.
A member stack's layer (parameters ``(M, *shape)``) takes inputs with a
leading member axis ``(M, ...)``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.initializers import xavier_uniform, zeros
from repro.nn.module import Module, Parameter, member_view
from repro.rng import RngLike, ensure_rng


class Linear(Module):
    """Affine map ``y = x W + b`` on the trailing axis."""

    stackable = True

    def __init__(self, in_features: int, out_features: int, rng: RngLike = None,
                 bias: bool = True) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError("feature dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng),
                                name="weight")
        self.use_bias = bias
        if bias:
            self.bias = Parameter(zeros((out_features,)), name="bias")
        self._cache_x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.in_features:
            raise ConfigurationError(
                f"expected trailing dim {self.in_features}, got {x.shape}"
            )
        self._cache_x = x
        # A stack's weights broadcast per member, so each member runs
        # the gemms a plain model's `x @ W` runs.
        y = x @ member_view(self.weight.value, 2, x.ndim)
        if self.use_bias:
            y = y + member_view(self.bias.value, 1, x.ndim)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._cache_x
        if x is None:
            raise RuntimeError("backward called before forward")
        lead = self.weight.value.shape[:-2]
        flat_x = x.reshape(lead + (-1, self.in_features))
        flat_g = np.asarray(grad_out, dtype=float).reshape(
            lead + (-1, self.out_features)
        )
        self.weight.grad += flat_x.mT @ flat_g
        if self.use_bias:
            self.bias.grad += flat_g.sum(axis=-2)
        return (flat_g @ self.weight.value.mT).reshape(x.shape)


class LayerNorm(Module):
    """Layer normalization over the trailing feature axis."""

    stackable = True

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.features = features
        self.eps = eps
        self.gamma = Parameter(np.ones(features), name="gamma")
        self.beta = Parameter(np.zeros(features), name="beta")
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std)
        return x_hat * member_view(self.gamma.value, 1, x.ndim) + member_view(
            self.beta.value, 1, x.ndim
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std = self._cache
        grad_out = np.asarray(grad_out, dtype=float)
        # Sum over every axis but the features and a member axis.
        members = self.gamma.value.ndim - 1
        axes = tuple(range(members, grad_out.ndim - 1))
        self.gamma.grad += (grad_out * x_hat).sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        g = grad_out * member_view(self.gamma.value, 1, grad_out.ndim)
        n = self.features
        # Standard layer-norm backward: project out mean and x_hat components.
        dx = (
            g
            - g.mean(axis=-1, keepdims=True)
            - x_hat * (g * x_hat).mean(axis=-1, keepdims=True)
        ) * inv_std
        return dx


class Dropout(Module):
    """Inverted dropout; identity when the module is in eval mode."""

    def __init__(self, p: float = 0.1, rng: RngLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = ensure_rng(rng)
        self._mask: np.ndarray | None = None

    @property
    def stackable(self) -> bool:
        # A stack would draw one mask over every member at once, not
        # the draws each member's own model makes.
        return self.p <= 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self.training or self.p <= 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return np.asarray(grad_out, dtype=float)
        return grad_out * self._mask


class Tanh(Module):
    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._out**2)


class ReLU(Module):
    stackable = True

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class Sigmoid(Module):
    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = sigmoid(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._out * (1.0 - self._out)


class Sequential(Module):
    """Chain of layers applied in order; backward runs in reverse."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(self.layers):
            setattr(self, f"layer_{i}", layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, without a branch mask.

    ``e = exp(-|x|)`` never overflows; ``1 / (1 + e)`` for ``x >= 0``
    and ``e / (1 + e)`` below it are the two stable forms, picked per
    element by ``where``. ``minimum(x, -x)`` is ``-|x|`` that keeps a
    NaN's sign, so every output bit, NaNs included, matches evaluating
    the two forms on a boolean mask.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    x = np.asarray(x, dtype=float)
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)

__all__ = [
    "Linear",
    "LayerNorm",
    "Dropout",
    "Tanh",
    "ReLU",
    "Sigmoid",
    "Sequential",
    "sigmoid",
    "softmax",
]
