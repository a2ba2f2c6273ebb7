"""First-order optimizers: SGD (with momentum), RMSProp and Adam.

The paper trains its pattern-recognition models with RMSProp at a
learning rate of 1e-3 (Appendix C); SGD and Adam are provided for the
ablations and tests.

Every optimizer holds its parameters in one flat buffer: construction
copies the values and gradients into two contiguous arrays and
re-points each ``Parameter.value``/``Parameter.grad`` at a view of its
slice. The moment and scratch buffers are single arrays of the same
length, so a step is a handful of in-place ``np.multiply``/``np.add``/
``np.divide`` calls with ``out=`` over the whole model: no
per-parameter loop and no temporaries. The kernels are purely
elementwise and follow the classic expression-per-line formulas
operation for operation, so a step produces the same bits as updating
each parameter on its own — and, for a member stack's parameters, the
same bits for each member as its own model's step.

Aliasing contract: code may update ``Parameter.value`` and
``Parameter.grad`` in place — backward passes accumulate with ``+=``,
:func:`clip_grad_norm` scales with ``*=`` and
:meth:`~repro.nn.module.Module.load_state_dict` copies into the
existing arrays — but must not rebind them, which would detach the
parameter from its optimizer.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.module import Parameter


def _flatten_into_views(params: list[Parameter]) -> tuple[np.ndarray, np.ndarray]:
    """Copy values/grads into contiguous buffers; re-point params at views."""
    total = sum(p.value.size for p in params)
    flat_value = np.empty(total)
    flat_grad = np.empty(total)
    offset = 0
    for p in params:
        n = p.value.size
        flat_value[offset : offset + n] = p.value.ravel()
        flat_grad[offset : offset + n] = p.grad.ravel()
        p.value = flat_value[offset : offset + n].reshape(p.value.shape)
        p.grad = flat_grad[offset : offset + n].reshape(p.grad.shape)
        offset += n
    return flat_value, flat_grad


class Optimizer:
    """Base optimizer over a fixed parameter list in one flat buffer."""

    def __init__(
        self, params: list[Parameter] | tuple[Parameter, ...], lr: float
    ) -> None:
        params = list(params)
        if not params:
            raise ConfigurationError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        if len({p.members for p in params}) > 1:
            raise ConfigurationError(
                "an optimizer's parameters must all be plain or all come "
                "from one member stack"
            )
        self.params = params
        self.lr = lr
        self._flat_value, self._flat_grad = _flatten_into_views(params)

    def zero_grad(self) -> None:
        self._flat_grad.fill(0.0)

    def clip_grad_norm(self, max_norm: float) -> float | np.ndarray:
        """Global-L2 gradient clip over this optimizer's parameters."""
        return clip_grad_norm(self.params, max_norm)

    def step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, params, lr: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must lie in [0, 1)")
        self.momentum = momentum
        self._velocity = np.zeros_like(self._flat_value)
        self._scratch = np.empty_like(self._flat_value)

    def step(self) -> None:
        value, velocity, scratch = self._flat_value, self._velocity, self._scratch
        np.multiply(self._flat_grad, self.lr, out=scratch)
        if self.momentum:
            np.multiply(velocity, self.momentum, out=velocity)
            np.subtract(velocity, scratch, out=velocity)
            np.add(value, velocity, out=value)
        else:
            np.subtract(value, scratch, out=value)


class RMSProp(Optimizer):
    """RMSProp (Tieleman & Hinton): scale updates by an EMA of grad²."""

    def __init__(
        self, params, lr: float = 1e-3, alpha: float = 0.99, eps: float = 1e-8
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError("alpha must lie in (0, 1)")
        self.alpha = alpha
        self.eps = eps
        self._square_avg = np.zeros_like(self._flat_value)
        self._scratch = np.empty_like(self._flat_value)
        self._update = np.empty_like(self._flat_value)

    def step(self) -> None:
        value, grad = self._flat_value, self._flat_grad
        square_avg, scratch, update = self._square_avg, self._scratch, self._update
        # square_avg = alpha * square_avg + (1 - alpha) * grad²
        np.multiply(square_avg, self.alpha, out=square_avg)
        np.multiply(grad, grad, out=scratch)
        np.multiply(scratch, 1.0 - self.alpha, out=scratch)
        np.add(square_avg, scratch, out=square_avg)
        # value -= lr * grad / (sqrt(square_avg) + eps)
        np.sqrt(square_avg, out=scratch)
        np.add(scratch, self.eps, out=scratch)
        np.multiply(grad, self.lr, out=update)
        np.divide(update, scratch, out=update)
        np.subtract(value, update, out=value)


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError("betas must lie in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = np.zeros_like(self._flat_value)
        self._v = np.zeros_like(self._flat_value)
        self._scratch = np.empty_like(self._flat_value)
        self._update = np.empty_like(self._flat_value)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        value, grad = self._flat_value, self._flat_grad
        m, v, scratch, update = self._m, self._v, self._scratch, self._update
        # m = beta1 * m + (1 - beta1) * grad
        np.multiply(m, self.beta1, out=m)
        np.multiply(grad, 1.0 - self.beta1, out=scratch)
        np.add(m, scratch, out=m)
        # v = beta2 * v + (1 - beta2) * grad²
        np.multiply(v, self.beta2, out=v)
        np.multiply(grad, grad, out=scratch)
        np.multiply(scratch, 1.0 - self.beta2, out=scratch)
        np.add(v, scratch, out=v)
        # value -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        np.add(scratch, self.eps, out=scratch)
        np.divide(m, bias1, out=update)
        np.multiply(update, self.lr, out=update)
        np.divide(update, scratch, out=update)
        np.subtract(value, update, out=value)


def clip_grad_norm(params, max_norm: float) -> float | np.ndarray:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm, which training loops can log to detect
    exploding gradients. Scaling is in place (``*=``), so the gradients
    stay views of their optimizer's flat buffer.

    A member stack's parameters (``Parameter.members > 0``) carry a
    leading member axis: each member is clipped to its own global norm,
    exactly as its own model's clip would, and the return value holds
    the per-member norms.
    """
    if max_norm <= 0:
        raise ConfigurationError("max_norm must be positive")
    params = list(params)
    members = params[0].members if params else 0
    # A stack's member m is row m of each gradient's (members, -1) view.
    grads = (
        [p.grad.reshape(members, -1) for p in params]
        if members
        else [p.grad for p in params]
    )
    # One sum of squares per parameter (and member), added in parameter
    # order. The reduce is the one np.sum(g**2) runs; over a row it runs
    # the same pairwise sum over the same elements as on that member's
    # own gradient.
    axis = 1 if members else None
    squares = sum(np.add.reduce(np.square(g), axis=axis) for g in grads)
    total = np.sqrt(squares)
    clipped = total > max_norm
    if np.count_nonzero(clipped):
        # Unclipped members scale by exactly 1.0, which keeps their bits.
        scale = np.divide(max_norm, total, out=np.ones_like(total), where=clipped)
        if members:
            scale = scale[:, None]
        for g in grads:
            g *= scale
    return total if members else float(total)

__all__ = [
    "Optimizer",
    "SGD",
    "RMSProp",
    "Adam",
    "clip_grad_norm",
]
