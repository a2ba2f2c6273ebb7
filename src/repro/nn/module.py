"""Minimal module system for the numpy neural-network substrate.

The paper trains small sequence models (attention + GRU, hidden size 64)
with PyTorch; torch is unavailable offline, so this package implements
the needed subset from scratch. Modules follow the classic
define-by-run-with-manual-backward pattern:

* ``forward(x)`` computes the output and stashes whatever intermediate
  values the backward pass needs on ``self`` (the *cache*),
* ``backward(grad_output)`` consumes the cache, accumulates parameter
  gradients into ``Parameter.grad`` and returns the gradient with
  respect to the module input.

Caches hold exactly one forward pass, which is all the training loop
ever needs (forward, loss, backward, step).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "") -> None:
        self.value = np.asarray(value, dtype=float)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Module:
    """Base class: tracks parameters and sub-modules automatically."""

    def __init__(self) -> None:
        self._params: dict[str, Parameter] = {}
        self._modules: dict[str, Module] = {}
        self.training = True

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_params", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        yield from self._params.values()
        for child in self._modules.values():
            yield from child.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._params.items():
            yield f"{prefix}{name}", param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def num_parameters(self) -> int:
        return sum(p.value.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter value keyed by its dotted name."""
        return {name: p.value.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=float)
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.value.shape}"
                )
            # Copy into the existing arrays: rebinding them would detach
            # the parameter from its optimizer's flat buffer.
            param.value[...] = value
            param.grad.fill(0.0)

    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

__all__ = [
    "Parameter",
    "Module",
]
