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

*Member stacks.* :func:`stack_members` turns M same-architecture models
into one module whose every parameter carries a leading member axis,
``(M, *shape)``. A layer that supports the axis (``stackable``) reads
it off its own parameters' shapes and then expects inputs with the same
leading axis; a plain model is the case with no member axis, through
the same code. Each member's slice goes through exactly the gemms,
reductions and elementwise operations of the plain model, in the same
shapes and order, so a stack trains every member bit for bit as if it
ran alone (see ``docs/nn.md``).
"""

from __future__ import annotations

import copy
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError


class Parameter:
    """A trainable tensor with an accumulated gradient.

    ``members`` is the length of a member stack's leading axis on
    ``value`` and ``grad`` (0 for a plain model's parameter).
    """

    __slots__ = ("value", "grad", "name", "members")

    def __init__(self, value: np.ndarray, name: str = "") -> None:
        self.value = np.asarray(value, dtype=float)
        self.grad = np.zeros_like(self.value)
        self.name = name
        self.members = 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Module:
    """Base class: tracks parameters and sub-modules automatically."""

    #: Whether forward/backward accept a leading member axis (see
    #: :func:`stack_members`).
    stackable = False
    #: The models a member stack was built from; empty for a plain model.
    members: tuple["Module", ...] = ()

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

    def submodules(self) -> Iterator["Module"]:
        """This module and every module below it."""
        yield self
        for child in self._modules.values():
            yield from child.submodules()


def member_view(value: np.ndarray, plain_ndim: int, ndim: int) -> np.ndarray:
    """``value`` shaped to broadcast against an ``ndim``-dim input.

    A plain parameter (``plain_ndim`` dims) broadcasts as it is. A
    member stack's leading axis has to meet the input's leading member
    axis, so singleton axes go in right after it.
    """
    if value.ndim == plain_ndim:
        return value
    return value.reshape(
        value.shape[:1] + (1,) * (ndim - value.ndim) + value.shape[1:]
    )


def stack_members(models: Sequence[Module]) -> Module:
    """One module holding every model's parameters on a leading member axis.

    The models must share one architecture, and every module in it must
    be ``stackable``: dropout with ``p > 0``, for instance, is not,
    because its mask draws would depend on the stack. The stack is a
    copy of the first model whose parameter ``(M, *shape)`` holds member
    ``m``'s values at index ``m``; ``members`` keeps the models, so a
    trainer can copy each member's weights back (:class:`~repro.nn.
    training.Trainer` does this at the end of ``fit``).
    """
    models = list(models)
    if not models:
        raise ConfigurationError("a member stack needs at least one model")
    first = models[0]
    blocked = sorted(
        {type(module).__name__ for module in first.submodules() if not module.stackable}
    )
    if blocked:
        raise ConfigurationError(f"cannot stack members containing {blocked}")
    states = [model.state_dict() for model in models]
    for model, state in zip(models, states):
        shapes = {name: value.shape for name, value in state.items()}
        if type(model) is not type(first) or shapes != {
            name: value.shape for name, value in states[0].items()
        }:
            raise ConfigurationError(
                "members of a stack must share one architecture"
            )
    stack = copy.deepcopy(first)
    for name, param in stack.named_parameters():
        param.value = np.stack([state[name] for state in states])
        param.grad = np.zeros_like(param.value)
        param.members = len(models)
    stack.members = tuple(models)
    return stack

__all__ = [
    "Parameter",
    "Module",
    "member_view",
    "stack_members",
]
