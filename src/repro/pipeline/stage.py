"""The unit of staged execution.

A :class:`Stage` is a named, pure unit of work: it declares the
artifacts it consumes (``inputs``), the artifact it produces
(``output``), a configuration object whose fingerprint enters the cache
key, and — critically for a DP system — whether it *spends privacy
budget*. Budget-spending stages draw fresh noise on every execution and
are structurally barred from the artifact cache: serving a stored noisy
release while charging ε again (or, worse, not at all) would silently
break the privacy accounting, so ``spends_budget=True`` together with
``cacheable=True`` is rejected at construction time.

The stage body receives a :class:`StageContext` (rng + accountant) plus
its declared inputs as keyword arguments and returns the output
artifact value. A ``batched`` stage's body instead takes every run of
a lockstep execution at once (see
:meth:`repro.pipeline.Pipeline.run_lockstep`): a list of contexts and,
per declared input, a list of values, one per run; it returns a list
of outputs in the same order. Its outputs must not depend on which runs
share the call, so each run's artifact — and cache entry — is the one a
call for that run alone would make.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.dp.budget import BudgetAccountant
from repro.exceptions import ConfigurationError, PrivacyError


@dataclass
class StageContext:
    """What a stage body may touch besides its declared inputs."""

    rng: np.random.Generator
    accountant: BudgetAccountant | None = None


@dataclass(frozen=True)
class Stage:
    """A named, cache-aware unit of pipeline work."""

    name: str
    fn: Callable[..., Any] = field(repr=False)
    inputs: tuple[str, ...] = ()
    output: str | None = None        #: artifact name; defaults to ``name``
    config: Any = None               #: fingerprinted into the cache key
    spends_budget: bool = False      #: declared privacy charge
    uses_rng: bool = False           #: consumes the run's generator
    cacheable: bool | None = None    #: default: ``not spends_budget``
    batched: bool = False            #: ``fn`` takes all runs' inputs at once

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("stage name must be non-empty")
        if not callable(self.fn):
            raise ConfigurationError(f"stage {self.name!r} fn must be callable")
        if self.spends_budget and self.cacheable:
            raise PrivacyError(
                f"stage {self.name!r} spends privacy budget and can never be "
                "cached: a replayed noisy artifact would break ε accounting"
            )
        object.__setattr__(self, "inputs", tuple(self.inputs))

    @property
    def output_name(self) -> str:
        return self.output or self.name

    @property
    def is_cacheable(self) -> bool:
        """Effective cache eligibility (budget-spending stages: never)."""
        if self.spends_budget:
            return False
        return True if self.cacheable is None else bool(self.cacheable)


__all__ = ["Stage", "StageContext"]
