"""Common interface of the benchmark mechanisms (Section 5.1).

Every baseline publishes the *normalized* consumption matrix over the
test horizon under **user-level** ε-DP — the same contract STPT's
sanitization phase fulfils — so utility comparisons are apples to
apples. Under user-level privacy a household contributes to every time
slice of its pillar, hence:

* across time slices composition is sequential (budgets add up), and
* across spatial cells it is parallel (cells partition the users).

Each mechanism documents how it spreads its budget over that structure.

Concrete subclasses self-register in :data:`MECHANISM_REGISTRY` (keyed
by their class-level ``name``, or the class name when ``name`` is only
set per-instance, as the parameterized Fourier/Wavelet families do), so
the CLI and the experiment harness can instantiate them by string. A
baseline's release is one budget-spending step with nothing to replay,
so :meth:`Mechanism.run` calls :meth:`Mechanism.sanitize` directly
rather than through the staged engine.
"""

from __future__ import annotations

import abc
import time

import numpy as np

from repro.data.matrix import ConsumptionMatrix
from repro.dp.budget import BudgetAccountant
from repro.dp.sensitivity import require_finite
from repro.exceptions import ConfigurationError, PrivacyError
from repro.obs import get_metrics, get_tracer
from repro.pipeline import PublicationResult, RunRecord
from repro.rng import RngLike, ensure_rng

#: Flow-analysis role (repro.lint.flow): ``run`` charges its own
#: accountant; concrete ``sanitize`` overrides are derived from the
#: registry by the analysis itself.
__flow_sanitizers__ = ("Mechanism.run",)

#: Concrete mechanisms by registry name, populated by
#: ``Mechanism.__init_subclass__`` at import time.
MECHANISM_REGISTRY: dict[str, type["Mechanism"]] = {}


class Mechanism(abc.ABC):
    """A user-level ε-DP publisher of consumption matrices."""

    #: Display name used by the experiment harness and figures.
    name: str = "mechanism"

    def __init_subclass__(cls, register: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not register:
            return
        # ``inspect.isabstract`` is unreliable while the class is still
        # being created, so check the abstract marker directly.
        if getattr(cls.sanitize, "__isabstractmethod__", False):
            return
        key = cls.__dict__.get("name") or cls.__name__
        MECHANISM_REGISTRY[str(key)] = cls

    @abc.abstractmethod
    def sanitize(
        self,
        norm_matrix: ConsumptionMatrix,
        epsilon: float,
        rng: RngLike = None,
        accountant: BudgetAccountant | None = None,
    ) -> ConsumptionMatrix:
        """Return an ε-DP version of ``norm_matrix`` (normalized scale)."""

    def run(
        self,
        norm_matrix: ConsumptionMatrix,
        epsilon: float,
        rng: RngLike = None,
    ) -> PublicationResult:
        """Sanitize with timing and budget enforcement.

        The release carries one :class:`~repro.pipeline.RunRecord`
        (``baseline/<name>``), shaped like each STPT stage's, and its
        ε is added to the ``dp.epsilon.spent`` counter. Output is
        bit-identical to calling :meth:`sanitize` directly with the
        same generator.
        """
        require_finite(norm_matrix.values, "normalized consumption matrix")
        if epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {epsilon}")
        accountant = BudgetAccountant(epsilon)
        generator = ensure_rng(rng)
        started = time.perf_counter()
        with get_tracer().span(
            "mechanism.run", mechanism=self.name, epsilon=epsilon
        ) as span:
            sanitized = self.sanitize(
                norm_matrix, epsilon, rng=generator, accountant=accountant
            )
            spent = accountant.spent_epsilon
            span.set_attribute("epsilon_spent", spent)
        elapsed = time.perf_counter() - started
        get_metrics().counter("dp.epsilon.spent", spent)
        accountant.assert_within_budget()
        return PublicationResult(
            sanitized=sanitized,
            epsilon_spent=epsilon,
            elapsed_seconds=elapsed,
            mechanism=self.name,
            records=[
                RunRecord(
                    stage=f"baseline/{self.name}",
                    seconds=elapsed,
                    epsilon_spent=spent,
                    spends_budget=True,
                    cached=False,
                )
            ],
        )


def available_mechanisms() -> list[str]:
    """Sorted registry names of every importable concrete mechanism."""
    import repro.baselines  # noqa: F401  (imports populate the registry)

    return sorted(MECHANISM_REGISTRY)


def get_mechanism(name: str, *args, **kwargs) -> Mechanism:
    """Instantiate a registered mechanism by name.

    Extra arguments go to the constructor, e.g.
    ``get_mechanism("FourierPerturbation", k=20)``.
    """
    import repro.baselines  # noqa: F401  (imports populate the registry)

    try:
        cls = MECHANISM_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown mechanism {name!r}; "
            f"available: {sorted(MECHANISM_REGISTRY)}"
        ) from None
    return cls(*args, **kwargs)


def spend_all_slices(
    accountant: BudgetAccountant | None, epsilon: float, n_slices: int, label: str
) -> float:
    """Charge a budget split evenly over ``n_slices`` sequential slices.

    Returns the per-slice budget. Centralized so every baseline
    accounts the time dimension identically.
    """
    per_slice = epsilon / n_slices
    if accountant is not None:
        accountant.spend(epsilon, label=f"{label}[{n_slices} slices]")
    return per_slice


def as_matrix(values: np.ndarray) -> ConsumptionMatrix:
    return ConsumptionMatrix(np.asarray(values, dtype=float))

__all__ = [
    "MECHANISM_REGISTRY",
    "Mechanism",
    "available_mechanisms",
    "get_mechanism",
    "spend_all_slices",
    "as_matrix",
]
