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
the CLI and the experiment harness can instantiate them by string. Each
mechanism also adapts to the staged execution engine via
:meth:`Mechanism.as_stage` — a single budget-spending
:class:`~repro.pipeline.Stage` that composes with context-building and
evaluation stages, and through which :meth:`Mechanism.run` itself
executes.
"""

from __future__ import annotations

import abc
import time

import numpy as np

from repro.data.matrix import ConsumptionMatrix
from repro.dp.budget import BudgetAccountant
from repro.dp.sensitivity import require_finite
from repro.exceptions import ConfigurationError, PrivacyError
from repro.obs import get_tracer
from repro.pipeline import ArtifactStore, Pipeline, PublicationResult, Stage
from repro.rng import RngLike, ensure_rng

#: Flow-analysis role (repro.lint.flow): ``run`` charges its own
#: accountant; concrete ``sanitize`` overrides are derived from the
#: registry by the analysis itself.
__flow_sanitizers__ = ("Mechanism.run",)

#: The unified release record. ``MechanismRun`` predates the pipeline
#: refactor and is kept as an alias; new code should name
#: :class:`repro.pipeline.PublicationResult` directly.
MechanismRun = PublicationResult

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

    # ------------------------------------------------------------------
    # pipeline adapter
    # ------------------------------------------------------------------

    def as_stage(
        self,
        epsilon: float,
        input_name: str = "norm",
        output: str = "sanitized",
    ) -> Stage:
        """This mechanism as one budget-spending pipeline stage.

        The stage reads the ``input_name`` artifact, charges ``epsilon``
        on the pipeline's accountant and emits the sanitized matrix as
        ``output``. ``spends_budget=True`` means it is never served from
        an artifact cache — every run draws fresh noise.
        """
        if epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {epsilon}")

        def sanitize_stage(ctx, **artifacts):
            return self.sanitize(
                artifacts[input_name],
                epsilon,
                rng=ctx.rng,
                accountant=ctx.accountant,
            )

        return Stage(
            name=f"baseline/{self.name}",
            fn=sanitize_stage,
            inputs=(input_name,),
            output=output,
            config={"mechanism": self.name, "epsilon": epsilon},
            spends_budget=True,
            uses_rng=True,
        )

    def run(
        self,
        norm_matrix: ConsumptionMatrix,
        epsilon: float,
        rng: RngLike = None,
        store: ArtifactStore | None = None,
    ) -> MechanismRun:
        """Sanitize with timing and budget enforcement.

        Runs as a single-stage :class:`~repro.pipeline.Pipeline`, so the
        release carries a :class:`~repro.pipeline.RunRecord` like every
        STPT phase does. Output is bit-identical to calling
        :meth:`sanitize` directly with the same generator.
        """
        require_finite(norm_matrix.values, "normalized consumption matrix")
        if epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {epsilon}")
        accountant = BudgetAccountant(epsilon)
        generator = ensure_rng(rng)
        started = time.perf_counter()
        pipeline = Pipeline(
            [self.as_stage(epsilon)], store=store, name=f"baseline/{self.name}"
        )
        with get_tracer().span(
            "mechanism.run", mechanism=self.name, epsilon=epsilon
        ):
            run = pipeline.run(
                {"norm": norm_matrix}, rng=generator, accountant=accountant
            )
        elapsed = time.perf_counter() - started
        accountant.assert_within_budget()
        return MechanismRun(
            sanitized=run.artifact("sanitized"),
            epsilon=epsilon,
            elapsed_seconds=elapsed,
            mechanism=self.name,
            records=list(run.records),
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
    "MechanismRun",
    "Mechanism",
    "available_mechanisms",
    "get_mechanism",
    "spend_all_slices",
    "as_matrix",
]
