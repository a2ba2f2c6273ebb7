"""The staged execution engine.

A :class:`Pipeline` runs an ordered list of :class:`~repro.pipeline.stage.Stage`
objects, threading one generator and one
:class:`~repro.dp.budget.BudgetAccountant` through them and recording a
:class:`~repro.pipeline.result.RunRecord` per stage. With an
:class:`~repro.pipeline.store.ArtifactStore` attached, deterministic
DP-free stages are served from cache when their key — stage name,
config fingerprint, input fingerprints, entry rng state — matches a
prior execution; budget-spending stages are *never* looked up or
stored.

Cache hits are bit-exact for everything downstream: stochastic cached
stages remember the generator state they left behind, and a hit
fast-forwards the live generator to that state, so the next noise draw
is identical whether the stage ran or replayed.

:meth:`Pipeline.run_lockstep` runs several independent runs stage by
stage — every run's first stage, then every run's second, and so on —
with cache lookups, generator fast-forward, ε and records kept per run.
A ``batched`` stage takes all its runs' cache misses in one call, which
is how ``stpt/pattern-train`` fits a group of shards' forecasters as
one member stack. :meth:`Pipeline.run` is the one-run case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.dp.budget import BudgetAccountant
from repro.exceptions import ConfigurationError
from repro.obs import get_metrics, get_tracer, resource_snapshot
from repro.pipeline.fingerprint import combine, fingerprint, rng_fingerprint
from repro.pipeline.result import RunRecord
from repro.pipeline.stage import Stage, StageContext
from repro.pipeline.store import ArtifactStore
from repro.rng import RngLike, ensure_rng


@dataclass
class PipelineRun:
    """Everything one ``Pipeline.run`` produced."""

    artifacts: dict[str, Any]
    records: list[RunRecord] = field(default_factory=list)
    accountant: BudgetAccountant | None = None

    def artifact(self, name: str) -> Any:
        try:
            return self.artifacts[name]
        except KeyError:
            raise ConfigurationError(
                f"no artifact {name!r}; have {sorted(self.artifacts)}"
            ) from None

    def record(self, stage: str) -> RunRecord:
        for record in self.records:
            if record.stage == stage:
                return record
        raise ConfigurationError(f"no record for stage {stage!r}")

    @property
    def seconds(self) -> float:
        return sum(record.seconds for record in self.records)

    @property
    def epsilon_spent(self) -> float:
        return sum(record.epsilon_spent for record in self.records)


class Pipeline:
    """Composes stages over a shared rng, accountant and artifact store."""

    def __init__(
        self,
        stages: Sequence[Stage],
        store: ArtifactStore | None = None,
        name: str = "pipeline",
    ) -> None:
        stages = list(stages)
        if not stages:
            raise ConfigurationError("a pipeline needs at least one stage")
        seen: set[str] = set()
        for stage in stages:
            if stage.name in seen:
                raise ConfigurationError(f"duplicate stage name {stage.name!r}")
            seen.add(stage.name)
        self.stages = stages
        self.store = store
        self.name = name

    def run(
        self,
        initial: Mapping[str, Any] | None = None,
        rng: RngLike = None,
        accountant: BudgetAccountant | None = None,
        seed: int | None = None,
        stage_rngs: Mapping[str, RngLike] | None = None,
    ) -> PipelineRun:
        """Execute every stage in order.

        ``initial`` seeds the artifact namespace (the pipeline's
        external inputs). ``rng`` is the generator threaded through
        every stage, except those given a dedicated generator via
        ``stage_rngs`` — the hook sweep helpers use to pin the pattern
        phase to one stream while the sanitize phase varies per point.
        ``seed`` is an optional extra cache-key salt recorded for
        provenance.
        """
        (run,) = self.run_lockstep(
            [initial], [rng], [accountant], seed=seed, stage_rngs=[stage_rngs]
        )
        return run

    def run_lockstep(
        self,
        initials: Sequence[Mapping[str, Any] | None],
        rngs: Sequence[RngLike],
        accountants: Sequence[BudgetAccountant | None] | None = None,
        seed: int | None = None,
        stage_rngs: Sequence[Mapping[str, RngLike] | None] | None = None,
    ) -> list[PipelineRun]:
        """Execute several independent runs stage by stage.

        Run ``i`` starts from ``initials[i]`` with generator ``rngs[i]``
        (each run needs its own), accountant ``accountants[i]`` and
        ``stage_rngs[i]``, and ends exactly as ``run`` would have left
        it: the same artifacts, cache dispositions, generator positions,
        ε and records. Stages execute in order across all runs; a
        ``batched`` stage makes one call for the runs that missed the
        cache, and each of those runs' records gets an equal share of
        that call's wall time.
        """
        count = len(initials)
        accountants = list(accountants) if accountants is not None else [None] * count
        stage_rngs = list(stage_rngs) if stage_rngs is not None else [None] * count
        if not len(rngs) == len(accountants) == len(stage_rngs) == count:
            raise ConfigurationError(
                f"{count} run(s) need as many generators, accountants and "
                "stage_rngs entries"
            )
        generators = [ensure_rng(rng) for rng in rngs]
        ledgers = [id(accountant) for accountant in accountants if accountant is not None]
        if len({id(generator) for generator in generators}) < count or len(
            set(ledgers)
        ) < len(ledgers):
            raise ConfigurationError(
                "each lockstep run needs its own generator and accountant"
            )
        overrides = [
            {
                stage_name: ensure_rng(stage_rng)
                for stage_name, stage_rng in (run_rngs or {}).items()
            }
            for run_rngs in stage_rngs
        ]
        unknown = set().union(*overrides) - {stage.name for stage in self.stages}
        if unknown:
            raise ConfigurationError(
                f"stage_rngs for unknown stage(s): {sorted(unknown)}"
            )
        artifacts: list[dict[str, Any]] = [dict(initial or {}) for initial in initials]
        records: list[list[RunRecord]] = [[] for __ in range(count)]
        tracer = get_tracer()
        metrics = get_metrics()

        with tracer.span(
            "pipeline.run", pipeline=self.name, stages=len(self.stages), runs=count
        ):
            for stage in self.stages:
                lanes = [
                    _Lane(
                        stage,
                        artifacts[index],
                        overrides[index].get(stage.name, generators[index]),
                        accountants[index],
                    )
                    for index in range(count)
                ]
                # The span is strictly observational: it never touches a
                # generator or an accountant, so traced and untraced runs
                # produce bit-identical artifacts.
                with tracer.span("pipeline.stage", stage=stage.name) as span:
                    batches = [lanes] if stage.batched else [[lane] for lane in lanes]
                    for batch in batches:
                        self._execute(stage, batch, seed)
                    span.set_attribute(
                        "cache", ",".join(lane.disposition for lane in lanes)
                    )
                    span.set_attribute(
                        "epsilon_spent", sum(lane.epsilon_delta for lane in lanes)
                    )
                    span.set_attribute("spends_budget", stage.spends_budget)
                    if count > 1:
                        span.set_attribute("runs", count)
                    if getattr(tracer, "resource", False):
                        span.set_attribute("resource", resource_snapshot())

                for index, lane in enumerate(lanes):
                    if lane.key is not None:
                        metrics.counter(
                            "pipeline.cache.hit" if lane.cached else "pipeline.cache.miss"
                        )
                    if lane.epsilon_delta > 0.0:
                        metrics.counter("dp.epsilon.spent", lane.epsilon_delta)
                    metrics.histogram("pipeline.stage.seconds", lane.seconds)
                    artifacts[index][stage.output_name] = lane.value
                    records[index].append(
                        RunRecord(
                            stage=stage.name,
                            seconds=lane.seconds,
                            epsilon_spent=lane.epsilon_delta,
                            spends_budget=stage.spends_budget,
                            cached=lane.cached,
                            artifact_key=lane.key,
                            rng_state=lane.entry_state,
                        )
                    )
        return [
            PipelineRun(artifacts=run_artifacts, records=run_records, accountant=accountant)
            for run_artifacts, run_records, accountant in zip(
                artifacts, records, accountants
            )
        ]

    def _execute(self, stage: Stage, batch: list["_Lane"], seed: int | None) -> None:
        """Look up, execute and store one stage for a batch of runs."""
        for lane in batch:
            lane.entry_state = rng_fingerprint(lane.rng) if stage.uses_rng else None
            if self.store is not None and stage.is_cacheable:
                lane.key = self._key(stage, lane.inputs, lane.entry_state, seed)
        for lane in batch:
            started = time.perf_counter()
            if lane.key is not None:
                hit = self.store.get(lane.key)  # type: ignore[union-attr]
                if hit is not None:
                    lane.value = hit.value
                    lane.cached = True
                    if stage.uses_rng and hit.rng_state is not None:
                        # Fast-forward the live stream to where the
                        # stage left it, keeping downstream draws
                        # bit-identical to a cold run.
                        lane.rng.bit_generator.state = hit.rng_state
            lane.seconds += time.perf_counter() - started

        misses = [lane for lane in batch if not lane.cached]
        if misses:
            started = time.perf_counter()
            contexts = [
                StageContext(rng=lane.rng, accountant=lane.accountant, seed=seed)
                for lane in misses
            ]
            if stage.batched:
                values = stage.fn(
                    contexts,
                    **{name: [lane.inputs[name] for lane in misses] for name in stage.inputs},
                )
                if len(values) != len(misses):
                    raise ConfigurationError(
                        f"batched stage {stage.name!r} returned {len(values)} "
                        f"value(s) for {len(misses)} run(s)"
                    )
            else:
                (lane,) = misses
                values = [stage.fn(contexts[0], **lane.inputs)]
            share = (time.perf_counter() - started) / len(misses)
            for lane, value in zip(misses, values):
                lane.value = value
                lane.seconds += share

        for lane in misses:
            started = time.perf_counter()
            if lane.key is not None:
                self.store.put(  # type: ignore[union-attr]
                    lane.key,
                    lane.value,
                    stage=stage.name,
                    rng_state=lane.rng.bit_generator.state if stage.uses_rng else None,
                    spends_budget=stage.spends_budget,
                )
            lane.seconds += time.perf_counter() - started
        for lane in batch:
            lane.close()

    def _key(
        self,
        stage: Stage,
        inputs: Mapping[str, Any],
        entry_state: str | None,
        seed: int | None,
    ) -> str:
        input_parts = {name: fingerprint(value) for name, value in inputs.items()}
        return combine(
            stage.name,
            fingerprint(stage.config),
            input_parts,
            entry_state,
            seed,
        )


class _Lane:
    """One run's passage through one stage of a lockstep execution."""

    def __init__(
        self,
        stage: Stage,
        artifacts: Mapping[str, Any],
        rng: Any,
        accountant: BudgetAccountant | None,
    ) -> None:
        missing = [name for name in stage.inputs if name not in artifacts]
        if missing:
            raise ConfigurationError(
                f"stage {stage.name!r} is missing input artifact(s) "
                f"{missing}; available: {sorted(artifacts)}"
            )
        self.inputs = {name: artifacts[name] for name in stage.inputs}
        self.rng = rng
        self.accountant = accountant
        self.spent_before = accountant.spent_epsilon if accountant else 0.0
        self.entry_state: str | None = None
        self.key: str | None = None
        self.value: Any = None
        self.cached = False
        self.seconds = 0.0
        self.epsilon_delta = 0.0

    @property
    def disposition(self) -> str:
        if self.key is None:
            return "uncacheable"
        return "hit" if self.cached else "miss"

    def close(self) -> None:
        spent = self.accountant.spent_epsilon if self.accountant else 0.0
        self.epsilon_delta = spent - self.spent_before


__all__ = ["Pipeline", "PipelineRun"]
