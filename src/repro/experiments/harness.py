"""Shared experiment plumbing: contexts, runners and table formatting.

An :class:`ExperimentContext` materializes one (dataset, distribution,
preset) combination — day-level readings, consumption matrices, query
workloads — and the runner functions evaluate STPT or a baseline
mechanism against it, returning plain dictionaries the figure runners
and benchmarks print.

Context building runs as a four-stage cacheable
:class:`~repro.pipeline.Pipeline` (dataset → placement → matrices →
workloads); none of the stages touches private data with noise, so all
four replay from an :class:`~repro.pipeline.ArtifactStore`. The hourly
corpus lives only while the pipeline runs: the context keeps the
day-level readings the matrices stage aggregates from it. Combined
with :func:`run_stpt_sweep` — which pins the pattern phase of every
sweep point to one generator so the trained forecaster replays from
cache — an ε-sweep pays for data generation and pattern training once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from repro.baselines.base import Mechanism
from repro.core.stpt import STPT, STPTConfig, STPTResult
from repro.data.datasets import TABLE2, clip_factor_of, generate_dataset
from repro.data.matrix import ConsumptionMatrix, build_matrices
from repro.data.spatial import place_households
from repro.exceptions import ConfigurationError
from repro.parallel import execute
from repro.pipeline import ArtifactStore, Pipeline, RunRecord, Stage, stamp_task
from repro.queries.engine import QueryEngine, query_bounds
from repro.queries.metrics import workload_mre
from repro.queries.range_query import RangeQuery, make_workload
from repro.rng import RngLike, derive_seed, ensure_rng
from repro.scenarios import ResolvedScenario
from repro.scenarios.presets import ScalePreset, active_preset

DATASET_NAMES = ("CER", "CA", "MI", "TX")
QUERY_KINDS = ("random", "small", "large")

#: Stage names of the context-building pipeline, in execution order.
CONTEXT_STAGES = (
    "context/dataset",
    "context/placement",
    "context/matrices",
    "context/workloads",
)


@dataclass
class ExperimentContext:
    """One fully-materialized experimental setting."""

    dataset_name: str
    distribution: str
    preset: ScalePreset
    daily: np.ndarray                # (households, days) kWh, full horizon
    cells: np.ndarray                # (households, 2) grid coordinates
    clip_factor: float
    cons: ConsumptionMatrix          # kWh, full horizon
    norm: ConsumptionMatrix          # normalized, full horizon
    test_cons: ConsumptionMatrix     # kWh, test horizon
    test_norm: ConsumptionMatrix     # normalized, test horizon
    workloads: dict[str, list[RangeQuery]] = field(default_factory=dict)
    records: list[RunRecord] = field(default_factory=list)
    _true_engine: QueryEngine | None = field(
        default=None, repr=False, compare=False
    )
    _workload_bounds: dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def true_engine(self) -> QueryEngine:
        """Prefix-sum engine over ``test_cons``, built once per context."""
        if self._true_engine is None:
            self._true_engine = QueryEngine(self.test_cons)
        return self._true_engine

    def _bounds_of(self, kind: str) -> np.ndarray:
        """Corner-index array of one workload, extracted once and cached."""
        bounds = self._workload_bounds.get(kind)
        if bounds is None:
            bounds = query_bounds(self.workloads[kind])
            self._workload_bounds[kind] = bounds
        return bounds

    def mre_of(self, sanitized_kwh: ConsumptionMatrix) -> dict[str, float]:
        """MRE of a kWh-scale release for every query class.

        One :class:`QueryEngine` is built per matrix — the true side is
        cached on the context, the released side built once here — and
        each workload's corner indices are extracted once per context,
        so scoring all query classes costs two cumsum tables plus one
        vectorized gather per workload, never a per-query slice sum.
        """
        noisy_engine = QueryEngine(sanitized_kwh)
        return {
            kind: workload_mre(
                self._bounds_of(kind), self.true_engine, noisy_engine
            )
            for kind in self.workloads
        }

    def to_kwh(self, sanitized_norm: ConsumptionMatrix) -> ConsumptionMatrix:
        return ConsumptionMatrix(sanitized_norm.values * self.clip_factor)


def build_context_stages(
    dataset_name: str,
    distribution: str,
    preset: ScalePreset,
) -> list[Stage]:
    """The four cacheable stages that materialize one setting.

    All stages are DP-free (they produce the *private input*, they do
    not release anything), so every one of them may replay from an
    artifact store. Generator consumption — one ``derive_seed`` for the
    dataset, one for placement, one per query kind — matches the
    pre-pipeline monolith, keeping contexts bit-identical for a fixed
    seed.
    """
    spec = TABLE2[dataset_name]
    if dataset_name == "CER":
        spec = spec.scaled(preset.cer_household_fraction)

    def dataset_stage(ctx):
        return generate_dataset(
            spec, n_days=preset.n_days, rng=derive_seed(ctx.rng)
        )

    def placement_stage(ctx, dataset):
        return place_households(
            dataset.n_households,
            preset.grid_shape,
            distribution,
            rng=derive_seed(ctx.rng),
        )

    def matrices_stage(ctx, dataset, cells):
        daily = dataset.daily_readings()
        clip = clip_factor_of(daily)
        cons, norm = build_matrices(daily, cells, preset.grid_shape, clip)
        return {
            "daily": daily,
            "clip": clip,
            "cons": cons,
            "norm": norm,
            "test_cons": cons.time_slice(preset.t_train),
            "test_norm": norm.time_slice(preset.t_train),
        }

    def workloads_stage(ctx, matrices):
        test_cons = matrices["test_cons"]
        return {
            kind: make_workload(
                kind,
                test_cons.shape,
                count=preset.query_count,
                rng=derive_seed(ctx.rng),
                reference=test_cons,
            )
            for kind in QUERY_KINDS
        }

    return [
        Stage(  # lint: disable=DP100 -- context stages build the *private input* cache; nothing here is released, and the store separately refuses budget-spending artifacts
            name="context/dataset",
            fn=dataset_stage,
            output="dataset",
            config={"spec": spec, "n_days": preset.n_days},
            uses_rng=True,
        ),
        Stage(  # lint: disable=DP100 -- private input cache (placements feed the mechanisms; they are never published)
            name="context/placement",
            fn=placement_stage,
            inputs=("dataset",),
            output="cells",
            config={
                "grid_shape": preset.grid_shape,
                "distribution": distribution,
            },
            uses_rng=True,
        ),
        Stage(  # lint: disable=DP100 -- private input cache (raw matrices are the mechanisms' input, not a release)
            name="context/matrices",
            fn=matrices_stage,
            inputs=("dataset", "cells"),
            output="matrices",
            config={
                "grid_shape": preset.grid_shape,
                "t_train": preset.t_train,
            },
        ),
        Stage(
            name="context/workloads",
            fn=workloads_stage,
            inputs=("matrices",),
            output="workloads",
            config={"query_count": preset.query_count, "kinds": QUERY_KINDS},
            uses_rng=True,
        ),
    ]


def build_context(
    dataset_name: str,
    distribution: str,
    preset: ScalePreset | None = None,
    rng: RngLike = None,
    store: ArtifactStore | None = None,
) -> ExperimentContext:
    """Generate data, matrices and workloads for one setting.

    With ``store`` set, every stage replays from cache on repeat calls
    with the same (dataset, distribution, preset, seed) — which is how
    ε-sweeps and benchmark suites avoid regenerating the corpus.
    """
    if dataset_name not in TABLE2:
        raise ConfigurationError(
            f"unknown dataset {dataset_name!r}; options: {sorted(TABLE2)}"
        )
    preset = preset or active_preset()
    generator = ensure_rng(rng)
    pipeline = Pipeline(
        build_context_stages(dataset_name, distribution, preset),
        store=store,
        name="context",
    )
    run = pipeline.run(rng=generator)
    matrices = run.artifact("matrices")
    return ExperimentContext(
        dataset_name=dataset_name,
        distribution=distribution,
        preset=preset,
        daily=matrices["daily"],
        cells=run.artifact("cells"),
        clip_factor=matrices["clip"],
        cons=matrices["cons"],
        norm=matrices["norm"],
        test_cons=matrices["test_cons"],
        test_norm=matrices["test_norm"],
        workloads=run.artifact("workloads"),
        records=list(run.records),
    )


def build_scenario_context(
    resolved: ResolvedScenario,
    distribution: str | None = None,
    rng: RngLike = None,
    store: ArtifactStore | None = None,
) -> ExperimentContext:
    """Materialize the context a resolved scenario declares.

    ``distribution`` picks one of the scenario's distributions for
    multi-distribution specs (Figure 6 runs one context per
    distribution); the default is the spec's primary distribution. A
    declared workload ``query_count`` overrides the preset's.
    """
    preset = resolved.preset
    count = resolved.spec.workload.query_count
    if count is not None and count != preset.query_count:
        preset = replace(preset, query_count=count)
    return build_context(
        resolved.dataset_name,
        distribution if distribution is not None else resolved.distribution,
        preset,
        rng=rng,
        store=store,
    )


def run_stpt(
    context: ExperimentContext,
    config: STPTConfig | None = None,
    rng: RngLike = None,
    store: ArtifactStore | None = None,
) -> tuple[STPTResult, dict[str, float]]:
    """Run STPT on a context; returns the result and per-workload MRE."""
    config = config or context.preset.stpt_config()
    result = STPT(config, rng=rng, store=store).publish(
        context.norm, clip_scale=context.clip_factor
    )
    return result, context.mre_of(result.sanitized_kwh)


def _sweep_point_task(payload: tuple) -> STPTResult:
    """One sweep point, its pattern stages pinned to the shared seed.

    The payload carries plain seeds (never live generators — RNG100)
    plus the caller's store: in-process it keeps its memory tier, while
    a fork worker's pickled copy shares only the lock-protected disk
    tier.
    """
    config, point_seed, pattern_seed, norm, clip_scale, store = payload
    pattern_rng = ensure_rng(pattern_seed)
    return STPT(config, rng=point_seed, store=store).publish(
        norm,
        clip_scale=clip_scale,
        stage_rngs={
            "stpt/pattern-noise": pattern_rng,
            "stpt/pattern-train": pattern_rng,
        },
    )


#: Flow-analysis role (repro.lint.flow): every result in the sweep is a
#: charged STPT release; the sanitization happens inside the submitted
#: task, behind the executor boundary the analysis cannot see through.
__flow_sanitizers__ = ("publish_stpt_sweep",)


def publish_stpt_sweep(
    norm: ConsumptionMatrix,
    clip_scale: float,
    configs: Sequence[STPTConfig],
    rng: RngLike = None,
    store: ArtifactStore | None = None,
    workers: int | None = None,
) -> list[STPTResult]:
    """The sweep core: one STPT release per config over one matrix.

    This is :func:`run_stpt_sweep` minus the
    :class:`ExperimentContext` — the CLI's multi-ε ``publish`` fan-out
    calls it directly on a loaded matrix. See :func:`run_stpt_sweep`
    for the seed discipline, cache-sharing and determinism contract.
    """
    generator = ensure_rng(rng)
    if store is None:
        store = ArtifactStore()
    pattern_seed = derive_seed(generator)
    payloads = [
        (config, derive_seed(generator), pattern_seed, norm, clip_scale, store)
        for config in configs
    ]
    executed = execute(
        _sweep_point_task,
        payloads,
        workers=workers,
        labels=[f"stpt-sweep[{i}]" for i in range(len(payloads))],
    )
    for result, task in zip(executed.values, executed.tasks):
        result.records = stamp_task(result.records, task)
    return list(executed.values)


def run_stpt_sweep(
    context: ExperimentContext,
    configs: Sequence[STPTConfig],
    rng: RngLike = None,
    store: ArtifactStore | None = None,
    workers: int | None = None,
) -> list[tuple[STPTResult, dict[str, float]]]:
    """Run STPT once per config, replaying shared phases from cache.

    Every sweep point pins the two pattern stages to a generator seeded
    identically (``pattern_seed`` derived once from ``rng``), so points
    whose pattern-phase configuration coincides — e.g. an
    ``epsilon_sanitize`` or quantization sweep — draw the *same* DP
    level release and replay the expensive forecaster training from
    ``store`` instead of refitting. The sanitize phase keeps a fresh
    per-point generator, so every point's release noise is independent.

    Privacy-wise the reuse is sound: the shared pattern release is one
    ε_pattern-DP artifact and everything derived from it is
    post-processing; the sweep as a whole costs
    ε_pattern + Σ ε_sanitize, even though each returned result's own
    accountant reports its configured total.

    Each point is one :func:`~repro.parallel.execute` task. With
    ``workers >= 2`` the points run on a process pool and the results
    are **bit-identical** to the serial executor's: all seeds are
    derived before dispatch, every point is an independent release with
    its own accountant, and a cache replay is — by the pipeline cache's
    contract — bit-exact for a recomputation. Workers share artifacts
    only through ``store``'s disk tier (when it has one); with a pure
    in-memory store each worker trains its own pattern phase, trading
    cache reuse for wall-clock parallelism.
    """
    results = publish_stpt_sweep(
        context.norm,
        context.clip_factor,
        configs,
        rng=rng,
        store=store,
        workers=workers,
    )
    return [
        (result, context.mre_of(result.sanitized_kwh)) for result in results
    ]


def _stpt_task(payload: tuple) -> STPTResult:
    """Self-contained body of one independent STPT run (an executor task)."""
    config, seed, norm, clip_scale = payload
    return STPT(config, rng=seed).publish(norm, clip_scale=clip_scale)


def run_stpt_many(
    context: ExperimentContext,
    configs: Sequence[STPTConfig],
    rng: RngLike = None,
    workers: int | None = None,
) -> list[tuple[STPTResult, dict[str, float]]]:
    """Independent STPT runs, one per config (the ablation fan-out).

    Unlike :func:`run_stpt_sweep` nothing is shared between points —
    each run draws its own pattern release — so this matches a loop of
    :func:`run_stpt` calls bit-for-bit at any ``workers`` value.
    """
    generator = ensure_rng(rng)
    payloads = [
        (config, derive_seed(generator), context.norm, context.clip_factor)
        for config in configs
    ]
    executed = execute(
        _stpt_task,
        payloads,
        workers=workers,
        labels=[f"stpt[{i}]" for i in range(len(payloads))],
    )
    out = []
    for result, task in zip(executed.values, executed.tasks):
        result.records = stamp_task(result.records, task)
        out.append((result, context.mre_of(result.sanitized_kwh)))
    return out


def run_mechanism(
    context: ExperimentContext,
    mechanism: Mechanism,
    epsilon: float | None = None,
    rng: RngLike = None,
) -> tuple[dict[str, float], float]:
    """Run a baseline; returns (per-workload MRE, wall seconds)."""
    epsilon = epsilon if epsilon is not None else context.preset.epsilon_total
    started = time.perf_counter()
    run = mechanism.run(context.test_norm, epsilon, rng=rng)
    elapsed = time.perf_counter() - started
    return context.mre_of(context.to_kwh(run.sanitized)), elapsed


def _mechanism_task(payload: tuple):
    """Self-contained body of one baseline run (an executor task)."""
    mechanism, test_norm, epsilon, seed = payload
    started = time.perf_counter()
    run = mechanism.run(test_norm, epsilon, rng=seed)
    return run, time.perf_counter() - started


def run_mechanisms(
    context: ExperimentContext,
    mechanisms: Sequence[Mechanism],
    epsilon: float | None = None,
    rng: RngLike = None,
    workers: int | None = None,
) -> list[tuple[dict[str, float], float]]:
    """Run a list of baselines; one (MRE, wall seconds) pair each.

    At any ``workers`` value this is bit-identical to looping
    :func:`run_mechanism`: per-mechanism seeds are derived before
    dispatch in list order, and each mechanism is an independent
    release. Reported wall seconds are each task's own execution time
    (queue wait excluded), so timings stay comparable across worker
    counts.
    """
    epsilon = epsilon if epsilon is not None else context.preset.epsilon_total
    generator = ensure_rng(rng)
    payloads = [
        (mechanism, context.test_norm, epsilon, derive_seed(generator))
        for mechanism in mechanisms
    ]
    executed = execute(
        _mechanism_task,
        payloads,
        workers=workers,
        labels=[mechanism.name for mechanism in mechanisms],
    )
    return [
        (context.mre_of(context.to_kwh(run.sanitized)), elapsed)
        for run, elapsed in executed.values
    ]


def format_table(
    rows: Iterable[dict[str, object]], columns: list[str] | None = None
) -> str:
    """Render dict rows as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: list[list[str]] = [[str(c) for c in columns]]
    for row in rows:
        line = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                line.append(f"{value:.2f}")
            else:
                line.append(str(value))
        rendered.append(line)
    widths = [max(len(r[i]) for r in rendered) for i in range(len(columns))]
    lines = []
    for i, r in enumerate(rendered):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)

__all__ = [
    "CONTEXT_STAGES",
    "DATASET_NAMES",
    "QUERY_KINDS",
    "ExperimentContext",
    "build_context",
    "build_context_stages",
    "build_scenario_context",
    "publish_stpt_sweep",
    "run_stpt",
    "run_stpt_many",
    "run_stpt_sweep",
    "run_mechanism",
    "run_mechanisms",
    "format_table",
]
