"""The end-to-end STPT pipeline (Algorithm 1 of the paper).

``STPT.publish`` takes the aligned ``(C_cons, C_norm)`` pair built by
:func:`repro.data.matrix.build_matrices` over the *full* horizon
(training + test), spends ``epsilon_pattern`` on the pattern phase and
``epsilon_sanitize`` on the release, and returns the sanitized
consumption matrix for the test horizon together with all phase
artifacts. The total privacy cost is
``epsilon_total = epsilon_pattern + epsilon_sanitize`` (Eq. 7), which a
:class:`repro.dp.budget.BudgetAccountant` enforces throughout.

Since the staged-execution refactor, ``publish`` runs as a four-stage
:class:`repro.pipeline.Pipeline` mirroring Algorithm 1's phases::

    pattern-noise  ──ε_pattern──▶  pattern-train  ──▶  quantize  ──▶  sanitize ──ε_sanitize──▶

The two noise-drawing stages are never cached; ``pattern-train`` (the
expensive forecaster fit, pure post-processing of the DP level release)
and ``quantize`` replay from an :class:`repro.pipeline.ArtifactStore`
when one is attached. Outputs are bit-identical for a fixed seed with
or without a store, cold or warm — cached stochastic stages restore the
generator position they left behind.

With ``shard_depth > 0`` the publish itself shards: the grid splits
into the ``4^shard_depth`` disjoint quadtree subtrees of
:func:`repro.core.quadtree.shard_grid`, and each shard runs the full
four-stage pipeline on its own subgrid — one pre-spawned seed sequence
and one child :class:`~repro.dp.budget.BudgetAccountant` per shard,
recombined exactly through :meth:`BudgetAccountant.merge` (parallel
composition: households in disjoint subtrees are disjoint data, so the
total stays ``epsilon_total``). The shards go out as ``min(workers,
shards)`` contiguous groups, one :mod:`repro.parallel` task each; a
group runs its shards' pipelines in lockstep, so ``pattern-train``
fits the group's forecasters as one member stack. A sharded run is
bit-identical at any worker count: all seeds derive before dispatch, a
stack trains each member exactly as its own model, results return in
submission order, and tiling the shard outputs back together is
order-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.pattern import PatternConfig, PatternRecognizer, PatternResult
from repro.core.quadtree import (
    GridShard,
    max_depth_for_grid,
    segment_length,
    shard_grid,
    tile_shards,
)
from repro.core.quantization import PartitionSet, k_quantize
from repro.core.sanitizer import SanitizationResult, sanitize_by_partitions
from repro.data.matrix import ConsumptionMatrix
from repro.dp.budget import BudgetAccountant
from repro.dp.sensitivity import require_finite
from repro.exceptions import ConfigurationError, DataError
from repro.obs import get_tracer
from repro.parallel.executor import execute
from repro.parallel.seeds import spawn_seed_sequences, task_generator
from repro.pipeline import (
    ArtifactStore,
    Pipeline,
    PublicationResult,
    Stage,
    stamp_task,
)
from repro.rng import RngLike, ensure_rng

#: Flow-analysis role (repro.lint.flow): ``publish`` runs the full
#: charged STPT pipeline; its result is safe to release.
__flow_sanitizers__ = ("STPT.publish",)


@dataclass(frozen=True)
class STPTConfig:
    """All knobs of the STPT pipeline.

    Paper defaults (Appendix C): ``epsilon_pattern=10``,
    ``epsilon_sanitize=20``, 100 training points, window 6,
    quadtree depth log2(Cx), 20 quantization levels.
    """

    epsilon_pattern: float = 10.0
    epsilon_sanitize: float = 20.0
    t_train: int = 100
    quantization_levels: int = 20
    rollout: str = "anchored"
    allocation: str = "optimal"
    pattern: PatternConfig = field(default_factory=PatternConfig)
    #: Split the publish into ``4^shard_depth`` disjoint quadtree
    #: subtrees, each running the full pipeline on its own subgrid with
    #: its own child accountant (0 = the classic unsharded publish).
    shard_depth: int = 0

    def __post_init__(self) -> None:
        budgets = (self.epsilon_pattern, self.epsilon_sanitize)
        if not all(np.isfinite(eps) and eps > 0 for eps in budgets):
            raise ConfigurationError(
                f"privacy budgets must be positive and finite, got {budgets}"
            )
        if self.t_train <= 0:
            raise ConfigurationError("t_train must be positive")
        if self.quantization_levels <= 0:
            raise ConfigurationError("quantization_levels must be positive")
        if self.shard_depth < 0:
            raise ConfigurationError(
                f"shard_depth must be non-negative, got {self.shard_depth}"
            )
        if self.rollout not in ("anchored", "cell"):
            raise ConfigurationError("rollout must be 'anchored' or 'cell'")
        from repro.core.sanitizer import ALLOCATION_STRATEGIES

        if self.allocation not in ALLOCATION_STRATEGIES:
            raise ConfigurationError(
                f"allocation must be one of {ALLOCATION_STRATEGIES}"
            )

    @property
    def epsilon_total(self) -> float:
        return self.epsilon_pattern + self.epsilon_sanitize

    @classmethod
    def with_suggested_split(
        cls,
        epsilon_total: float,
        t_train: int,
        grid_shape: tuple[int, int],
        typical_cell_value: float,
        target_snr: float = 1.0,
        **overrides,
    ) -> "STPTConfig":
        """Build a config whose ε split comes from the SNR heuristic.

        Uses :func:`repro.analysis.allocation.suggest_budget_split`
        (the paper's future-work question of how to divide ε between
        pipeline stages). ``typical_cell_value`` is a public prior on
        normalized cell magnitude — e.g. expected households per cell
        times their mean normalized reading — not a data-derived
        quantity, so no budget is spent on it.
        """
        from repro.analysis.allocation import suggest_budget_split
        from repro.core.quadtree import max_depth_for_grid

        pattern_config = overrides.get("pattern", PatternConfig())
        depth = pattern_config.depth
        if depth is None:
            depth = max_depth_for_grid(grid_shape)
        epsilon_pattern, epsilon_sanitize = suggest_budget_split(
            epsilon_total, t_train, depth, typical_cell_value, target_snr
        )
        overrides.setdefault("pattern", pattern_config)
        return cls(
            epsilon_pattern=epsilon_pattern,
            epsilon_sanitize=epsilon_sanitize,
            t_train=t_train,
            **overrides,
        )


@dataclass
class STPTResult(PublicationResult):
    """Everything produced by one STPT run.

    Extends the unified :class:`repro.pipeline.PublicationResult`
    (``sanitized`` / ``epsilon_spent`` / ``elapsed_seconds`` / ``records``)
    with the phase artifacts specific to Algorithm 1.
    """

    sanitized_kwh: ConsumptionMatrix      # rescaled by the clipping factor
    pattern_matrix: np.ndarray            # C_pattern over the test horizon
    partitions: PartitionSet
    pattern_result: PatternResult
    sanitization: SanitizationResult
    accountant: BudgetAccountant
    t_train: int


#: Stage names of the publish pipeline, in execution order.
STPT_STAGES = (
    "stpt/pattern-noise",
    "stpt/pattern-train",
    "stpt/quantize",
    "stpt/sanitize",
)


def build_stpt_stages(config: STPTConfig, t_test: int) -> list[Stage]:
    """The four stages of Algorithm 1 for one configuration.

    Artifact flow (initial artifacts ``norm_train``, ``norm_test``)::

        norm_train ─▶ pattern-noise ─▶ sanitized_levels
        sanitized_levels ─▶ pattern-train ─▶ pattern (result, C_pattern)
        pattern ─▶ quantize ─▶ partitions
        partitions + norm_test ─▶ sanitize ─▶ sanitization

    Only ``pattern-train`` and ``quantize`` are cacheable; the two
    noise-drawing stages declare ``spends_budget=True`` and always
    execute. ``pattern-train`` is ``batched``: in a lockstep execution
    it fits every cache-missing run's forecaster in one member stack.
    """
    if t_test <= 0:
        raise ConfigurationError("t_test must be positive")

    def pattern_noise(ctx, norm_train):
        recognizer = PatternRecognizer(
            config.epsilon_pattern, config.pattern, rng=ctx.rng
        )
        return recognizer.sanitize_tree(norm_train, accountant=ctx.accountant)

    def pattern_train(contexts, sanitized_levels):
        jobs = [
            (
                PatternRecognizer(config.epsilon_pattern, config.pattern, rng=ctx.rng),
                levels,
                config.t_train,
                levels[0].block_map.shape,
            )
            for ctx, levels in zip(contexts, sanitized_levels)
        ]
        (first, *arguments), *peers = jobs
        first.fit_sanitized(*arguments, peers=peers)
        return [
            (recognizer.result, recognizer.generate(t_test, rollout=config.rollout))
            for recognizer, *__ in jobs
        ]

    def quantize(ctx, pattern):
        __, pattern_matrix = pattern
        return k_quantize(pattern_matrix, config.quantization_levels)

    def sanitize(ctx, partitions, norm_test):
        return sanitize_by_partitions(
            norm_test,
            partitions,
            config.epsilon_sanitize,
            rng=ctx.rng,
            accountant=ctx.accountant,
            allocation=config.allocation,
        )

    return [
        Stage(
            name="stpt/pattern-noise",
            fn=pattern_noise,
            inputs=("norm_train",),
            output="sanitized_levels",
            config={
                "epsilon_pattern": config.epsilon_pattern,
                "depth": config.pattern.depth,
            },
            spends_budget=True,
            uses_rng=True,
        ),
        Stage(
            name="stpt/pattern-train",
            fn=pattern_train,
            inputs=("sanitized_levels",),
            output="pattern",
            config={
                "epsilon_pattern": config.epsilon_pattern,
                "pattern": config.pattern,
                "t_train": config.t_train,
                "t_test": t_test,
                "rollout": config.rollout,
            },
            uses_rng=True,
            batched=True,
        ),
        Stage(
            name="stpt/quantize",
            fn=quantize,
            inputs=("pattern",),
            output="partitions",
            config={"quantization_levels": config.quantization_levels},
        ),
        Stage(
            name="stpt/sanitize",
            fn=sanitize,
            inputs=("partitions", "norm_test"),
            output="sanitization",
            config={
                "epsilon_sanitize": config.epsilon_sanitize,
                "allocation": config.allocation,
            },
            spends_budget=True,
            uses_rng=True,
        ),
    ]


def build_stpt_pipeline(
    config: STPTConfig, t_test: int, store: ArtifactStore | None = None
) -> Pipeline:
    """A ready-to-run publish pipeline for ``config``."""
    return Pipeline(build_stpt_stages(config, t_test), store=store, name="stpt")


@dataclass
class ShardedSTPTResult(PublicationResult):
    """A sharded publish: per-shard STPT runs tiled back together.

    ``accountant`` is the parent ledger recombined through
    :meth:`BudgetAccountant.merge` — only the worst shard's total is
    debited (parallel composition across disjoint subtrees), while every
    per-shard charge survives under its shard's partition key.
    ``records`` flattens the per-shard stage records in shard order,
    stamped with the worker that ran each shard's group.
    """

    sanitized_kwh: ConsumptionMatrix      # rescaled by the clipping factor
    pattern_matrix: np.ndarray            # tiled C_pattern over the test horizon
    accountant: BudgetAccountant          # merged parent ledger
    t_train: int
    shard_depth: int
    shards: list[GridShard]
    shard_accountants: list[BudgetAccountant]


def _shard_config(config: STPTConfig, shard_shape: tuple[int, int]) -> STPTConfig:
    """The per-shard pipeline config: unsharded, depth capped to the subgrid.

    The quadtree depth must be pinned to a concrete value *before*
    dispatch so every shard trains the same decomposition regardless of
    where it runs; ``None`` would resolve against the shard grid inside
    the worker, which is the same number — pinning just makes it
    explicit in the stage cache keys.
    """
    cap = max_depth_for_grid(shard_shape)
    depth = cap if config.pattern.depth is None else min(config.pattern.depth, cap)
    return replace(
        config, shard_depth=0, pattern=replace(config.pattern, depth=depth)
    )


def _check_windows_fit(config: STPTConfig, grid_shape: tuple[int, int]) -> None:
    """Reject a publish whose level series cannot make one training window.

    Level 0 holds exactly ``segment_length(t_train, depth)`` points (Eq.
    8) and no level holds more, while a training window needs more than
    ``window`` points. So this is precisely the publish pattern-train
    would reject, caught here before pattern-noise charges any ε. The
    depth is the one the pipeline trains: the configured or grid-derived
    depth, or on the sharded path the depth capped to the shard shape.
    """
    if config.shard_depth > 0:
        shard_shape = shard_grid(grid_shape, config.shard_depth)[0].shape
        depth = _shard_config(config, shard_shape).pattern.depth
    elif config.pattern.depth is None:
        depth = max_depth_for_grid(grid_shape)
    else:
        depth = config.pattern.depth
    window = config.pattern.window
    length = segment_length(config.t_train, depth)
    if length <= window:
        raise ConfigurationError(
            f"t_train={config.t_train} at quadtree depth {depth} gives a "
            f"segment length of {length} (Eq. 8), which does not exceed the "
            f"training window of {window}: no level series can make a "
            f"window; raise t_train or lower the depth or the window"
        )


def _shard_group_task(payload: tuple) -> list[dict]:
    """Self-contained publish of a contiguous group of shards (RNG100-clean).

    The payload carries one :class:`numpy.random.SeedSequence` child per
    shard — never a live generator — plus the caller's store: an
    in-process group uses it as it is, memory tier included, while a
    fork worker's pickled copy shares only the lock-protected disk
    tier. The group's pipelines run in lockstep under one
    ``stpt.shards`` span, each shard with its own generator and its own
    ε sub-ledger.
    """
    config, shards, seeds, norm_trains, norm_tests, store = payload
    accountants = [
        BudgetAccountant(config.epsilon_total, partition=shard.key)
        for shard in shards
    ]
    t_test = int(norm_tests[0].shape[2])
    pipeline = build_stpt_pipeline(config, t_test, store=store)
    with get_tracer().span(
        "stpt.shards",
        shards=[shard.key for shard in shards],
        epsilon_pattern=config.epsilon_pattern,
        epsilon_sanitize=config.epsilon_sanitize,
    ):
        runs = pipeline.run_lockstep(
            [
                {"norm_train": norm_train, "norm_test": norm_test}
                for norm_train, norm_test in zip(norm_trains, norm_tests)
            ],
            rngs=[task_generator(seed) for seed in seeds],
            accountants=accountants,
        )
    outputs = []
    for accountant, run in zip(accountants, runs):
        accountant.assert_within_budget()
        __, pattern_matrix = run.artifact("pattern")
        outputs.append(
            {
                "sanitized": run.artifact("sanitization").values,
                "pattern": pattern_matrix,
                "accountant": accountant,
                "records": list(run.records),
            }
        )
    return outputs


class STPT:
    """Spatio-Temporal Private Timeseries publisher."""

    def __init__(
        self,
        config: STPTConfig | None = None,
        rng: RngLike = None,
        store: ArtifactStore | None = None,
    ) -> None:
        self.config = config or STPTConfig()
        self._rng = ensure_rng(rng)
        self._store = store

    def publish(
        self,
        norm_matrix: ConsumptionMatrix,
        clip_scale: float = 1.0,
        stage_rngs: dict[str, RngLike] | None = None,
        workers: int | None = None,
    ) -> STPTResult | ShardedSTPTResult:
        """Run Algorithm 1 and publish the test horizon.

        ``norm_matrix`` is the normalized consumption matrix over the
        full horizon; indices ``[0, t_train)`` feed pattern
        recognition and ``[t_train, T)`` are sanitized and released.
        ``clip_scale`` converts normalized values back to kWh (the
        clipping factor used during normalization). The store given at
        construction lets deterministic stages replay from cache;
        ``stage_rngs`` pins named stages to dedicated
        generators — the hook ε-sweeps use to share one pattern release
        across points (see ``repro.experiments.harness.run_stpt_sweep``).

        With ``config.shard_depth > 0`` the publish shards across the
        disjoint quadtree subtrees and ``workers`` fans the shards over
        a process pool; the output is bit-identical for any ``workers``
        value (see the module docstring). ``workers`` is ignored for
        the unsharded publish, which runs in-process.
        """
        config = self.config
        values = norm_matrix.values
        require_finite(values, "normalized consumption matrix")
        total_steps = norm_matrix.n_steps
        if config.t_train >= total_steps:
            raise DataError(
                f"t_train ({config.t_train}) must be smaller than the "
                f"matrix horizon ({total_steps})"
            )
        if not np.isfinite(clip_scale) or clip_scale <= 0:
            raise ConfigurationError(
                f"clip_scale must be positive and finite, got {clip_scale}"
            )
        _check_windows_fit(config, norm_matrix.grid_shape)
        if config.shard_depth > 0:
            if stage_rngs is not None:
                raise ConfigurationError(
                    "stage_rngs cannot be combined with a sharded publish: "
                    "each shard derives its own generator from a pre-spawned "
                    "seed sequence"
                )
            return self._publish_sharded(norm_matrix, clip_scale, workers=workers)
        t_test = total_steps - config.t_train
        started = time.perf_counter()

        accountant = BudgetAccountant(config.epsilon_total)
        pipeline = build_stpt_pipeline(config, t_test, store=self._store)
        with get_tracer().span(
            "stpt.publish",
            epsilon_pattern=config.epsilon_pattern,
            epsilon_sanitize=config.epsilon_sanitize,
            t_train=config.t_train,
            t_test=t_test,
        ):
            run = pipeline.run(
                {
                    "norm_train": values[:, :, : config.t_train],
                    "norm_test": values[:, :, config.t_train :],
                },
                rng=self._rng,
                accountant=accountant,
                stage_rngs=stage_rngs,
            )
        accountant.assert_within_budget()

        pattern_result, pattern_matrix = run.artifact("pattern")
        partitions = run.artifact("partitions")
        sanitization = run.artifact("sanitization")
        sanitized = ConsumptionMatrix(sanitization.values)
        elapsed = time.perf_counter() - started
        return STPTResult(
            sanitized=sanitized,
            epsilon_spent=accountant.spent_epsilon,
            elapsed_seconds=elapsed,
            sanitized_kwh=ConsumptionMatrix(sanitization.values * clip_scale),
            pattern_matrix=pattern_matrix,
            partitions=partitions,
            pattern_result=pattern_result,
            sanitization=sanitization,
            accountant=accountant,
            t_train=config.t_train,
            mechanism="STPT",
            records=list(run.records),
        )

    def _publish_sharded(
        self,
        norm_matrix: ConsumptionMatrix,
        clip_scale: float,
        workers: int | None = None,
    ) -> ShardedSTPTResult:
        """Fan the publish across disjoint quadtree subtrees (Theorem 2).

        Every shard holds a disjoint household set, so each one runs
        the *full* four-stage pipeline at full budget with its own
        child accountant; the parent recombines the ledgers exactly via
        :meth:`BudgetAccountant.merge`. All per-shard seed sequences
        derive before dispatch (one ``derive_seed`` from this
        publisher's generator), the shards go out as ``min(workers,
        shards)`` contiguous groups, and both the serial and the pooled
        path go through :func:`repro.parallel.executor.execute`, so a
        ``workers=N`` run is bit-identical to ``workers=1``.
        """
        config = self.config
        values = norm_matrix.values
        grid_shape = (int(values.shape[0]), int(values.shape[1]))
        t_test = norm_matrix.n_steps - config.t_train
        started = time.perf_counter()

        shards = shard_grid(grid_shape, config.shard_depth)
        seeds = spawn_seed_sequences(self._rng, len(shards))
        shard_config = _shard_config(config, shards[0].shape)
        norm_train = values[:, :, : config.t_train]
        norm_test = values[:, :, config.t_train :]
        groups = np.array_split(
            np.arange(len(shards)), max(1, min(workers or 1, len(shards)))
        )
        payloads = [
            (
                shard_config,
                [shards[i] for i in group],
                [seeds[i] for i in group],
                [shards[i].extract(norm_train) for i in group],
                [shards[i].extract(norm_test) for i in group],
                self._store,
            )
            for group in groups
        ]
        with get_tracer().span(
            "stpt.publish",
            epsilon_pattern=config.epsilon_pattern,
            epsilon_sanitize=config.epsilon_sanitize,
            t_train=config.t_train,
            t_test=t_test,
            shard_depth=config.shard_depth,
            shards=len(shards),
        ):
            executed = execute(
                _shard_group_task,
                payloads,
                workers=workers,
                labels=[f"shards[{group[0]}:{group[-1] + 1}]" for group in groups],
            )
        outputs = [out for group_outputs in executed.values for out in group_outputs]

        accountant = BudgetAccountant(config.epsilon_total)
        shard_accountants = [out["accountant"] for out in outputs]
        accountant.merge(shard_accountants, label="stpt")
        accountant.assert_within_budget()

        sanitized_values = tile_shards(
            shards, [out["sanitized"] for out in outputs], grid_shape
        )
        pattern_matrix = tile_shards(
            shards, [out["pattern"] for out in outputs], grid_shape
        )
        records = []
        for task, group_outputs in zip(executed.tasks, executed.values):
            group_records = [r for out in group_outputs for r in out["records"]]
            records.extend(stamp_task(group_records, task))
        elapsed = time.perf_counter() - started
        return ShardedSTPTResult(
            sanitized=ConsumptionMatrix(sanitized_values),
            epsilon_spent=accountant.spent_epsilon,
            elapsed_seconds=elapsed,
            sanitized_kwh=ConsumptionMatrix(sanitized_values * clip_scale),
            pattern_matrix=pattern_matrix,
            accountant=accountant,
            t_train=config.t_train,
            shard_depth=config.shard_depth,
            shards=shards,
            shard_accountants=shard_accountants,
            mechanism="STPT",
            records=records,
        )

__all__ = [
    "STPTConfig",
    "STPTResult",
    "ShardedSTPTResult",
    "STPT",
    "STPT_STAGES",
    "build_stpt_stages",
    "build_stpt_pipeline",
]
