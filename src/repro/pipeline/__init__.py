"""Staged execution with content-addressed artifact caching.

The engine behind ``STPT.publish``, the baseline mechanisms and the
experiment harness:

* :class:`Stage` — a named, pure unit with declared inputs/outputs, a
  config fingerprint and a privacy charge (``spends_budget``);
* :class:`Pipeline` — composes stages, threads one generator and one
  :class:`~repro.dp.budget.BudgetAccountant` through them, and records
  a :class:`RunRecord` per stage;
* :class:`ArtifactStore` — in-memory + on-disk cache keyed by a stable
  hash of (stage, config, inputs, rng state), from which deterministic
  DP-free stages replay and budget-spending stages never do;
* :class:`PublicationResult` — the unified (sanitized, epsilon,
  elapsed) release dataclass shared by STPT and the baselines.

See ``docs/pipeline.md`` for the stage graph and the artifact-key
scheme, and ``docs/privacy.md`` for why noisy stages are uncacheable.
"""

from repro.pipeline.fingerprint import combine, fingerprint, rng_fingerprint
from repro.pipeline.result import PublicationResult, RunRecord, stamp_task
from repro.pipeline.runner import Pipeline, PipelineRun
from repro.pipeline.stage import Stage, StageContext
from repro.pipeline.store import Artifact, ArtifactStore, StoreStats

__all__ = [
    "Artifact",
    "ArtifactStore",
    "Pipeline",
    "PipelineRun",
    "PublicationResult",
    "RunRecord",
    "Stage",
    "StageContext",
    "StoreStats",
    "combine",
    "fingerprint",
    "rng_fingerprint",
    "stamp_task",
]
