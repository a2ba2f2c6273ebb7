"""Audit targets for the *composed* STPT publish pipeline.

The single-mechanism targets in :mod:`repro.audit.targets` constrain
one sanitizer at a time; the targets here run the whole staged publish
— pattern-noise → pattern-train → quantize → sanitize, including the
``shard_depth > 0`` quadtree sharding — so the empirical ε lower bound
speaks about the release path that actually ships matrices.

Besides the honest pipeline, three deliberately broken variants exist
as the suite's false-negative guard (if the audit cannot flag these,
its verdict on the honest pipeline means nothing):

``forgot-noise``
    The sanitize stage releases the exact partition means of the raw
    test horizon — the partition structure is computed honestly, the
    Laplace draw is simply skipped. The classic forgotten-noise bug.
``half-scale``
    The sanitize stage draws noise at half the calibrated scale (it
    behaves as if the sanitize budget were doubled) while the claim
    stays at the configured ε. The classic mis-calibration bug.
``double-spend``
    The pipeline publishes twice from independent noise (a retry bug:
    both releases ship), spending ``2 × ε_total`` while claiming
    ``ε_total``. The classic accounting bug. The distinguishing
    statistic is the *minimum* of the two releases' scores — both are
    public in this broken world, and "both scores high" is the
    near-optimal membership event for Laplace noise, achieving the
    composed likelihood ratio at a non-tail event.

Break modes force ``shard_depth = 0`` internally: they subvert the
sanitize stage itself, which is identical per shard, and the unsharded
run keeps the per-trial cost down.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.stpt import STPT, STPTConfig
from repro.data.matrix import build_matrices
from repro.exceptions import ConfigurationError
from repro.rng import derive_seed

#: Recognised deliberately-broken pipeline variants.
BREAK_MODES = ("forgot-noise", "half-scale", "double-spend")

#: ``half-scale`` multiplies the sanitize budget by this factor, which
#: halves the Laplace scale the stage draws at (the claim is unchanged).
_HALF_SCALE_BUDGET_FACTOR = 2.0


def _no_noise_release(
    norm_test: np.ndarray, partitions
) -> np.ndarray:
    """What sanitize-without-the-Laplace-draw would publish.

    Mirrors :func:`repro.core.sanitizer.sanitize_by_partitions` exactly
    — one total per partition spread uniformly over its cells — minus
    the noise term.
    """
    release = np.empty_like(norm_test, dtype=float)
    for label in partitions.pillar_sensitivities():
        mask = partitions.mask(label)
        release[mask] = float(norm_test[mask].sum()) / int(mask.sum())
    return release


#: Distinguishing statistics a composed target can report.
STATISTICS = ("grid-sum", "pillar-sum")


@dataclass(frozen=True, eq=False)
class ComposedSTPTTarget:
    """``(readings, rng) -> scalar`` over the full staged publish.

    The default statistic is the *whole-grid* released sum: spreading a
    partition's noisy total over its cells preserves it, so removing
    the distinguished household shifts this statistic by exactly its
    total consumption whatever partition structure the (randomized)
    quantize stage produced that trial — which makes the audit's power
    independent of partition-structure variance. ``"pillar-sum"``
    restricts to the distinguished household's pillar (``cells[0]``)
    instead; ``contrast`` (length = test horizon) replaces the pillar
    sum with an inner product when a temporal pattern rather than
    membership is the secret under attack.

    Picklable, so audits fan out over ``ParallelExecutor`` workers.
    """

    config: STPTConfig
    cells: np.ndarray
    grid_shape: tuple[int, int]
    clip_factor: float = 1.0
    break_mode: str | None = None
    contrast: np.ndarray | None = None
    statistic: str = "grid-sum"

    def __post_init__(self) -> None:
        if self.break_mode is not None and self.break_mode not in BREAK_MODES:
            raise ConfigurationError(
                f"unknown break_mode {self.break_mode!r}; "
                f"expected one of {BREAK_MODES}"
            )
        if self.statistic not in STATISTICS:
            raise ConfigurationError(
                f"unknown statistic {self.statistic!r}; "
                f"expected one of {STATISTICS}"
            )

    @property
    def claimed_epsilon(self) -> float:
        """The ε the (possibly broken) pipeline still claims."""
        return self.config.epsilon_total

    def _releases(
        self, norm, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Everything the (possibly broken) pipeline publishes."""
        config = self.config
        if self.break_mode is not None and config.shard_depth:
            config = replace(config, shard_depth=0)
        if self.break_mode == "forgot-noise":
            result = STPT(config, rng=derive_seed(rng)).publish(norm)
            norm_test = norm.values[:, :, config.t_train:]
            return [_no_noise_release(norm_test, result.partitions)]
        if self.break_mode == "half-scale":
            loud = replace(
                config,
                epsilon_sanitize=(
                    config.epsilon_sanitize * _HALF_SCALE_BUDGET_FACTOR
                ),
            )
            return [STPT(loud, rng=derive_seed(rng)).publish(norm).sanitized.values]
        if self.break_mode == "double-spend":
            first = STPT(config, rng=derive_seed(rng)).publish(norm)
            second = STPT(config, rng=derive_seed(rng)).publish(norm)
            return [first.sanitized.values, second.sanitized.values]
        return [STPT(config, rng=derive_seed(rng)).publish(norm).sanitized.values]

    def _score(self, release: np.ndarray) -> float:
        """Scalar score of one released matrix."""
        if self.contrast is not None:
            row, col = int(self.cells[0, 0]), int(self.cells[0, 1])
            pillar = release[row, col, :]
            if len(self.contrast) != len(pillar):
                raise ConfigurationError(
                    f"contrast length {len(self.contrast)} does not match "
                    f"released horizon {len(pillar)}"
                )
            return float(pillar @ self.contrast)
        if self.statistic == "pillar-sum":
            row, col = int(self.cells[0, 0]), int(self.cells[0, 1])
            return float(release[row, col, :].sum())
        return float(release.sum())

    def __call__(self, readings: np.ndarray, rng: np.random.Generator) -> float:
        __, norm = build_matrices(
            readings, self.cells, self.grid_shape, self.clip_factor
        )
        # min over releases: with one release this is its score; with a
        # double-spent pair it is the "both scores high" membership
        # event an adversary holding every publication would test.
        return min(
            self._score(release) for release in self._releases(norm, rng)
        )


__all__ = [
    "BREAK_MODES",
    "STATISTICS",
    "ComposedSTPTTarget",
]
