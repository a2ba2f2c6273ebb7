"""Empirical ε estimation by distinguishing neighbouring inputs.

A DP guarantee is a claim about output distributions on *neighbouring*
datasets: for every measurable event S,
``P[A(D) ∈ S] ≤ e^ε · P[A(D') ∈ S]``. The auditor turns this into a
falsifiable test: run the mechanism many times on a fixed neighbouring
pair, pick threshold events on a scalar *distinguishing statistic* of
the output, and compute a statistically sound **lower bound** on ε from
the observed event frequencies (one-sided Clopper-Pearson intervals, as
in the DP-auditing literature, e.g. Jagielski et al., 2020).

A correct ε-DP mechanism can never produce an audited lower bound above
ε (up to the configured confidence); a broken one — noise forgotten,
budget double-spent — is flagged immediately. The audit is a necessary
test, not a proof: passing it does not certify privacy.

Trials fan out over :mod:`repro.parallel`: they are grouped into
fixed-size batches whose seeds are all spawned from one generator
*before* dispatch, so an N-worker audit is bit-identical to a serial
one (the serial path runs the exact same batch plan). Targets must be
picklable for ``workers > 1`` — the ready-made targets in
:mod:`repro.audit.targets` and :mod:`repro.audit.composed` are frozen
dataclasses for exactly this reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.parallel import execute, spawn_seed_sequences, task_generator
from repro.rng import RngLike, ensure_rng

#: A mechanism under audit: (dataset, rng) -> scalar distinguishing
#: statistic of one mechanism run.
AuditTarget = Callable[[np.ndarray, np.random.Generator], float]

#: Default number of mechanism runs handed to one parallel task.
DEFAULT_BATCH_SIZE = 32


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one audit."""

    epsilon_lower_bound: float   # statistically sound lower bound
    epsilon_point_estimate: float  # plug-in estimate (no correction)
    best_threshold: float
    trials: int
    confidence: float
    claimed_epsilon: float | None = None

    @property
    def violates_claim(self) -> bool:
        """True when the audited lower bound exceeds the claimed ε."""
        if self.claimed_epsilon is None:
            return False
        return self.epsilon_lower_bound > self.claimed_epsilon


def clopper_pearson_upper(successes: int, trials: int, alpha: float) -> float:
    """One-sided upper confidence bound on a binomial proportion."""
    if successes >= trials:
        return 1.0
    # Imported on use: scipy is the heaviest import of the package and
    # these two bounds are its only users, so ``import repro.cli``
    # (every CLI process, a server included) never loads it.
    from scipy import stats

    return float(stats.beta.ppf(1.0 - alpha, successes + 1, trials - successes))


def clopper_pearson_lower(successes: int, trials: int, alpha: float) -> float:
    """One-sided lower confidence bound on a binomial proportion."""
    if successes <= 0:
        return 0.0
    from scipy import stats

    return float(stats.beta.ppf(alpha, successes, trials - successes + 1))


def _batch_counts(total: int, batch_size: int) -> list[int]:
    """Split ``total`` trials into full batches plus one remainder."""
    full, rest = divmod(total, batch_size)
    return [batch_size] * full + ([rest] if rest else [])


def _score_batch_task(
    payload: tuple[AuditTarget, np.ndarray, int, np.random.SeedSequence],
) -> np.ndarray:
    """Run one batch of mechanism trials (worker side)."""
    target, data, count, seed = payload
    generator = task_generator(seed)
    return np.array([float(target(data, generator)) for __ in range(count)])


def collect_scores(
    target: AuditTarget,
    datasets: Sequence[np.ndarray],
    counts: Sequence[int],
    rng: RngLike = None,
    workers: int | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    label: str = "audit",
) -> list[np.ndarray]:
    """Run ``target`` ``counts[i]`` times on ``datasets[i]``, batched.

    The shared statistical engine under both the ε estimator and the
    attack suite. All batch seeds are spawned from ``rng`` before
    dispatch, so results are bit-identical at any worker count; the
    returned arrays are in per-dataset trial order.
    """
    if len(datasets) != len(counts):
        raise ConfigurationError(
            f"{len(datasets)} dataset(s) but {len(counts)} count(s)"
        )
    if batch_size < 1:
        raise ConfigurationError("batch_size must be at least 1")
    generator = ensure_rng(rng)
    plan: list[tuple[int, int]] = []
    for index, count in enumerate(counts):
        if count < 0:
            raise ConfigurationError("trial counts must be non-negative")
        plan.extend((index, size) for size in _batch_counts(count, batch_size))
    seeds = spawn_seed_sequences(generator, len(plan))
    payloads = [
        (target, datasets[index], size, seed)
        for (index, size), seed in zip(plan, seeds)
    ]
    labels = [
        f"{label}[{index}]#{batch}" for batch, (index, __) in enumerate(plan)
    ]
    outcome = execute(_score_batch_task, payloads, workers=workers, labels=labels)
    chunks: list[list[np.ndarray]] = [[] for __ in datasets]
    for (index, __), scores in zip(plan, outcome.values):
        chunks[index].append(scores)
    return [
        np.concatenate(parts) if parts else np.empty(0) for parts in chunks
    ]


def audit_epsilon(
    target: AuditTarget,
    dataset: np.ndarray,
    neighbour: np.ndarray,
    trials: int = 500,
    confidence: float = 0.95,
    claimed_epsilon: float | None = None,
    rng: RngLike = None,
    workers: int | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> AuditResult:
    """Estimate a lower bound on the ε a mechanism actually provides.

    ``target`` is run ``trials`` times on each of ``dataset`` and
    ``neighbour`` (fanned out over ``workers`` processes, deterministic
    at any worker count). Thresholds are scanned over the pooled
    statistics; for each, the likelihood ratio of the exceedance event
    is bounded with Clopper-Pearson intervals (Bonferroni-corrected
    over the scan) and the best sound bound is reported.
    """
    if trials < 10:
        raise ConfigurationError("auditing needs at least 10 trials")
    if not 0.5 < confidence < 1.0:
        raise ConfigurationError("confidence must lie in (0.5, 1)")
    stats_d, stats_d_prime = collect_scores(
        target,
        (dataset, neighbour),
        (trials, trials),
        rng=rng,
        workers=workers,
        batch_size=batch_size,
    )

    # candidate thresholds: percentiles of the pooled statistic at 2.5%
    # steps — the Bonferroni price of a finer grid is logarithmic while
    # the chance of straddling the best-likelihood-ratio event is not
    pooled = np.concatenate([stats_d, stats_d_prime])
    thresholds = np.unique(np.percentile(pooled, np.arange(2.5, 100, 2.5)))
    alpha = (1.0 - confidence) / max(1, 2 * len(thresholds))

    best_bound = 0.0
    best_point = 0.0
    best_threshold = float(thresholds[0]) if len(thresholds) else 0.0
    for threshold in thresholds:
        for side in (1, -1):
            if side == 1:
                count_d = int((stats_d > threshold).sum())
                count_dp = int((stats_d_prime > threshold).sum())
            else:
                count_d = int((stats_d <= threshold).sum())
                count_dp = int((stats_d_prime <= threshold).sum())
            p_low = clopper_pearson_lower(count_d, trials, alpha)
            q_high = clopper_pearson_upper(count_dp, trials, alpha)
            if p_low <= 0 or q_high <= 0:
                continue
            bound = np.log(p_low / q_high)
            if bound > best_bound:
                best_bound = float(bound)
                best_threshold = float(threshold)
            if count_d > 0:
                # Plug-in estimate with the never-observed event floored
                # at one occurrence, so the sound bound (whose q_high is
                # at least 1/trials for any alpha ≤ e⁻²) can never land
                # above the point estimate it approximates.
                point = np.log(
                    (count_d / trials) / (max(count_dp, 1) / trials)
                )
                best_point = max(best_point, float(point))
    return AuditResult(
        epsilon_lower_bound=max(0.0, best_bound),
        epsilon_point_estimate=max(0.0, best_point),
        best_threshold=best_threshold,
        trials=trials,
        confidence=confidence,
        claimed_epsilon=claimed_epsilon,
    )

__all__ = [
    "AuditTarget",
    "AuditResult",
    "DEFAULT_BATCH_SIZE",
    "audit_epsilon",
    "clopper_pearson_lower",
    "clopper_pearson_upper",
    "collect_scores",
]
