"""Publish phase: context set-up, ``STPT.publish`` and its output checks.

Every workload publishes through the program's public entry points:
``build_scenario_context`` on the registered ``publish-default``
scenario, then ``STPT.publish`` on its normalized matrix. The publish
seed is fixed, so the release bits, their SHA-256 and ``mre_pct`` are
a function of the code alone; ``--seed`` drives the serve traffic.
"""

from __future__ import annotations

import hashlib
import math
import resource
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.stpt import STPT, STPTConfig
from repro.experiments.harness import ExperimentContext, build_scenario_context
from repro.scenarios import ResolvedScenario, resolve_scenario
from repro.scenarios.presets import CI

SCENARIO = "publish-default"
PUBLISH_SEED = 11
SHARD_DEPTH = 2
SHARD_WORKERS = 2
#: The releases ``repro publish --epsilon-sanitize 2 5 10 20`` writes.
SERVE_EPSILONS = (2.0, 5.0, 10.0, 20.0)


@dataclass(frozen=True)
class PublishPlan:
    """What one workload publishes: named configs and the worker count."""

    configs: tuple[tuple[str, STPTConfig], ...]
    workers: int | None
    #: Publish passes per run; ``publish_s`` is the fastest. A pass of
    #: the one-epoch serve releases takes about 3 s, and the shared
    #: machine's speed swings by a third over ~10 s spells, so the best
    #: of several passes tracks the code rather than the neighbours.
    passes: int
    #: Require the merged ledger to equal ε_total bit for bit. The ε=2
    #: sweep point sums to 11.999999999999993, so the serve releases are
    #: checked to 1e-12 instead.
    exact_epsilon: bool


@dataclass
class Release:
    name: str
    values: np.ndarray          # kWh, the matrix a server would load
    epsilon_spent: float
    epsilon_total: float
    mre_pct: float
    sha256: str
    records: list
    ledger_rows: int


@dataclass
class PublishRun:
    """One pass over a plan's configs."""

    wall_s: float
    cpu_s: float
    releases: list[Release]


def resolve(smoke: bool) -> ResolvedScenario:
    """The scenario at paper scale, or at CI geometry for smoke runs."""
    return resolve_scenario(SCENARIO, preset=CI if smoke else None)


def plan_for(workload: str, resolved: ResolvedScenario, smoke: bool) -> PublishPlan:
    config = resolved.configs[0]
    if smoke:
        config = replace(config, pattern=replace(config.pattern, epochs=1))
    if workload == "publish":
        return PublishPlan((("release", config),), None, 1, True)
    if workload == "publish-sharded":
        sharded = replace(config, shard_depth=SHARD_DEPTH)
        return PublishPlan((("release", sharded),), SHARD_WORKERS, 1, True)
    # serve: one-epoch releases, so the phase costs seconds, not minutes.
    quick = replace(config, pattern=replace(config.pattern, epochs=1))
    return PublishPlan(
        tuple(
            (f"eps{epsilon:g}", replace(quick, epsilon_sanitize=epsilon))
            for epsilon in SERVE_EPSILONS
        ),
        None,
        5,
        False,
    )


def build_context(resolved: ResolvedScenario) -> tuple[ExperimentContext, float]:
    started = time.perf_counter()
    context = build_scenario_context(resolved, rng=resolved.spec.seeds.seed)
    return context, time.perf_counter() - started


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def publish_once(plan: PublishPlan, context: ExperimentContext) -> PublishRun:
    """Publish every config of ``plan``; times the whole pass."""
    results = []
    cpu_started = cpu_seconds()
    started = time.perf_counter()
    for name, config in plan.configs:
        result = STPT(config, rng=PUBLISH_SEED).publish(
            context.norm, clip_scale=context.clip_factor, workers=plan.workers
        )
        results.append((name, config, result))
    wall = time.perf_counter() - started
    cpu = cpu_seconds() - cpu_started
    releases = []
    for name, config, result in results:
        values = result.sanitized_kwh.values
        mre = context.mre_of(result.sanitized_kwh)
        releases.append(
            Release(
                name=name,
                values=values,
                epsilon_spent=result.accountant.spent_epsilon,
                epsilon_total=config.epsilon_total,
                mre_pct=float(np.mean(list(mre.values()))),
                sha256=hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest(),
                records=list(result.records),
                ledger_rows=len(result.accountant.ledger),
            )
        )
    return PublishRun(wall_s=wall, cpu_s=cpu, releases=releases)


def check_release(
    release: Release, shape: tuple[int, int, int], exact_epsilon: bool
) -> list[str]:
    """Output checks run on every release; returns the failures."""
    errors = []
    if release.values.shape != shape:
        errors.append(f"{release.name}: shape {release.values.shape} != {shape}")
    if not np.isfinite(release.values).all():
        errors.append(f"{release.name}: release holds non-finite values")
    if exact_epsilon:
        epsilon_ok = release.epsilon_spent == release.epsilon_total
    else:
        epsilon_ok = math.isclose(
            release.epsilon_spent, release.epsilon_total, rel_tol=1e-12
        )
    if not epsilon_ok:
        errors.append(
            f"{release.name}: ledger spent {release.epsilon_spent!r}, "
            f"expected {release.epsilon_total!r}"
        )
    return errors
