"""Artifact-cache speedup on an ε_sanitize sweep.

A warm three-point sweep replays the pattern phase (DP level release
pinned, forecaster training and quantization served from the store),
so only the sanitize noise is recomputed per point. Both timed runs
rebuild the context, which has no stage to replay. The benchmark
asserts the advertised win: warm is at least 2x faster than cold.
"""

import time

from repro.experiments.harness import build_context, run_stpt_sweep
from repro.pipeline import ArtifactStore
from repro.scenarios.presets import active_preset

EPSILONS = (5.0, 10.0, 20.0)


def timed_sweep(store):
    """One context build plus a 3-point sweep; returns (rows, seconds)."""
    started = time.perf_counter()
    context = build_context("CA", "uniform", active_preset(), rng=71)
    configs = [
        context.preset.stpt_config(epsilon_sanitize=eps) for eps in EPSILONS
    ]
    results = run_stpt_sweep(context, configs, rng=72, store=store)
    seconds = time.perf_counter() - started
    rows = [
        {
            "epsilon_sanitize": eps,
            "mre_random": mre["random"],
            "cached_stages": sum(r.cached for r in result.records),
        }
        for eps, (result, mre) in zip(EPSILONS, results)
    ]
    return rows, seconds


def test_pipeline_cache_speedup(print_rows):
    store = ArtifactStore()

    def run():
        _, cold_seconds = timed_sweep(store)
        warm_rows, warm_seconds = timed_sweep(store)
        for row in warm_rows:
            row["cold_s"] = cold_seconds
            row["warm_s"] = warm_seconds
        return warm_rows

    rows = print_rows(
        "Pipeline cache: warm vs cold 3-point epsilon_sanitize sweep", run
    )
    cold_seconds = rows[0]["cold_s"]
    warm_seconds = rows[0]["warm_s"]
    speedup = cold_seconds / warm_seconds
    print(f"cold {cold_seconds:.2f}s  warm {warm_seconds:.2f}s  "
          f"speedup {speedup:.1f}x")
    assert speedup >= 2.0, (
        f"warm sweep only {speedup:.2f}x faster than cold"
    )
    # every warm point replays the pattern phase (points 2-3 of the
    # cold sweep already did, point 1 is the new win)
    assert all(row["cached_stages"] >= 2 for row in rows)
