"""Named benchmarks behind ``repro bench``.

Each benchmark drives one subsystem — the tracer, the flow linter or
the audit suite — verifies its outputs (bit-identity, zero lint
findings, every audit gate) before any timing counts, and returns a
JSON-serializable payload. The CLI stamps the payload with the current
commit and appends it to the history in ``BENCH_<name>.json``. The
end-to-end wall time of a publish and of serving is measured by
``perfbench/``, not here.
"""

from __future__ import annotations

import os
import subprocess
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.stpt import STPT
from repro.data.matrix import ConsumptionMatrix
from repro.exceptions import ConfigurationError
from repro.experiments.trend import Threshold
from repro.obs import Metrics, NullTracer, Tracer, use_metrics, use_tracer
from repro.scenarios import resolve_scenario

BENCHMARKS: dict[str, Callable[..., dict]] = {}
#: name -> human-readable asserted threshold, shown by ``repro bench --list``.
THRESHOLDS: dict[str, str] = {}
#: name -> numeric trend bounds every ``repro bench NAME`` run checks.
TREND_THRESHOLDS: dict[str, Threshold] = {}

#: Ceiling on the instrumentation share of sweep wall time (NullTracer).
_TRACE_OVERHEAD_CEILING = 0.02
#: Whole-tree interprocedural lint pass must stay CI-friendly.
_LINT_FLOW_MAX_SECONDS = 10.0


def register(
    name: str,
    threshold: str = "",
    metrics: tuple[str, ...] = (),
    floor: float | None = None,
    ceiling: float | None = None,
) -> Callable[[Callable[..., dict]], Callable[..., dict]]:
    """Register a benchmark; ``metrics``/``floor``/``ceiling``
    additionally declare the numeric trend bounds ``repro bench``
    enforces on every recorded run (``threshold`` stays the
    human-readable description ``--list`` prints)."""

    def decorator(fn: Callable[..., dict]) -> Callable[..., dict]:
        BENCHMARKS[name] = fn
        THRESHOLDS[name] = threshold
        if metrics:
            TREND_THRESHOLDS[name] = Threshold(
                metrics=tuple(metrics), floor=floor, ceiling=ceiling
            )
        return fn

    return decorator


def _best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best wall time over ``repeats`` calls (min is the stable statistic)."""
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _trace_bench_matrix() -> ConsumptionMatrix:
    """Deterministic 8x8x24 matrix (the golden-test geometry)."""
    x = np.arange(8, dtype=float)[:, None, None]
    y = np.arange(8, dtype=float)[None, :, None]
    t = np.arange(24, dtype=float)[None, None, :]
    values = (
        1.0
        + 0.5 * np.sin(0.7 * x + 0.3 * y)
        + 0.3 * np.cos(0.5 * t + 0.1 * x * y)
    )
    return ConsumptionMatrix(values)


def _trace_bench_sweep(tracer, metrics: Metrics) -> np.ndarray:
    """A two-point epsilon sweep under ``tracer``; returns the releases.

    Geometry, ε schedule and seed come from the registered
    ``bench-trace-overhead`` scenario; resolution happens outside the
    tracer scope so the counted span sites are exactly the sweep's own.
    """
    resolved = resolve_scenario("bench-trace-overhead")
    seed = resolved.spec.seeds.seed
    releases = []
    with use_tracer(tracer), use_metrics(metrics):
        for config in resolved.configs:
            result = STPT(config, rng=seed).publish(
                _trace_bench_matrix(), clip_scale=2.0
            )
            releases.append(result.sanitized.values)
    return np.stack(releases)


def _per_call_seconds(fn: Callable[[], object], calls: int = 50_000) -> float:
    """Best-of-3 per-call cost of ``fn`` over ``calls``-sized batches."""
    best = float("inf")
    for __ in range(3):
        started = time.perf_counter()
        for __ in range(calls):
            fn()
        best = min(best, time.perf_counter() - started)
    return best / calls


@register(
    "trace_overhead",
    threshold=f"<= {_TRACE_OVERHEAD_CEILING:.0%} of sweep wall time spent "
    "in NullTracer span sites + metric updates; traced and untraced "
    "releases bit-identical",
    metrics=("overhead_percent",),
    ceiling=_TRACE_OVERHEAD_CEILING * 100.0,
)
def bench_trace_overhead(workers: int | None = None) -> dict:
    """Cost of the always-on instrumentation on a pipeline sweep.

    The observability contract is that the default path is effectively
    free: a span site costs one ``NullTracer.span`` call and the
    always-live metrics registry a counter/histogram update. A
    head-to-head wall-clock comparison of two full sweeps cannot
    resolve costs this small against scheduler noise, so the benchmark
    measures the per-call price of each instrumentation primitive
    directly (50k-call batches), counts how many such calls one sweep
    executes (live-tracer probe + metrics registry introspection), and
    bounds their product against the sweep's wall time. Bit-identity
    between the traced and untraced releases is asserted first.
    """
    del workers  # single-process benchmark; kept for a uniform signature
    null_release = _trace_bench_sweep(NullTracer(), Metrics())
    probe = Tracer()
    probe_metrics = Metrics()
    traced_release = _trace_bench_sweep(probe, probe_metrics)
    if not np.array_equal(null_release, traced_release):
        raise AssertionError("traced sweep diverged from untraced")

    # Instrumentation calls one sweep executes: every span the probe
    # recorded was one NullTracer.span site on the default path, and
    # every histogram observation / counter bump hits the registry
    # whether or not tracing is on.
    span_sites = len(probe.spans)
    metric_updates = sum(
        row["count"] if row["kind"] == "histogram" else 1
        for row in probe_metrics.rows()
    )

    null_tracer = NullTracer()

    def null_span() -> None:
        with null_tracer.span("bench.site"):
            pass

    bench_metrics = Metrics()
    span_seconds = _per_call_seconds(null_span)
    metric_seconds = _per_call_seconds(
        lambda: bench_metrics.histogram("bench.site", 0.5)
    )
    sweep_seconds = _best_of(
        lambda: _trace_bench_sweep(NullTracer(), Metrics())
    )
    instrumented_seconds = (
        span_sites * span_seconds + metric_updates * metric_seconds
    )
    overhead = instrumented_seconds / sweep_seconds
    if overhead > _TRACE_OVERHEAD_CEILING:
        raise AssertionError(
            f"NullTracer instrumentation overhead {overhead:.2%} exceeds "
            f"the {_TRACE_OVERHEAD_CEILING:.0%} ceiling"
        )
    return {
        "benchmark": "trace_overhead",
        "cpu_count": os.cpu_count() or 1,
        "span_sites": span_sites,
        "metric_updates": metric_updates,
        "null_span_microseconds": round(span_seconds * 1e6, 3),
        "metric_update_microseconds": round(metric_seconds * 1e6, 3),
        "sweep_seconds": round(sweep_seconds, 5),
        "overhead_percent": round(overhead * 100.0, 4),
        "bit_identical": True,
    }


@register(
    "lint_flow",
    threshold=f"whole-tree interprocedural flow analysis (src + tests) in "
    f"< {_LINT_FLOW_MAX_SECONDS:.0f}s wall; zero findings, zero warnings",
    metrics=("flow_seconds",),
    ceiling=_LINT_FLOW_MAX_SECONDS,
)
def bench_lint_flow(workers: int | None = None) -> dict:
    """Wall-clock cost of the interprocedural privacy flow analysis.

    ``repro lint`` runs in CI on every commit, so the
    whole-program pass (symbol table + call graph + summary fixpoint +
    findings walk over ``src`` and ``tests``) must stay cheap enough to
    sit on the tier-1 path. The benchmark runs the real linter with the
    repo's own configuration, asserts the tree is clean (any finding or
    warning here means CI is red anyway), and bounds the best-of-2 wall
    time of a cold analysis.
    """
    del workers  # single-process benchmark; kept for a uniform signature
    from repro.lint.config import load_config
    from repro.lint.engine import run_lint

    root = Path(__file__).resolve().parents[3]
    config = load_config(start=root)
    paths = [root / "src", root / "tests"]

    result = run_lint(paths, config=config)
    if result.findings:
        raise AssertionError(
            f"flow lint expected a clean tree, got {len(result.findings)} "
            f"finding(s); first: {result.findings[0]}"
        )
    if result.warnings:
        raise AssertionError(
            f"flow lint expected zero warnings, got {result.warnings[0]!r}"
        )

    seconds = _best_of(
        lambda: run_lint(paths, config=config), repeats=2
    )
    if seconds > _LINT_FLOW_MAX_SECONDS:
        raise AssertionError(
            f"flow analysis took {seconds:.2f}s, over the "
            f"{_LINT_FLOW_MAX_SECONDS:.0f}s ceiling"
        )
    return {
        "benchmark": "lint_flow",
        "cpu_count": os.cpu_count() or 1,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "flow_seconds": round(seconds, 3),
        "max_seconds": _LINT_FLOW_MAX_SECONDS,
        "clean": True,
    }


#: Every audit gate must pass; ``gates_passed`` trend-gates this count.
_AUDIT_GATES = 8
#: Throughput floor: estimator trials per second across the suite.
_AUDIT_TRIALS_PER_SECOND_FLOOR = 10.0
#: Query-error ceiling on the frontier's utility side (tiny geometry).
_AUDIT_MRE_CEILING = 60.0
#: Per-bug-class trial counts: the subtler the bug, the more evidence
#: the Clopper-Pearson bound needs before the claimed ε is contradicted.
_AUDIT_TRIALS = {
    "honest": 300,
    "sharded": 160,
    "forgot-noise": 200,
    "half-scale": 700,
    "double-spend": 1300,
}


@register(
    "audit_suite",
    threshold=f"all {_AUDIT_GATES} audit gates pass: honest composed + "
    f"sharded publishes never contradict the claimed eps, attack "
    f"advantage within the DP ceiling, all three broken variants "
    f"flagged, bit-identical across workers, frontier utility <= "
    f"{_AUDIT_MRE_CEILING:.0f}% MRE; >= "
    f"{_AUDIT_TRIALS_PER_SECOND_FLOOR:.0f} trials/s",
    metrics=("gates_passed",),
    floor=float(_AUDIT_GATES),
)
def bench_audit_suite(workers: int = 4) -> dict:
    """The adversarial audit suite as a single trend-gated verdict.

    Runs the composed-pipeline ε audit over the registered audit
    scenarios (honest unsharded and sharded), the membership attack,
    the three deliberately broken variants (which MUST be flagged — the
    false-negative guard), a serial-vs-parallel determinism check, and
    one low-trial frontier sweep whose utility column is held under a
    ceiling. Any failed gate raises; the recorded ``gates_passed``
    count trend-gates against silent gate removal.
    """
    from repro.audit import (
        ComposedSTPTTarget,
        audit_pair,
        collect_scores,
        run_composed_audit,
        run_frontier,
    )

    gates: dict[str, bool] = {}
    trials_done = 0
    audit_started = time.perf_counter()

    honest = run_composed_audit(
        "audit-composed-stpt", trials=_AUDIT_TRIALS["honest"]
    )
    trials_done += 2 * _AUDIT_TRIALS["honest"]
    gates["honest_unsharded_ok"] = not any(
        point.audit.violates_claim for point in honest.points
    )
    gates["attack_within_bound"] = all(
        point.attack is not None and not point.attack.violates_claim
        for point in honest.points
    )

    sharded = run_composed_audit(
        "audit-composed-sharded", trials=_AUDIT_TRIALS["sharded"], attack=False
    )
    trials_done += 2 * _AUDIT_TRIALS["sharded"]
    gates["honest_sharded_ok"] = sharded.verdict_ok

    for mode in ("forgot-noise", "half-scale", "double-spend"):
        report = run_composed_audit(
            "audit-composed-stpt", trials=_AUDIT_TRIALS[mode], break_mode=mode
        )
        trials_done += 2 * _AUDIT_TRIALS[mode]
        gates[f"{mode.replace('-', '_')}_flagged"] = report.verdict_ok

    resolved = resolve_scenario("audit-composed-stpt")
    cells, dataset, neighbour = audit_pair(resolved.preset, rng=3)
    target = ComposedSTPTTarget(
        resolved.configs[0], cells, resolved.preset.grid_shape
    )
    serial = collect_scores(target, (dataset, neighbour), (48, 48), rng=4)
    fanned = collect_scores(
        target, (dataset, neighbour), (48, 48), rng=4,
        workers=max(2, min(workers, 4)),
    )
    trials_done += 192
    gates["deterministic_across_workers"] = all(
        np.array_equal(one, other) for one, other in zip(serial, fanned)
    )

    frontier = run_frontier(
        "audit-frontier", trials=60, shadows=20, challenges=40
    )
    trials_done += len(frontier.points) * 2 * (60 + 20 + 40)
    gates["frontier_ok"] = not frontier.violations and all(
        point.mre_percent <= _AUDIT_MRE_CEILING for point in frontier.points
    )

    audit_seconds = time.perf_counter() - audit_started
    trials_per_second = trials_done / audit_seconds
    failed = sorted(name for name, passed in gates.items() if not passed)
    if failed:
        raise AssertionError(f"audit gate(s) failed: {', '.join(failed)}")
    if trials_per_second < _AUDIT_TRIALS_PER_SECOND_FLOOR:
        raise AssertionError(
            f"audit throughput {trials_per_second:.1f} trials/s is below "
            f"the {_AUDIT_TRIALS_PER_SECOND_FLOOR:.0f}/s floor"
        )
    return {
        "benchmark": "audit_suite",
        "cpu_count": os.cpu_count() or 1,
        "gates": gates,
        "gates_passed": sum(gates.values()),
        "trials": trials_done,
        "audit_seconds": round(audit_seconds, 3),
        "trials_per_second": round(trials_per_second, 1),
        "epsilon_lower_bounds": {
            "honest": [p.audit.epsilon_lower_bound for p in honest.points],
            "sharded": [p.audit.epsilon_lower_bound for p in sharded.points],
        },
        "frontier": frontier.rows(),
    }


def _git_commit() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def run_benchmark(name: str, workers: int = 4) -> dict:
    """Run one registered benchmark; stamp wall time and commit."""
    if name not in BENCHMARKS:
        known = ", ".join(sorted(BENCHMARKS))
        raise ConfigurationError(f"unknown benchmark {name!r}; options: {known}")
    started = time.perf_counter()
    payload = BENCHMARKS[name](workers=workers)
    payload["wall_seconds"] = round(time.perf_counter() - started, 3)
    payload["commit"] = _git_commit()
    return payload


__all__: Sequence[str] = [
    "BENCHMARKS",
    "THRESHOLDS",
    "TREND_THRESHOLDS",
    "bench_audit_suite",
    "bench_lint_flow",
    "bench_trace_overhead",
    "register",
    "run_benchmark",
]
