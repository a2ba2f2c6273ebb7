"""Tier-1 guard: checked-in benchmark results stay tied to the registry.

Every ``BENCH_<name>.json`` at the repo root must name a benchmark that
``repro bench`` can still run (its ``benchmark`` payload field and its
filename both), so a renamed or deleted benchmark cannot leave a stale
seeded result behind that looks current.
"""

import json
from pathlib import Path

from repro.experiments.bench import BENCHMARKS, THRESHOLDS, TREND_THRESHOLDS

REPO_ROOT = Path(__file__).resolve().parents[2]


def _bench_files() -> list[Path]:
    return sorted(REPO_ROOT.glob("BENCH_*.json"))


def test_at_least_one_seeded_result_exists():
    assert _bench_files(), "no BENCH_*.json seeded at the repo root"


def test_every_bench_file_names_a_registered_benchmark():
    for path in _bench_files():
        name = path.stem.removeprefix("BENCH_")
        assert name in BENCHMARKS, (
            f"{path.name} does not match a registered benchmark; "
            f"known: {', '.join(sorted(BENCHMARKS))}"
        )


def test_bench_payload_is_consistent():
    for path in _bench_files():
        payload = json.loads(path.read_text())
        name = path.stem.removeprefix("BENCH_")
        assert payload.get("benchmark") == name, (
            f"{path.name} payload names benchmark "
            f"{payload.get('benchmark')!r}, expected {name!r}"
        )
        assert "wall_seconds" in payload, f"{path.name} missing wall_seconds"
        # ``repro bench`` refuses a file it cannot append to.
        assert isinstance(payload.get("history"), list), (
            f"{path.name} has no history list"
        )


def test_every_benchmark_declares_a_threshold_string():
    # --list prints these; an empty entry would render as a blank line.
    for name in BENCHMARKS:
        assert THRESHOLDS.get(name), f"benchmark {name!r} has no threshold"


def test_trend_thresholds_name_registered_benchmarks():
    orphans = set(TREND_THRESHOLDS) - set(BENCHMARKS)
    assert not orphans, (
        f"trend thresholds without a benchmark: {sorted(orphans)}"
    )


def test_audit_suite_is_trend_gated_on_all_gates():
    """The adversarial audit suite is a CI gate: it must stay registered
    with a ``gates_passed`` trend metric floored at the full gate count,
    so dropping a gate (or the whole registration) fails tier-1 rather
    than silently weakening the privacy check."""
    from repro.experiments.bench import _AUDIT_GATES

    assert "audit_suite" in BENCHMARKS
    threshold = TREND_THRESHOLDS.get("audit_suite")
    assert threshold is not None, "audit_suite lost its trend threshold"
    assert "gates_passed" in threshold.metrics
    assert threshold.floor is not None and threshold.floor >= _AUDIT_GATES


def test_trend_histories_match_their_registered_threshold():
    """A seeded history's newest entry must carry every metric the
    registered threshold enforces, so ``repro bench`` can always
    adjudicate the next run against what is checked in."""
    for path in _bench_files():
        name = path.stem.removeprefix("BENCH_")
        threshold = TREND_THRESHOLDS.get(name)
        payload = json.loads(path.read_text())
        history = payload.get("history")
        if threshold is None or not history:
            continue
        newest = history[-1]
        for metric in threshold.metrics:
            assert metric in newest.get("metrics", {}), (
                f"{path.name} newest entry lacks trend metric {metric!r}"
            )
