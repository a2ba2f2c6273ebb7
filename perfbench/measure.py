"""Order statistics and the decision rules of the serve phase.

Everything here is pure (no clocks, sockets or repro imports), so the
rules the benchmark's verdicts rest on are unit-tested directly in
``perfbench/tests/test_measure.py``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

#: A percentile is reported only when at least this many samples rank
#: above it; with fewer it describes a handful of requests.
MIN_BEYOND = 10

#: Latency limit on the p99 of a rate step, in milliseconds.
P99_LIMIT_MS = 50.0

#: A step is invalid, not failed, when the generator itself sent late:
#: its p99 send lateness exceeds this share of the latency limit.
LATENESS_SHARE = 0.2

#: Backlog rule: the backlog grows when the median latency of a step's
#: last quarter (by due time) exceeds the first quarter's median times
#: ``BACKLOG_FACTOR`` plus ``BACKLOG_SLACK_MS``.
BACKLOG_FACTOR = 1.5
BACKLOG_SLACK_MS = 1.0


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` if too few samples.

    ``None`` unless at least :data:`MIN_BEYOND` samples rank strictly
    above the returned one, so a p99 needs 1,000 samples.
    """
    n = len(values)
    if n == 0 or not 0.0 < q <= 100.0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def backlog_growing(latencies_ms: Sequence[float]) -> bool:
    """Whether latency rose from a step's first quarter to its last.

    ``latencies_ms`` is in due-time order. Past capacity an open loop
    queues work, so each later request waits longer than the earlier
    ones; below capacity the last quarter stays near the first.
    """
    quarter = len(latencies_ms) // 4
    if quarter == 0:
        return False
    first = median(latencies_ms[:quarter])
    last = median(latencies_ms[-quarter:])
    return last > first * BACKLOG_FACTOR + BACKLOG_SLACK_MS


@dataclass
class StepVerdict:
    """One offered-rate step of the serve phase."""

    rate: float
    sent: int
    failed: int
    p50_ms: float | None
    p99_ms: float | None
    lag_p99_ms: float | None
    backlog: bool

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed

    @property
    def valid(self) -> bool:
        """The generator kept its schedule, so the step measured the server."""
        return (
            self.lag_p99_ms is not None
            and self.lag_p99_ms <= LATENESS_SHARE * P99_LIMIT_MS
        )

    @property
    def met(self) -> bool:
        """Valid, failure-free, p99 within the limit and no growing backlog."""
        return (
            self.valid
            and self.failed == 0
            and self.p99_ms is not None
            and self.p99_ms <= P99_LIMIT_MS
            and not self.backlog
        )


def judge_step(
    rate: float,
    latencies_ms: Sequence[float],
    lateness_ms: Sequence[float],
) -> StepVerdict:
    """Apply the limit, backlog and lateness rules to one step.

    ``latencies_ms`` holds one entry per request sent, in due order; a
    failed request is ``math.inf``, so it misses every limit.
    """
    return StepVerdict(
        rate=rate,
        sent=len(latencies_ms),
        failed=sum(1 for value in latencies_ms if math.isinf(value)),
        p50_ms=percentile(latencies_ms, 50.0),
        p99_ms=percentile(latencies_ms, 99.0),
        lag_p99_ms=percentile(lateness_ms, 99.0),
        backlog=backlog_growing(latencies_ms),
    )


def search_capacity(
    probe: Callable[[float], bool],
    start: float,
    growth: float = 1.5,
    refinements: int = 2,
    max_climb: int = 6,
    floor: float = 10.0,
) -> float | None:
    """Highest offered rate at which ``probe(rate)`` holds.

    Climbs geometrically from ``start`` until a rate fails (or descends
    until one passes), then bisects between the last passing and the
    first failing rate ``refinements`` times, geometrically. Returns
    ``None`` when no rate down to ``floor`` passes.
    """
    passed: float | None = None
    failed: float | None = None
    rate = start
    if probe(rate):
        passed = rate
        for __ in range(max_climb):
            rate *= growth
            if not probe(rate):
                failed = rate
                break
            passed = rate
    else:
        failed = rate
        while rate / growth >= floor:
            rate /= growth
            if probe(rate):
                passed = rate
                break
            failed = rate
    if passed is None or failed is None:
        return passed
    for __ in range(refinements):
        middle = math.sqrt(passed * failed)
        if probe(middle):
            passed = middle
        else:
            failed = middle
    return passed
