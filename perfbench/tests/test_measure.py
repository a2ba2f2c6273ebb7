"""The statistics and decision rules behind the serve-phase verdicts."""

import math

import pytest

import measure


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert measure.percentile(values, 99.0) == 990
    assert measure.percentile(values[:999], 99.0) is None
    assert measure.percentile(values, 50.0) == 500
    assert measure.percentile([], 50.0) is None


def test_percentile_ignores_input_order():
    values = [float(v) for v in range(1000, 0, -1)]
    assert measure.percentile(values, 99.0) == 990.0


def test_backlog_detection():
    flat = [2.0 + 0.1 * (i % 7) for i in range(1000)]
    rising = [2.0 + 0.05 * i for i in range(1000)]
    assert not measure.backlog_growing(flat)
    assert measure.backlog_growing(rising)
    assert not measure.backlog_growing([1.0, 100.0, 1000.0])


def test_failed_requests_miss_the_limit():
    latencies = [1.0] * 1000
    ok = measure.judge_step(400.0, latencies, [0.5] * 1000)
    assert ok.met and ok.failed == 0 and ok.p99_ms == 1.0
    failed = measure.judge_step(400.0, latencies[:-20] + [math.inf] * 20, [0.5] * 1000)
    assert failed.failed == 20 and failed.succeeded == 980
    assert failed.p99_ms == math.inf and not failed.met


def test_late_generator_makes_a_step_invalid():
    late = measure.judge_step(400.0, [1.0] * 1000, [20.0] * 1000)
    assert not late.valid and not late.met
    too_few = measure.judge_step(400.0, [1.0] * 500, [0.5] * 500)
    assert too_few.p99_ms is None and not too_few.met


def test_capacity_search_climbs_then_bisects():
    probed = []

    def probe(rate):
        probed.append(rate)
        return rate <= 700.0

    best = measure.search_capacity(probe, 400.0)
    assert probed[:3] == pytest.approx([400.0, 600.0, 900.0])
    low, high = 600.0, 900.0
    for __ in range(2):
        middle = math.sqrt(low * high)
        low, high = (middle, high) if middle <= 700.0 else (low, middle)
    assert best == pytest.approx(low)
    assert 600.0 < best <= 700.0


def test_capacity_search_descends_when_start_fails():
    best = measure.search_capacity(lambda rate: rate <= 150.0, 400.0)
    assert best is not None and 120.0 < best <= 150.0
    assert measure.search_capacity(lambda rate: False, 400.0) is None
