"""Composed-pipeline audits: broken variants flagged, honest ones not.

The broken-mechanism regression tests are the suite's false-negative
guard: each deliberately planted bug class (forgotten noise, half-scale
noise, budget double-spend) must produce an audited ε lower bound above
the claimed ε. Trial counts per bug class are the smallest that flag
reliably across seeds — the subtler the bug, the more evidence the
Clopper-Pearson bound needs — so the expensive classes are ``slow``.
"""

import numpy as np
import pytest

from repro.audit import (
    BREAK_MODES,
    AuditResult,
    ComposedAuditPoint,
    ComposedAuditReport,
    ComposedSTPTTarget,
    audit_pair,
    collect_scores,
    run_composed_audit,
)
from repro.exceptions import ConfigurationError
from repro.scenarios import resolve_scenario


@pytest.fixture(scope="module")
def resolved():
    return resolve_scenario("audit-composed-stpt")


@pytest.fixture(scope="module")
def pair(resolved):
    return audit_pair(resolved.preset, rng=5)


class TestComposedTarget:
    def test_unknown_break_mode_rejected(self, resolved, pair):
        cells, __, __ = pair
        with pytest.raises(ConfigurationError):
            ComposedSTPTTarget(
                resolved.configs[0], cells, (1, 1), break_mode="no-such-bug"
            )

    def test_unknown_statistic_rejected(self, resolved, pair):
        cells, __, __ = pair
        with pytest.raises(ConfigurationError):
            ComposedSTPTTarget(
                resolved.configs[0], cells, (1, 1), statistic="mean"
            )

    def test_claimed_epsilon_is_the_config_total(self, resolved, pair):
        cells, __, __ = pair
        target = ComposedSTPTTarget(resolved.configs[0], cells, (1, 1))
        assert target.claimed_epsilon == pytest.approx(
            resolved.configs[0].epsilon_total
        )

    def test_contrast_length_mismatch_rejected(self, resolved, pair):
        cells, dataset, __ = pair
        target = ComposedSTPTTarget(
            resolved.configs[0], cells, (1, 1), contrast=np.ones(3)
        )
        with pytest.raises(ConfigurationError):
            target(dataset, np.random.default_rng(0))

    def test_forgot_noise_release_preserves_raw_totals(self, resolved, pair):
        """The no-noise release spreads exact partition totals, so the
        whole-grid sum equals the raw test-horizon sum — the signature
        the grid-sum statistic exploits."""
        cells, dataset, __ = pair
        config = resolved.configs[0]
        target = ComposedSTPTTarget(
            config, cells, (1, 1), break_mode="forgot-noise"
        )
        from repro.data.matrix import build_matrices

        __, norm = build_matrices(dataset, cells, (1, 1), 1.0)
        score = target(dataset, np.random.default_rng(1))
        raw_total = float(norm.values[:, :, config.t_train:].sum())
        assert score == pytest.approx(raw_total, rel=1e-9)


class TestBrokenVariantsFlagged:
    def test_forgot_noise_flagged(self):
        report = run_composed_audit(
            "audit-composed-stpt", trials=200, break_mode="forgot-noise"
        )
        assert report.verdict_ok
        for point in report.points:
            assert point.audit.epsilon_lower_bound > point.claimed_epsilon

    @pytest.mark.slow
    def test_half_scale_flagged(self):
        report = run_composed_audit(
            "audit-composed-stpt", trials=700, break_mode="half-scale"
        )
        assert report.verdict_ok
        for point in report.points:
            assert point.audit.epsilon_lower_bound > point.claimed_epsilon

    @pytest.mark.slow
    def test_double_spend_flagged(self):
        report = run_composed_audit(
            "audit-composed-stpt", trials=1300, break_mode="double-spend"
        )
        assert report.verdict_ok
        for point in report.points:
            assert point.audit.epsilon_lower_bound > point.claimed_epsilon


class TestHonestPipelinePasses:
    def test_unsharded_claim_not_contradicted(self):
        report = run_composed_audit(
            "audit-composed-stpt", trials=200, attack=False
        )
        assert report.break_mode is None
        assert report.verdict_ok
        for point in report.points:
            assert point.audit.epsilon_lower_bound <= point.claimed_epsilon

    def test_sharded_claim_not_contradicted(self):
        report = run_composed_audit(
            "audit-composed-sharded", trials=60, attack=False
        )
        assert report.verdict_ok

    def test_non_audit_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            run_composed_audit("bench-trace-overhead", trials=20)


class TestDeterminism:
    def test_scores_bit_identical_across_worker_counts(self, resolved, pair):
        cells, dataset, neighbour = pair
        target = ComposedSTPTTarget(resolved.configs[0], cells, (1, 1))
        serial = collect_scores(
            target, (dataset, neighbour), (48, 48), rng=4
        )
        fanned = collect_scores(
            target, (dataset, neighbour), (48, 48), rng=4, workers=2
        )
        for one, other in zip(serial, fanned):
            np.testing.assert_array_equal(one, other)

    def test_report_reproducible_at_fixed_seed(self):
        first = run_composed_audit(
            "audit-composed-stpt", trials=40, attack=False, rng=9
        )
        second = run_composed_audit(
            "audit-composed-stpt", trials=40, attack=False, rng=9
        )
        assert first.rows() == second.rows()


class TestReportVerdict:
    """Verdict semantics, pinned with synthetic results (no runs)."""

    @staticmethod
    def _point(bound: float, claim: float) -> ComposedAuditPoint:
        return ComposedAuditPoint(
            label="eps",
            claimed_epsilon=claim,
            audit=AuditResult(
                epsilon_lower_bound=bound,
                epsilon_point_estimate=bound,
                best_threshold=0.0,
                trials=100,
                confidence=0.95,
                claimed_epsilon=claim,
            ),
        )

    def test_honest_report_fails_on_any_violation(self):
        points = (self._point(0.5, 1.0), self._point(1.5, 1.0))
        report = ComposedAuditReport(
            scenario="s", break_mode=None, trials=100,
            confidence=0.95, points=points,
        )
        assert not report.verdict_ok
        assert len(report.violations) == 1

    def test_broken_report_requires_every_point_flagged(self):
        points = (self._point(1.5, 1.0), self._point(0.5, 1.0))
        report = ComposedAuditReport(
            scenario="s", break_mode=BREAK_MODES[0], trials=100,
            confidence=0.95, points=points,
        )
        assert not report.verdict_ok
        flagged = (self._point(1.5, 1.0), self._point(2.0, 1.0))
        report = ComposedAuditReport(
            scenario="s", break_mode=BREAK_MODES[0], trials=100,
            confidence=0.95, points=flagged,
        )
        assert report.verdict_ok
