"""Tests for the empirical privacy auditor."""

import numpy as np
import pytest

from repro.audit import (
    BrokenIdentityTarget,
    ComposedSTPTTarget,
    MechanismAuditTarget,
    audit_epsilon,
    neighbouring_readings,
)
from repro.audit.estimator import (
    clopper_pearson_lower,
    clopper_pearson_upper,
)
from repro.baselines.identity import Identity
from repro.core.pattern import PatternConfig
from repro.core.stpt import STPTConfig
from repro.exceptions import ConfigurationError


@pytest.fixture()
def cells():
    cells = np.zeros((6, 2), dtype=int)
    cells[1:, 0] = np.arange(5) % 4
    cells[1:, 1] = np.arange(5) // 4
    return cells


@pytest.fixture()
def neighbours():
    return neighbouring_readings(6, 4, rng=0)


class TestClopperPearson:
    def test_upper_bound_contains_proportion(self):
        upper = clopper_pearson_upper(50, 100, alpha=0.05)
        assert upper > 0.5

    def test_lower_bound_below_proportion(self):
        lower = clopper_pearson_lower(50, 100, alpha=0.05)
        assert lower < 0.5

    def test_edge_cases(self):
        assert clopper_pearson_upper(100, 100, 0.05) == 1.0
        assert clopper_pearson_lower(0, 100, 0.05) == 0.0

    def test_bounds_tighten_with_trials(self):
        loose = clopper_pearson_upper(5, 10, 0.05)
        tight = clopper_pearson_upper(500, 1000, 0.05)
        assert tight < loose


class TestNeighbouringReadings:
    def test_differ_only_in_first_row(self):
        d, dp = neighbouring_readings(5, 3, rng=0)
        np.testing.assert_array_equal(d[1:], dp[1:])
        assert np.all(d[0] == 1.0)
        assert np.all(dp[0] == 0.0)

    def test_too_few_households(self):
        with pytest.raises(ConfigurationError):
            neighbouring_readings(1, 3)


class TestAuditEstimator:
    def test_honest_identity_passes(self, cells, neighbours):
        d, dp = neighbours
        target = MechanismAuditTarget(Identity(), 1.0, cells, (4, 4))
        result = audit_epsilon(
            target, d, dp, trials=300, claimed_epsilon=1.0, rng=1
        )
        assert not result.violates_claim
        assert result.epsilon_lower_bound <= 1.0

    def test_broken_mechanism_flagged(self, cells, neighbours):
        d, dp = neighbours
        target = BrokenIdentityTarget(cells, (4, 4))
        result = audit_epsilon(
            target, d, dp, trials=60, claimed_epsilon=1.0, rng=2
        )
        assert result.violates_claim
        assert result.epsilon_lower_bound > 1.0

    def test_higher_budget_is_more_distinguishable(self, cells, neighbours):
        d, dp = neighbours
        tight = audit_epsilon(
            MechanismAuditTarget(Identity(), 0.5, cells, (4, 4)),
            d, dp, trials=300, rng=3,
        )
        loose = audit_epsilon(
            MechanismAuditTarget(Identity(), 50.0, cells, (4, 4)),
            d, dp, trials=300, rng=3,
        )
        assert loose.epsilon_point_estimate >= tight.epsilon_point_estimate

    def test_result_metadata(self, cells, neighbours):
        d, dp = neighbours
        target = MechanismAuditTarget(Identity(), 1.0, cells, (4, 4))
        result = audit_epsilon(target, d, dp, trials=50, rng=4)
        assert result.trials == 50
        assert result.confidence == 0.95
        assert result.claimed_epsilon is None
        assert not result.violates_claim  # no claim given

    def test_too_few_trials(self, cells, neighbours):
        d, dp = neighbours
        target = MechanismAuditTarget(Identity(), 1.0, cells, (4, 4))
        with pytest.raises(ConfigurationError):
            audit_epsilon(target, d, dp, trials=5)

    def test_invalid_confidence(self, cells, neighbours):
        d, dp = neighbours
        target = MechanismAuditTarget(Identity(), 1.0, cells, (4, 4))
        with pytest.raises(ConfigurationError):
            audit_epsilon(target, d, dp, trials=50, confidence=0.3)


class TestSTPTAudit:
    def test_stpt_pipeline_passes_audit(self):
        """The end-to-end pipeline must not leak more than ε_total.

        A small trial count keeps this fast; the sound bound at this
        sample size can only flag gross violations (which is the
        regression this test guards against).
        """
        n = 8
        cells = np.zeros((n, 2), dtype=int)
        cells[1:, 0] = np.arange(n - 1) % 4
        cells[1:, 1] = np.arange(n - 1) // 4 % 4
        d, dp = neighbouring_readings(n, 12, rng=5)
        config = STPTConfig(
            epsilon_pattern=1.0,
            epsilon_sanitize=2.0,
            t_train=8,
            quantization_levels=4,
            pattern=PatternConfig(window=3, epochs=1, embed_dim=8,
                                  hidden_dim=8, depth=1),
        )
        target = ComposedSTPTTarget(
            config, cells, (4, 4), statistic="pillar-sum"
        )
        result = audit_epsilon(
            target, d, dp, trials=40, claimed_epsilon=3.0, rng=6
        )
        assert not result.violates_claim
