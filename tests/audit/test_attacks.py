"""Tests for the membership/pattern-inference attack suite."""

import numpy as np
import pytest

from repro.audit import (
    AttackResult,
    BrokenIdentityTarget,
    ComposedSTPTTarget,
    audit_pair,
    dp_advantage_bound,
    mann_whitney_auc,
    membership_inference_attack,
    pattern_inference_attack,
    pattern_worlds,
    threshold_attack,
)
from repro.exceptions import ConfigurationError
from repro.scenarios import resolve_scenario
from tests.audit.test_estimator_properties import LaplaceTarget


@pytest.fixture(scope="module")
def resolved():
    return resolve_scenario("audit-composed-stpt")


@pytest.fixture(scope="module")
def pair(resolved):
    return audit_pair(resolved.preset, rng=5)


SCALAR_IN = np.array([1.0])
SCALAR_OUT = np.array([0.0])


class TestDpAdvantageBound:
    def test_zero_epsilon_means_zero_advantage(self):
        assert dp_advantage_bound(0.0) == 0.0

    def test_matches_the_tanh_form(self):
        epsilon = 1.3
        expected = (np.exp(epsilon) - 1.0) / (np.exp(epsilon) + 1.0)
        assert dp_advantage_bound(epsilon) == pytest.approx(expected)

    def test_monotone_in_epsilon_and_steps(self):
        assert dp_advantage_bound(2.0) > dp_advantage_bound(1.0)
        assert dp_advantage_bound(1.0, adjacency_steps=2) > dp_advantage_bound(
            1.0, adjacency_steps=1
        )

    def test_approaches_one(self):
        assert dp_advantage_bound(50.0) == pytest.approx(1.0)


class TestMannWhitneyAuc:
    def test_perfect_separation(self):
        assert mann_whitney_auc(
            np.array([3.0, 4.0]), np.array([1.0, 2.0])
        ) == 1.0

    def test_identical_distributions_are_chance(self):
        same = np.array([1.0, 2.0, 3.0])
        assert mann_whitney_auc(same, same) == pytest.approx(0.5)

    def test_empty_side_rejected(self):
        with pytest.raises(ConfigurationError):
            mann_whitney_auc(np.empty(0), np.array([1.0]))


class TestThresholdAttack:
    def test_no_noise_target_is_a_perfect_distinguisher(self, pair):
        cells, dataset, neighbour = pair
        target = BrokenIdentityTarget(cells, (1, 1))
        result = membership_inference_attack(
            target, dataset, neighbour,
            shadows=20, challenges=40, claimed_epsilon=1.0, rng=1,
        )
        assert result.auc == pytest.approx(1.0)
        assert result.advantage == pytest.approx(1.0)
        assert result.violates_claim

    def test_honest_laplace_stays_under_the_ceiling(self):
        result = membership_inference_attack(
            LaplaceTarget(1.0), SCALAR_IN, SCALAR_OUT,
            shadows=100, challenges=300, claimed_epsilon=1.0, rng=2,
        )
        assert not result.violates_claim
        assert result.advantage_lower <= result.advantage <= (
            result.advantage_upper
        )
        assert 0.0 <= result.auc <= 1.0

    def test_advantage_grows_with_budget(self):
        tight = membership_inference_attack(
            LaplaceTarget(0.5), SCALAR_IN, SCALAR_OUT,
            shadows=80, challenges=200, rng=3,
        )
        loose = membership_inference_attack(
            LaplaceTarget(8.0), SCALAR_IN, SCALAR_OUT,
            shadows=80, challenges=200, rng=3,
        )
        assert loose.auc > tight.auc
        assert loose.advantage > tight.advantage

    def test_too_few_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            threshold_attack(
                LaplaceTarget(1.0), SCALAR_IN, SCALAR_OUT,
                shadows=5, challenges=40,
            )

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ConfigurationError):
            threshold_attack(
                LaplaceTarget(1.0), SCALAR_IN, SCALAR_OUT, confidence=0.4
            )

    def test_bit_identical_across_worker_counts(self):
        serial = membership_inference_attack(
            LaplaceTarget(1.0), SCALAR_IN, SCALAR_OUT,
            shadows=20, challenges=40, rng=4,
        )
        fanned = membership_inference_attack(
            LaplaceTarget(1.0), SCALAR_IN, SCALAR_OUT,
            shadows=20, challenges=40, rng=4, workers=2,
        )
        assert serial == fanned

    def test_metadata(self):
        result = membership_inference_attack(
            LaplaceTarget(1.0), SCALAR_IN, SCALAR_OUT,
            shadows=15, challenges=25, rng=5,
        )
        assert result.shadows == 15
        assert result.challenges == 25
        assert result.adjacency_steps == 1
        assert result.claimed_epsilon is None
        assert result.dp_bound is None
        assert not result.violates_claim  # no claim given


class TestPatternWorlds:
    def test_totals_are_identical(self):
        world_a, world_b, contrast = pattern_worlds(3, 12, 8, rng=0)
        assert world_a[0].sum() == pytest.approx(world_b[0].sum())
        np.testing.assert_array_equal(world_a[1:], world_b[1:])
        assert len(contrast) == 4
        assert set(np.unique(contrast)) <= {-1.0, 1.0}

    def test_contrast_separates_the_worlds_on_raw_data(self):
        world_a, world_b, contrast = pattern_worlds(2, 12, 8, rng=1)
        score_a = world_a[0, 8:] @ contrast
        score_b = world_b[0, 8:] @ contrast
        assert score_a > score_b

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            pattern_worlds(1, 12, 8)
        with pytest.raises(ConfigurationError):
            pattern_worlds(2, 12, 12)


class TestPatternInferenceAttack:
    def test_honest_pipeline_within_two_step_ceiling(self, resolved):
        result = pattern_inference_attack(
            resolved.configs[0], (1, 1),
            shadows=20, challenges=40, rng=6,
        )
        assert isinstance(result, AttackResult)
        assert result.adjacency_steps == 2
        assert result.claimed_epsilon == pytest.approx(
            resolved.configs[0].epsilon_total
        )
        assert not result.violates_claim

    def test_contrast_statistic_used(self, resolved):
        """The composed target accepts the matched-filter contrast and
        produces finite scores on the pattern worlds."""
        world_a, __, contrast = pattern_worlds(2, 12, 8, rng=7)
        cells, __, __ = audit_pair(resolved.preset, rng=7)
        target = ComposedSTPTTarget(
            resolved.configs[0], cells, (1, 1), contrast=contrast
        )
        score = target(world_a, np.random.default_rng(8))
        assert np.isfinite(score)
