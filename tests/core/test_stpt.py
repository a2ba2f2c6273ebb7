"""End-to-end tests for the STPT pipeline (Algorithm 1)."""

import numpy as np
import pytest

from repro.baselines.identity import Identity
from repro.core.pattern import PatternConfig
from repro.core.stpt import STPT, STPTConfig
from repro.data.matrix import ConsumptionMatrix
from repro.dp.budget import BudgetAccountant
from repro.exceptions import ConfigurationError, DataError


def tiny_config(**overrides):
    params = dict(
        epsilon_pattern=10.0,
        epsilon_sanitize=20.0,
        t_train=16,
        quantization_levels=6,
        pattern=PatternConfig(window=3, epochs=2, embed_dim=8, hidden_dim=8),
    )
    params.update(overrides)
    return STPTConfig(**params)


@pytest.fixture()
def norm_matrix(rng):
    base = rng.random((8, 8, 1)) * 2.0
    shape = 1.0 + 0.2 * np.sin(np.arange(24) / 4.0)
    return ConsumptionMatrix(base * shape[None, None, :])


class TestConfig:
    def test_epsilon_total(self):
        assert tiny_config().epsilon_total == pytest.approx(30.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon_pattern=0.0),
            dict(epsilon_sanitize=-1.0),
            dict(t_train=0),
            dict(quantization_levels=0),
            dict(rollout="bogus"),
            dict(epsilon_pattern=np.nan),
            dict(epsilon_sanitize=np.nan),
            dict(epsilon_pattern=np.inf),
            dict(epsilon_sanitize=-np.inf),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            tiny_config(**kwargs)

    def test_paper_defaults(self):
        config = STPTConfig()
        assert config.epsilon_pattern == 10.0
        assert config.epsilon_sanitize == 20.0
        assert config.t_train == 100
        assert config.quantization_levels == 20


class TestPublish:
    def test_shapes_cover_test_horizon(self, norm_matrix):
        result = STPT(tiny_config(), rng=0).publish(norm_matrix, clip_scale=2.0)
        assert result.sanitized.shape == (8, 8, 8)
        assert result.sanitized_kwh.shape == (8, 8, 8)
        assert result.pattern_matrix.shape == (8, 8, 8)

    def test_budget_spent_equals_total(self, norm_matrix):
        result = STPT(tiny_config(), rng=0).publish(norm_matrix)
        assert result.epsilon_spent == pytest.approx(30.0)
        result.accountant.assert_within_budget()

    def test_kwh_is_scaled_normalized(self, norm_matrix):
        result = STPT(tiny_config(), rng=0).publish(norm_matrix, clip_scale=3.0)
        np.testing.assert_allclose(
            result.sanitized_kwh.values, result.sanitized.values * 3.0
        )

    def test_deterministic_given_seed(self, norm_matrix):
        a = STPT(tiny_config(), rng=123).publish(norm_matrix)
        b = STPT(tiny_config(), rng=123).publish(norm_matrix)
        np.testing.assert_array_equal(a.sanitized.values, b.sanitized.values)

    def test_different_seeds_differ(self, norm_matrix):
        a = STPT(tiny_config(), rng=1).publish(norm_matrix)
        b = STPT(tiny_config(), rng=2).publish(norm_matrix)
        assert not np.allclose(a.sanitized.values, b.sanitized.values)

    def test_partitions_cover_matrix(self, norm_matrix):
        result = STPT(tiny_config(), rng=0).publish(norm_matrix)
        assert result.partitions.labels.shape == (8, 8, 8)

    def test_huge_budget_approaches_truth(self, rng):
        """With ε -> ∞ the release converges to partition averages of
        the truth, so a homogeneous matrix is recovered exactly."""
        values = np.full((8, 8, 24), 1.5)
        matrix = ConsumptionMatrix(values)
        config = tiny_config(
            epsilon_pattern=1e9, epsilon_sanitize=1e9, quantization_levels=2
        )
        result = STPT(config, rng=0).publish(matrix)
        np.testing.assert_allclose(
            result.sanitized.values, values[:, :, 16:], atol=1e-3
        )

    def test_t_train_must_leave_test_horizon(self, norm_matrix):
        config = tiny_config(t_train=24)
        with pytest.raises(DataError):
            STPT(config, rng=0).publish(norm_matrix)

    def test_invalid_clip_scale(self, norm_matrix):
        with pytest.raises(ConfigurationError):
            STPT(tiny_config(), rng=0).publish(norm_matrix, clip_scale=0.0)

    def test_cell_rollout_mode(self, norm_matrix):
        config = tiny_config(rollout="cell")
        result = STPT(config, rng=0).publish(norm_matrix)
        assert result.sanitized.shape == (8, 8, 8)

    def test_elapsed_recorded(self, norm_matrix):
        result = STPT(tiny_config(), rng=0).publish(norm_matrix)
        assert result.elapsed_seconds > 0
        assert result.pattern_result.training_seconds > 0


def _with_cell(matrix, value):
    values = matrix.values.copy()
    values[1, 2, 3] = value
    return ConsumptionMatrix(values)


@pytest.fixture()
def charges(monkeypatch):
    """Every BudgetAccountant.spend/spend_parallel call, by method name."""
    calls = []
    for method in ("spend", "spend_parallel"):
        original = getattr(BudgetAccountant, method)

        def record(self, *args, _method=method, _original=original, **kwargs):
            calls.append(_method)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(BudgetAccountant, method, record)
    return calls


class TestMalformedInputSpendsNothing:
    """Non-finite input is a typed error raised before any ε is charged."""

    @pytest.mark.parametrize("shard_depth", [0, 1])
    @pytest.mark.parametrize(
        "cell, clip_scale, error",
        [
            pytest.param(np.nan, 1.0, DataError, id="nan-cell"),
            pytest.param(np.inf, 1.0, DataError, id="inf-cell"),
            pytest.param(-np.inf, 1.0, DataError, id="neg-inf-cell"),
            pytest.param(None, np.nan, ConfigurationError, id="nan-clip"),
            pytest.param(None, np.inf, ConfigurationError, id="inf-clip"),
        ],
    )
    def test_publish(
        self, norm_matrix, charges, shard_depth, cell, clip_scale, error
    ):
        matrix = norm_matrix if cell is None else _with_cell(norm_matrix, cell)
        stpt = STPT(tiny_config(shard_depth=shard_depth), rng=0)
        with pytest.raises(error, match="finite"):
            stpt.publish(matrix, clip_scale=clip_scale)
        assert charges == []

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_identity_baseline(self, norm_matrix, charges, cell):
        with pytest.raises(DataError, match="finite"):
            Identity().run(_with_cell(norm_matrix, cell), epsilon=1.0, rng=0)
        assert charges == []
        # Control: the spy does see the charge of a well-formed run.
        Identity().run(norm_matrix, epsilon=1.0, rng=0)
        assert charges


class TestUtilityAgainstIdentity:
    def test_stpt_beats_identity_on_small_queries(self, rng):
        """The paper's headline: STPT clearly beats Identity on small
        queries because per-cell Laplace noise dwarfs cell values."""
        from repro.baselines.identity import Identity
        from repro.queries.metrics import workload_mre
        from repro.queries.range_query import small_queries

        base = rng.random((8, 8, 1)) * 2.0 + 0.5
        values = base * (1.0 + 0.1 * np.sin(np.arange(48) / 5.0))
        matrix = ConsumptionMatrix(values)
        config = tiny_config(
            t_train=16, epsilon_pattern=1.0, epsilon_sanitize=2.0
        )
        stpt_result = STPT(config, rng=0).publish(matrix)
        test = matrix.time_slice(16)
        identity = Identity().run(test, epsilon=3.0, rng=1)
        queries = small_queries(test.shape, count=100, rng=2, reference=test)
        stpt_mre = workload_mre(queries, test, stpt_result.sanitized)
        identity_mre = workload_mre(queries, test, identity.sanitized)
        assert stpt_mre < identity_mre


class TestSuggestedSplit:
    def test_split_sums_to_total(self):
        config = STPTConfig.with_suggested_split(
            30.0, t_train=40, grid_shape=(16, 16), typical_cell_value=1.5,
            pattern=PatternConfig(window=3, epochs=1, embed_dim=8, hidden_dim=8),
        )
        assert config.epsilon_total == pytest.approx(30.0)
        assert config.t_train == 40

    def test_harder_data_gets_more_pattern_budget(self):
        easy = STPTConfig.with_suggested_split(
            30.0, 40, (16, 16), typical_cell_value=10.0,
        )
        hard = STPTConfig.with_suggested_split(
            30.0, 40, (16, 16), typical_cell_value=0.2,
        )
        assert hard.epsilon_pattern >= easy.epsilon_pattern

    def test_explicit_depth_respected(self):
        config = STPTConfig.with_suggested_split(
            30.0, 40, (16, 16), typical_cell_value=1.0,
            pattern=PatternConfig(window=3, depth=2),
        )
        assert config.pattern.depth == 2

    def test_end_to_end_publish(self, norm_matrix):
        config = STPTConfig.with_suggested_split(
            30.0, t_train=16, grid_shape=(8, 8), typical_cell_value=1.0,
            quantization_levels=5,
            pattern=PatternConfig(window=3, epochs=1, embed_dim=8, hidden_dim=8),
        )
        result = STPT(config, rng=0).publish(norm_matrix)
        assert result.epsilon_spent == pytest.approx(30.0)
