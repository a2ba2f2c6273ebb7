"""Tests for the experiment harness."""

import numpy as np
import pytest

from repro.baselines.identity import Identity
from repro.exceptions import ConfigurationError
from repro.experiments.harness import (
    QUERY_KINDS,
    build_context,
    format_table,
    run_mechanism,
    run_mechanisms,
    run_stpt,
    run_stpt_many,
    run_stpt_sweep,
)
from repro.obs import Metrics, Tracer, use_metrics, use_tracer
from repro.scenarios.presets import CI, PAPER, active_preset


class TestPresets:
    def test_paper_matches_appendix_c(self):
        assert PAPER.grid_shape == (32, 32)
        assert PAPER.t_train == 100
        assert PAPER.t_test == 120
        assert PAPER.epsilon_pattern == 10.0
        assert PAPER.epsilon_sanitize == 20.0
        assert PAPER.query_count == 300
        assert PAPER.epochs == 20
        assert PAPER.embed_dim == 128
        assert PAPER.hidden_dim == 64

    def test_ci_preserves_budget_ratios(self):
        assert CI.epsilon_pattern / CI.epsilon_total == pytest.approx(
            PAPER.epsilon_pattern / PAPER.epsilon_total
        )

    def test_active_preset_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert active_preset().name == "ci"
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert active_preset().name == "paper"

    def test_stpt_config_factory(self, tiny_preset):
        config = tiny_preset.stpt_config()
        assert config.epsilon_total == tiny_preset.epsilon_total
        assert config.pattern.window == tiny_preset.window

    def test_stpt_config_overrides(self, tiny_preset):
        config = tiny_preset.stpt_config(
            quantization_levels=3, pattern_overrides={"model_family": "rnn"}
        )
        assert config.quantization_levels == 3
        assert config.pattern.model_family == "rnn"


class TestBuildContext:
    def test_shapes(self, tiny_context, tiny_preset):
        assert tiny_context.cons.shape == (8, 8, tiny_preset.n_days)
        assert tiny_context.test_cons.n_steps == tiny_preset.t_test
        assert set(tiny_context.workloads) == set(QUERY_KINDS)
        for queries in tiny_context.workloads.values():
            assert len(queries) == tiny_preset.query_count

    def test_norm_matrix_is_scaled(self, tiny_context):
        np.testing.assert_allclose(
            tiny_context.cons.total(),
            tiny_context.norm.total() * tiny_context.clip_factor,
            rtol=0.2,  # clipping loses a little mass
        )

    def test_unknown_dataset(self, tiny_preset):
        with pytest.raises(ConfigurationError):
            build_context("LONDON", "uniform", tiny_preset)

    def test_mre_of_truth_is_zero(self, tiny_context):
        mre = tiny_context.mre_of(tiny_context.test_cons)
        for value in mre.values():
            assert value == pytest.approx(0.0)


class TestRunners:
    def test_run_stpt(self, tiny_context):
        result, mre = run_stpt(tiny_context, rng=0)
        assert result.epsilon_spent == pytest.approx(
            tiny_context.preset.epsilon_total
        )
        assert set(mre) == set(QUERY_KINDS)
        assert all(np.isfinite(v) for v in mre.values())

    def test_run_mechanism(self, tiny_context):
        mre, elapsed = run_mechanism(tiny_context, Identity(), rng=0)
        assert set(mre) == set(QUERY_KINDS)
        assert elapsed >= 0


class TestSerialFanOut:
    """A serial fan-out runs through the serial executor, like a pooled one."""

    @staticmethod
    def traced(fn):
        tracer = Tracer()
        with use_tracer(tracer), use_metrics(Metrics()):
            out = fn()
        [run_span] = [s for s in tracer.spans if s.name == "parallel.run"]
        assert run_span.attributes["executor"] == "serial"
        return out

    @staticmethod
    def assert_serial_records(results):
        for result, __ in results:
            assert result.records
            assert all(record.worker == "serial" for record in result.records)
            assert result.records[0].queued_seconds == 0.0

    def test_stpt_sweep(self, tiny_context):
        configs = [tiny_context.preset.stpt_config(epsilon_sanitize=10.0)]
        self.assert_serial_records(
            self.traced(lambda: run_stpt_sweep(tiny_context, configs, rng=3))
        )

    def test_stpt_many(self, tiny_context):
        configs = [tiny_context.preset.stpt_config(epsilon_sanitize=10.0)]
        self.assert_serial_records(
            self.traced(lambda: run_stpt_many(tiny_context, configs, rng=3))
        )

    def test_mechanisms(self, tiny_context):
        [(mre, elapsed)] = self.traced(
            lambda: run_mechanisms(tiny_context, [Identity()], rng=3)
        )
        assert set(mre) == set(QUERY_KINDS)
        assert elapsed >= 0


class TestFormatTable:
    def test_alignment_and_headers(self):
        rows = [
            {"name": "a", "value": 1.234567},
            {"name": "bb", "value": 22.0},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.23" in text
        assert len({len(line) for line in lines}) == 1  # aligned

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]
