"""Tier-1 pins: figure/bench scenarios describe what actually runs.

Each test fixes one registered scenario's resolved geometry and epsilon
schedule to the values the figure/benchmark code historically used, so
a catalog edit that silently changes what ``repro figure fig8c`` runs
fails here — the spec and the run must drift together, loudly.
"""

import pytest

from repro.scenarios import CI, resolve_scenario, scenario_names


@pytest.mark.parametrize("dataset", ["cer", "ca", "mi", "tx"])
def test_fig6_mechanism_comparison(dataset):
    resolved = resolve_scenario(f"fig6-{dataset}", preset=CI)
    assert resolved.dataset_name == dataset.upper()
    assert resolved.distributions == ("uniform", "normal")
    assert resolved.epsilon_schedule == (CI.epsilon_sanitize,)
    assert resolved.configs[0].epsilon_pattern == CI.epsilon_pattern


def test_fig7_runs_la_placement():
    resolved = resolve_scenario("fig7-wpo", preset=CI)
    assert resolved.distributions == ("la",)


def test_fig8ab_budget_scales_with_the_training_horizon():
    resolved = resolve_scenario("fig8ab-budget-pattern", preset=CI)
    assert resolved.values == (0.01, 0.05, 0.1, 0.25, 0.5)
    for value, config in zip(resolved.values, resolved.configs):
        assert config.epsilon_pattern == value * CI.t_train
        assert config.epsilon_sanitize == CI.epsilon_sanitize


def test_fig8c_quantization_axis():
    resolved = resolve_scenario("fig8c-quantization", preset=CI)
    assert resolved.values == (2, 5, 10, 20, 40, 80)
    assert [c.quantization_levels for c in resolved.configs] == list(
        resolved.values
    )
    assert resolved.spec.seeds.sweep_mode == "shared-pattern"


def test_fig8ef_depth_axis_auto_derives_from_geometry():
    resolved = resolve_scenario("fig8ef-depth", preset=CI)
    # CI: 16x16 grid caps the quadtree at depth 4; t_train=40 with
    # window 6 allows more, so the grid bound wins.
    assert resolved.values == (0, 1, 2, 3, 4)
    assert [c.pattern.depth for c in resolved.configs] == list(resolved.values)


def test_fig8g_budget_split_partitions_the_total():
    resolved = resolve_scenario("fig8g-budget-split", preset=CI)
    assert resolved.values == (0.1, 0.2, 1.0 / 3.0, 0.5, 0.7, 0.9)
    total = CI.epsilon_total
    for fraction, config in zip(resolved.values, resolved.configs):
        assert config.epsilon_pattern == total * fraction
        assert config.epsilon_sanitize == total * (1.0 - fraction)
        assert config.epsilon_pattern + config.epsilon_sanitize == pytest.approx(
            total
        )


def test_fig8h_total_budget_keeps_the_paper_split():
    resolved = resolve_scenario("fig8h-total-budget", preset=CI)
    assert resolved.values == (3.0, 7.5, 15.0, 30.0, 60.0)
    ratio = CI.epsilon_pattern / CI.epsilon_total
    for total, config in zip(resolved.values, resolved.configs):
        assert config.epsilon_pattern == total * ratio
        assert config.epsilon_sanitize == total * (1.0 - ratio)


def test_fig8i_model_families():
    resolved = resolve_scenario("fig8i-models", preset=CI)
    assert resolved.values == ("rnn", "gru", "transformer")
    assert [c.pattern.model_family for c in resolved.configs] == list(
        resolved.values
    )


def test_ablation_axes_cover_both_arms():
    for name, field in [
        ("ablation-rollout", "rollout"),
        ("ablation-allocation", "allocation"),
    ]:
        resolved = resolve_scenario(name, preset=CI)
        assert len(resolved.values) >= 2
        assert [getattr(c, field) for c in resolved.configs] == list(
            resolved.values
        )


def test_bench_trace_overhead_golden_geometry():
    # The tracer-overhead benchmark's geometry is part of its golden
    # contract: traced and untraced runs must publish these exact bits.
    resolved = resolve_scenario("bench-trace-overhead")
    assert resolved.preset.grid_shape == (8, 8)
    assert resolved.preset.t_train == 16
    assert resolved.epsilon_schedule == (10.0, 20.0)
    assert resolved.spec.seeds.seed == 1234
    for config in resolved.configs:
        assert config.quantization_levels == 6
        assert config.pattern.window == 3
        assert config.pattern.embed_dim == 8


def test_publish_default_matches_the_cli_builtin_defaults():
    resolved = resolve_scenario("publish-default")
    assert resolved.preset.grid_shape == (32, 32)
    assert resolved.preset.t_train == 100
    assert resolved.epsilon_schedule == (20.0,)
    config = resolved.configs[0]
    assert config.epsilon_pattern == 10.0
    assert config.quantization_levels == 20
    assert config.pattern.window == 6
    assert config.pattern.epochs == 20
    assert config.pattern.embed_dim == 32
    assert config.pattern.hidden_dim == 32


def test_every_figure_runner_has_a_registered_scenario():
    names = set(scenario_names())
    for expected in [
        "table2-datasets", "fig9-weekday-profile", "fig6-cer", "fig7-wpo",
        "fig8ab-budget-pattern", "fig8c-quantization", "fig8d-runtime",
        "fig8ef-depth", "fig8g-budget-split", "fig8h-total-budget",
        "fig8i-models", "ablation-allocation", "ablation-rollout",
        "ablation-attention", "ablation-seeds", "ablation-local-dp",
        "ablation-refinement", "ablation-privacy-model",
    ]:
        assert expected in names
