"""SCN001 — experiment modules must resolve scenarios, not configs."""

_SNIPPET = """\
from repro.core.stpt import STPTConfig

def bench_sweep():
    config = STPTConfig(epsilon_pattern=10.0, epsilon_sanitize=20.0)
    return config
"""


class TestInlineScenarioConfigRule:
    def test_stpt_config_in_experiments_flagged(self, lint_snippet):
        result = lint_snippet(
            _SNIPPET, rule="SCN001", rel="src/pkg/experiments/bench.py"
        )
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == "SCN001"
        assert finding.line == 4
        assert "STPTConfig" in finding.message
        assert "scenario" in finding.message

    def test_scale_preset_in_benchmarks_flagged(self, lint_snippet):
        result = lint_snippet(
            """\
            from repro.scenarios import ScalePreset

            TINY = ScalePreset(
                name="tiny", grid_shape=(4, 4), n_days=8, t_train=4,
                query_count=10, epochs=1, embed_dim=4, hidden_dim=4,
                quantization_levels=2, epsilon_pattern=1.0,
                epsilon_sanitize=2.0, cer_household_fraction=0.01,
                lgan_iterations=1,
            )
            """,
            rule="SCN001",
            rel="src/benchmarks/tiny.py",
        )
        assert len(result.findings) == 1
        assert "ScalePreset" in result.findings[0].message

    def test_bench_prefixed_module_flagged(self, lint_snippet):
        result = lint_snippet(
            _SNIPPET, rule="SCN001", rel="src/pkg/bench_extra.py"
        )
        assert [f.rule for f in result.findings] == ["SCN001"]

    def test_non_experiment_module_ignored(self, lint_snippet):
        result = lint_snippet(
            _SNIPPET, rule="SCN001", rel="src/pkg/cli.py"
        )
        assert not result.findings

    def test_resolving_a_scenario_passes(self, lint_snippet):
        result = lint_snippet(
            """\
            from repro.scenarios import resolve_scenario

            def bench_sweep():
                resolved = resolve_scenario("bench-trace-overhead")
                return resolved.configs
            """,
            rule="SCN001",
            rel="src/pkg/experiments/bench.py",
        )
        assert not result.findings

    def test_suppression_comment_honoured(self, lint_snippet):
        result = lint_snippet(
            """\
            from repro.core.stpt import STPTConfig

            def probe():
                return STPTConfig()  # lint: disable=SCN001 -- synthetic config for a capability probe, not a described run
            """,
            rule="SCN001",
            rel="src/pkg/experiments/probe.py",
        )
        assert not result.findings
        assert result.suppressed == 1

    def test_default_allow_covers_registry_home(self, lint_snippet):
        result = lint_snippet(
            _SNIPPET,
            rule="SCN001",
            rel="src/repro/scenarios/experiments_catalog.py",
            allow=None,
        )
        assert not result.findings
