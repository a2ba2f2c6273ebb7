"""Registry behaviour: lookup, duplicates, files, substitution, spans."""

import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import Tracer, use_tracer
from repro.scenarios import (
    CI,
    get_scenario,
    register_scenario,
    resolve_scenario,
    save_scenario_file,
    scenario_names,
)


class TestLookup:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_registered_scenario_resolves(self, name):
        resolved = resolve_scenario(name, preset=CI)
        assert resolved.name == name
        assert len(resolved.configs) == len(resolved.labels) >= 1
        for config in resolved.configs:
            assert config.epsilon_pattern > 0
            assert config.epsilon_sanitize > 0

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(ConfigurationError, match="fig6-cer"):
            get_scenario("fig6-mars")

    def test_kind_filter(self):
        figures = scenario_names(kind="figure")
        assert "fig6-cer" in figures
        assert "bench-trace-overhead" not in figures


class TestDuplicates:
    def test_reregistering_the_same_spec_is_idempotent(self):
        spec = get_scenario("fig6-cer")
        assert register_scenario(spec) is spec or register_scenario(spec) == spec

    def test_conflicting_spec_rejected(self):
        spec = dataclasses.replace(
            get_scenario("fig6-cer"), description="something else"
        )
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scenario(spec)


class TestFiles:
    def test_spec_file_loads_by_path(self, tmp_path):
        spec = get_scenario("bench-trace-overhead")
        path = save_scenario_file(spec, tmp_path / "spec.json")
        assert get_scenario(str(path)) == spec
        resolved = resolve_scenario(str(path), preset=CI)
        assert resolved.fingerprint() == spec.resolve(preset=CI).fingerprint()

    def test_missing_file_is_an_unknown_scenario(self, tmp_path):
        with pytest.raises(ConfigurationError):
            get_scenario(str(tmp_path / "nope.json"))


class TestSubstitution:
    def test_dataset_substitution(self):
        resolved = resolve_scenario("fig7-wpo", preset=CI, dataset="MI")
        assert resolved.dataset_name == "MI"

    def test_distribution_substitution(self):
        resolved = resolve_scenario(
            "fig6-cer", preset=CI, distributions=("la",)
        )
        assert resolved.distributions == ("la",)

    def test_values_substitution_narrows_a_sweep(self):
        resolved = resolve_scenario(
            "fig8c-quantization", preset=CI, values=(2, 8)
        )
        assert resolved.values == (2, 8)
        assert [c.quantization_levels for c in resolved.configs] == [2, 8]

    def test_values_without_a_sweep_rejected(self):
        with pytest.raises(ConfigurationError, match="sweep"):
            resolve_scenario("fig6-cer", preset=CI, values=(1, 2))

    def test_substituted_spec_is_revalidated(self):
        with pytest.raises(ConfigurationError):
            resolve_scenario("fig6-cer", preset=CI, dataset="NYC")


class TestResolveSpan:
    def test_resolution_emits_a_span_with_name_and_fingerprint(self):
        tracer = Tracer()
        with use_tracer(tracer):
            resolved = resolve_scenario("fig6-cer", preset=CI)
        spans = [s for s in tracer.spans if s.name == "scenario.resolve"]
        assert len(spans) == 1
        assert spans[0].attributes["scenario"] == "fig6-cer"
        assert spans[0].attributes["fingerprint"] == resolved.fingerprint()
