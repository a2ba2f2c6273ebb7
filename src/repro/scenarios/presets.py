"""Experiment scale presets (the geometry layer under scenarios).

The paper's testbed (Appendix C) publishes a 32x32x120 matrix after
training on 100 points, with full-size datasets, 300 queries per
workload and an 18-core + dual-GPU machine. This reproduction runs on
one CPU core, so the default preset scales the geometry down while
keeping every ratio that shapes the results (budget per slice, training
points per level, queries per class). Setting the environment variable
``REPRO_PAPER_SCALE=1`` switches every experiment to the paper's exact
parameters.

A :class:`ScalePreset` is pure geometry + training sizes; a
:class:`repro.scenarios.ScenarioSpec` references one by scale name
(``ci``/``paper``/``bench``/``active``) and layers dataset, mechanism
and workload choices on top. This module lives under
``repro.scenarios`` so the scenario layer never has to import the
experiment runners that consume it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.pattern import PatternConfig
from repro.core.stpt import STPTConfig
from repro.exceptions import ConfigurationError

PAPER_SCALE_ENV = "REPRO_PAPER_SCALE"


@dataclass(frozen=True)
class ScalePreset:
    """Geometry + training sizes of one experiment scale."""

    name: str
    grid_shape: tuple[int, int]
    n_days: int
    t_train: int
    query_count: int
    epochs: int
    embed_dim: int
    hidden_dim: int
    quantization_levels: int
    epsilon_pattern: float
    epsilon_sanitize: float
    cer_household_fraction: float
    lgan_iterations: int
    window: int = 6

    def __post_init__(self) -> None:
        if self.t_train >= self.n_days:
            raise ConfigurationError("t_train must leave room for a test horizon")

    @property
    def t_test(self) -> int:
        return self.n_days - self.t_train

    @property
    def epsilon_total(self) -> float:
        return self.epsilon_pattern + self.epsilon_sanitize

    def pattern_config(self, **overrides) -> PatternConfig:
        params = dict(
            window=self.window,
            epochs=self.epochs,
            embed_dim=self.embed_dim,
            hidden_dim=self.hidden_dim,
        )
        params.update(overrides)
        return PatternConfig(**params)

    def stpt_config(self, **overrides) -> STPTConfig:
        pattern_overrides = overrides.pop("pattern_overrides", {})
        params = dict(
            epsilon_pattern=self.epsilon_pattern,
            epsilon_sanitize=self.epsilon_sanitize,
            t_train=self.t_train,
            quantization_levels=self.quantization_levels,
            pattern=self.pattern_config(**pattern_overrides),
        )
        params.update(overrides)
        return STPTConfig(**params)


#: Appendix C parameters, verbatim.
PAPER = ScalePreset(
    name="paper",
    grid_shape=(32, 32),
    n_days=220,
    t_train=100,
    query_count=300,
    epochs=20,
    embed_dim=128,
    hidden_dim=64,
    quantization_levels=20,
    epsilon_pattern=10.0,
    epsilon_sanitize=20.0,
    cer_household_fraction=1.0,
    lgan_iterations=200,
)

#: Single-CPU scale: same ratios, smaller geometry. CER is scaled to
#: 500 households so its density per cell stays near the paper's.
CI = ScalePreset(
    name="ci",
    grid_shape=(16, 16),
    n_days=88,
    t_train=40,
    query_count=150,
    epochs=8,
    embed_dim=16,
    hidden_dim=16,
    quantization_levels=20,
    epsilon_pattern=10.0,
    epsilon_sanitize=20.0,
    cer_household_fraction=0.1,
    lgan_iterations=60,
)

#: Benchmark scale: small enough to finish in seconds, big enough that
#: per-point work dwarfs the ~0.1s process-pool startup a parallel
#: speedup is paid from.
BENCH = ScalePreset(
    name="bench",
    grid_shape=(16, 16),
    n_days=56,
    t_train=32,
    query_count=100,
    epochs=80,
    embed_dim=32,
    hidden_dim=32,
    quantization_levels=8,
    epsilon_pattern=10.0,
    epsilon_sanitize=20.0,
    cer_household_fraction=0.02,
    lgan_iterations=4,
    window=6,
)

#: Named scales a scenario can pin itself to (``active`` resolves to CI
#: or PAPER depending on the environment).
SCALE_PRESETS: dict[str, ScalePreset] = {
    "ci": CI,
    "paper": PAPER,
    "bench": BENCH,
}


def active_preset() -> ScalePreset:
    """CI scale unless ``REPRO_PAPER_SCALE=1`` is set."""
    if os.environ.get(PAPER_SCALE_ENV, "").strip() in ("1", "true", "yes"):
        return PAPER
    return CI


__all__ = [
    "PAPER_SCALE_ENV",
    "SCALE_PRESETS",
    "ScalePreset",
    "PAPER",
    "CI",
    "BENCH",
    "active_preset",
]
