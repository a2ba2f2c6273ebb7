"""Shared fixtures: tiny experiment preset and materialized contexts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import DatasetSpec, generate_dataset
from repro.data.matrix import build_matrices
from repro.data.spatial import place_households
from repro.experiments.harness import build_context
from repro.scenarios.presets import ScalePreset


TINY_SPEC = DatasetSpec(
    name="TINY", n_households=60, mean_kwh=0.5, std_kwh=1.0,
    max_kwh=12.0, clip_factor=1.5,
)


def make_tiny_preset(**overrides) -> ScalePreset:
    params = dict(
        name="tiny",
        grid_shape=(8, 8),
        n_days=28,
        t_train=16,
        query_count=25,
        epochs=2,
        embed_dim=8,
        hidden_dim=8,
        quantization_levels=8,
        epsilon_pattern=10.0,
        epsilon_sanitize=20.0,
        cer_household_fraction=0.02,
        lgan_iterations=4,
        window=3,
    )
    params.update(overrides)
    return ScalePreset(**params)


@pytest.fixture(scope="session")
def tiny_preset() -> ScalePreset:
    return make_tiny_preset()


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate_dataset(TINY_SPEC, n_days=28, rng=101)


@pytest.fixture(scope="session")
def tiny_matrices(tiny_dataset):
    """(cons, norm, clip) on an 8x8 grid with uniform placement."""
    clip = tiny_dataset.daily_clip_factor()
    cells = place_households(tiny_dataset.n_households, (8, 8), "uniform", rng=102)
    cons, norm = build_matrices(
        tiny_dataset.daily_readings(), cells, (8, 8), clip
    )
    return cons, norm, clip


@pytest.fixture(scope="session")
def tiny_context(tiny_preset):
    return build_context("CA", "uniform", tiny_preset, rng=103)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(7)
