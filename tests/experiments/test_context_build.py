"""A built context keeps day-level readings, pinned bit for bit.

The hourly corpus exists only while the context pipeline runs; the
context keeps the ``(households, days)`` readings the matrices stage
aggregates, and that aggregate is computed once per build. The SHA-256
goldens were recorded before the corpus generator worked in one buffer.
"""

import argparse
import hashlib

import numpy as np
import pytest

import repro.data.datasets as datasets
from repro.cli import _matrices_for
from repro.data.datasets import SmartMeterDataset, generate_dataset
from repro.data.io import load_dataset, save_dataset
from repro.data.profiles import HOURS_PER_DAY
from repro.experiments.harness import build_context, build_scenario_context
from repro.queries.engine import query_bounds
from repro.scenarios import resolve_scenario
from repro.scenarios.presets import CI


def sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def reachable_arrays(obj, seen=None):
    """Every ndarray reachable through attributes, dicts and sequences."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from reachable_arrays(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from reachable_arrays(value, seen)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        for value in vars(obj).values():
            yield from reachable_arrays(value, seen)


@pytest.fixture()
def aggregations(monkeypatch):
    """Counts calls of the hourly-to-daily aggregate."""
    calls = []
    aggregate = datasets.aggregate_daily

    def counted(readings):
        calls.append(readings.shape)
        return aggregate(readings)

    monkeypatch.setattr(datasets, "aggregate_daily", counted)
    return calls


class TestContextGolden:
    def test_publish_default_at_ci_scale(self):
        resolved = resolve_scenario("publish-default", preset=CI)
        context = build_scenario_context(resolved, rng=resolved.spec.seeds.seed)
        assert context.daily.shape == (500, 88)
        assert sha256(context.daily) == (
            "2b32c41fa3fdd184f0232d7985e62d03e07f0a44ad2ab4520b6c383122b832e4"
        )
        assert sha256(context.cons.values) == (
            "921b366c60db1746590013b47f6cd85e15475dbf5d94017060eb381aa92419f2"
        )
        assert sha256(context.norm.values) == (
            "a80f282344a11db3fc314eee02901da3310d7d1c53431bedd5edde81625eafc7"
        )
        assert context.clip_factor.hex() == "0x1.b2e50fa86be28p+4"
        assert sha256(context.cells) == (
            "64187c31731aca3aabc7d5866688dbf3ba881973f2ad51e36a963d7b9afb88d6"
        )
        workload_goldens = {
            "random": "62ea355fd7f26411fd306354570639fcfce4c6fcd4c5a8b9e29b9250cfd7780d",
            "small": "9dde1b79973763ab5ac5041a0e4a6cbf66340e5c3a7fa894f9048a46d5ac2512",
            "large": "304c367101cb30426c12167d83ff28d41973401f7fe4b20eff140476acbe0b6b",
        }
        assert list(context.workloads) == list(workload_goldens)
        for kind, golden in workload_goldens.items():
            assert sha256(query_bounds(context.workloads[kind])) == golden, kind


class TestContextHoldsDayLevelReadings:
    def test_no_hourly_array_survives_the_build(self, tiny_context, tiny_preset):
        n_hours = tiny_preset.n_days * HOURS_PER_DAY
        arrays = list(reachable_arrays(tiny_context))
        assert any(array is tiny_context.daily for array in arrays)
        assert not [a.shape for a in arrays if n_hours in a.shape]
        assert not [
            value for value in vars(tiny_context).values()
            if isinstance(value, SmartMeterDataset)
        ]

    def test_daily_is_households_by_days(self, tiny_context, tiny_preset):
        households = tiny_context.cells.shape[0]
        assert tiny_context.daily.shape == (households, tiny_preset.n_days)
        assert tiny_context.cons.values.sum() == pytest.approx(
            tiny_context.daily.sum()
        )

    def test_clip_factor_is_mean_plus_std_of_daily(self, tiny_context):
        daily = tiny_context.daily
        assert tiny_context.clip_factor == daily.mean() + daily.std()


class TestDailyAggregateOnce:
    def test_context_build(self, aggregations, tiny_preset):
        context = build_context("CA", "uniform", tiny_preset, rng=5)
        assert aggregations == [(250, tiny_preset.n_days * HOURS_PER_DAY)]
        assert context.daily.shape == (250, tiny_preset.n_days)

    def test_cli_matrices(self, aggregations, tmp_path):
        dataset = generate_dataset("CA", n_days=9, rng=4)
        path = tmp_path / "ca.npz"
        save_dataset(dataset, path)
        args = argparse.Namespace(
            data=str(path), grid=4, distribution="uniform", seed=1
        )
        cons, norm, clip = _matrices_for(args)
        assert len(aggregations) == 1
        assert clip == load_dataset(path).daily_clip_factor()
        assert cons.shape == norm.shape == (4, 4, 9)
