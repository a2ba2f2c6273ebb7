"""The one-buffer corpus generator: exact, pinned and bounded in memory.

``generate_profiles`` builds the corpus in one buffer, row block by row
block, and ``generate_dataset`` calibrates it in place. The oracle in
``tests/oracles.py`` is the whole-array generator it replaced; the
readings and the generator's final state must match it bit for bit.
The SHA-256 goldens were recorded from that whole-array generator.
``_variance`` re-implements the summation order of ``np.var``; its
tests make a numpy release that changes that order fail here instead
of moving the corpus bits.
"""

import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.data.datasets import TABLE2, generate_dataset
from repro.data.profiles import (
    HOURS_PER_DAY,
    ProfileConfig,
    _BLOCK_ELEMENTS,
    _variance,
    generate_profiles,
)
from tests.oracles import generate_dataset_reference, generate_profiles_reference


def sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def households_for(count: int | str, n_hours: int) -> int:
    """``count`` itself, or one row block's count (``"block"``) plus one."""
    if isinstance(count, int):
        return count
    block = max(1, _BLOCK_ELEMENTS // n_hours)
    return block + 1 if count == "block+1" else block


def generators(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestMatchesWholeArrayOracle:
    @pytest.mark.parametrize(
        "config",
        [ProfileConfig(), ProfileConfig(ar_coeff=0.0, common_sigma=0.0)],
        ids=["default", "no-ar-no-common"],
    )
    @pytest.mark.parametrize("start_weekday", [0, 6])
    @pytest.mark.parametrize("n_hours", [1, 23, 24, 24 * 37])
    @pytest.mark.parametrize("count", [1, 7, "block", "block+1", 500])
    def test_profiles(self, count, n_hours, start_weekday, config):
        n_households = households_for(count, n_hours)
        fast_rng, reference_rng = generators(n_households + n_hours)
        fast = generate_profiles(
            n_households, n_hours, config, fast_rng, start_weekday
        )
        reference = generate_profiles_reference(
            n_households, n_hours, config, reference_rng, start_weekday
        )
        assert np.array_equal(fast, reference)
        assert fast_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize(
        "name, n_days, start_weekday", [("CA", 9, 2), ("TX", 1, 6)]
    )
    def test_calibrated_dataset(self, name, n_days, start_weekday):
        fast_rng, reference_rng = generators(n_days)
        fast = generate_dataset(name, n_days, fast_rng, start_weekday)
        reference = generate_dataset_reference(
            TABLE2[name], n_days, reference_rng, start_weekday
        )
        assert np.array_equal(fast.readings, reference.readings)
        assert fast_rng.bit_generator.state == reference_rng.bit_generator.state


class TestGeneratorGolden:
    """Readings and the next draw after them, as the generator made them."""

    @pytest.mark.parametrize(
        "spec, n_days, start_weekday, seed, digest, next_draw",
        [
            (
                TABLE2["CER"].scaled(0.1), 60, 0, 19,
                "cece884fe15d1826c6a61348db3a7bee02a5d27dfca9249cebf6084a3ec51126",
                "-0x1.0f4c87862c0dap-1",
            ),
            (
                TABLE2["CA"], 220, 0, 220,
                "9c8ead5cbd343540ecaa887a291609485e77e33c41ed67cf4c19f9e0b45d7754",
                "0x1.6678615f725f0p-1",
            ),
            (
                TABLE2["MI"], 37, 3, 37,
                "da0e125197cd5027ba1e78df856c2f41298a6d97272ddc3a2d406d10ae0c2a98",
                "0x1.405d0ca1196d3p-2",
            ),
            (
                TABLE2["TX"], 5, 6, 5,
                "b83f8882d9f49ff0389dbc6179e7f500703534cd4ffd74000ea5a9ca1b0d0b45",
                "-0x1.6cbfddf5e7620p-5",
            ),
        ],
        ids=["CER-0.1-60d", "CA-220d", "MI-37d-thu", "TX-5d-sun"],
    )
    def test_readings(self, spec, n_days, start_weekday, seed, digest, next_draw):
        generator = np.random.default_rng(seed)
        dataset = generate_dataset(spec, n_days, generator, start_weekday)
        assert dataset.readings.shape == (
            spec.n_households, n_days * HOURS_PER_DAY
        )
        assert sha256(dataset.readings) == digest
        assert generator.standard_normal().hex() == next_draw


class TestVarianceMatchesNumpy:
    @pytest.mark.parametrize(
        "size",
        [
            *range(1, 10),
            127, 128, 129,
            _BLOCK_ELEMENTS - 1, _BLOCK_ELEMENTS, _BLOCK_ELEMENTS + 1,
            (1 << 17) + 43,  # not a multiple of 8
        ],
    )
    def test_sizes(self, size):
        values = np.random.default_rng(size).lognormal(size=size)
        assert float(_variance(values)).hex() == float(values.var()).hex()

    def test_paper_scale_corpus(self):
        # 5,000 households x 5,280 hours; tiling one random run keeps
        # the draw cheap without making the partial sums repeat.
        run = np.random.default_rng(0).standard_normal((1 << 20) + 7)
        values = np.resize(run, (5000, 5280))
        assert float(_variance(values)).hex() == float(values.var()).hex()


class TestMemoryIsBounded:
    def test_corpus_is_freed_without_a_collection(self):
        # Nothing the generator leaves behind (a reference cycle, say)
        # may hold the corpus until the next garbage collection.
        enabled = gc.isenabled()
        gc.disable()
        try:
            readings = generate_profiles(20, 48, rng=0)
            alive = weakref.ref(readings)
            del readings
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_generator_peak_is_under_one_and_a_half_corpora(self):
        spec = TABLE2["CER"].scaled(0.1)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            dataset = generate_dataset(spec, n_days=60, rng=3)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        # Block temporaries are small only next to a corpus of many blocks.
        assert dataset.readings.size >= 10 * _BLOCK_ELEMENTS
        # The corpus plus the final pass's block temporaries, 1.40x
        # measured: no full-size temporary remains.
        assert peak <= 1.5 * dataset.readings.nbytes
