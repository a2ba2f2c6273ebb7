"""Tests for clipping and normalization helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.dp.sensitivity import (
    NormalizationParams,
    clip_readings,
    min_max_denormalize,
    min_max_normalize,
    unit_cell_sensitivity,
)
from repro.exceptions import DataError


class TestClipReadings:
    def test_clips_above(self):
        out = clip_readings(np.array([0.5, 2.0, 10.0]), 1.5)
        np.testing.assert_allclose(out, [0.5, 1.5, 1.5])

    def test_preserves_below(self):
        values = np.array([0.0, 0.3, 1.0])
        np.testing.assert_allclose(clip_readings(values, 2.0), values)

    def test_negative_readings_rejected(self):
        with pytest.raises(DataError):
            clip_readings(np.array([-0.1, 1.0]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_readings_rejected(self, bad):
        # np.clip would pass NaN through and map inf onto the bound.
        with pytest.raises(DataError, match="finite"):
            clip_readings(np.array([0.5, bad, 3.0]), 2.0)

    @pytest.mark.parametrize("clip", [0.0, -1.0, np.nan])
    def test_invalid_clip_factor(self, clip):
        with pytest.raises(DataError):
            clip_readings(np.array([1.0]), clip)

    @given(
        arr=hnp.arrays(
            float, hnp.array_shapes(max_dims=2, max_side=10),
            elements=st.floats(0, 1000),
        ),
        clip=st.floats(0.1, 100),
    )
    def test_output_bounded(self, arr, clip):
        out = clip_readings(arr, clip)
        assert np.all(out >= 0)
        assert np.all(out <= clip)


class TestNormalization:
    def test_normalize_to_unit_interval(self):
        values = np.array([0.0, 5.0, 10.0])
        normalized, params = min_max_normalize(values)
        np.testing.assert_allclose(normalized, [0.0, 0.5, 1.0])
        assert params.lo == 0.0
        assert params.hi == 10.0

    def test_roundtrip(self):
        values = np.array([1.0, 4.0, 2.5])
        normalized, params = min_max_normalize(values)
        np.testing.assert_allclose(min_max_denormalize(normalized, params), values)

    def test_explicit_params(self):
        params = NormalizationParams(lo=0.0, hi=2.0)
        normalized, out_params = min_max_normalize(np.array([1.0]), params)
        assert out_params is params
        np.testing.assert_allclose(normalized, [0.5])

    def test_constant_series(self):
        normalized, __ = min_max_normalize(np.array([3.0, 3.0]))
        np.testing.assert_allclose(normalized, [0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            min_max_normalize(np.array([]))

    def test_degenerate_params_rejected(self):
        with pytest.raises(DataError):
            NormalizationParams(lo=1.0, hi=1.0)

    @given(
        arr=hnp.arrays(float, st.integers(2, 50), elements=st.floats(-100, 100)),
    )
    def test_roundtrip_property(self, arr):
        normalized, params = min_max_normalize(arr)
        back = min_max_denormalize(normalized, params)
        np.testing.assert_allclose(back, arr, atol=1e-9)
        if arr.max() > arr.min():
            assert normalized.min() == pytest.approx(0.0, abs=1e-12)
            assert normalized.max() == pytest.approx(1.0, abs=1e-12)


class TestUnitCellSensitivity:
    def test_normalized_is_one(self):
        assert unit_cell_sensitivity(1.85) == 1.0

    def test_unnormalized_is_clip(self):
        assert unit_cell_sensitivity(1.85, normalized=False) == pytest.approx(1.85)

    def test_invalid_clip(self):
        with pytest.raises(DataError):
            unit_cell_sensitivity(0.0)
