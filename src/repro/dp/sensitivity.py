"""Sensitivity management: clipping and normalization.

Theorem 4 of the paper bounds the sensitivity of a 1x1x1 range query on
the consumption matrix by ``max x_{i,t}``, i.e. the largest single meter
reading. To make that bound equal to one — so the Laplace scale is
simply ``1/ε`` — readings are first clipped at a dataset-specific factor
(Table 2 of the paper, e.g. 1.85 kWh for CER) and then min-max
normalized (Eq. 6). Both directions are provided so the sanitized
matrix can be mapped back to kWh for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError


def require_finite(values: np.ndarray, what: str) -> None:
    """Raise :class:`DataError` if any cell of ``values`` is NaN or ±inf.

    The ε-DP calibration assumes bounded cells, so a publish checks its
    input with this before any budget is charged: a NaN would spread
    through the release and an infinity would be clipped to a finite
    but meaningless value.
    """
    if not np.all(np.isfinite(values)):
        raise DataError(f"{what} must be finite (found NaN or infinite cells)")


def clip_readings(readings: np.ndarray, clip_factor: float) -> np.ndarray:
    """Clip meter readings into ``[0, clip_factor]``.

    Clipping bounds per-user influence before any budget is spent, which
    is data-independent and therefore free of privacy cost. A NaN or
    infinite reading is rejected rather than clipped: ``np.clip`` would
    pass NaN through and silently map ``inf`` to the bound.
    """
    if not np.isfinite(clip_factor) or clip_factor <= 0:
        raise DataError(f"clip_factor must be positive, got {clip_factor!r}")
    readings = np.asarray(readings, dtype=float)
    require_finite(readings, "meter readings")
    if readings.size and readings.min() < 0:
        raise DataError("meter readings must be non-negative")
    return np.clip(readings, 0.0, clip_factor)


@dataclass(frozen=True)
class NormalizationParams:
    """Affine parameters of a min-max normalization ``(x - lo) / (hi - lo)``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise DataError("normalization bounds must be finite")
        if self.hi <= self.lo:
            raise DataError(f"hi ({self.hi}) must exceed lo ({self.lo})")

    @property
    def scale(self) -> float:
        return self.hi - self.lo


def min_max_normalize(
    readings: np.ndarray, params: NormalizationParams | None = None
) -> tuple[np.ndarray, NormalizationParams]:
    """Globally min-max normalize readings to [0, 1] (Eq. 6).

    When ``params`` is omitted the bounds are taken from the data. In a
    deployment the bounds come from the public clipping factor (lo=0,
    hi=clip) so no budget is spent on them; the data-derived variant is
    provided for the non-private analyses in the experiment harness.
    """
    readings = np.asarray(readings, dtype=float)
    if params is None:
        if readings.size == 0:
            raise DataError("cannot infer normalization bounds from empty data")
        lo = float(np.min(readings))
        hi = float(np.max(readings))
        if hi == lo:
            hi = lo + 1.0  # constant series: map everything to 0
        params = NormalizationParams(lo=lo, hi=hi)
    normalized = (readings - params.lo) / params.scale
    return normalized, params


def min_max_denormalize(
    normalized: np.ndarray, params: NormalizationParams
) -> np.ndarray:
    """Invert :func:`min_max_normalize`."""
    return np.asarray(normalized, dtype=float) * params.scale + params.lo


def unit_cell_sensitivity(clip_factor: float, normalized: bool = True) -> float:
    """Sensitivity of a single consumption-matrix cell (Theorem 4).

    After clipping at ``clip_factor`` and normalizing by it, one user's
    presence changes a cell by at most 1; without normalization, by at
    most ``clip_factor``.
    """
    if not np.isfinite(clip_factor) or clip_factor <= 0:
        raise DataError(f"clip_factor must be positive, got {clip_factor!r}")
    return 1.0 if normalized else float(clip_factor)

__all__ = [
    "clip_readings",
    "NormalizationParams",
    "min_max_normalize",
    "min_max_denormalize",
    "require_finite",
    "unit_cell_sensitivity",
]
