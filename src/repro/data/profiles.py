"""Synthetic household electricity-consumption profiles.

The paper evaluates on four smart-meter corpora (CER and three
state-level digital twins) that cannot be redistributed; this module is
the calibrated synthetic substitute described in DESIGN.md. A household
reading is modelled as the product of independent components:

``x[i, t] = base[i] * daily(hour(t)) * weekly(dow(t)) * seasonal(day(t))
           * ar_noise[i, t] * lognormal_shock[i, t]``

* ``base``      — per-household scale, lognormal across the population;
* ``daily``     — a double-peak (morning/evening) intra-day shape;
* ``weekly``    — weekday/weekend modulation (Figure 9's profile);
* ``seasonal``  — a slow sinusoidal drift across the horizon;
* ``ar_noise``  — temporally correlated multiplicative noise (AR(1) in
  the log domain), giving series the persistence real meters show;
* ``shock``     — heavy-tailed i.i.d. multiplicative noise, producing
  the large hourly maxima in Table 2.

The final series is rescaled so the population mean matches the target
exactly and clipped at the target maximum, reproducing Table 2's
marginal statistics to within sampling error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng import RngLike, ensure_rng

HOURS_PER_DAY = 24
DAYS_PER_WEEK = 7

# Intra-day consumption shape (hour 0..23): low overnight, a morning
# bump around 7-9, a broad evening peak around 18-21. Mean is
# normalized to 1 at use time.
_DAILY_SHAPE = np.array(
    [
        0.55, 0.50, 0.47, 0.45, 0.46, 0.52,  # 00-05
        0.70, 1.05, 1.25, 1.10, 0.95, 0.90,  # 06-11
        0.92, 0.90, 0.88, 0.92, 1.05, 1.35,  # 12-17
        1.70, 1.85, 1.75, 1.45, 1.05, 0.75,  # 18-23
    ]
)

# Monday..Sunday modulation: weekends run higher because residents are
# home (matches the Figure 9 profile of the paper's datasets).
_WEEKLY_SHAPE = np.array([0.97, 0.96, 0.96, 0.97, 1.00, 1.08, 1.06])

# Readings per row block of generate_profiles' final pass, and the
# longest run _variance squares at once: the temporaries stay
# cache-sized and far below the corpus itself.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class ProfileConfig:
    """Knobs of the synthetic profile generator."""

    base_sigma: float = 0.6      # population spread of household scale
    shock_sigma: float = 1.0     # heavy-tail hourly shock strength
    ar_coeff: float = 0.7        # log-domain AR(1) persistence
    ar_sigma: float = 0.25       # AR(1) innovation scale
    seasonal_amplitude: float = 0.15
    daily_jitter: float = 0.15   # per-household peak-height variation
    common_sigma: float = 0.025  # weather-like shock shared by all homes
    common_ar: float = 0.995     # persistence of the common shock (hours)

    def __post_init__(self) -> None:
        if not 0.0 <= self.ar_coeff < 1.0:
            raise ConfigurationError("ar_coeff must lie in [0, 1)")
        if not 0.0 <= self.common_ar < 1.0:
            raise ConfigurationError("common_ar must lie in [0, 1)")
        for name in ("base_sigma", "shock_sigma", "ar_sigma", "common_sigma"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


def daily_shape() -> np.ndarray:
    """The normalized (mean 1) intra-day consumption shape."""
    return _DAILY_SHAPE / _DAILY_SHAPE.mean()


def weekly_shape() -> np.ndarray:
    """The normalized (mean 1) Monday..Sunday modulation."""
    return _WEEKLY_SHAPE / _WEEKLY_SHAPE.mean()


def generate_profiles(
    n_households: int,
    n_hours: int,
    config: ProfileConfig | None = None,
    rng: RngLike = None,
    start_weekday: int = 0,
) -> np.ndarray:
    """Generate an ``(n_households, n_hours)`` array of hourly readings.

    Values are non-negative with population mean 1; callers rescale to a
    target mean (see :mod:`repro.data.datasets`). ``start_weekday`` is
    0 for Monday.

    The returned array is the only corpus-sized buffer the generator
    allocates: the AR noise is generated in it, its variance is summed
    one block at a time (:func:`_variance`), then each block of rows is
    multiplied by the other factors in place, so the peak is not much
    above the result itself. Every product keeps its left-to-right
    operand order and the per-block shock draws continue one generator
    stream, so the bits are those of building every factor at full size
    (docs/performance.md, "Context build").
    """
    if n_households <= 0 or n_hours <= 0:
        raise ConfigurationError("n_households and n_hours must be positive")
    if not 0 <= start_weekday < DAYS_PER_WEEK:
        raise ConfigurationError("start_weekday must be in [0, 7)")
    config = config or ProfileConfig()
    generator = ensure_rng(rng)

    hours = np.arange(n_hours)
    hour_of_day = hours % HOURS_PER_DAY
    day_index = hours // HOURS_PER_DAY
    day_of_week = (day_index + start_weekday) % DAYS_PER_WEEK

    daily = daily_shape()[hour_of_day]
    weekly = weekly_shape()[day_of_week]
    seasonal = 1.0 + config.seasonal_amplitude * np.sin(
        2.0 * np.pi * day_index / 365.0
    )

    base = generator.lognormal(
        mean=-0.5 * config.base_sigma**2, sigma=config.base_sigma,
        size=n_households,
    )
    # Per-household jitter of the deterministic shape so households do
    # not peak in lockstep.
    jitter_scale = config.daily_jitter * generator.standard_normal(
        (n_households, 1)
    )
    daily_deviation = daily - 1.0

    # AR(1) noise in the log domain, run in place in the corpus buffer.
    corpus = np.empty((n_households, n_hours))
    generator.standard_normal(out=corpus)
    corpus *= config.ar_sigma
    corpus[:, 0] /= np.sqrt(1.0 - config.ar_coeff**2)
    for t in range(1, n_hours):
        corpus[:, t] += config.ar_coeff * corpus[:, t - 1]
    corpus -= _variance(corpus) / 2.0
    np.exp(corpus, out=corpus)

    # Slow common-mode shock shared by every household — the weather /
    # economy component that moves the *aggregate* series and keeps a
    # static per-location mean from being a sufficient statistic.
    common_innovations = (
        generator.standard_normal(n_hours) * config.common_sigma
    )
    common_log = np.empty(n_hours)
    common_log[0] = common_innovations[0] / np.sqrt(1.0 - config.common_ar**2)
    for t in range(1, n_hours):
        common_log[t] = (
            config.common_ar * common_log[t - 1] + common_innovations[t]
        )
    common = np.exp(common_log - common_log.var() / 2.0)

    shock_mean = -0.5 * config.shock_sigma**2
    block_rows = max(1, _BLOCK_ELEMENTS // n_hours)
    for start in range(0, n_households, block_rows):
        block = slice(start, start + block_rows)
        jitter = np.maximum(1.0 + jitter_scale[block] * daily_deviation, 0.05)
        profile = (
            base[block, None] * daily * weekly * seasonal * common * jitter
        )
        # The rows hold their AR noise; multiply in the whole-array
        # order (the factors, then the noise, then the shock).
        readings = corpus[block]
        np.multiply(profile, readings, out=readings)
        readings *= generator.lognormal(
            mean=shock_mean, sigma=config.shock_sigma, size=readings.shape
        )
    corpus /= corpus.mean()
    return corpus


def _variance(values: np.ndarray) -> np.float64:
    """``values.var()`` bit for bit, without its full-size temporary.

    numpy's ``var`` divides ``np.add.reduce`` of the values by their
    count, then sums the squared deviations pairwise: a reduce over
    ``n`` elements adds the sums of its first ``n // 2`` (rounded down
    to a multiple of 8) and of the rest, recursively. Splitting the
    same way down to runs of at most ``_BLOCK_ELEMENTS`` and reducing
    each run with ``np.add.reduce`` adds the same partial sums in the
    same order, while only one run of squared deviations exists at a
    time. ``tests/data/test_corpus_build.py`` pins the equality.
    """
    flat = values.reshape(-1)
    mean = np.add.reduce(flat) / flat.size
    return _squared_deviations_sum(flat, mean) / flat.size


def _squared_deviations_sum(run: np.ndarray, mean: np.float64) -> np.float64:
    """``np.add.reduce((run - mean) ** 2)``, one block at a time.

    A module-level function, not a closure: a recursive closure is a
    reference cycle, and it would keep the corpus alive until the next
    garbage collection.
    """
    if run.size <= _BLOCK_ELEMENTS:
        deviations = run - mean
        np.multiply(deviations, deviations, out=deviations)
        return np.add.reduce(deviations)
    half = run.size // 2
    half -= half % 8
    return _squared_deviations_sum(run[:half], mean) + _squared_deviations_sum(
        run[half:], mean
    )


def aggregate_daily(readings: np.ndarray) -> np.ndarray:
    """Sum hourly readings into daily totals.

    The paper publishes its consumption matrices at day granularity
    (Section 3.1); trailing hours that do not fill a day are dropped.
    """
    readings = np.asarray(readings, dtype=float)
    if readings.ndim != 2:
        raise ConfigurationError("expected (households, hours) readings")
    n_households, n_hours = readings.shape
    n_days = n_hours // HOURS_PER_DAY
    if n_days == 0:
        raise ConfigurationError("need at least one full day of readings")
    trimmed = readings[:, : n_days * HOURS_PER_DAY]
    return trimmed.reshape(n_households, n_days, HOURS_PER_DAY).sum(axis=2)

__all__ = [
    "HOURS_PER_DAY",
    "DAYS_PER_WEEK",
    "ProfileConfig",
    "daily_shape",
    "weekly_shape",
    "generate_profiles",
    "aggregate_daily",
]
