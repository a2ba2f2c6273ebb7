"""Calibrated synthetic counterparts of the paper's four datasets.

Table 2 of the paper summarizes CER (Irish Commission for Energy
Regulation trial) and the California/Michigan/Texas digital twins. The
real corpora are gated, so :func:`generate_dataset` synthesizes hourly
readings whose marginal statistics match Table 2:

=======  ==========  ===========  ==========  ==========  =====
Dataset  Households  Mean (kWh)   Std (kWh)   Max (kWh)   Clip
=======  ==========  ===========  ==========  ==========  =====
CER      5000        0.61         1.24        19.62       1.85
CA       250         0.38         1.13        33.54       1.51
MI       250         0.48         1.22        49.50       1.70
TX       250         0.55         1.63        68.86       2.18
=======  ==========  ===========  ==========  ==========  =====

The mean is matched exactly by rescaling; the coefficient of variation
is matched by solving for the lognormal shock strength; the maximum is
enforced by clipping at the Table 2 value. The *sensitivity clipping
factor* column is the per-reading clip used by the DP pipeline itself
(Theorem 4), not by the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.exceptions import ConfigurationError
from repro.data.profiles import (
    HOURS_PER_DAY,
    ProfileConfig,
    aggregate_daily,
    generate_profiles,
)
from repro.rng import RngLike, ensure_rng

#: Flow-analysis role (repro.lint.flow): synthetic or not, the readings
#: this produces are treated as raw per-household data.
__flow_sources__ = ("generate_dataset",)


@dataclass(frozen=True)
class DatasetSpec:
    """Target statistics of one synthetic smart-meter corpus."""

    name: str
    n_households: int
    mean_kwh: float
    std_kwh: float
    max_kwh: float
    clip_factor: float
    profile: ProfileConfig = field(default_factory=ProfileConfig)

    def __post_init__(self) -> None:
        if self.n_households <= 0:
            raise ConfigurationError("n_households must be positive")
        for name in ("mean_kwh", "std_kwh", "max_kwh", "clip_factor"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.max_kwh <= self.mean_kwh:
            raise ConfigurationError("max_kwh must exceed mean_kwh")

    @property
    def cv(self) -> float:
        """Coefficient of variation of hourly readings."""
        return self.std_kwh / self.mean_kwh

    def scaled(self, household_fraction: float) -> "DatasetSpec":
        """Same statistics with a reduced household count (CI scale)."""
        if not 0 < household_fraction <= 1:
            raise ConfigurationError("household_fraction must be in (0, 1]")
        count = max(4, int(round(self.n_households * household_fraction)))
        return replace(self, n_households=count)


TABLE2: dict[str, DatasetSpec] = {
    "CER": DatasetSpec("CER", 5000, 0.61, 1.24, 19.62, 1.85),
    "CA": DatasetSpec("CA", 250, 0.38, 1.13, 33.54, 1.51),
    "MI": DatasetSpec("MI", 250, 0.48, 1.22, 49.50, 1.70),
    "TX": DatasetSpec("TX", 250, 0.55, 1.63, 68.86, 2.18),
}


@dataclass
class SmartMeterDataset:
    """Hourly readings of one synthetic corpus plus its spec."""

    spec: DatasetSpec
    readings: np.ndarray  # (n_households, n_hours), kWh
    start_weekday: int = 0

    def __post_init__(self) -> None:
        self.readings = np.asarray(self.readings, dtype=float)
        if self.readings.ndim != 2:
            raise ConfigurationError("readings must be (households, hours)")
        if self.readings.shape[0] != self.spec.n_households:
            raise ConfigurationError(
                f"readings rows ({self.readings.shape[0]}) != spec households "
                f"({self.spec.n_households})"
            )

    @property
    def n_households(self) -> int:
        return self.readings.shape[0]

    @property
    def n_hours(self) -> int:
        return self.readings.shape[1]

    def daily_readings(self) -> np.ndarray:
        """Readings aggregated to day granularity (paper's default)."""
        return aggregate_daily(self.readings)

    def statistics(self) -> dict[str, float]:
        """Marginal statistics in the format of Table 2."""
        return {
            "households": float(self.n_households),
            "mean_kwh": float(self.readings.mean()),
            "std_kwh": float(self.readings.std()),
            "max_kwh": float(self.readings.max()),
        }

    def daily_clip_factor(self) -> float:
        """Clipping factor for day-granularity publication.

        Aggregates the corpus; a caller that also needs
        :meth:`daily_readings` should aggregate once and pass the result
        to :func:`clip_factor_of`.
        """
        return clip_factor_of(self.daily_readings())

    def weekday_totals(self) -> np.ndarray:
        """Total consumption per day-of-week, Monday first (Figure 9)."""
        daily = self.daily_readings().sum(axis=0)
        totals = np.zeros(7)
        for day, value in enumerate(daily):
            totals[(day + self.start_weekday) % 7] += value
        return totals


def clip_factor_of(daily: np.ndarray) -> float:
    """Clipping factor of day-level readings: their ``mean + std``.

    Table 2's clipping factors equal ``mean + std`` of the hourly
    readings; the same rule applied at day granularity bounds the
    per-day influence of one household for the paper's default
    day-level release.
    """
    return float(daily.mean() + daily.std())


def _calibrated_config(spec: DatasetSpec) -> ProfileConfig:
    """Choose the shock strength that reproduces the target CV.

    For a product of independent lognormal factors the log-variances
    add; we subtract the variance contributed by the base spread and
    the AR(1) noise from the total ``ln(1 + cv^2)`` required and assign
    the remainder to the i.i.d. shock. The deterministic daily/weekly
    shapes contribute a little extra spread, which clipping at
    ``max_kwh`` takes back; Table 2 tolerance tests guard the result.
    """
    base = spec.profile
    total_logvar = np.log(1.0 + spec.cv**2)
    ar_var = base.ar_sigma**2 / (1.0 - base.ar_coeff**2)
    common_var = base.common_sigma**2 / (1.0 - base.common_ar**2)
    shock_var = max(
        0.05, total_logvar - base.base_sigma**2 - ar_var - common_var
    )
    return replace(base, shock_sigma=float(np.sqrt(shock_var)))


def generate_dataset(
    spec: DatasetSpec | str,
    n_days: int = 220,
    rng: RngLike = None,
    start_weekday: int = 0,
) -> SmartMeterDataset:
    """Generate a synthetic corpus matching ``spec``.

    ``spec`` may be a :class:`DatasetSpec` or one of the Table 2 keys
    (``"CER"``, ``"CA"``, ``"MI"``, ``"TX"``). The default horizon of
    220 days covers the paper's 100 training + 120 test points at day
    granularity.
    """
    if isinstance(spec, str):
        try:
            spec = TABLE2[spec]
        except KeyError:
            raise ConfigurationError(
                f"unknown dataset {spec!r}; options: {sorted(TABLE2)}"
            ) from None
    if n_days <= 0:
        raise ConfigurationError("n_days must be positive")
    generator = ensure_rng(rng)
    config = _calibrated_config(spec)
    readings = generate_profiles(
        spec.n_households,
        n_days * HOURS_PER_DAY,
        config=config,
        rng=generator,
        start_weekday=start_weekday,
    )
    # Scale and clip in place: the corpus stays the only full-size array.
    readings *= spec.mean_kwh
    np.minimum(readings, spec.max_kwh, out=readings)
    # Clipping lowers the mean slightly; one corrective rescale keeps
    # the mean exact without materially moving the tail.
    readings *= spec.mean_kwh / readings.mean()
    np.minimum(readings, spec.max_kwh, out=readings)
    return SmartMeterDataset(spec=spec, readings=readings,
                             start_weekday=start_weekday)

__all__ = [
    "DatasetSpec",
    "TABLE2",
    "SmartMeterDataset",
    "clip_factor_of",
    "generate_dataset",
]
