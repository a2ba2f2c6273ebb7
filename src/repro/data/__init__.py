"""Smart-meter data substrate: synthetic corpora, placement, matrices."""

from repro.data.datasets import (
    DatasetSpec,
    SmartMeterDataset,
    TABLE2,
    clip_factor_of,
    generate_dataset,
)
from repro.data.io import (
    export_matrix_csv,
    import_matrix_csv,
    load_dataset,
    load_matrix,
    save_dataset,
    save_matrix,
)
from repro.data.matrix import ConsumptionMatrix, build_matrices
from repro.data.quality import (
    IMPUTATION_STRATEGIES,
    clean_readings,
    impute,
    inject_missing,
    missing_fraction,
)
from repro.data.profiles import (
    HOURS_PER_DAY,
    ProfileConfig,
    aggregate_daily,
    daily_shape,
    generate_profiles,
    weekly_shape,
)
from repro.data.spatial import (
    DISTRIBUTIONS,
    density_placement,
    la_like_density,
    normal_placement,
    place_households,
    uniform_placement,
)

__all__ = [
    "DatasetSpec",
    "SmartMeterDataset",
    "TABLE2",
    "clip_factor_of",
    "generate_dataset",
    "ConsumptionMatrix",
    "build_matrices",
    "ProfileConfig",
    "HOURS_PER_DAY",
    "generate_profiles",
    "aggregate_daily",
    "daily_shape",
    "weekly_shape",
    "IMPUTATION_STRATEGIES",
    "inject_missing",
    "missing_fraction",
    "impute",
    "clean_readings",
    "DISTRIBUTIONS",
    "uniform_placement",
    "normal_placement",
    "la_like_density",
    "density_placement",
    "place_households",
    "save_dataset",
    "load_dataset",
    "save_matrix",
    "load_matrix",
    "export_matrix_csv",
    "import_matrix_csv",
]
