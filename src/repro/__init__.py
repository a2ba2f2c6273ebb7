"""STPT — Differentially Private Publication of Smart Electricity Grid Data.

A full reproduction of Shaham et al., EDBT 2025. The package layers:

* :mod:`repro.dp`          — DP mechanisms and budget accounting;
* :mod:`repro.nn`          — a from-scratch numpy deep-learning substrate;
* :mod:`repro.data`        — calibrated synthetic smart-meter corpora,
  household placement and consumption matrices;
* :mod:`repro.queries`     — range-query workloads and utility metrics;
* :mod:`repro.core`        — the STPT algorithm (quadtree, pattern
  recognition, k-quantization, optimal sanitization);
* :mod:`repro.baselines`   — Identity, FAST, Fourier, Wavelet, LGAN-DP
  and WPO benchmarks;
* :mod:`repro.audit`       — adversarial evaluation: empirical ε lower
  bounds, membership/pattern-inference attacks and the privacy-utility
  frontier;
* :mod:`repro.experiments` — runners regenerating every table/figure.

Quickstart::

    from repro import STPT, STPTConfig, generate_dataset, build_matrices
    from repro.data import place_households

    dataset = generate_dataset("CA", rng=0)
    cells = place_households(dataset.n_households, (32, 32), "uniform", rng=1)
    cons, norm = build_matrices(
        dataset.daily_readings(), cells, (32, 32), dataset.daily_clip_factor()
    )
    result = STPT(STPTConfig(t_train=100), rng=2).publish(
        norm, clip_scale=dataset.daily_clip_factor()
    )
    print(result.sanitized_kwh.shape, result.epsilon_spent)
"""

from repro.core.stpt import STPT, STPTConfig, STPTResult
from repro.data.datasets import TABLE2, generate_dataset
from repro.data.matrix import ConsumptionMatrix, build_matrices
from repro.dp.budget import BudgetAccountant
from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    DataError,
    PrivacyError,
    QueryError,
    ReproError,
    SensitivityError,
    TrainingError,
)
from repro.queries.range_query import RangeQuery, make_workload
from repro.queries.metrics import mean_relative_error, workload_mre

__version__ = "1.0.0"

__all__ = [
    "STPT",
    "STPTConfig",
    "STPTResult",
    "TABLE2",
    "generate_dataset",
    "ConsumptionMatrix",
    "build_matrices",
    "BudgetAccountant",
    "RangeQuery",
    "make_workload",
    "mean_relative_error",
    "workload_mre",
    "ReproError",
    "ConfigurationError",
    "PrivacyError",
    "BudgetExceededError",
    "SensitivityError",
    "DataError",
    "QueryError",
    "TrainingError",
    "__version__",
]
