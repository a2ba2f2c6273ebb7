"""One runner per table/figure of the paper's evaluation (Section 5).

Every function returns a list of plain-dict rows — the same series the
paper plots — and is wrapped by a benchmark under ``benchmarks/``.
See DESIGN.md for the experiment index and EXPERIMENTS.md for measured
vs published results.

Each runner resolves its named scenario from
:mod:`repro.scenarios.catalog` (``fig6-cer``, ``fig8c-quantization``,
...) and executes the resolved configs; explicit arguments (dataset,
axis values, preset) substitute into the spec before resolution, so a
runner call and ``repro scenarios show`` always agree on what ran.
The generator discipline is unchanged from the pre-registry code —
resolution consumes no randomness — so all outputs stay bit-identical.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines import WPO, Identity, standard_benchmarks
from repro.core.pattern import PatternRecognizer
from repro.data.datasets import TABLE2, generate_dataset
from repro.experiments.harness import (
    DATASET_NAMES,
    ExperimentContext,
    build_scenario_context,
    run_mechanism,
    run_mechanisms,
    run_stpt,
    run_stpt_many,
    run_stpt_sweep,
)
from repro.rng import RngLike, derive_seed, ensure_rng
from repro.scenarios import ResolvedScenario, resolve_scenario
from repro.scenarios.presets import ScalePreset

# ---------------------------------------------------------------------------
# Table 2 and Figure 9: dataset statistics
# ---------------------------------------------------------------------------


def table2(preset: ScalePreset | None = None, rng: RngLike = None) -> list[dict]:
    """Synthetic-corpus statistics next to the Table 2 targets."""
    preset = resolve_scenario("table2-datasets", preset=preset).preset
    generator = ensure_rng(rng)
    rows = []
    for name in DATASET_NAMES:
        spec = TABLE2[name]
        if name == "CER":
            spec = spec.scaled(preset.cer_household_fraction)
        dataset = generate_dataset(
            spec, n_days=preset.n_days, rng=derive_seed(generator)
        )
        stats = dataset.statistics()
        rows.append(
            {
                "dataset": name,
                "households": int(stats["households"]),
                "mean_kwh": stats["mean_kwh"],
                "target_mean": spec.mean_kwh,
                "std_kwh": stats["std_kwh"],
                "target_std": spec.std_kwh,
                "max_kwh": stats["max_kwh"],
                "target_max": spec.max_kwh,
                "clip_factor": spec.clip_factor,
            }
        )
    return rows


def figure9(preset: ScalePreset | None = None, rng: RngLike = None) -> list[dict]:
    """Average daily consumption per weekday (normalized, Monday first).

    Slow common-mode drift (the weather component of the generator) is
    removed with a centred 7-day moving average before the day-of-week
    factors are computed — the standard seasonal decomposition — so the
    weekly profile is not confounded by which weeks were warm.
    """
    preset = resolve_scenario("fig9-weekday-profile", preset=preset).preset
    generator = ensure_rng(rng)
    weekdays = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]
    rows = []
    for name in DATASET_NAMES:
        spec = TABLE2[name]
        if name == "CER":
            spec = spec.scaled(preset.cer_household_fraction)
        dataset = generate_dataset(
            spec, n_days=preset.n_days, rng=derive_seed(generator)
        )
        daily = dataset.daily_readings().sum(axis=0)
        trend = np.convolve(daily, np.ones(7) / 7.0, mode="same")
        # the convolution's edges average fewer real days; drop them
        ratio = (daily / np.maximum(trend, 1e-12))[3:-3]
        offset = dataset.start_weekday + 3
        totals = np.zeros(7)
        counts = np.zeros(7)
        for day, value in enumerate(ratio):
            dow = (day + offset) % 7
            totals[dow] += value
            counts[dow] += 1
        averages = totals / np.maximum(counts, 1)
        normalized = averages / averages.mean()
        row: dict = {"dataset": name}
        row.update({wd: float(v) for wd, v in zip(weekdays, normalized)})
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 6: STPT vs benchmarks across datasets, distributions, query types
# ---------------------------------------------------------------------------


def figure6(
    dataset_name: str,
    distributions: tuple[str, ...] | None = None,
    preset: ScalePreset | None = None,
    rng: RngLike = None,
    workers: int | None = None,
) -> list[dict]:
    """One Figure 6 row (a dataset): MRE per algorithm x distribution x
    query class. ``workers`` fans the benchmark suite out over a
    process pool, bit-identically to the serial run."""
    resolved = resolve_scenario(
        f"fig6-{dataset_name.lower()}",
        preset=preset,
        distributions=distributions,
    )
    generator = ensure_rng(rng)
    rows = []
    for distribution in resolved.distributions:
        context = build_scenario_context(
            resolved, distribution=distribution, rng=derive_seed(generator)
        )
        __, stpt_mre = run_stpt(context, rng=derive_seed(generator))
        rows.append(
            {
                "dataset": dataset_name,
                "distribution": distribution,
                "algorithm": "STPT",
                **stpt_mre,
            }
        )
        mechanisms = standard_benchmarks()
        for mechanism, (mre, __) in zip(
            mechanisms,
            run_mechanisms(context, mechanisms, rng=generator, workers=workers),
        ):
            rows.append(
                {
                    "dataset": dataset_name,
                    "distribution": distribution,
                    "algorithm": mechanism.name,
                    **mre,
                }
            )
    return rows


def figure6_all(
    preset: ScalePreset | None = None,
    rng: RngLike = None,
    workers: int | None = None,
) -> list[dict]:
    """All four Figure 6 dataset rows."""
    generator = ensure_rng(rng)
    rows = []
    for name in DATASET_NAMES:
        rows.extend(
            figure6(
                name, preset=preset, rng=derive_seed(generator), workers=workers
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 7: WPO vs STPT under the LA household distribution
# ---------------------------------------------------------------------------


def figure7(
    dataset_name: str = "CER",
    preset: ScalePreset | None = None,
    rng: RngLike = None,
) -> list[dict]:
    """WPO against STPT (plus Identity for context) on LA placement."""
    resolved = resolve_scenario("fig7-wpo", preset=preset, dataset=dataset_name)
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    rows = []
    __, stpt_mre = run_stpt(context, rng=derive_seed(generator))
    rows.append({"algorithm": "STPT", **stpt_mre})
    for mechanism in (WPO(), Identity()):
        mre, __ = run_mechanism(context, mechanism, rng=derive_seed(generator))
        rows.append({"algorithm": mechanism.name, **mre})
    return rows


# ---------------------------------------------------------------------------
# Figure 8a/8b: pattern-recognition error vs per-datapoint budget
# ---------------------------------------------------------------------------


def _pattern_study_slices(
    resolved: ResolvedScenario, context: ExperimentContext
) -> tuple[np.ndarray, np.ndarray]:
    """Train/test split of the normalized matrix for pattern-only runs."""
    t_train = resolved.preset.t_train
    return (
        context.norm.values[:, :, :t_train],
        context.norm.values[:, :, t_train:],
    )


def figure8ab(
    dataset_name: str = "CER",
    budgets_per_point: tuple[float, ...] | None = None,
    preset: ScalePreset | None = None,
    rng: RngLike = None,
) -> list[dict]:
    """Pattern MAE/RMSE as the per-training-point budget grows."""
    resolved = resolve_scenario(
        "fig8ab-budget-pattern",
        preset=preset,
        dataset=dataset_name,
        values=budgets_per_point,
    )
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    train, test = _pattern_study_slices(resolved, context)
    rows = []
    for per_point, config in zip(resolved.values, resolved.configs):
        recognizer = PatternRecognizer(
            config.epsilon_pattern,
            config.pattern,
            rng=derive_seed(generator),
        )
        recognizer.fit(train)
        metrics = recognizer.evaluate(test)
        rows.append(
            {
                "budget_per_point": per_point,
                "epsilon_pattern": config.epsilon_pattern,
                "mae": metrics["mae"],
                "rmse": metrics["rmse"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 8c: quantization levels
# ---------------------------------------------------------------------------


def figure8c(
    dataset_name: str = "CER",
    levels: tuple[int, ...] | None = None,
    preset: ScalePreset | None = None,
    rng: RngLike = None,
    workers: int | None = None,
) -> list[dict]:
    """MRE per query class as the number of quantization levels varies."""
    resolved = resolve_scenario(
        "fig8c-quantization", preset=preset, dataset=dataset_name, values=levels
    )
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    # All sweep points share the pattern phase (only the quantization
    # granularity differs — the spec's shared-pattern seed policy), so
    # the sweep helper replays the trained forecaster from cache after
    # the first point.
    sweep = run_stpt_sweep(
        context, resolved.configs, rng=derive_seed(generator), workers=workers
    )
    return [
        {"quantization_levels": k, **mre}
        for k, (__, mre) in zip(resolved.values, sweep)
    ]


# ---------------------------------------------------------------------------
# Figure 8d: runtime of every algorithm
# ---------------------------------------------------------------------------


def figure8d(
    dataset_name: str = "CER",
    preset: ScalePreset | None = None,
    rng: RngLike = None,
) -> list[dict]:
    """Wall-clock seconds per algorithm (STPT includes training)."""
    resolved = resolve_scenario(
        "fig8d-runtime", preset=preset, dataset=dataset_name
    )
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    rows = []
    started = time.perf_counter()
    result, __ = run_stpt(context, rng=derive_seed(generator))
    rows.append(
        {
            "algorithm": "STPT",
            "seconds": time.perf_counter() - started,
            "training_seconds": result.pattern_result.training_seconds,
        }
    )
    for mechanism in standard_benchmarks() + [WPO()]:
        __, elapsed = run_mechanism(context, mechanism, rng=derive_seed(generator))
        rows.append(
            {"algorithm": mechanism.name, "seconds": elapsed, "training_seconds": 0.0}
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 8e/8f: quadtree depth
# ---------------------------------------------------------------------------


def figure8ef(
    dataset_name: str = "CER",
    depths: tuple[int, ...] | None = None,
    preset: ScalePreset | None = None,
    rng: RngLike = None,
) -> list[dict]:
    """Pattern MAE/RMSE as the quadtree depth varies.

    With ``depths`` unset the scenario's auto axis covers every depth
    the resolved geometry supports.
    """
    resolved = resolve_scenario(
        "fig8ef-depth", preset=preset, dataset=dataset_name, values=depths
    )
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    train, test = _pattern_study_slices(resolved, context)
    rows = []
    for depth, config in zip(resolved.values, resolved.configs):
        recognizer = PatternRecognizer(
            config.epsilon_pattern,
            config.pattern,
            rng=derive_seed(generator),
        )
        recognizer.fit(train)
        metrics = recognizer.evaluate(test)
        rows.append({"depth": depth, "mae": metrics["mae"], "rmse": metrics["rmse"]})
    return rows


# ---------------------------------------------------------------------------
# Figure 8g: budget split between pattern recognition and sanitization
# ---------------------------------------------------------------------------


def figure8g(
    dataset_name: str = "CER",
    pattern_fractions: tuple[float, ...] | None = None,
    preset: ScalePreset | None = None,
    rng: RngLike = None,
    workers: int | None = None,
) -> list[dict]:
    """MRE as the share of ε_tot given to pattern recognition varies."""
    resolved = resolve_scenario(
        "fig8g-budget-split",
        preset=preset,
        dataset=dataset_name,
        values=pattern_fractions,
    )
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    # ε_pattern differs per point, so pattern caching cannot kick in
    # here — the sweep helper still shares the cached context phases
    # and keeps the per-point rng discipline uniform across figures.
    sweep = run_stpt_sweep(
        context, resolved.configs, rng=derive_seed(generator), workers=workers
    )
    return [
        {"pattern_fraction": fraction, **mre}
        for fraction, (__, mre) in zip(resolved.values, sweep)
    ]


# ---------------------------------------------------------------------------
# Figure 8h: total privacy budget
# ---------------------------------------------------------------------------


def figure8h(
    dataset_name: str = "CER",
    totals: tuple[float, ...] | None = None,
    preset: ScalePreset | None = None,
    rng: RngLike = None,
    workers: int | None = None,
) -> list[dict]:
    """MRE as ε_tot varies at the paper's 1:2 pattern:sanitize ratio."""
    resolved = resolve_scenario(
        "fig8h-total-budget", preset=preset, dataset=dataset_name, values=totals
    )
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    sweep = run_stpt_sweep(
        context, resolved.configs, rng=derive_seed(generator), workers=workers
    )
    return [
        {"epsilon_total": total, **mre}
        for total, (__, mre) in zip(resolved.values, sweep)
    ]


# ---------------------------------------------------------------------------
# Figure 8i: alternative sequence models
# ---------------------------------------------------------------------------


def figure8i(
    dataset_name: str = "CER",
    families: tuple[str, ...] | None = None,
    preset: ScalePreset | None = None,
    rng: RngLike = None,
    workers: int | None = None,
) -> list[dict]:
    """MRE per query class for each pattern-model family."""
    resolved = resolve_scenario(
        "fig8i-models", preset=preset, dataset=dataset_name, values=families
    )
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    results = run_stpt_many(
        context, resolved.configs, rng=generator, workers=workers
    )
    return [
        {"model": family, **mre}
        for family, (__, mre) in zip(resolved.values, results)
    ]

__all__ = [
    "table2",
    "figure9",
    "figure6",
    "figure6_all",
    "figure7",
    "figure8ab",
    "figure8c",
    "figure8d",
    "figure8ef",
    "figure8g",
    "figure8h",
    "figure8i",
]
