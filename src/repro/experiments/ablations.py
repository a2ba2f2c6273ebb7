"""Ablation studies of STPT's design choices (DESIGN.md section 4).

Each runner isolates one decision the paper (or this reproduction)
makes and measures its effect on utility with everything else fixed:

* the Theorem 8 budget allocation vs uniform / proportional splits;
* the C_pattern roll-out strategy (anchored vs per-cell);
* the self-attention stage of the paper's attention+GRU model;
* hierarchical (inverse-variance) seed denoising vs raw leaf seeds;
* the central model vs the future-work local-DP deployment.

Every runner resolves its named ``ablation-*`` scenario from the
registry — the swept variants are the spec's declared axis, so
``repro scenarios show ablation-rollout`` prints exactly what runs.
"""

from __future__ import annotations

from repro.baselines.event_level import EventLevelIdentity
from repro.baselines.identity import Identity
from repro.data.matrix import ConsumptionMatrix
from repro.dp.local import LocalDPPublisher
from repro.experiments.harness import (
    build_scenario_context,
    run_mechanism,
    run_stpt,
    run_stpt_many,
)
from repro.rng import RngLike, derive_seed, ensure_rng
from repro.scenarios import resolve_scenario
from repro.scenarios.presets import ScalePreset


def ablation_budget_allocation(
    dataset_name: str = "CER",
    preset: ScalePreset | None = None,
    rng: RngLike = None,
    workers: int | None = None,
) -> list[dict]:
    """Theorem 8 allocation vs uniform and proportional splits."""
    resolved = resolve_scenario(
        "ablation-allocation", preset=preset, dataset=dataset_name
    )
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    runs = run_stpt_many(
        context, resolved.configs, rng=generator, workers=workers
    )
    return [
        {"allocation": strategy, **mre}
        for strategy, (__, mre) in zip(resolved.values, runs)
    ]


def ablation_rollout(
    dataset_name: str = "CER",
    preset: ScalePreset | None = None,
    rng: RngLike = None,
    workers: int | None = None,
) -> list[dict]:
    """Anchored (shape x level) vs literal per-cell roll-out."""
    resolved = resolve_scenario(
        "ablation-rollout", preset=preset, dataset=dataset_name
    )
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    runs = run_stpt_many(
        context, resolved.configs, rng=generator, workers=workers
    )
    return [
        {"rollout": rollout, **mre, **_pattern_error(result, context)}
        for rollout, (result, mre) in zip(resolved.values, runs)
    ]


def ablation_attention(
    dataset_name: str = "CER",
    preset: ScalePreset | None = None,
    rng: RngLike = None,
    workers: int | None = None,
) -> list[dict]:
    """The paper's self-attention + GRU model vs a plain GRU."""
    resolved = resolve_scenario(
        "ablation-attention", preset=preset, dataset=dataset_name
    )
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    runs = run_stpt_many(
        context, resolved.configs, rng=generator, workers=workers
    )
    return [
        {"model": "attention+GRU" if use_attention else "GRU-only", **mre}
        for use_attention, (__, mre) in zip(resolved.values, runs)
    ]


def ablation_seed_denoising(
    dataset_name: str = "CA",
    preset: ScalePreset | None = None,
    rng: RngLike = None,
    workers: int | None = None,
) -> list[dict]:
    """Inverse-variance hierarchical seeds vs raw finest-level seeds."""
    resolved = resolve_scenario(
        "ablation-seeds", preset=preset, dataset=dataset_name
    )
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    runs = run_stpt_many(
        context, resolved.configs, rng=generator, workers=workers
    )
    return [
        {
            "seeds": "hierarchical" if hierarchical else "leaf-only",
            **mre,
            **_pattern_error(result, context),
        }
        for hierarchical, (result, mre) in zip(resolved.values, runs)
    ]


def ablation_local_dp(
    dataset_name: str = "CER",
    preset: ScalePreset | None = None,
    rng: RngLike = None,
) -> list[dict]:
    """Central STPT / central Identity vs the local-DP deployment.

    Quantifies the paper's future-work direction: without a trusted
    aggregator each household randomizes independently, and the
    per-household noise accumulates in every cell.
    """
    resolved = resolve_scenario(
        "ablation-local-dp", preset=preset, dataset=dataset_name
    )
    preset = resolved.preset
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    rows = []
    __, stpt_mre = run_stpt(context, rng=derive_seed(generator))
    rows.append({"deployment": "central/STPT", **stpt_mre})
    identity_mre, __ = run_mechanism(
        context, Identity(), rng=derive_seed(generator)
    )
    rows.append({"deployment": "central/Identity", **identity_mre})

    daily = context.daily[:, preset.t_train :]
    local_values = LocalDPPublisher().publish(
        readings=daily,
        cells=context.cells,
        grid_shape=preset.grid_shape,
        epsilon=preset.epsilon_total,
        clip_factor=context.clip_factor,
        rng=derive_seed(generator),
    )
    local_kwh = ConsumptionMatrix(local_values * context.clip_factor)
    rows.append({"deployment": "local/LDP", **context.mre_of(local_kwh)})
    return rows


def ablation_refinement(
    dataset_name: str = "CA",
    preset: ScalePreset | None = None,
    rng: RngLike = None,
) -> list[dict]:
    """Post-processing refinement of releases (free, Theorem 3).

    Compares raw releases with their non-negativity-projected versions
    for STPT and Identity. Projection is most valuable for per-cell
    noise on sparse data (Identity), where negative cells are plainly
    impossible values.
    """
    from repro.core.postprocess import project_nonnegative

    resolved = resolve_scenario(
        "ablation-refinement", preset=preset, dataset=dataset_name
    )
    preset = resolved.preset
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    rows = []
    result, raw_mre = run_stpt(context, rng=derive_seed(generator))
    refined = project_nonnegative(result.sanitized_kwh)
    rows.append({"release": "STPT raw", **raw_mre})
    rows.append({"release": "STPT + projection", **context.mre_of(refined)})

    identity_run = Identity().run(
        context.test_norm, preset.epsilon_total, rng=derive_seed(generator)
    )
    identity_kwh = context.to_kwh(identity_run.sanitized)
    rows.append({"release": "Identity raw", **context.mre_of(identity_kwh)})
    rows.append(
        {
            "release": "Identity + projection",
            **context.mre_of(project_nonnegative(identity_kwh)),
        }
    )
    return rows


def ablation_privacy_model(
    dataset_name: str = "CER",
    preset: ScalePreset | None = None,
    rng: RngLike = None,
) -> list[dict]:
    """The price of user-level privacy (Section 2.2 / Figure 7 context).

    Event-level Identity spends the full ε on every slice — a strictly
    weaker guarantee whose accuracy shows what user-level protection
    costs; STPT's job is to close as much of that gap as possible while
    keeping the stronger model.
    """
    resolved = resolve_scenario(
        "ablation-privacy-model", preset=preset, dataset=dataset_name
    )
    generator = ensure_rng(rng)
    context = build_scenario_context(resolved, rng=derive_seed(generator))
    rows = []
    __, stpt_mre = run_stpt(context, rng=derive_seed(generator))
    rows.append({"setting": "user-level STPT", **stpt_mre})
    user_mre, __ = run_mechanism(context, Identity(), rng=derive_seed(generator))
    rows.append({"setting": "user-level Identity", **user_mre})
    event_mre, __ = run_mechanism(
        context, EventLevelIdentity(), rng=derive_seed(generator)
    )
    rows.append({"setting": "event-level Identity (weaker!)", **event_mre})
    return rows


def _pattern_error(result, context) -> dict[str, float]:
    import numpy as np

    truth = context.norm.values[:, :, context.preset.t_train :]
    errors = result.pattern_matrix - truth
    return {
        "pattern_mae": float(np.mean(np.abs(errors))),
        "pattern_rmse": float(np.sqrt(np.mean(errors**2))),
    }

__all__ = [
    "ablation_budget_allocation",
    "ablation_rollout",
    "ablation_attention",
    "ablation_seed_denoising",
    "ablation_local_dp",
    "ablation_refinement",
    "ablation_privacy_model",
]
