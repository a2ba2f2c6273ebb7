"""Full-reproduction report generator.

Runs every table, figure and ablation at the active scale preset and
writes a single markdown report — the artifact a reviewer reads to see
paper-vs-measured at a glance. Used by ``python -m repro report``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

from repro.experiments import ablations, figures
from repro.experiments.harness import format_table
from repro.rng import RngLike, derive_seed, ensure_rng
from repro.scenarios.presets import ScalePreset, active_preset

# Each section maps (preset, dataset, rng) -> rows. ``dataset`` is the
# report's default dataset for single-dataset experiments.
SectionRunner = Callable[[ScalePreset, str, int], list[dict]]

REPORT_SECTIONS: list[tuple[str, SectionRunner]] = [
    ("Table 2 — dataset statistics",
     lambda p, d, r: figures.table2(p, rng=r)),
    ("Figure 9 — weekday profile",
     lambda p, d, r: figures.figure9(p, rng=r)),
    ("Figure 6 — CER",
     lambda p, d, r: figures.figure6("CER", preset=p, rng=r)),
    ("Figure 6 — CA",
     lambda p, d, r: figures.figure6("CA", preset=p, rng=r)),
    ("Figure 6 — MI",
     lambda p, d, r: figures.figure6("MI", preset=p, rng=r)),
    ("Figure 6 — TX",
     lambda p, d, r: figures.figure6("TX", preset=p, rng=r)),
    ("Figure 7 — WPO under the LA distribution",
     lambda p, d, r: figures.figure7(d, preset=p, rng=r)),
    ("Figure 8a/8b — pattern budget",
     lambda p, d, r: figures.figure8ab(d, preset=p, rng=r)),
    ("Figure 8c — quantization levels",
     lambda p, d, r: figures.figure8c(d, preset=p, rng=r)),
    ("Figure 8d — runtime",
     lambda p, d, r: figures.figure8d(d, preset=p, rng=r)),
    ("Figure 8e/8f — quadtree depth",
     lambda p, d, r: figures.figure8ef(d, preset=p, rng=r)),
    ("Figure 8g — budget split",
     lambda p, d, r: figures.figure8g(d, preset=p, rng=r)),
    ("Figure 8h — total budget",
     lambda p, d, r: figures.figure8h(d, preset=p, rng=r)),
    ("Figure 8i — model families",
     lambda p, d, r: figures.figure8i(d, preset=p, rng=r)),
    ("Ablation — budget allocation",
     lambda p, d, r: ablations.ablation_budget_allocation(d, p, rng=r)),
    ("Ablation — roll-out strategy",
     lambda p, d, r: ablations.ablation_rollout(d, p, rng=r)),
    ("Ablation — attention stage",
     lambda p, d, r: ablations.ablation_attention(d, p, rng=r)),
    ("Ablation — seed denoising",
     lambda p, d, r: ablations.ablation_seed_denoising("CA", p, rng=r)),
    ("Ablation — local DP",
     lambda p, d, r: ablations.ablation_local_dp(d, p, rng=r)),
    ("Ablation — privacy model",
     lambda p, d, r: ablations.ablation_privacy_model(d, p, rng=r)),
    ("Ablation — post-processing refinement",
     lambda p, d, r: ablations.ablation_refinement("CA", p, rng=r)),
]


def generate_report(
    path: str | Path,
    preset: ScalePreset | None = None,
    dataset_name: str = "CER",
    rng: RngLike = None,
    sections: list[str] | None = None,
) -> Path:
    """Run the selected sections and write a markdown report.

    ``sections`` filters by (case-insensitive) substring of the section
    title; ``None`` runs everything.
    """
    preset = preset or active_preset()
    generator = ensure_rng(rng)
    path = Path(path)
    lines = [
        "# STPT reproduction report",
        "",
        f"- scale preset: **{preset.name}** "
        f"(grid {preset.grid_shape[0]}x{preset.grid_shape[1]}, "
        f"T_train={preset.t_train}, T_test={preset.t_test}, "
        f"{preset.query_count} queries/class)",
        f"- privacy budget: ε_total={preset.epsilon_total} "
        f"(pattern {preset.epsilon_pattern} / sanitize {preset.epsilon_sanitize})",
        f"- default dataset for single-dataset sections: {dataset_name}",
        "",
    ]
    total_started = time.perf_counter()
    for title, runner in REPORT_SECTIONS:
        if sections is not None and not any(
            key.lower() in title.lower() for key in sections
        ):
            continue
        seed = derive_seed(generator)
        started = time.perf_counter()
        rows = runner(preset, dataset_name, seed)
        elapsed = time.perf_counter() - started
        lines.append(f"## {title}")
        lines.append("")
        lines.append("```")
        lines.append(format_table(rows))
        lines.append("```")
        lines.append(f"*({elapsed:.1f}s)*")
        lines.append("")
    lines.append(
        f"---\ntotal wall time: {time.perf_counter() - total_started:.1f}s"
    )
    path.write_text("\n".join(lines))
    return path

__all__ = [
    "SectionRunner",
    "REPORT_SECTIONS",
    "generate_report",
]
