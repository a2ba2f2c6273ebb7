"""Built-in scenario catalog: every paper figure, ablation and bench.

Importing this module registers the specs (the registry does that
lazily on first lookup). Each entry is the declarative form of what the
corresponding runner in :mod:`repro.experiments` executes — same
dataset, distribution(s), geometry, ε schedule and sweep values — and
``tests/scenarios/test_figure_parity.py`` pins that correspondence, so
a figure and its scenario can never silently diverge.

Axis values restate the paper's published sweep points (Section 5); the
ε schedule fields are ``None`` wherever the paper uses the Appendix C
defaults, so the scenarios track whatever scale preset they resolve
under (CI by default, paper scale via ``REPRO_PAPER_SCALE=1``).
"""

from __future__ import annotations

from repro.core.sanitizer import ALLOCATION_STRATEGIES
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import (
    DatasetRef,
    EpsilonSchedule,
    GeometryOverrides,
    MechanismSpec,
    ScenarioSpec,
    SeedPolicy,
    Sweep,
)


def _figure(name: str, description: str, **kwargs) -> ScenarioSpec:
    return register_scenario(
        ScenarioSpec(name=name, description=description, kind="figure", **kwargs)
    )


def _ablation(name: str, description: str, **kwargs) -> ScenarioSpec:
    return register_scenario(
        ScenarioSpec(
            name=name, description=description, kind="ablation", **kwargs
        )
    )


# -- publish ----------------------------------------------------------

#: The CLI's legacy flag defaults, as a named spec: paper geometry with
#: the single-CPU model sizes (embed 32, hidden 32).
PUBLISH_DEFAULT = register_scenario(
    ScenarioSpec(
        name="publish-default",
        description="CLI publish defaults: paper geometry, CPU-scale model",
        kind="publish",
        dataset=DatasetRef("CER"),
        scale="paper",
        geometry=GeometryOverrides(embed_dim=32, hidden_dim=32),
    )
)

# -- Table 2 / Figure 9 (dataset statistics; runners walk all corpora) --

TABLE2_DATASETS = _figure(
    "table2-datasets",
    "Table 2: synthetic-corpus statistics vs published targets",
    dataset=DatasetRef("CER"),
    tags=("all-datasets",),
)

FIG9_WEEKDAY = _figure(
    "fig9-weekday-profile",
    "Figure 9: normalized average consumption per weekday",
    dataset=DatasetRef("CER"),
    tags=("all-datasets",),
)

# -- Figure 6: STPT vs benchmarks per dataset x distribution ----------

for _name in ("CER", "CA", "MI", "TX"):
    _figure(
        f"fig6-{_name.lower()}",
        f"Figure 6 ({_name}): MRE per algorithm x distribution x query class",
        dataset=DatasetRef(_name, distributions=("uniform", "normal")),
        tags=("figure6", "mechanism-comparison"),
    )

# -- Figure 7: WPO under the LA distribution --------------------------

FIG7_WPO = _figure(
    "fig7-wpo",
    "Figure 7: WPO vs STPT (plus Identity) on LA household placement",
    dataset=DatasetRef("CER", distributions=("la",)),
    tags=("mechanism-comparison",),
)

# -- Figure 8: parameter studies --------------------------------------

FIG8AB_BUDGET = _figure(
    "fig8ab-budget-pattern",
    "Figure 8a/b: pattern MAE/RMSE vs per-datapoint budget",
    dataset=DatasetRef("CER"),
    sweep=Sweep("budget_per_point", (0.01, 0.05, 0.1, 0.25, 0.5)),
    tags=("pattern-only",),
)

FIG8C_QUANTIZATION = _figure(
    "fig8c-quantization",
    "Figure 8c: MRE per query class vs quantization levels",
    dataset=DatasetRef("CER"),
    sweep=Sweep("quantization_levels", (2, 5, 10, 20, 40, 80)),
    seeds=SeedPolicy(sweep_mode="shared-pattern"),
)

FIG8D_RUNTIME = _figure(
    "fig8d-runtime",
    "Figure 8d: wall-clock seconds per algorithm",
    dataset=DatasetRef("CER"),
    tags=("mechanism-comparison",),
)

FIG8EF_DEPTH = _figure(
    "fig8ef-depth",
    "Figure 8e/f: pattern MAE/RMSE vs quadtree depth (auto range)",
    dataset=DatasetRef("CER"),
    sweep=Sweep("depth"),
    tags=("pattern-only",),
)

FIG8G_SPLIT = _figure(
    "fig8g-budget-split",
    "Figure 8g: MRE vs the epsilon share given to pattern recognition",
    dataset=DatasetRef("CER"),
    sweep=Sweep("pattern_fraction", (0.1, 0.2, 1.0 / 3.0, 0.5, 0.7, 0.9)),
    seeds=SeedPolicy(sweep_mode="shared-pattern"),
)

FIG8H_TOTAL = _figure(
    "fig8h-total-budget",
    "Figure 8h: MRE vs epsilon_total at the paper's 1:2 split",
    dataset=DatasetRef("CER"),
    sweep=Sweep("epsilon_total", (3.0, 7.5, 15.0, 30.0, 60.0)),
    seeds=SeedPolicy(sweep_mode="shared-pattern"),
)

FIG8I_MODELS = _figure(
    "fig8i-models",
    "Figure 8i: MRE per query class per pattern-model family",
    dataset=DatasetRef("CER"),
    sweep=Sweep("model_family", ("rnn", "gru", "transformer")),
)

# -- ablations --------------------------------------------------------

ABLATION_ALLOCATION = _ablation(
    "ablation-allocation",
    "Theorem 8 budget allocation vs uniform and proportional splits",
    dataset=DatasetRef("CER"),
    sweep=Sweep("allocation", tuple(ALLOCATION_STRATEGIES)),
)

ABLATION_ROLLOUT = _ablation(
    "ablation-rollout",
    "Anchored (shape x level) vs literal per-cell C_pattern roll-out",
    dataset=DatasetRef("CER", distributions=("normal",)),
    sweep=Sweep("rollout", ("anchored", "cell")),
)

ABLATION_ATTENTION = _ablation(
    "ablation-attention",
    "Self-attention + GRU pattern model vs a plain GRU",
    dataset=DatasetRef("CER"),
    sweep=Sweep("use_attention", (True, False)),
)

ABLATION_SEEDS = _ablation(
    "ablation-seeds",
    "Inverse-variance hierarchical seeds vs raw finest-level seeds",
    dataset=DatasetRef("CA", distributions=("la",)),
    sweep=Sweep("hierarchical_seeds", (True, False)),
)

ABLATION_LOCAL_DP = _ablation(
    "ablation-local-dp",
    "Central STPT / central Identity vs the local-DP deployment",
    dataset=DatasetRef("CER"),
)

ABLATION_REFINEMENT = _ablation(
    "ablation-refinement",
    "Raw releases vs non-negativity-projected post-processing",
    dataset=DatasetRef("CA", distributions=("normal",)),
)

ABLATION_PRIVACY_MODEL = _ablation(
    "ablation-privacy-model",
    "User-level STPT/Identity vs weaker event-level Identity",
    dataset=DatasetRef("CER"),
)

# -- benchmarks -------------------------------------------------------

#: ``bench parallel_sweep``: four independent releases whose ε schedule
#: spans the paper's sweep range, at the bench scale.
BENCH_DEFAULT = register_scenario(
    ScenarioSpec(
        name="bench-default",
        description="bench scale: four-point epsilon sweep on CA/uniform",
        kind="bench",
        dataset=DatasetRef("CA"),
        scale="bench",
        mechanism=MechanismSpec(
            epsilons=EpsilonSchedule(sanitize=(2.0, 5.0, 10.0, 20.0))
        ),
        seeds=SeedPolicy(seed=7),
    )
)

#: ``bench trace_overhead``: the golden-test geometry (8x8x24 matrix,
#: 16 training days) with a two-point ε schedule.
BENCH_TRACE_OVERHEAD = register_scenario(
    ScenarioSpec(
        name="bench-trace-overhead",
        description="bench scale: tiny two-point sweep for the tracer-"
        "overhead benchmark (golden-test geometry)",
        kind="bench",
        dataset=DatasetRef("CA"),
        scale="bench",
        geometry=GeometryOverrides(
            grid_shape=(8, 8),
            n_days=24,
            t_train=16,
            window=3,
            epochs=8,
            embed_dim=8,
            hidden_dim=8,
        ),
        mechanism=MechanismSpec(
            epsilons=EpsilonSchedule(sanitize=(10.0, 20.0)),
            overrides=(("quantization_levels", 6),),
        ),
        seeds=SeedPolicy(seed=1234),
        tags=("synthetic-matrix",),
    )
)

# -- adversarial audits ----------------------------------------------

#: ``repro audit run``: empirical ε lower bound on the full staged
#: publish. The single-cell grid puts every partition over the
#: distinguished household's pillar, so the whole sanitize budget bears
#: on the audit statistic (maximum audit power at a given trial count);
#: the tiny geometry keeps one mechanism trial in the low milliseconds.
AUDIT_COMPOSED_STPT = register_scenario(
    ScenarioSpec(
        name="audit-composed-stpt",
        description="adversarial audit: composed STPT publish on the "
        "single-cell maximum-leverage geometry",
        kind="audit",
        dataset=DatasetRef("CA"),
        scale="bench",
        geometry=GeometryOverrides(
            grid_shape=(1, 1),
            n_days=12,
            t_train=8,
            query_count=20,
            epochs=1,
            embed_dim=8,
            hidden_dim=8,
            window=3,
        ),
        mechanism=MechanismSpec(
            epsilons=EpsilonSchedule(pattern=0.1, sanitize=(1.6,)),
            overrides=(("quantization_levels", 4),),
        ),
        seeds=SeedPolicy(seed=5),
        tags=("audit",),
    )
)

#: ``repro audit run``: the sharded variant — a 2x2 grid at shard depth
#: 1 splits the publish into four single-cell shards, each with the
#: full per-shard leverage of the unsharded audit geometry, so the
#: parallel composition argument behind sharding is itself audited.
AUDIT_COMPOSED_SHARDED = register_scenario(
    ScenarioSpec(
        name="audit-composed-sharded",
        description="adversarial audit: sharded composed publish "
        "(2x2 grid, shard depth 1: four single-cell shards)",
        kind="audit",
        dataset=DatasetRef("CA"),
        scale="bench",
        geometry=GeometryOverrides(
            grid_shape=(2, 2),
            n_days=12,
            t_train=8,
            query_count=20,
            epochs=1,
            embed_dim=8,
            hidden_dim=8,
            window=3,
        ),
        mechanism=MechanismSpec(
            epsilons=EpsilonSchedule(pattern=0.1, sanitize=(1.6,)),
            overrides=(
                ("quantization_levels", 4),
                ("shard_depth", 1),
            ),
        ),
        seeds=SeedPolicy(seed=5),
        tags=("audit", "sharded"),
    )
)

#: ``repro audit frontier``: the ε sweep behind the privacy-utility
#: frontier table — each point is audited (ε lower bound + membership
#: attack) and scored (workload MRE/MAE) at the same configuration.
AUDIT_FRONTIER = register_scenario(
    ScenarioSpec(
        name="audit-frontier",
        description="privacy-utility frontier: audited ε sweep with "
        "workload utility at every point",
        kind="audit",
        dataset=DatasetRef("CA"),
        scale="bench",
        geometry=GeometryOverrides(
            grid_shape=(2, 2),
            n_days=12,
            t_train=8,
            query_count=20,
            epochs=1,
            embed_dim=8,
            hidden_dim=8,
            window=3,
        ),
        mechanism=MechanismSpec(
            overrides=(("quantization_levels", 4),),
        ),
        sweep=Sweep("epsilon_total", (0.75, 1.5, 3.0, 6.0)),
        seeds=SeedPolicy(seed=5),
        tags=("audit", "frontier"),
    )
)

__all__ = [
    "ABLATION_ALLOCATION",
    "ABLATION_ATTENTION",
    "ABLATION_LOCAL_DP",
    "ABLATION_PRIVACY_MODEL",
    "ABLATION_REFINEMENT",
    "ABLATION_ROLLOUT",
    "ABLATION_SEEDS",
    "AUDIT_COMPOSED_SHARDED",
    "AUDIT_COMPOSED_STPT",
    "AUDIT_FRONTIER",
    "BENCH_DEFAULT",
    "BENCH_TRACE_OVERHEAD",
    "FIG7_WPO",
    "FIG8AB_BUDGET",
    "FIG8C_QUANTIZATION",
    "FIG8D_RUNTIME",
    "FIG8EF_DEPTH",
    "FIG8G_SPLIT",
    "FIG8H_TOTAL",
    "FIG8I_MODELS",
    "FIG9_WEEKDAY",
    "PUBLISH_DEFAULT",
    "TABLE2_DATASETS",
]
