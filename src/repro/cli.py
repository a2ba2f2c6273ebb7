"""Command-line interface: generate, publish, evaluate, figure.

Examples::

    python -m repro generate --dataset CA --days 88 --out ca.npz
    python -m repro publish --data ca.npz --grid 16 --t-train 40 \
        --distribution uniform --out release.npz --csv release.csv
    python -m repro evaluate --data ca.npz --release release.npz \
        --grid 16 --t-train 40 --distribution uniform
    python -m repro figure table2
    python -m repro figure fig6 --dataset CER
    python -m repro lint src/ tests/ --format json
    python -m repro scenarios list --kind figure
    python -m repro scenarios show fig6-cer
    python -m repro publish --data cer.npz --scenario fig6-cer --out out.npz
    python -m repro bench --list
    python -m repro bench trace_overhead
    python -m repro pipeline run --data ca.npz --grid 16 --t-train 40 \
        --cache-dir .repro-cache
    python -m repro pipeline inspect --cache-dir .repro-cache
    python -m repro publish --data ca.npz --grid 16 --t-train 40 \
        --out release.npz --trace --trace-out release-trace.jsonl
    python -m repro trace release-trace.jsonl --top 5
    python -m repro audit run --scenario audit-composed-stpt
    python -m repro audit run --break-mode forgot-noise
    python -m repro audit frontier --out frontier.json
    python -m repro serve run --release cer=release.npz --port 8080
    python -m repro serve loadgen --port 8080 --release cer \
        --requests 100000 --connections 16
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.audit import BREAK_MODES, run_composed_audit, run_frontier
from repro.baselines.base import get_mechanism
from repro.core.pattern import PatternConfig
from repro.core.stpt import STPT, STPTConfig
from repro.data.datasets import TABLE2, clip_factor_of, generate_dataset
from repro.data.io import (
    export_matrix_csv,
    load_dataset,
    load_matrix,
    save_dataset,
    save_matrix,
)
from repro.data.matrix import ConsumptionMatrix, build_matrices
from repro.data.spatial import DISTRIBUTIONS, place_households
from repro.exceptions import ReproError
from repro.experiments import ablations, figures
from repro.experiments.bench import (
    BENCHMARKS,
    THRESHOLDS,
    TREND_THRESHOLDS,
    run_benchmark,
)
from repro.experiments.harness import format_table, publish_stpt_sweep
from repro.experiments.trend import (
    append_result,
    check_regression,
    load_history,
    trend_rows,
)
from repro.obs import (
    Metrics,
    Tracer,
    load_trace,
    render_tree,
    top_self_time,
    use_metrics,
    use_tracer,
    write_trace,
)
from repro.pipeline import ArtifactStore
from repro.queries.engine import QueryEngine
from repro.queries.metrics import workload_metrics
from repro.queries.range_query import make_workload
from repro.serve import ReleaseCache, ServeConfig, run_load, run_server
from repro.rng import derive_seed, ensure_rng
from repro.scenarios import (
    SCENARIO_KINDS,
    dumps as dump_scenario,
    get_scenario,
    resolve_scenario,
    scenario_names,
)

FIGURE_RUNNERS: dict[str, Callable[..., list[dict]]] = {
    "table2": figures.table2,
    "fig9": figures.figure9,
    "fig6": figures.figure6,
    "fig7": figures.figure7,
    "fig8ab": figures.figure8ab,
    "fig8c": figures.figure8c,
    "fig8d": figures.figure8d,
    "fig8ef": figures.figure8ef,
    "fig8g": figures.figure8g,
    "fig8h": figures.figure8h,
    "fig8i": figures.figure8i,
    "ablation-allocation": ablations.ablation_budget_allocation,
    "ablation-rollout": ablations.ablation_rollout,
    "ablation-attention": ablations.ablation_attention,
    "ablation-seeds": ablations.ablation_seed_denoising,
    "ablation-local-dp": ablations.ablation_local_dp,
    "ablation-privacy-model": ablations.ablation_privacy_model,
    "ablation-refinement": ablations.ablation_refinement,
}

#: Runners that do not take a dataset argument.
_DATASET_FREE = {"table2", "fig9"}

#: Runners whose drivers fan out over ``repro.parallel`` workers.
_WORKER_AWARE = {
    "fig6",
    "fig8c",
    "fig8g",
    "fig8h",
    "fig8i",
    "ablation-allocation",
    "ablation-rollout",
    "ablation-attention",
    "ablation-seeds",
}


def _workers_argument(value: str) -> int:
    """``--workers`` parser: a positive process count (argparse exits 2
    with a one-line message on anything else)."""
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if workers < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {workers}")
    return workers


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """Opt-in tracing flags shared by publish/pipeline/figure/bench."""
    parser.add_argument(
        "--trace", action="store_true",
        help="record spans and metrics for this run (strictly "
        "observational: output bits are identical to an untraced run)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="trace output path (implies --trace; default "
        "repro-trace.jsonl)",
    )
    parser.add_argument(
        "--trace-resource", action="store_true",
        help="attach RSS/GC snapshots to pipeline stage spans "
        "(implies --trace)",
    )


@contextmanager
def _tracing(args: argparse.Namespace) -> Iterator[None]:
    """Install a live tracer/metrics pair when ``--trace`` was given.

    The trace file is written after the command body returns; on error
    nothing is written (the one-line error message stays the only
    output).
    """
    enabled = (
        getattr(args, "trace", False)
        or getattr(args, "trace_out", None)
        or getattr(args, "trace_resource", False)
    )
    if not enabled:
        yield
        return
    tracer = Tracer(resource=bool(getattr(args, "trace_resource", False)))
    metrics = Metrics()
    with use_tracer(tracer), use_metrics(metrics):
        yield
    out = Path(getattr(args, "trace_out", None) or "repro-trace.jsonl")
    write_trace(
        out, tracer.spans, metrics=metrics, meta={"command": args.command}
    )
    print(f"wrote trace {out}: {len(tracer.spans)} span(s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STPT: differentially private publication of smart "
        "electricity grid data (EDBT 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--dataset", choices=sorted(TABLE2), required=True)
    gen.add_argument("--days", type=int, default=220)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output .npz path")

    pub = sub.add_parser("publish", help="run STPT on a dataset file")
    _add_publish_arguments(pub)
    _add_trace_arguments(pub)
    pub.add_argument("--out", required=True, help="sanitized matrix .npz path")
    pub.add_argument("--csv", help="optionally also export CSV here")

    pipe = sub.add_parser(
        "pipeline", help="staged execution engine: run with a cache, inspect one"
    )
    pipe_sub = pipe.add_subparsers(dest="pipeline_command", required=True)
    prun = pipe_sub.add_parser(
        "run",
        help="run the STPT publish pipeline and print per-stage records",
    )
    _add_publish_arguments(prun)
    _add_trace_arguments(prun)
    prun.add_argument("--out", help="optionally save the sanitized matrix here")
    pins = pipe_sub.add_parser(
        "inspect", help="list the artifacts stored in a cache directory"
    )
    pins.add_argument("--cache-dir", required=True)

    eva = sub.add_parser("evaluate", help="MRE of a release vs the raw data")
    eva.add_argument("--data", required=True)
    eva.add_argument("--release", required=True)
    _add_scenario_argument(eva)
    eva.add_argument("--grid", type=int, default=None)
    eva.add_argument("--distribution", choices=DISTRIBUTIONS, default=None)
    eva.add_argument("--t-train", type=int, default=None)
    eva.add_argument("--queries", type=int, default=None)
    eva.add_argument("--seed", type=int, default=None)

    fig = sub.add_parser("figure", help="regenerate a paper table/figure")
    fig.add_argument("name", choices=sorted(FIGURE_RUNNERS))
    fig.add_argument("--dataset", choices=sorted(TABLE2), default="CER")
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument(
        "--workers", type=_workers_argument, default=None,
        help="worker processes for figures whose drivers fan out "
        "(results are bit-identical to serial)",
    )
    _add_trace_arguments(fig)

    scn = sub.add_parser(
        "scenarios", help="list or show the registered scenario specs"
    )
    scn_sub = scn.add_subparsers(dest="scenarios_command", required=True)
    slist = scn_sub.add_parser(
        "list", help="one row per registered scenario"
    )
    slist.add_argument(
        "--kind", choices=SCENARIO_KINDS, default=None,
        help="only scenarios of this kind",
    )
    sshow = scn_sub.add_parser(
        "show", help="print one scenario spec as JSON (re-loadable via "
        "--scenario PATH after saving)",
    )
    sshow.add_argument("name", help="registered name or a .toml/.json file")

    ben = sub.add_parser(
        "bench",
        help="run a named benchmark, append it to BENCH_<name>.json's "
        "history and check its registered bounds",
    )
    ben.add_argument("name", nargs="?", choices=sorted(BENCHMARKS))
    ben.add_argument(
        "--list", action="store_true",
        help="list registered benchmarks with their asserted thresholds",
    )
    ben.add_argument(
        "--workers", type=_workers_argument, default=4,
        help="worker processes for parallel benchmarks",
    )
    ben.add_argument(
        "--out", help="output JSON path (default: BENCH_<name>.json)"
    )
    _add_trace_arguments(ben)

    aud = sub.add_parser(
        "audit",
        help="adversarial audits: empirical ε bounds, attacks, frontier",
    )
    aud_sub = aud.add_subparsers(dest="audit_command", required=True)
    arun = aud_sub.add_parser(
        "run",
        help="audit the composed publish of a kind='audit' scenario "
        "(exit 1 when the measured privacy contradicts the claimed ε)",
    )
    arun.add_argument(
        "--scenario", default="audit-composed-stpt",
        help="a registered kind='audit' scenario name",
    )
    arun.add_argument(
        "--trials", type=int, default=200,
        help="mechanism runs per world for the ε estimator",
    )
    arun.add_argument(
        "--shadows", type=int, default=60,
        help="attack calibration releases per world",
    )
    arun.add_argument(
        "--challenges", type=int, default=120,
        help="attack evaluation releases per world",
    )
    arun.add_argument("--confidence", type=float, default=0.95)
    arun.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's seed policy",
    )
    arun.add_argument("--workers", type=_workers_argument, default=1)
    arun.add_argument(
        "--break-mode", choices=BREAK_MODES, default=None,
        help="audit a deliberately broken pipeline variant instead; the "
        "verdict inverts (exit 1 when the bug is NOT flagged). Subtler "
        "bugs need more --trials: forgotten noise shows in hundreds, "
        "half-scale noise needs ~700, a double-spend ~1300",
    )
    arun.add_argument("--out", help="also write the audit rows as JSON")
    afr = aud_sub.add_parser(
        "frontier",
        help="privacy-utility frontier over a scenario's ε sweep "
        "(exit 1 when any point's measured privacy contradicts its claim)",
    )
    afr.add_argument(
        "--scenario", default="audit-frontier",
        help="a registered kind='audit' scenario name (needs an ε sweep)",
    )
    afr.add_argument("--trials", type=int, default=200)
    afr.add_argument("--shadows", type=int, default=60)
    afr.add_argument("--challenges", type=int, default=120)
    afr.add_argument("--confidence", type=float, default=0.95)
    afr.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's seed policy",
    )
    afr.add_argument("--workers", type=_workers_argument, default=1)
    afr.add_argument("--out", help="also write the frontier rows as JSON")

    srv = sub.add_parser(
        "serve", help="serve range/derived queries over published releases"
    )
    srv_sub = srv.add_subparsers(dest="serve_command", required=True)
    srun = srv_sub.add_parser(
        "run", help="start the asyncio query server (Ctrl-C to stop)"
    )
    srun.add_argument(
        "--release", action="append", required=True, metavar="NAME=PATH",
        help="a servable release (repeatable)",
    )
    srun.add_argument("--host", default="127.0.0.1")
    srun.add_argument("--port", type=int, default=8080)
    srun.add_argument(
        "--cache-size", type=int, default=8,
        help="how many release engines stay hot (LRU beyond that)",
    )
    srun.add_argument(
        "--max-requests", type=int, default=None,
        help="stop after serving this many requests (default: forever)",
    )
    sload = srv_sub.add_parser(
        "loadgen", help="replay a mixed range-query load against a server"
    )
    sload.add_argument("--host", default="127.0.0.1")
    sload.add_argument("--port", type=int, required=True)
    sload.add_argument("--release", required=True, help="release name to query")
    sload.add_argument("--requests", type=int, default=10_000)
    sload.add_argument("--connections", type=int, default=8)
    sload.add_argument(
        "--queries", type=int, default=300,
        help="workload-pool queries per class (small/large/random)",
    )
    sload.add_argument("--seed", type=int, default=0)

    tra = sub.add_parser(
        "trace", help="render a trace recorded with --trace"
    )
    tra.add_argument("file", help="trace .jsonl file")
    tra.add_argument(
        "--top", type=int, default=10,
        help="rows in the self-time table (default 10)",
    )

    rep = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    rep.add_argument("--out", required=True, help="markdown output path")
    rep.add_argument("--dataset", choices=sorted(TABLE2), default="CER")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument(
        "--sections", nargs="*",
        help="substring filters on section titles (default: all)",
    )

    lint = sub.add_parser(
        "lint", help="run the DP-hygiene and numerics linter (repro.lint)"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories (default: configured include paths)",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--select", action="append", metavar="RULES",
        help="comma-separated rule ids to run (repeatable)",
    )
    lint.add_argument("--config", help="explicit pyproject.toml path")
    lint.add_argument("--list-rules", action="store_true")

    return parser


#: Builtin fallbacks for the publish/evaluate options (the historical
#: CLI defaults). Argparse leaves every scenario-coverable option at
#: ``None`` so :func:`_finalize_args` can tell "not given" apart from an
#: explicit flag: explicit flag > ``--scenario`` value > this table.
_PUBLISH_DEFAULTS: dict[str, Any] = {
    "grid": 32,
    "distribution": "uniform",
    "t_train": 100,
    "epsilon_pattern": 10.0,
    "epsilon_sanitize": [20.0],
    "quantization": 20,
    "window": 6,
    "epochs": 20,
    "embed_dim": 32,
    "hidden_dim": 32,
    "seed": 0,
    "mechanism": "STPT",
    "queries": 300,
    "shard_depth": 0,
}

#: The subset of :data:`_PUBLISH_DEFAULTS` the evaluate command uses.
_EVALUATE_KEYS = ("grid", "distribution", "t_train", "queries", "seed")


def _scenario_defaults(name: str) -> dict[str, Any]:
    """Publish-option values a registered scenario resolves to.

    The scenario is a *defaults provider*: the returned values slot in
    exactly where the builtin defaults would, so ``--scenario NAME``
    and the equivalent explicit flag spelling follow one code path and
    produce bit-identical releases.
    """
    resolved = resolve_scenario(name)
    spec = resolved.spec
    config = resolved.configs[0]
    pattern = config.pattern
    return {
        "grid": resolved.preset.grid_shape[0],
        "distribution": resolved.distribution,
        "t_train": config.t_train,
        "epsilon_pattern": config.epsilon_pattern,
        "epsilon_sanitize": [c.epsilon_sanitize for c in resolved.configs],
        "quantization": config.quantization_levels,
        "window": pattern.window,
        "epochs": pattern.epochs,
        "embed_dim": pattern.embed_dim,
        "hidden_dim": pattern.hidden_dim,
        "seed": spec.seeds.seed,
        "mechanism": spec.mechanism.name,
        "queries": resolved.query_count,
        "shard_depth": config.shard_depth,
    }


def _finalize_args(
    args: argparse.Namespace, keys: Sequence[str] | None = None
) -> None:
    """Fill ``None`` options from ``--scenario`` then builtin defaults."""
    merged = dict(_PUBLISH_DEFAULTS)
    if getattr(args, "scenario", None):
        derived = _scenario_defaults(args.scenario)
        merged.update({k: v for k, v in derived.items() if k in merged})
    for key in keys if keys is not None else merged:
        if getattr(args, key, None) is None:
            setattr(args, key, merged[key])


def _add_scenario_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", metavar="NAME",
        help="registered scenario (or a .toml/.json spec file) that "
        "provides the option defaults below; explicit flags override "
        "(see 'repro scenarios list')",
    )


def _add_publish_arguments(parser: argparse.ArgumentParser) -> None:
    """Data/config options shared by ``publish`` and ``pipeline run``.

    Scenario-coverable options default to ``None``;
    :func:`_finalize_args` resolves the effective values.
    """
    parser.add_argument(
        "--data", required=True, help="dataset .npz from 'generate'"
    )
    _add_scenario_argument(parser)
    parser.add_argument(
        "--grid", type=int, default=None, help="grid side (power of 2)"
    )
    parser.add_argument(
        "--distribution", choices=DISTRIBUTIONS, default=None
    )
    parser.add_argument("--t-train", type=int, default=None)
    parser.add_argument("--epsilon-pattern", type=float, default=None)
    parser.add_argument(
        "--epsilon-sanitize", type=float, nargs="+", default=None,
        metavar="EPS",
        help="sanitization budget(s); several values run an epsilon "
        "sweep, one release per value",
    )
    parser.add_argument("--quantization", type=int, default=None)
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--embed-dim", type=int, default=None)
    parser.add_argument("--hidden-dim", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--mechanism", default=None,
        help="mechanism to publish with: STPT (default) or any "
        "registered baseline, e.g. FourierPerturbation, AGrid, FAST",
    )
    parser.add_argument(
        "--cache-dir",
        help="artifact cache directory; deterministic stages replay from it",
    )
    parser.add_argument(
        "--shard-depth", type=int, default=None, metavar="DEPTH",
        help="split the publish across 4^DEPTH disjoint quadtree "
        "subtrees with per-shard budget accountants merged exactly "
        "(0 = classic unsharded publish)",
    )
    parser.add_argument(
        "--workers", type=_workers_argument, default=None,
        help="worker processes for a multi-epsilon sweep or a sharded "
        "publish (results are bit-identical to serial)",
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_dataset(args.dataset, n_days=args.days, rng=args.seed)
    save_dataset(dataset, args.out)  # lint: disable=DP100 -- writes the private input corpus to local disk; 'generate' produces pipeline input, not a DP release
    stats = dataset.statistics()
    print(  # lint: disable=DP100 -- synthetic-corpus diagnostics for the operator, not a published release
        f"wrote {args.out}: {dataset.n_households} households x "
        f"{dataset.n_hours} hours "
        f"(mean {stats['mean_kwh']:.2f} kWh, max {stats['max_kwh']:.2f} kWh)"
    )
    return 0


def _matrices_for(args: argparse.Namespace):
    dataset = load_dataset(args.data)
    grid = (args.grid, args.grid)
    cells = place_households(
        dataset.n_households, grid, args.distribution, rng=args.seed
    )
    daily = dataset.daily_readings()
    clip = clip_factor_of(daily)
    cons, norm = build_matrices(daily, cells, grid, clip)
    return cons, norm, clip


def _publish_config(
    args: argparse.Namespace, epsilon_sanitize: float
) -> STPTConfig:
    return STPTConfig(
        epsilon_pattern=args.epsilon_pattern,
        epsilon_sanitize=epsilon_sanitize,
        t_train=args.t_train,
        quantization_levels=args.quantization,
        shard_depth=args.shard_depth,
        pattern=PatternConfig(
            window=args.window,
            epochs=args.epochs,
            embed_dim=args.embed_dim,
            hidden_dim=args.hidden_dim,
        ),
    )


@dataclass
class _BaselineRelease:
    """The slice of ``STPTResult`` the publish commands print."""

    sanitized_kwh: ConsumptionMatrix
    epsilon_spent: float
    elapsed_seconds: float
    records: list = field(default_factory=list)


def _baseline_results(args: argparse.Namespace):
    """Publish the test horizon with a registered baseline mechanism.

    The mechanism spends the whole budget
    ``epsilon_pattern + epsilon_sanitize`` on its release (baselines
    have no pattern phase), one independent release per
    ``--epsilon-sanitize`` value, matching the experiment harness's
    comparison contract.
    """
    mechanism = get_mechanism(args.mechanism)
    __, norm, clip = _matrices_for(args)
    test_norm = norm.time_slice(args.t_train)
    store = ArtifactStore(args.cache_dir) if args.cache_dir else None
    generator = ensure_rng(args.seed)
    results = []
    for epsilon_sanitize in args.epsilon_sanitize:
        run = mechanism.run(
            test_norm,
            args.epsilon_pattern + epsilon_sanitize,
            rng=derive_seed(generator),
            store=store,
        )
        results.append(
            (
                epsilon_sanitize,
                _BaselineRelease(
                    sanitized_kwh=ConsumptionMatrix(
                        run.sanitized.values * clip
                    ),
                    epsilon_spent=run.epsilon_spent,
                    elapsed_seconds=run.elapsed_seconds,
                    records=list(run.records),
                ),
            )
        )
    return results, store


def _publish_results(args: argparse.Namespace):
    """Run STPT (or a baseline) per the shared publish options.

    Returns ``([(epsilon_sanitize, result), ...], store)``. A single
    ``--epsilon-sanitize`` value keeps the original one-shot path (same
    bits as before the sweep option existed); several values fan out
    through :func:`publish_stpt_sweep`, optionally across ``--workers``
    processes. ``--shard-depth`` > 0 shards each release across the
    disjoint quadtree subtrees instead, fanning the *shards* over
    ``--workers``. ``--mechanism`` other than STPT routes through
    :func:`_baseline_results`.
    """
    if args.mechanism != "STPT":
        return _baseline_results(args)
    cons, norm, clip = _matrices_for(args)
    epsilons = list(args.epsilon_sanitize)
    store = ArtifactStore(args.cache_dir) if args.cache_dir else None
    if args.shard_depth > 0:
        # Sharded releases cannot share a pattern generator across an ε
        # sweep (each shard derives its own stream), so every point is
        # an independent sharded publish.
        generator = ensure_rng(args.seed)
        seeds = (
            [args.seed]
            if len(epsilons) == 1
            else [derive_seed(generator) for __ in epsilons]
        )
        results = []
        for epsilon_sanitize, seed in zip(epsilons, seeds):
            config = _publish_config(args, epsilon_sanitize)
            result = STPT(config, rng=seed, store=store).publish(
                norm, clip_scale=clip, workers=args.workers
            )
            results.append((epsilon_sanitize, result))
        return results, store
    if len(epsilons) == 1:
        config = _publish_config(args, epsilons[0])
        result = STPT(config, rng=args.seed, store=store).publish(
            norm, clip_scale=clip
        )
        return [(epsilons[0], result)], store
    configs = [_publish_config(args, eps) for eps in epsilons]
    results = publish_stpt_sweep(
        norm, clip, configs,
        rng=args.seed,
        store=store,
        workers=args.workers,
    )
    return list(zip(epsilons, results)), store


def _suffixed(path: str, epsilon: float) -> str:
    """``release.npz`` -> ``release-eps5.npz`` for multi-epsilon output.

    Splits on the final extension only, so a dotted directory name
    (``out.v2/release.npz``) or a dotted stem keeps its dots intact.
    """
    root, ext = os.path.splitext(path)
    return f"{root}-eps{epsilon:g}{ext}"


def _cmd_publish(args: argparse.Namespace) -> int:
    _finalize_args(args)
    results, store = _publish_results(args)
    single = len(results) == 1
    for epsilon, result in results:
        out = args.out if single else _suffixed(args.out, epsilon)
        save_matrix(result.sanitized_kwh, out)
        print(
            f"wrote {out}: {result.sanitized_kwh.shape}, "
            f"epsilon spent {result.epsilon_spent:.2f}, "
            f"{result.elapsed_seconds:.1f}s"
        )
        if args.csv:
            csv = args.csv if single else _suffixed(args.csv, epsilon)
            export_matrix_csv(result.sanitized_kwh, csv)
            print(f"wrote {csv}")
    if store is not None:
        stats = store.stats
        print(f"cache: {stats.hits} hit(s), {stats.misses} miss(es)")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    if args.pipeline_command == "inspect":
        store = ArtifactStore(args.cache_dir)
        rows = store.entries()
        if not rows:
            print(f"no artifacts in {args.cache_dir}")
            return 0
        print(format_table(rows, columns=["stage", "tier", "bytes", "key"]))
        print(f"{len(rows)} artifact(s)")
        return 0

    _finalize_args(args)
    results, store = _publish_results(args)
    single = len(results) == 1
    for epsilon, result in results:
        if not single:
            print(f"--- epsilon_sanitize = {epsilon:g} ---")
        print(format_table([record.as_row() for record in result.records]))
        print(
            f"epsilon spent {result.epsilon_spent:.2f}, "
            f"total {result.elapsed_seconds:.1f}s"
        )
        if args.out:
            out = args.out if single else _suffixed(args.out, epsilon)
            save_matrix(result.sanitized_kwh, out)
            print(f"wrote {out}")
    if store is not None:
        stats = store.stats
        print(f"cache: {stats.hits} hit(s), {stats.misses} miss(es)")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    _finalize_args(args, keys=_EVALUATE_KEYS)
    cons, __, __ = _matrices_for(args)
    # One engine per matrix for the whole evaluation: the release comes
    # out of the same ReleaseCache the server uses, the truth engine is
    # built once and reused as both workload reference and answer table.
    cache = ReleaseCache(capacity=2)
    cache.add("release", args.release)
    release = cache.get("release")
    test_cons = cons.time_slice(args.t_train)
    if release.shape != test_cons.shape:
        print(  # lint: disable=DP100 -- error message carries shape metadata only, no household values
            f"error: release shape {release.shape} does not match the "
            f"test horizon {test_cons.shape}",
            file=sys.stderr,
        )
        return 2
    true_engine = QueryEngine(test_cons)
    rows = []
    for kind in ("random", "small", "large"):
        queries = make_workload(
            kind, test_cons.shape, count=args.queries,
            rng=args.seed, reference=true_engine,
        )
        rows.append(
            {"workload": kind,
             **workload_metrics(queries, true_engine, release.engine)}
        )
    print(format_table(rows))
    return 0


def _parse_release_specs(specs: list[str]) -> dict[str, str]:
    releases: dict[str, str] = {}
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ReproError(
                f"--release expects NAME=PATH, got {spec!r}"
            )
        if not Path(path).exists():
            raise ReproError(f"release file not found: {path}")
        releases[name] = path
    return releases


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.serve_command == "loadgen":
        report = run_load(
            args.host,
            args.port,
            args.release,
            requests=args.requests,
            connections=args.connections,
            queries_per_class=args.queries,
            seed=args.seed,
        )
        print(format_table([report.as_dict()]))
        return 1 if report.errors else 0
    releases = _parse_release_specs(args.release)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_capacity=args.cache_size,
        max_requests=args.max_requests,
    )

    def ready(port: int) -> None:
        print(
            f"serving {len(releases)} release(s) on "
            f"http://{args.host}:{port}",
            flush=True,
        )

    try:
        served = run_server(releases, config, ready=ready)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("stopped", file=sys.stderr)
        return 0
    print(f"served {served} request(s)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    path = generate_report(
        args.out,
        dataset_name=args.dataset,
        rng=args.seed,
        sections=args.sections,
    )
    print(f"wrote {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    argv: list[str] = list(args.paths)
    argv += ["--format", args.format]
    for chunk in args.select or []:
        argv += ["--select", chunk]
    if args.config:
        argv += ["--config", args.config]
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def _cmd_figure(args: argparse.Namespace) -> int:
    runner = FIGURE_RUNNERS[args.name]
    kwargs: dict = {"rng": args.seed}
    if args.name in _WORKER_AWARE:
        kwargs["workers"] = args.workers
    elif args.workers:
        print(
            f"note: {args.name} runs serially; --workers ignored",
            file=sys.stderr,
        )
    if args.name in _DATASET_FREE:
        rows = runner(**kwargs)
    else:
        rows = runner(args.dataset, **kwargs)
    print(format_table(rows))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.list or args.name is None:
        if not args.list and args.name is None:
            print("error: name a benchmark or pass --list", file=sys.stderr)
            return 1
        width = max(len(name) for name in BENCHMARKS)
        for name in sorted(BENCHMARKS):
            threshold = THRESHOLDS.get(name) or "no asserted threshold"
            print(f"{name:<{width}}  {threshold}")
        return 0
    out = Path(args.out or f"BENCH_{args.name}.json")
    load_history(out)  # refuse a malformed file before the run, not after
    payload = run_benchmark(args.name, workers=args.workers)
    threshold = TREND_THRESHOLDS.get(args.name)
    history = append_result(out, payload, threshold)
    print(f"wrote {out}: {payload['wall_seconds']:.1f}s wall")
    print(format_table(trend_rows(history)))
    failures = check_regression(args.name, history, threshold)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.scenarios_command == "show":
        spec = get_scenario(args.name)
        sys.stdout.write(dump_scenario(spec))
        return 0
    rows = []
    for name in scenario_names(kind=args.kind):
        spec = get_scenario(name)
        rows.append(
            {
                "name": name,
                "kind": spec.kind,
                "dataset": spec.dataset.name,
                "scale": spec.scale,
                "sweep": spec.sweep.parameter if spec.sweep else "-",
                "description": spec.description,
            }
        )
    print(format_table(rows))
    print(f"{len(rows)} scenario(s)")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.audit_command == "frontier":
        result = run_frontier(
            args.scenario,
            trials=args.trials,
            shadows=args.shadows,
            challenges=args.challenges,
            confidence=args.confidence,
            rng=args.seed,
            workers=args.workers,
        )
        rows = result.rows()
        print(format_table(rows))
        if args.out:
            Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
            print(f"wrote {args.out}")
        for point in result.violations:
            print(
                f"error: {point.label}: measured privacy contradicts the "
                f"claimed eps={point.claimed_epsilon:g}",
                file=sys.stderr,
            )
        return 1 if result.violations else 0

    report = run_composed_audit(
        args.scenario,
        trials=args.trials,
        shadows=args.shadows,
        challenges=args.challenges,
        confidence=args.confidence,
        break_mode=args.break_mode,
        rng=args.seed,
        workers=args.workers,
    )
    print(format_table(report.rows()))
    if args.out:
        Path(args.out).write_text(json.dumps(report.rows(), indent=2) + "\n")
        print(f"wrote {args.out}")
    if report.break_mode is None:
        for point in report.violations:
            print(
                f"error: {point.label}: measured privacy contradicts the "
                f"claimed eps={point.claimed_epsilon:g}",
                file=sys.stderr,
            )
        if report.violations:
            return 1
        print(
            f"ok: claimed eps never contradicted at {report.trials} trials"
        )
        return 0
    if report.verdict_ok:
        print(f"ok: {report.break_mode} flagged at {report.trials} trials")
        return 0
    print(
        f"error: {report.break_mode} NOT flagged at {report.trials} "
        "trials; raise --trials (subtle bugs need more evidence)",
        file=sys.stderr,
    )
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = load_trace(args.file)
    print(render_tree(trace))
    rows = top_self_time(trace.spans, k=args.top)
    if rows:
        print()
        print(f"top {len(rows)} span name(s) by self time:")
        print(format_table(rows))
    metric_rows = trace.metrics.rows()
    if metric_rows:
        print()
        print("metrics:")
        print(format_table(metric_rows))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "publish": _cmd_publish,
        "evaluate": _cmd_evaluate,
        "figure": _cmd_figure,
        "report": _cmd_report,
        "lint": _cmd_lint,
        "pipeline": _cmd_pipeline,
        "bench": _cmd_bench,
        "scenarios": _cmd_scenarios,
        "audit": _cmd_audit,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
    }
    try:
        with _tracing(args):
            return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
