"""Workload orchestration: publish phase, serve phase, metrics.

Every workload runs the same two phases, so every end-to-end metric is
measured on every workload (``perfbench/README.md`` says why each
workload weights the phases differently):

1. **publish**: build the scenario context, then publish once with
   ``STPT.publish``.
2. **serve**: write the releases, start a ``repro serve run`` process
   holding them, offer the nominal rate for ``--seconds``, then search
   for the highest rate that meets the latency limit.

Outputs are checked after the timed parts; a failed check makes the
run incorrect and the command exit non-zero.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

import measure
import publish_phase
import serve_phase
from repro.data.io import save_matrix
from repro.data.matrix import ConsumptionMatrix
from repro.obs import Metrics, use_metrics
from spans import Recorder, Tracing

#: Context builds per run on the publish workloads (``setup_s`` is
#: their median).
PUBLISH_SETUPS = 3
#: Server start-ups per run on ``serve`` (``setup_s`` is their median).
SERVE_SETUPS = 3
STAGES = {
    "stpt/pattern-noise": "pattern_noise",
    "stpt/pattern-train": "pattern_train",
    "stpt/quantize": "quantize",
    "stpt/sanitize": "sanitize",
}
#: On ``publish`` the layer spans should cover the traced publish up to
#: this share; the rest is reported as ``trace.unattributed_s``.
UNATTRIBUTED_SHARE = 0.02


class Run:
    """State and report lines of one benchmark invocation."""

    def __init__(self, args, root: Path, work: Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.smoke = args.smoke
        self.root = root
        self.work = work
        self.errors: list[str] = []
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0

    # -- publish phase --------------------------------------------------

    def publish(self, setups: int):
        """Build the context ``setups`` times, publish, check the releases."""
        resolved = publish_phase.resolve(self.smoke)
        plan = publish_phase.plan_for(self.workload, resolved, self.smoke)
        setup_s = []
        for __ in range(setups):
            context, seconds = publish_phase.build_context(resolved)
            setup_s.append(seconds)
        runs = [publish_phase.publish_once(plan, context) for __ in range(plan.passes)]
        shape = (*resolved.preset.grid_shape, resolved.preset.t_test)
        for run in runs:
            self.attempted += len(run.releases)
            for release, first in zip(run.releases, runs[0].releases):
                problems = publish_phase.check_release(release, shape, plan.exact_epsilon)
                if release.sha256 != first.sha256:
                    problems.append(f"{release.name}: passes of one run differ in bits")
                self.failed += bool(problems)
                self.errors += problems
        for release in runs[-1].releases:
            self.lines.append(
                f"release {release.name}: sha256 {release.sha256} "
                f"epsilon {release.epsilon_spent!r} mre_pct {release.mre_pct!r}"
            )
        return plan, context, setup_s, runs

    # -- serve phase ----------------------------------------------------

    def server_argv(self, record: Path | None) -> list[str]:
        if record is None:
            return [sys.executable, "-m", "repro", "serve", "run", "--port", "0"]
        launcher = Path(__file__).with_name("serve_launcher.py")
        return [sys.executable, str(launcher), "--record", str(record), "--port", "0"]

    def serve(self, releases, starts: int, record: Path | None):
        paths = {
            release.name: save_matrix(
                ConsumptionMatrix(release.values), self.work / f"{release.name}.npz"
            )
            for release in releases
        }
        values = {release.name: release.values for release in releases}
        setup_s, maxrss = [], 0
        server = None
        try:
            for __ in range(starts):
                if server is not None:
                    server.stop()
                    maxrss = max(maxrss, server.maxrss_kib)
                server = serve_phase.Server(self.server_argv(record), paths, dict(os.environ))
                setup_s.append(server.setup_s)
            shape = releases[0].values.shape
            traffic = serve_phase.Traffic.build(list(paths), shape, self.seed)
            run = serve_phase.drive(server, traffic, self.seconds)
            program_metrics = server.request("GET", "/metrics")[1] if record else {}
        finally:
            if server is not None:
                server.stop()
                maxrss = max(maxrss, server.maxrss_kib)
        for step in run.steps:
            verdict = step.verdict
            self.attempted += verdict.sent
            self.failed += verdict.failed
            state = "met" if verdict.met else ("missed" if verdict.valid else "INVALID")
            self.lines.append(
                f"serve step rate={verdict.rate:.1f}/s sent={verdict.sent} "
                f"succeeded={verdict.succeeded} failed={verdict.failed} "
                f"p50_ms={verdict.p50_ms} p99_ms={verdict.p99_ms} "
                f"lag_p99_ms={verdict.lag_p99_ms} backlog={verdict.backlog} {state}"
            )
        wrong = serve_phase.verify(run, traffic, values)
        if wrong:
            self.errors.append(f"{wrong} served answer(s) differ from evaluate_many")
            self.failed += wrong
        if run.p99_ms is None:
            self.errors.append("fewer than two valid nominal windows: the generator ran late")
        if run.max_rps is None:
            self.errors.append("no offered rate met the latency limit")
        return run, setup_s, maxrss, program_metrics

    # -- the two kinds of run -------------------------------------------

    def measure_end_to_end(self) -> dict[str, tuple[float, str]]:
        serve_workload = self.workload == "serve"
        setups = 1 if self.smoke or serve_workload else PUBLISH_SETUPS
        __, __, context_s, runs = self.publish(setups)
        published = runs[-1]
        publisher_kib = serve_phase.high_water_kib()
        starts = SERVE_SETUPS if serve_workload and not self.smoke else 1
        serve, serve_setup_s, server_kib, __ = self.serve(published.releases, starts, None)
        metrics = {
            "setup_s": (measure.median(serve_setup_s if serve_workload else context_s), "s"),
            "publish_s": (min(run.wall_s for run in runs), "s"),
            "publish_cpu_s": (min(run.cpu_s for run in runs), "s"),
            "peak_rss_mb": ((publisher_kib + server_kib) / 1024.0, "MiB"),
            "mre_pct": (float(np.mean([r.mre_pct for r in published.releases])), "%"),
        }
        if serve.p99_ms is not None:
            metrics["serve_p50_ms"] = (serve.p50_ms, "ms")
        if serve.max_rps is not None:
            metrics["serve_max_rps"] = (serve.max_rps, "req/s")
        return metrics

    def measure_layers(self) -> dict[str, tuple[float, str]]:
        plan, context, context_s, runs = self.publish(1)
        plain = runs[-1]
        with Tracing(self.work) as tracing, use_metrics(Metrics()) as program:
            tracing.install_publish()
            traced = publish_phase.publish_once(plan, context)
        recorder = tracing.recorder
        # The first publish in a process pays warm-up, so the overhead is
        # measured against untraced passes on both sides of the traced one.
        after = publish_phase.publish_once(plan, context)
        untraced_s = (plain.wall_s + after.wall_s) / 2.0
        for mine, theirs in zip(plain.releases, traced.releases):
            if not np.array_equal(mine.values, theirs.values):
                self.errors.append(f"traced publish changed the bits of {mine.name}")
                self.failed += 1
        self.attempted += len(traced.releases)
        record = self.work / "server-spans.json"
        serve, __, __, served = self.serve(traced.releases, 1, record)
        server = Recorder()
        if record.exists():
            server.absorb(json.loads(record.read_text()))
        else:
            self.errors.append("traced server wrote no span record")
        self.lines.append("publish span tree:\n" + recorder.render())
        self.lines.append("server span tree:\n" + server.render())

        unattributed = recorder.self_time("stpt.publish")
        self.lines.append(
            f"unattributed {unattributed:.4f}s of a {traced.wall_s:.4f}s traced "
            f"publish ({unattributed / traced.wall_s:.2%}; stated share on "
            f"publish: {UNATTRIBUTED_SHARE:.0%})"
        )
        records = [row for release in traced.releases for row in release.records]
        stage_s = {
            short: sum(r.seconds for r in records if r.stage == stage)
            for stage, short in STAGES.items()
        }
        step = program.histogram_value("nn.step.seconds")
        counters = served.get("counters", {})
        histograms = served.get("histograms", {})
        counted = recorder.counters
        capacity = counted.get("parallel.capacity_s", 0.0)
        hits = counters.get("serve.cache.hit", 0.0)
        misses = counters.get("serve.cache.miss", 0.0)
        evaluate_calls = server.calls("engine.evaluate_many")

        def mean_of(name: str, scale: float) -> float:
            entry = histograms.get(name) or {}
            return entry["total"] / entry["count"] * scale if entry.get("count") else 0.0

        return {
            "data.context_s": (context_s[0], "s"),
            **{
                f"pipeline.stage.{short}_s": (seconds, "s")
                for short, seconds in stage_s.items()
            },
            "pipeline.overhead_s": (recorder.total("pipeline.run") - sum(stage_s.values()), "s"),
            "pipeline.cache_hits": (float(sum(r.cached for r in records)), "count"),
            "pattern.sanitize_tree_s": (recorder.total("pattern.sanitize_tree"), "s"),
            "pattern.fit_s": (recorder.total("pattern.fit"), "s"),
            "pattern.rollout_s": (recorder.total("pattern.rollout"), "s"),
            "pattern.series": (counted.get("pattern.series", 0.0), "count"),
            "pattern.windows": (counted.get("pattern.windows", 0.0), "count"),
            "nn.make_windows_s": (recorder.total("nn.make_windows"), "s"),
            "nn.fit_s": (recorder.total("nn.fit"), "s"),
            "nn.steps": (float(step.count if step else 0), "count"),
            "nn.step_ms": (step.mean * 1e3 if step else 0.0, "ms"),
            "nn.forward_s": (recorder.total("nn.forward"), "s"),
            "nn.backward_s": (recorder.total("nn.backward"), "s"),
            "nn.optimizer_s": (recorder.total("nn.optimizer"), "s"),
            "nn.clip_s": (recorder.total("nn.clip"), "s"),
            "quantize.k_quantize_s": (recorder.total("quantize.k_quantize"), "s"),
            "quantize.partitions": (counted.get("quantize.partitions", 0.0), "count"),
            "sanitize.s": (recorder.total("sanitize.partitions"), "s"),
            "dp.charges": (float(sum(r.ledger_rows for r in traced.releases)), "count"),
            "dp.epsilon_spent": (sum(r.epsilon_spent for r in traced.releases), "eps"),
            "parallel.tasks": (counted.get("parallel.tasks", 0.0), "count"),
            "parallel.task_busy_s": (counted.get("parallel.task_busy_s", 0.0), "s"),
            "parallel.queue_wait_s": (counted.get("parallel.queue_wait_s", 0.0), "s"),
            "parallel.worker_busy_share": (
                counted.get("parallel.task_busy_s", 0.0) / capacity if capacity else 0.0,
                "share",
            ),
            "parallel.payload_mb": (counted.get("parallel.payload_bytes", 0.0) / 2**20, "MiB"),
            "parallel.merge_s": (recorder.total("parallel.merge"), "s"),
            "engine.build_ms": (server.mean("engine.build") * 1e3, "ms"),
            "engine.evaluate_many_us": (server.mean("engine.evaluate_many") * 1e6, "us"),
            "engine.rows_per_call": (
                server.counters.get("engine.rows", 0.0) / evaluate_calls
                if evaluate_calls else 0.0,
                "rows",
            ),
            "queries.evaluated": (counters.get("queries.evaluated", 0.0), "count"),
            "serve.parse_us": (server.mean("serve.parse") * 1e6, "us"),
            "serve.request_ms": (mean_of("serve.request.seconds", 1e3), "ms"),
            "serve.batch_size_mean": (mean_of("serve.batch.size", 1.0), "requests"),
            "serve.batch.evaluations": (counters.get("serve.batch.evaluations", 0.0), "count"),
            "serve.cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "share"),
            "serve.cache.loads": (counters.get("serve.cache.load", 0.0), "count"),
            "serve.cache.load_ms": (server.mean("serve.cache.get") * 1e3, "ms"),
            "serve.errors": (counters.get("serve.errors", 0.0), "count"),
            "loadgen.sent": (float(sum(s.verdict.sent for s in serve.steps)), "count"),
            "loadgen.failed": (float(sum(s.verdict.failed for s in serve.steps)), "count"),
            "loadgen.lag_p99_ms": (serve.lag_p99_ms or 0.0, "ms"),
            "serve.nominal_p99_ms": (serve.p99_ms or 0.0, "ms"),
            "trace.overhead_pct": ((traced.wall_s / untraced_s - 1.0) * 100.0, "%"),
            "trace.unattributed_s": (unattributed, "s"),
        }


def provenance(run: Run, trace: bool) -> dict:
    return {
        "commit": _commit(run.root),
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workers": publish_phase.SHARD_WORKERS if run.workload == "publish-sharded" else 1,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _commit(root: Path) -> str:
    """The checked-out commit when the checkout is a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
