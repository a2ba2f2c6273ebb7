"""Benchmark-side spans around the program's layer entry points.

Only the traced run installs these wrappers; the untraced run that
produces the end-to-end metrics never does. A wrapper opens one span
per call on a per-thread stack. A span's *self* time is its duration
minus the durations of the spans it directly contains, and spans
aggregate by name path into a :class:`Recorder` tree.

Fork workers inherit the wrappers. The wrapped ``execute`` hands each
task body to :class:`TracedTask`, which empties the worker's inherited
recorder, runs the body under a ``parallel.task`` span and writes the
worker's tree to one spool file per task. The parent reads those files
back under its ``parallel.execute`` span. Worker spans ran concurrently
with the parent, so their durations are not subtracted from its self
time.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable

#: The recorder the installed wrappers write to. Module-level on
#: purpose: :class:`TracedTask` is pickled by reference into fork
#: workers and finds the inherited recorder here.
_ACTIVE: "Recorder | None" = None


class Recorder:
    """Per-process span tree: name path -> [calls, total_s, self_s]."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.tree: dict[tuple[str, ...], list[float]] = {}
        self.counters: dict[str, float] = {}

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_path(self) -> tuple[str, ...]:
        stack = self._stack()
        return stack[-1][0] if stack else ()

    def enter(self, name: str) -> None:
        stack = self._stack()
        path = (stack[-1][0] if stack else ()) + (name,)
        stack.append([path, time.perf_counter(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration in seconds."""
        ended = time.perf_counter()
        stack = self._stack()
        path, started, children = stack.pop()
        duration = ended - started
        if stack:
            stack[-1][2] += duration
        self.add(path, 1, duration, duration - children)
        return duration

    def add(
        self, path: tuple[str, ...], calls: float, total: float, own: float
    ) -> None:
        with self._lock:
            node = self.tree.setdefault(path, [0, 0.0, 0.0])
            node[0] += calls
            node[1] += total
            node[2] += own

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def reset(self) -> None:
        with self._lock:
            self.tree.clear()
            self.counters.clear()
        self._local = threading.local()

    # -- export / import ----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "tree": [[list(path), *node] for path, node in self.tree.items()],
                "counters": dict(self.counters),
            }

    def absorb(self, snapshot: dict[str, Any], prefix: tuple[str, ...] = ()) -> None:
        """Fold another process's snapshot in, under ``prefix``."""
        for path, calls, total, own in snapshot["tree"]:
            self.add(prefix + tuple(path), calls, total, own)
        for name, value in snapshot["counters"].items():
            self.count(name, value)

    # -- queries ------------------------------------------------------

    def _nodes(self, name: str) -> list[list[float]]:
        with self._lock:
            return [node for path, node in self.tree.items() if path[-1] == name]

    def calls(self, name: str) -> int:
        return int(sum(node[0] for node in self._nodes(name)))

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``, at any depth.

        No span here nests inside another of the same name, so no time
        is counted twice.
        """
        return sum(node[1] for node in self._nodes(name))

    def self_time(self, name: str) -> float:
        return sum(node[2] for node in self._nodes(name))

    def mean(self, name: str) -> float:
        calls = self.calls(name)
        return self.total(name) / calls if calls else 0.0

    def render(self) -> str:
        """The tree as indented text: calls, total and self seconds."""
        with self._lock:
            rows = sorted(self.tree.items())
        lines = [f"{'span':<56} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
        for path, (calls, total, own) in rows:
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(f"{label:<56} {int(calls):>8} {total:>10.4f} {own:>10.4f}")
        return "\n".join(lines)


class TracedTask:
    """Picklable wrapper that runs one executor task under a span.

    In a fork worker it starts from an empty recorder and spools the
    worker's tree to ``spool_dir``; in the recording process itself
    (the serial executor) the span nests under the caller's.
    """

    def __init__(self, fn: Callable[[Any], Any], spool_dir: str, tag: str) -> None:
        self.fn = fn
        self.spool_dir = spool_dir
        self.tag = tag

    def __call__(self, payload: Any) -> Any:
        recorder = _ACTIVE
        if recorder is None:
            return self.fn(payload)
        forked = os.getpid() != recorder.pid
        if forked:
            recorder.reset()
        recorder.enter("parallel.task")
        try:
            return self.fn(payload)
        finally:
            recorder.exit()
            if forked:
                name = f"{self.tag}-{uuid.uuid4().hex}.json"
                Path(self.spool_dir, name).write_text(
                    json.dumps(recorder.snapshot())
                )
                recorder.reset()


class Tracing:
    """Installed wrappers and the recorder they write to.

    Use as a context manager: leaving it restores every patched
    attribute, so a call after it runs the original code.
    """

    def __init__(self, spool_dir: str | os.PathLike) -> None:
        self.recorder = Recorder()
        self.spool_dir = Path(spool_dir)
        self._patches: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracing":
        global _ACTIVE
        _ACTIVE = self.recorder
        return self

    def __exit__(self, *exc_info: Any) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[[Recorder, tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def traced(*args, **kwargs):
            recorder.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.exit()
            if after is not None:
                after(recorder, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    # -- publish-side layers -------------------------------------------

    def install_publish(self) -> None:
        from repro.core import pattern, stpt
        from repro.dp.budget import BudgetAccountant
        from repro.nn import models, optimizers, training
        from repro.pipeline import Pipeline

        def count_windows(recorder, args, result):
            recorder.count("pattern.series", len(args[0]))
            recorder.count("pattern.windows", len(result[0]))

        def count_partitions(recorder, args, result):
            recorder.count("quantize.partitions", result.n_partitions)

        self.wrap(stpt.STPT, "publish", "stpt.publish")
        self.wrap(Pipeline, "run", "pipeline.run")
        self.wrap(pattern.PatternRecognizer, "sanitize_tree", "pattern.sanitize_tree")
        self.wrap(pattern.PatternRecognizer, "fit_sanitized", "pattern.fit")
        self.wrap(pattern.PatternRecognizer, "generate", "pattern.rollout")
        self.wrap(pattern, "make_windows", "nn.make_windows", after=count_windows)
        self.wrap(training.Trainer, "fit", "nn.fit")
        for cls in _subclasses(models.SequenceForecaster):
            for attr in ("forward", "backward"):
                if attr in vars(cls):
                    self.wrap(cls, attr, f"nn.{attr}")
        self.wrap(optimizers.RMSProp, "step", "nn.optimizer")
        self.wrap(training, "clip_grad_norm", "nn.clip")
        self.wrap(optimizers.Optimizer, "clip_grad_norm", "nn.clip")
        self.wrap(stpt, "k_quantize", "quantize.k_quantize", after=count_partitions)
        self.wrap(stpt, "sanitize_by_partitions", "sanitize.partitions")
        self.wrap(BudgetAccountant, "merge", "parallel.merge")
        self.wrap(stpt, "tile_shards", "parallel.merge")
        self._wrap_execute(stpt)

    def _wrap_execute(self, module: Any) -> None:
        original = module.execute
        recorder = self.recorder
        spool_dir = self.spool_dir

        @functools.wraps(original)
        def traced(fn, payloads, workers=None, labels=None):
            # Pickled sizes are measured outside the span, so measuring
            # them lands in no layer's self time.
            recorder.count(
                "parallel.payload_bytes",
                sum(len(pickle.dumps(p, pickle.HIGHEST_PROTOCOL)) for p in payloads),
            )
            tag = uuid.uuid4().hex
            recorder.enter("parallel.execute")
            prefix = recorder.current_path()
            try:
                executed = original(
                    TracedTask(fn, str(spool_dir), tag),
                    payloads,
                    workers=workers,
                    labels=labels,
                )
            finally:
                wall = recorder.exit()
            recorder.count(
                "parallel.payload_bytes",
                len(pickle.dumps(executed.values, pickle.HIGHEST_PROTOCOL)),
            )
            recorder.count("parallel.tasks", len(executed.tasks))
            recorder.count("parallel.task_busy_s", executed.busy_seconds)
            recorder.count("parallel.queue_wait_s", executed.queued_seconds)
            recorder.count("parallel.capacity_s", wall * executed.workers)
            for spool in sorted(spool_dir.glob(f"{tag}-*.json")):
                recorder.absorb(json.loads(spool.read_text()), prefix)
                spool.unlink()
            return executed

        self._patches.append((module, "execute", original))
        module.execute = traced

    # -- serve-side layers ---------------------------------------------

    def install_serve(self) -> None:
        from repro.queries.engine import QueryEngine
        from repro.serve import cache, server

        def count_rows(recorder, args, result):
            recorder.count("engine.rows", len(result))

        self.wrap(QueryEngine, "__init__", "engine.build")
        self.wrap(QueryEngine, "evaluate_many", "engine.evaluate_many", after=count_rows)
        self.wrap(server, "parse_query_request", "serve.parse")
        self.wrap(cache.ReleaseCache, "get", "serve.cache.get")


def _subclasses(base: type) -> list[type]:
    found = []
    for cls in base.__subclasses__():
        found.append(cls)
        found.extend(_subclasses(cls))
    return found
