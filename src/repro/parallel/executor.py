"""Deterministic task execution: a process pool and its serial twin.

The contract both executors share:

* tasks are **self-contained** — a module-level function plus one
  picklable payload, no shared mutable state, no live generators;
* results come back **in submission order**, whatever order workers
  finished in;
* randomness enters only through seeds carried *inside* payloads
  (ints or :class:`numpy.random.SeedSequence` children, see
  :mod:`repro.parallel.seeds`), never through a generator captured in a
  closure or passed as a payload — lint rule RNG100 polices exactly this.

Under those rules a run with N workers is bit-identical to a run with
one worker: the serial executor is not a degraded mode but the
executable specification of what the pool must reproduce, and the
tier-1 determinism tests assert the equality instead of hoping for it.

Every task also yields a :class:`TaskRecord` — which worker ran it, how
long it sat in the queue and how long it executed — so parallel sweeps
can report scheduling behaviour the same way pipelines report per-stage
wall time.
"""

from __future__ import annotations

import builtins
import os
import shutil
import tempfile
import time
import warnings as _warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pickle import PicklingError
from typing import Any, Callable, Sequence

from repro.exceptions import ConfigurationError
from repro.obs import (
    Metrics,
    Tracer,
    get_metrics,
    get_tracer,
    merge_spool,
    spool_path,
    use_metrics,
    use_tracer,
    write_spool,
)


@dataclass(frozen=True)
class TaskRecord:
    """Scheduling bookkeeping for one executed task."""

    index: int                 #: position in the submitted payload list
    label: str                 #: human-readable task label
    worker: str                #: ``"serial"`` or ``"pid:<n>"``
    queued_seconds: float      #: submit -> execution start
    seconds: float             #: execution start -> done
    #: warning messages the task emitted; fork workers cannot surface
    #: ``warnings.warn`` to the parent interpreter, so the executor
    #: captures them, ships them home and re-emits them (see
    #: ``docs/parallel.md``)
    warnings: tuple[str, ...] = ()


@dataclass
class ExecutionResult:
    """Ordered task values plus their scheduling records."""

    values: list[Any]
    tasks: list[TaskRecord] = field(default_factory=list)
    workers: int = 1

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def queued_seconds(self) -> float:
        return sum(task.queued_seconds for task in self.tasks)

    @property
    def busy_seconds(self) -> float:
        return sum(task.seconds for task in self.tasks)


def _instrumented(
    item: tuple[Callable[[Any], Any], Any, str | None],
) -> tuple[Any, str, float, float, tuple[tuple[str, str], ...], dict[str, Any]]:
    """Run one task and report who ran it and when (worker side).

    The task body runs under a fresh :class:`~repro.obs.metrics.Metrics`
    registry whose snapshot travels back with the result (fork workers
    cannot mutate the parent's registry), and — when the parent traces —
    under a fresh :class:`~repro.obs.tracer.Tracer` whose spans are
    spooled to ``spool`` for the parent to adopt. Warnings are captured
    as ``(category_name, message)`` pairs; the parent re-emits them.
    """
    fn, payload, spool = item
    metrics = Metrics()
    started = time.monotonic()
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        with use_metrics(metrics):
            if spool is not None:
                tracer = Tracer()
                with use_tracer(tracer):
                    with tracer.span("parallel.task"):
                        value = fn(payload)
                write_spool(spool, tracer.spans, metrics)
            else:
                value = fn(payload)
    notes = tuple(
        (entry.category.__name__, str(entry.message)) for entry in caught
    )
    return (
        value,
        f"pid:{os.getpid()}",
        started,
        time.monotonic(),
        notes,
        metrics.as_dict(),
    )


def _reemit(notes: tuple[tuple[str, str], ...]) -> tuple[str, ...]:
    """Replay captured worker warnings in the parent interpreter."""
    messages = []
    for category_name, message in notes:
        category = getattr(builtins, category_name, RuntimeWarning)
        if not (isinstance(category, type) and issubclass(category, Warning)):
            category = RuntimeWarning
        _warnings.warn(message, category, stacklevel=3)
        messages.append(message)
    return tuple(messages)


class SerialExecutor:
    """In-process executor: the reference semantics of the pool.

    Used whenever ``workers`` is 0, 1 or None — and in tests as the
    ground truth the :class:`ParallelExecutor` must match bit-for-bit.
    """

    workers = 1

    def run(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        labels: Sequence[str] | None = None,
    ) -> ExecutionResult:
        labels = _check_labels(payloads, labels)
        tracer = get_tracer()
        metrics = get_metrics()
        values: list[Any] = []
        tasks: list[TaskRecord] = []
        with tracer.span(
            "parallel.run", executor="serial", tasks=len(payloads), workers=1
        ):
            for index, payload in enumerate(payloads):
                started = time.monotonic()
                with _warnings.catch_warnings(record=True) as caught:
                    _warnings.simplefilter("always")
                    with tracer.span(
                        "parallel.task", index=index, label=labels[index]
                    ):
                        values.append(fn(payload))
                notes = tuple(
                    (entry.category.__name__, str(entry.message))
                    for entry in caught
                )
                seconds = time.monotonic() - started
                metrics.counter("parallel.tasks")
                metrics.histogram("parallel.queue.seconds", 0.0)
                tasks.append(
                    TaskRecord(
                        index=index,
                        label=labels[index],
                        worker="serial",
                        queued_seconds=0.0,
                        seconds=seconds,
                        warnings=_reemit(notes),
                    )
                )
        return ExecutionResult(values=values, tasks=tasks, workers=1)


class ParallelExecutor:
    """Process-pool executor with the serial executor's semantics.

    Tasks are dispatched to a :class:`concurrent.futures.ProcessPoolExecutor`
    (fork start method where available — cheap on Linux, and payloads
    still travel by pickle so nothing depends on inherited state) and
    results are collected **in submission order**. The pool holds
    ``min(workers, tasks)`` processes; :attr:`ExecutionResult.workers`
    reports the configured ``workers``.
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ConfigurationError(
                f"ParallelExecutor needs at least 2 workers, got {workers}; "
                "use SerialExecutor (workers=1) for in-process execution"
            )
        self.workers = int(workers)

    def run(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        labels: Sequence[str] | None = None,
    ) -> ExecutionResult:
        labels = _check_labels(payloads, labels)
        if not payloads:
            return ExecutionResult(values=[], tasks=[], workers=self.workers)
        tracer = get_tracer()
        metrics = get_metrics()
        spool_dir = (
            tempfile.mkdtemp(prefix="repro-obs-spool-")
            if tracer.enabled
            else None
        )
        submitted: list[float] = []
        try:
            with tracer.span(
                "parallel.run",
                executor="fork",
                tasks=len(payloads),
                workers=self.workers,
            ):
                # A fork pool starts all of its processes at the first
                # submit, so never size it beyond the task count.
                with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(payloads)),
                    mp_context=_mp_context(),
                ) as pool:
                    try:
                        futures = []
                        for index, payload in enumerate(payloads):
                            spool = (
                                str(spool_path(spool_dir, index))
                                if spool_dir is not None
                                else None
                            )
                            submitted.append(time.monotonic())
                            futures.append(
                                pool.submit(_instrumented, (fn, payload, spool))
                            )
                        raw = [future.result() for future in futures]
                    except (PicklingError, AttributeError) as error:
                        raise ConfigurationError(
                            "parallel task is not self-contained: the "
                            "function and its payload must be picklable "
                            f"module-level objects ({error})"
                        ) from error
                parent_id = tracer.current_span_id if tracer.enabled else None
                values: list[Any] = []
                tasks: list[TaskRecord] = []
                for index, item in enumerate(raw):
                    value, worker, started, ended, notes, task_metrics = item
                    values.append(value)
                    queued = max(0.0, started - submitted[index])
                    # Fold the worker's registry snapshot into the live
                    # one; the spool file carries the same snapshot for
                    # standalone inspection, so merge_spool gets a
                    # throwaway registry to avoid double counting.
                    metrics.merge(Metrics.from_dict(task_metrics))
                    metrics.counter("parallel.tasks")
                    metrics.histogram("parallel.queue.seconds", queued)
                    if spool_dir is not None:
                        merge_spool(
                            spool_path(spool_dir, index),
                            tracer,
                            Metrics(),
                            parent_id=parent_id,
                            worker=worker,
                        )
                    tasks.append(
                        TaskRecord(
                            index=index,
                            label=labels[index],
                            # CLOCK_MONOTONIC is system-wide on Linux;
                            # clamp for platforms where child clocks are
                            # not comparable.
                            worker=worker,
                            queued_seconds=queued,
                            seconds=max(0.0, ended - started),
                            warnings=_reemit(notes),
                        )
                    )
        finally:
            if spool_dir is not None:
                shutil.rmtree(spool_dir, ignore_errors=True)
        return ExecutionResult(values=values, tasks=tasks, workers=self.workers)


def _mp_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix platforms
        return multiprocessing.get_context()


def _check_labels(
    payloads: Sequence[Any], labels: Sequence[str] | None
) -> list[str]:
    if labels is None:
        return [f"task[{i}]" for i in range(len(payloads))]
    labels = [str(label) for label in labels]
    if len(labels) != len(payloads):
        raise ConfigurationError(
            f"{len(payloads)} payload(s) but {len(labels)} label(s)"
        )
    return labels


def get_executor(workers: int | None) -> SerialExecutor | ParallelExecutor:
    """Executor for a ``workers=`` argument: serial for None/0/1."""
    if workers is None or workers in (0, 1):
        return SerialExecutor()
    if workers < 0:
        raise ConfigurationError(f"workers must be non-negative, got {workers}")
    return ParallelExecutor(workers)


def execute(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    workers: int | None = None,
    labels: Sequence[str] | None = None,
) -> ExecutionResult:
    """One-shot helper: pick an executor for ``workers`` and run."""
    return get_executor(workers).run(fn, payloads, labels=labels)


__all__ = [
    "ExecutionResult",
    "ParallelExecutor",
    "SerialExecutor",
    "TaskRecord",
    "execute",
    "get_executor",
]
