"""Executor contract: ordering, determinism, records, error wrapping."""

import os

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.parallel import (
    ExecutionResult,
    ParallelExecutor,
    SerialExecutor,
    execute,
    get_executor,
    spawn_seed_sequences,
    task_generator,
)


def square(x):
    return x * x


def draw_normals(seed_sequence):
    return task_generator(seed_sequence).standard_normal(4)


class TestGetExecutor:
    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_for_small_worker_counts(self, workers):
        assert isinstance(get_executor(workers), SerialExecutor)

    def test_parallel_for_two_plus(self):
        executor = get_executor(3)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 3

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            get_executor(-1)

    def test_parallel_executor_needs_two_workers(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(1)


class TestSerialExecutor:
    def test_values_in_submission_order(self):
        result = SerialExecutor().run(square, [3, 1, 2])
        assert result.values == [9, 1, 4]
        assert len(result) == 3
        assert list(result) == [9, 1, 4]

    def test_task_records(self):
        result = SerialExecutor().run(square, [2, 5], labels=["a", "b"])
        assert [task.label for task in result.tasks] == ["a", "b"]
        assert [task.index for task in result.tasks] == [0, 1]
        assert all(task.worker == "serial" for task in result.tasks)
        assert all(task.queued_seconds == 0.0 for task in result.tasks)
        assert result.busy_seconds >= 0.0

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SerialExecutor().run(square, [1, 2], labels=["only-one"])

    def test_empty_payloads(self):
        result = SerialExecutor().run(square, [])
        assert result.values == []
        assert result.tasks == []


class TestParallelExecutor:
    def test_empty_payloads_skip_pool(self):
        result = ParallelExecutor(2).run(square, [])
        assert result.values == []
        assert result.workers == 2

    def test_matches_serial_bit_for_bit(self):
        seeds = spawn_seed_sequences(np.random.default_rng(7), 6)
        serial = SerialExecutor().run(draw_normals, seeds)
        parallel = ParallelExecutor(2).run(draw_normals, seeds)
        assert len(parallel) == len(serial)
        for fast, slow in zip(parallel.values, serial.values):
            assert np.array_equal(fast, slow)

    def test_results_in_submission_order(self):
        result = ParallelExecutor(2).run(square, list(range(8)))
        assert result.values == [x * x for x in range(8)]

    def test_worker_ids_are_pids(self):
        result = ParallelExecutor(2).run(square, [1, 2, 3, 4])
        for task in result.tasks:
            assert task.worker.startswith("pid:")
            assert task.worker != f"pid:{os.getpid()}"
            assert task.seconds >= 0.0
            assert task.queued_seconds >= 0.0

    def test_unpicklable_task_is_configuration_error(self):
        captured = np.random.default_rng(0)

        def closure(x):  # pragma: no cover - never actually runs
            return captured.random() + x

        with pytest.raises(ConfigurationError, match="self-contained"):
            ParallelExecutor(2).run(closure, [1.0])  # lint: disable=RNG100 -- deliberately submits a generator-capturing closure to assert the pickling error


class TestExecuteHelper:
    def test_execute_serial_and_parallel_agree(self):
        payloads = [1, 2, 3, 4, 5]
        serial = execute(square, payloads, workers=None)
        parallel = execute(square, payloads, workers=2)
        assert serial.values == parallel.values
        assert isinstance(serial, ExecutionResult)


class TestSpawnSeedSequences:
    def test_consumes_exactly_one_draw(self):
        a = np.random.default_rng(11)
        b = np.random.default_rng(11)
        spawn_seed_sequences(a, 5)
        spawn_seed_sequences(b, 50)
        # Same generator position afterwards regardless of task count.
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_children_depend_only_on_root(self):
        first = spawn_seed_sequences(np.random.default_rng(11), 4)
        second = spawn_seed_sequences(np.random.default_rng(11), 4)
        for left, right in zip(first, second):
            assert np.array_equal(
                task_generator(left).random(8), task_generator(right).random(8)
            )

    def test_children_are_distinct_streams(self):
        children = spawn_seed_sequences(np.random.default_rng(11), 3)
        draws = [task_generator(child).random(8) for child in children]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(np.random.default_rng(0), -1)
