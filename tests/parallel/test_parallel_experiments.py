"""Parallel experiment drivers are bit-identical to their serial twins.

These are tier-1 determinism tests: a 2-worker mini-sweep on the tiny
context must reproduce the serial sweep bit for bit — same sanitized
matrices, same MREs, same budget accounting. If they diverge, a live
generator leaked across the process boundary or seeds were derived
after dispatch.
"""

import numpy as np

from repro.baselines import standard_benchmarks
from repro.experiments.harness import (
    run_mechanism,
    run_mechanisms,
    run_stpt_many,
    run_stpt_sweep,
)
from repro.obs import Metrics, Tracer, use_metrics, use_tracer
from repro.pipeline import ArtifactStore


def traced_sweep(context, configs, workers):
    """The sweep's results and the number of tasks it submitted."""
    tracer = Tracer()
    with use_tracer(tracer), use_metrics(Metrics()):
        results = run_stpt_sweep(context, configs, rng=77, workers=workers)
    [run_span] = [span for span in tracer.spans if span.name == "parallel.run"]
    return results, run_span.attributes["tasks"]


def sweep_configs(context, epsilons=(5.0, 20.0)):
    return [
        context.preset.stpt_config(epsilon_sanitize=eps) for eps in epsilons
    ]


class TestParallelSweepDeterminism:
    def test_two_worker_sweep_bit_identical_to_serial(self, tiny_context):
        configs = sweep_configs(tiny_context)
        serial = run_stpt_sweep(tiny_context, configs, rng=77)
        parallel = run_stpt_sweep(tiny_context, configs, rng=77, workers=2)
        assert len(serial) == len(parallel) == len(configs)
        for (ser, ser_mre), (par, par_mre) in zip(serial, parallel):
            np.testing.assert_array_equal(
                ser.sanitized.values, par.sanitized.values
            )
            np.testing.assert_array_equal(
                ser.pattern_matrix, par.pattern_matrix
            )
            assert ser.epsilon_spent == par.epsilon_spent
            assert ser_mre == par_mre

    def test_two_worker_sweep_fits_the_shared_pattern_once(self, tiny_context):
        # Without a disk tier a fork worker's store starts empty, so the
        # points sharing a pattern phase must share one task.
        configs = sweep_configs(tiny_context, epsilons=(2.0, 5.0, 10.0, 20.0))
        serial = run_stpt_sweep(tiny_context, configs, rng=77)
        parallel, tasks = traced_sweep(tiny_context, configs, workers=2)
        assert tasks == 1

        def cached(results):
            return [
                [(record.stage, record.cached) for record in result.records]
                for result, __ in results
            ]

        assert cached(parallel) == cached(serial)
        assert [
            dict(point)["stpt/pattern-train"] for point in cached(parallel)
        ] == [False, True, True, True]
        for (ser, __), (par, __) in zip(serial, parallel):
            assert ser.sanitized.values.tobytes() == par.sanitized.values.tobytes()

    def test_distinct_pattern_phases_fan_out(self, tiny_context):
        configs = [
            tiny_context.preset.stpt_config(epsilon_pattern=eps)
            for eps in (5.0, 10.0)
        ]
        serial = run_stpt_sweep(tiny_context, configs, rng=77)
        parallel, tasks = traced_sweep(tiny_context, configs, workers=2)
        assert tasks == 2
        for (ser, __), (par, __) in zip(serial, parallel):
            assert ser.sanitized.values.tobytes() == par.sanitized.values.tobytes()

    def test_parallel_records_carry_worker_ids(self, tiny_context):
        configs = sweep_configs(tiny_context, epsilons=(10.0,))
        [(result, __)] = run_stpt_sweep(
            tiny_context, configs, rng=77, workers=2
        )
        assert result.records
        assert all(
            record.worker and record.worker.startswith("pid:")
            for record in result.records
        )
        assert result.records[0].queued_seconds >= 0.0

    def test_parallel_sweep_shares_disk_cache(self, tiny_context, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        configs = sweep_configs(tiny_context)
        run_stpt_sweep(tiny_context, configs, rng=77, store=store, workers=2)
        # The workers persisted the cacheable stages to the shared disk
        # tier; a serial re-run replays the pattern training from it.
        serial = run_stpt_sweep(tiny_context, configs, rng=77, store=store)
        cached = {
            record.stage: record.cached
            for record in serial[0][0].records
        }
        assert cached["stpt/pattern-train"]
        # DP stages never land in the cache, parallel or not.
        assert not cached["stpt/sanitize"]
        assert not cached["stpt/pattern-noise"]


class TestRunStptManyDeterminism:
    def test_parallel_matches_serial(self, tiny_context):
        configs = sweep_configs(tiny_context)
        serial = run_stpt_many(tiny_context, configs, rng=31)
        parallel = run_stpt_many(tiny_context, configs, rng=31, workers=2)
        for (ser, ser_mre), (par, par_mre) in zip(serial, parallel):
            np.testing.assert_array_equal(
                ser.sanitized.values, par.sanitized.values
            )
            assert ser_mre == par_mre


class TestRunMechanismsDeterminism:
    def test_parallel_matches_serial_loop(self, tiny_context):
        mechanisms = standard_benchmarks()[:3]
        looped = []
        rng = np.random.default_rng(13)
        from repro.rng import derive_seed

        for mechanism in mechanisms:
            looped.append(
                run_mechanism(tiny_context, mechanism, rng=derive_seed(rng))
            )
        fanned = run_mechanisms(
            tiny_context, mechanisms, rng=np.random.default_rng(13), workers=2
        )
        for (loop_mre, __), (fan_mre, fan_elapsed) in zip(looped, fanned):
            assert loop_mre == fan_mre
            assert fan_elapsed >= 0.0
