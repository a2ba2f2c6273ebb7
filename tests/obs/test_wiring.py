"""Instrumentation wiring: pipeline, trainer, executor, query engine.

The contract under test is twofold. First, a live tracer sees the run:
one span per pipeline stage carrying its cache disposition and epsilon
delta, nested trainer spans, adopted fork-worker subtrees. Second —
and more important — tracing is strictly observational: running the
golden STPT publication under a live tracer must reproduce the frozen
goldens bit for bit.
"""

import numpy as np
import pytest

from repro.dp.budget import BudgetAccountant
from repro.obs import (
    Metrics,
    Tracer,
    get_metrics,
    traced,
    use_metrics,
    use_tracer,
)
from repro.obs.tracer import iter_children
from repro.parallel import execute, spawn_seed_sequences, task_generator
from repro.pipeline import ArtifactStore, Pipeline, Stage
from repro.queries.engine import QueryEngine

from tests.pipeline.test_determinism_golden import (
    assert_matches_goldens,
    publish,
)

STAGES = (
    "stpt/pattern-noise",
    "stpt/pattern-train",
    "stpt/quantize",
    "stpt/sanitize",
)


def noisy_scale(ctx, x):
    return x * (1.0 + ctx.rng.standard_normal())


def spend_epsilon(ctx, scaled):
    # Toy charged stage: the wiring tests need a debit and a draw, not
    # a calibrated mechanism.
    ctx.accountant.spend(0.5, "release")
    return scaled + ctx.rng.standard_normal()


def build_pipeline(store=None):
    return Pipeline(
        [
            Stage(
                name="scale",
                fn=noisy_scale,
                inputs=("x",),
                output="scaled",
                uses_rng=True,
            ),
            Stage(
                name="release",
                fn=spend_epsilon,
                inputs=("scaled",),
                output="released",
                spends_budget=True,
                uses_rng=True,
            ),
        ],
        store=store,
    )


def _pipeline_task(payload):
    """One toy pipeline run with its own accountant (an executor task)."""
    initial, seed = payload
    return build_pipeline().run(
        initial, rng=task_generator(seed), accountant=BudgetAccountant(1.0)
    )


def fan_out(initials, rng, workers=None):
    seeds = spawn_seed_sequences(rng, len(initials))
    return execute(
        _pipeline_task, list(zip(initials, seeds)), workers=workers
    ).values


@pytest.fixture(scope="module")
def traced_publish():
    """One golden publication run under a live tracer and registry."""
    tracer = Tracer()
    metrics = Metrics()
    with use_tracer(tracer), use_metrics(metrics):
        result = publish()
    return tracer, metrics, result


def stage_spans(tracer):
    return [s for s in tracer.spans if s.name == "pipeline.stage"]


class TestTracedPublication:
    def test_traced_run_is_bit_identical_to_goldens(self, traced_publish):
        _, _, result = traced_publish
        assert_matches_goldens(result)

    def test_one_span_per_stage_with_cache_attribute(self, traced_publish):
        tracer, _, _ = traced_publish
        spans = stage_spans(tracer)
        assert tuple(s.attributes["stage"] for s in spans) == STAGES
        assert all(
            s.attributes["cache"] in {"hit", "miss", "uncacheable"}
            for s in spans
        )

    def test_stage_epsilon_deltas_sum_to_accountant_total(
        self, traced_publish
    ):
        tracer, _, result = traced_publish
        deltas = [
            s.attributes["epsilon_spent"] for s in stage_spans(tracer)
        ]
        assert sum(deltas) == pytest.approx(result.epsilon_spent)
        assert sum(deltas) == pytest.approx(30.0)
        # Only the budget-spending stages debit anything.
        spent = {
            s.attributes["stage"]: s.attributes["epsilon_spent"]
            for s in stage_spans(tracer)
        }
        assert spent["stpt/pattern-noise"] == pytest.approx(10.0)
        assert spent["stpt/sanitize"] == pytest.approx(20.0)
        assert spent["stpt/pattern-train"] == 0.0
        assert spent["stpt/quantize"] == 0.0

    def test_stage_walls_fit_inside_the_pipeline_span(self, traced_publish):
        tracer, _, _ = traced_publish
        run = next(s for s in tracer.spans if s.name == "pipeline.run")
        stage_wall = sum(s.wall_seconds for s in stage_spans(tracer))
        assert stage_wall <= run.wall_seconds * 1.01 + 1e-6
        assert all(
            s.parent_id == run.span_id for s in stage_spans(tracer)
        )

    def test_publish_span_is_the_root(self, traced_publish):
        tracer, _, _ = traced_publish
        roots = list(iter_children(tracer.spans, None))
        assert [s.name for s in roots] == ["stpt.publish"]
        assert roots[0].attributes["epsilon_pattern"] == 10.0
        assert roots[0].attributes["epsilon_sanitize"] == 20.0

    def test_trainer_spans_nest_under_the_training_stage(
        self, traced_publish
    ):
        tracer, _, _ = traced_publish
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        (fit,) = by_name["nn.fit"]
        train = next(
            s for s in stage_spans(tracer)
            if s.attributes["stage"] == "stpt/pattern-train"
        )
        assert fit.parent_id == train.span_id
        assert fit.attributes["epochs"] == 2
        assert isinstance(fit.attributes["final_loss"], float)
        epochs = by_name["nn.epoch"]
        assert len(epochs) == 2
        assert all(e.parent_id == fit.span_id for e in epochs)
        assert all(e.attributes["loss"] > 0.0 for e in epochs)
        assert all(e.attributes["grad_norm"] >= 0.0 for e in epochs)

    def test_metrics_mirror_the_run(self, traced_publish):
        _, metrics, _ = traced_publish
        assert metrics.counter_value("dp.epsilon.spent") == pytest.approx(
            30.0
        )
        stage_seconds = metrics.histogram_value("pipeline.stage.seconds")
        assert stage_seconds.count == len(STAGES)
        steps = metrics.histogram_value("nn.step.seconds")
        assert steps.count > 0
        assert metrics.gauge_value("nn.epoch.loss") > 0.0
        assert metrics.gauge_value("nn.grad_norm") >= 0.0


class TestCacheDisposition:
    def test_warm_run_flips_attrs_and_counters(self):
        store = ArtifactStore()
        publish(store=store)
        tracer = Tracer()
        metrics = Metrics()
        with use_tracer(tracer), use_metrics(metrics):
            warm = publish(store=store)
        assert_matches_goldens(warm)
        cache = {
            s.attributes["stage"]: s.attributes["cache"]
            for s in stage_spans(tracer)
        }
        assert cache == {
            "stpt/pattern-noise": "uncacheable",
            "stpt/pattern-train": "hit",
            "stpt/quantize": "hit",
            "stpt/sanitize": "uncacheable",
        }
        assert metrics.counter_value("pipeline.cache.hit") == 2.0
        assert metrics.counter_value("pipeline.cache.miss") == 0.0
        # Replayed stages still report their epsilon as spent.
        assert metrics.counter_value("dp.epsilon.spent") == pytest.approx(
            30.0
        )


class TestResourceSnapshots:
    def test_stage_spans_carry_rss_when_asked(self):
        tracer = Tracer(resource=True)
        with use_tracer(tracer):
            build_pipeline().run(
                {"x": 1.0}, rng=0, accountant=BudgetAccountant(1.0)
            )
        for span in stage_spans(tracer):
            snapshot = span.attributes["resource"]
            assert snapshot["rss_bytes"] > 0
            assert len(snapshot["gc_counts"]) == 3

    def test_default_tracer_skips_the_snapshot(self):
        tracer = Tracer()
        with use_tracer(tracer):
            build_pipeline().run(
                {"x": 1.0}, rng=0, accountant=BudgetAccountant(1.0)
            )
        assert all(
            "resource" not in s.attributes for s in stage_spans(tracer)
        )


class TestExecutorSpans:
    def test_fork_workers_spool_spans_home(self):
        tracer = Tracer()
        with use_tracer(tracer), use_metrics(Metrics()):
            runs = fan_out([{"x": float(i)} for i in range(4)], rng=11, workers=2)
        assert len(runs) == 4
        run_span = next(
            s for s in tracer.spans if s.name == "parallel.run"
        )
        assert run_span.attributes["executor"] == "fork"
        tasks = [s for s in tracer.spans if s.name == "parallel.task"]
        assert len(tasks) == 4
        assert all(t.parent_id == run_span.span_id for t in tasks)
        assert all(t.worker.startswith("pid:") for t in tasks)
        # Each worker's pipeline subtree rides under its task span.
        for task in tasks:
            children = list(iter_children(tracer.spans, task.span_id))
            assert [c.name for c in children] == ["pipeline.run"]
            assert children[0].worker == task.worker
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids))

    def test_fork_worker_metrics_merge_into_parent(self):
        metrics = Metrics()
        with use_metrics(metrics):
            fan_out([{"x": 1.0}] * 3, rng=4, workers=2)
        assert metrics.counter_value("parallel.tasks") == 3.0
        assert metrics.counter_value("dp.epsilon.spent") == pytest.approx(
            1.5
        )
        queue = metrics.histogram_value("parallel.queue.seconds")
        assert queue.count == 3

    def test_serial_executor_spans_inline(self):
        tracer = Tracer()
        with use_tracer(tracer), use_metrics(Metrics()):
            fan_out([{"x": 1.0}] * 2, rng=2)
        run_span = next(
            s for s in tracer.spans if s.name == "parallel.run"
        )
        assert run_span.attributes["executor"] == "serial"
        tasks = [s for s in tracer.spans if s.name == "parallel.task"]
        assert [t.attributes["index"] for t in tasks] == [0, 1]

    def test_untraced_parallel_results_match_traced(self):
        initials = [{"x": float(i + 1)} for i in range(3)]
        plain = fan_out(initials, rng=6, workers=2)
        with use_tracer(Tracer()), use_metrics(Metrics()):
            under = fan_out(initials, rng=6, workers=2)
        assert [r.artifact("released") for r in plain] == [
            r.artifact("released") for r in under
        ]


class TestQueryCounters:
    def test_engine_counts_evaluations(self):
        engine = QueryEngine(np.ones((3, 3, 4)))
        metrics = Metrics()
        with use_metrics(metrics):
            bounds = np.array(
                [[0, 2, 0, 2, 0, 2], [1, 3, 1, 3, 0, 4]], dtype=np.intp
            )
            answers = engine.evaluate_many(bounds)
        assert answers.tolist() == [8.0, 16.0]
        assert metrics.counter_value("queries.evaluated") == 2.0


class TestTracedDecorator:
    def test_decorator_spans_each_call(self):
        @traced("helper.call", kind="test")
        def helper(x):
            return x + 1

        tracer = Tracer()
        with use_tracer(tracer):
            assert helper(1) == 2
            assert helper(2) == 3
        assert [s.name for s in tracer.spans] == [
            "helper.call", "helper.call"
        ]
        assert tracer.spans[0].attributes["kind"] == "test"

    def test_scoped_registries_restore_on_exit(self):
        outer = get_metrics()
        inner = Metrics()
        with use_metrics(inner):
            assert get_metrics() is inner
        assert get_metrics() is outer
