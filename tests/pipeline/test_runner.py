"""Pipeline execution: wiring, caching semantics, rng replay, accounting."""

import numpy as np
import pytest

from repro.dp.budget import BudgetAccountant
from repro.exceptions import ConfigurationError
from repro.parallel import TaskRecord
from repro.pipeline import ArtifactStore, Pipeline, RunRecord, Stage, stamp_task


def double(ctx, x):
    return x * 2.0


def make_double_stage(config=None):
    return Stage(
        name="double",
        fn=double,
        inputs=("x",),
        output="doubled",
        config=dict(config or {}),
    )


class TestWiring:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigurationError):
            Pipeline([])

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Pipeline([make_double_stage(), make_double_stage()])

    def test_missing_input_artifact(self):
        run = Pipeline([make_double_stage()])
        with pytest.raises(ConfigurationError, match="missing input"):
            run.run(initial={"y": 1.0})

    def test_artifact_lookup(self):
        run = Pipeline([make_double_stage()]).run(initial={"x": 3.0})
        assert run.artifact("doubled") == 6.0
        with pytest.raises(ConfigurationError):
            run.artifact("nope")
        assert run.record("double").stage == "double"
        with pytest.raises(ConfigurationError):
            run.record("nope")

    def test_stage_rngs_for_unknown_stage_rejected(self):
        pipeline = Pipeline([make_double_stage()])
        with pytest.raises(ConfigurationError, match="unknown stage"):
            pipeline.run(initial={"x": 1.0}, stage_rngs={"ghost": 7})

    def test_records_measure_time(self):
        run = Pipeline([make_double_stage()]).run(initial={"x": 1.0})
        record = run.record("double")
        assert record.seconds >= 0.0
        assert run.seconds == sum(r.seconds for r in run.records)


class TestCaching:
    def test_hit_returns_equal_array(self):
        store = ArtifactStore()
        values = np.linspace(0.0, 5.0, 11)
        pipeline = Pipeline([make_double_stage()], store=store)

        cold = pipeline.run(initial={"x": values})
        assert not cold.record("double").cached
        warm = pipeline.run(initial={"x": values})
        assert warm.record("double").cached
        assert np.array_equal(cold.artifact("doubled"), warm.artifact("doubled"))

    def test_changed_config_misses(self):
        store = ArtifactStore()
        values = np.ones(4)
        Pipeline([make_double_stage({"epsilon": 1.0})], store=store).run(
            initial={"x": values}
        )
        warm = Pipeline([make_double_stage({"epsilon": 2.0})], store=store).run(
            initial={"x": values}
        )
        assert not warm.record("double").cached

    def test_changed_input_misses(self):
        store = ArtifactStore()
        pipeline = Pipeline([make_double_stage()], store=store)
        pipeline.run(initial={"x": np.ones(4)})
        warm = pipeline.run(initial={"x": np.zeros(4)})
        assert not warm.record("double").cached

    def test_no_store_never_caches(self):
        pipeline = Pipeline([make_double_stage()])
        first = pipeline.run(initial={"x": np.ones(4)})
        second = pipeline.run(initial={"x": np.ones(4)})
        assert not first.record("double").cached
        assert not second.record("double").cached
        assert first.record("double").artifact_key is None


class TestRngReplay:
    """A hit on a stochastic cacheable stage must leave the generator
    exactly where a real execution would have, so downstream noise draws
    are bit-identical between cold and warm runs."""

    @staticmethod
    def build(store):
        def shuffle(ctx, x):
            out = np.array(x, copy=True)
            ctx.rng.shuffle(out)
            return out

        def add_noise(ctx, shuffled):
            return shuffled + ctx.rng.standard_normal(shuffled.shape)

        return Pipeline(
            [
                Stage(
                    name="shuffle",
                    fn=shuffle,
                    inputs=("x",),
                    output="shuffled",
                    uses_rng=True,
                ),
                Stage(
                    name="noise",
                    fn=add_noise,
                    inputs=("shuffled",),
                    output="noisy",
                    uses_rng=True,
                    spends_budget=True,
                ),
            ],
            store=store,
        )

    def test_warm_run_is_bit_identical(self):
        store = ArtifactStore()
        values = np.arange(16.0)

        cold = self.build(store).run(initial={"x": values}, rng=42)
        warm = self.build(store).run(initial={"x": values}, rng=42)

        assert not cold.record("shuffle").cached
        assert warm.record("shuffle").cached
        # the budget-spending stage re-ran both times...
        assert not cold.record("noise").cached
        assert not warm.record("noise").cached
        # ...but drew identical noise because the hit fast-forwarded rng
        assert np.array_equal(cold.artifact("noisy"), warm.artifact("noisy"))

    def test_different_rng_misses(self):
        store = ArtifactStore()
        values = np.arange(16.0)
        self.build(store).run(initial={"x": values}, rng=42)
        warm = self.build(store).run(initial={"x": values}, rng=43)
        assert not warm.record("shuffle").cached

    def test_stage_rngs_override_pins_a_stage(self):
        store = ArtifactStore()
        values = np.arange(16.0)
        first = self.build(store).run(
            initial={"x": values}, rng=1, stage_rngs={"shuffle": 7}
        )
        second = self.build(store).run(
            initial={"x": values}, rng=2, stage_rngs={"shuffle": 7}
        )
        # the pinned stage replays even though the pipeline rng differs
        assert second.record("shuffle").cached
        assert np.array_equal(
            first.artifact("shuffled"), second.artifact("shuffled")
        )
        # while the un-pinned noisy stage draws from independent streams
        assert not np.array_equal(
            first.artifact("noisy"), second.artifact("noisy")
        )


class TestAccounting:
    def test_epsilon_deltas_recorded_per_stage(self):
        def spend_two(ctx, x):
            ctx.accountant.spend(2.0, label="a")
            return x

        def free(ctx, spent):
            return spent

        def spend_three(ctx, kept):
            ctx.accountant.spend(3.0, label="b")
            return kept

        pipeline = Pipeline(
            [
                Stage(name="a", fn=spend_two, inputs=("x",), output="spent",
                      spends_budget=True),
                Stage(name="mid", fn=free, inputs=("spent",), output="kept"),
                Stage(name="b", fn=spend_three, inputs=("kept",), output="out",
                      spends_budget=True),
            ]
        )
        accountant = BudgetAccountant(total_epsilon=10.0)
        run = pipeline.run(initial={"x": 1.0}, accountant=accountant)
        assert run.record("a").epsilon_spent == 2.0
        assert run.record("mid").epsilon_spent == 0.0
        assert run.record("b").epsilon_spent == 3.0
        assert run.epsilon_spent == 5.0
        assert accountant.spent_epsilon == 5.0

    def test_run_without_accountant(self):
        run = Pipeline([make_double_stage()]).run(initial={"x": 1.0})
        assert run.epsilon_spent == 0.0
        assert run.accountant is None


class TestStampTask:
    def test_every_record_gets_the_worker_and_the_first_the_queue_wait(self):
        records = [
            RunRecord(stage=name, seconds=1.0, epsilon_spent=0.0,
                      spends_budget=False, cached=False)
            for name in ("a", "b", "c")
        ]
        task = TaskRecord(index=0, label="t", worker="pid:7",
                          queued_seconds=0.25, seconds=3.0)
        stamped = stamp_task(iter(records), task)
        assert [r.worker for r in stamped] == ["pid:7"] * 3
        assert [r.queued_seconds for r in stamped] == [0.25, 0.0, 0.0]
        assert [r.stage for r in stamped] == ["a", "b", "c"]
        assert stamp_task([], task) == []
