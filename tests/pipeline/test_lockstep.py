"""``Pipeline.run_lockstep``: several runs, stage by stage, kept apart.

A lockstep execution must leave every run exactly as its own
``Pipeline.run`` would: the same artifacts, cache dispositions,
generator positions, ε and records. The one thing runs share is a
``batched`` stage's call, which sees only the runs that missed the
cache and splits its wall time between them.
"""

import time

import numpy as np
import pytest

from repro.dp.budget import BudgetAccountant
from repro.exceptions import ConfigurationError
from repro.pipeline import ArtifactStore, Pipeline, Stage


def jitter(ctx, x):
    return x + ctx.rng.standard_normal(x.shape)


def fit_all(contexts, jittered):
    """Batched stage: one call for every run, each with its own draw."""
    fit_all.calls.append(len(contexts))
    return [value * ctx.rng.uniform(1.0, 2.0) for ctx, value in zip(contexts, jittered)]


def release(ctx, fitted):
    ctx.accountant.spend(0.5, "release")
    return fitted + ctx.rng.laplace(scale=2.0, size=fitted.shape)  # lint: disable=DP001 -- toy noisy stage for lockstep tests, not a DP mechanism


def build(store=None, fit=fit_all):
    return Pipeline(
        [
            Stage(name="jitter", fn=jitter, inputs=("x",), output="jittered",
                  uses_rng=True),
            Stage(name="fit", fn=fit, inputs=("jittered",), output="fitted",
                  uses_rng=True, batched=True),
            Stage(name="release", fn=release, inputs=("fitted",),
                  output="released", uses_rng=True, spends_budget=True),
        ],
        store=store,
    )


def initials(count):
    return [{"x": np.arange(4.0) + i} for i in range(count)]


@pytest.fixture(autouse=True)
def reset_calls():
    fit_all.calls = []


def separate(pipeline, count, seeds):
    accountants = [BudgetAccountant(1.0) for __ in range(count)]
    generators = [np.random.default_rng(seed) for seed in seeds]
    runs = [
        pipeline.run(initial, rng=generator, accountant=accountant)
        for initial, generator, accountant in zip(initials(count), generators, accountants)
    ]
    return runs, generators, accountants


def lockstep(pipeline, count, seeds):
    accountants = [BudgetAccountant(1.0) for __ in range(count)]
    generators = [np.random.default_rng(seed) for seed in seeds]
    runs = pipeline.run_lockstep(initials(count), generators, accountants)
    return runs, generators, accountants


def assert_same_runs(left, right):
    (runs_a, gens_a, accs_a), (runs_b, gens_b, accs_b) = left, right
    for run_a, run_b in zip(runs_a, runs_b):
        for name in ("jittered", "fitted", "released"):
            np.testing.assert_array_equal(run_a.artifact(name), run_b.artifact(name))
        assert [(r.stage, r.cached, r.artifact_key, r.rng_state, r.epsilon_spent)
                for r in run_a.records] == [
            (r.stage, r.cached, r.artifact_key, r.rng_state, r.epsilon_spent)
            for r in run_b.records
        ]
    assert [g.bit_generator.state for g in gens_a] == [g.bit_generator.state for g in gens_b]
    assert [a.spent_epsilon for a in accs_a] == [a.spent_epsilon for a in accs_b]


class TestLockstepKeepsRunsApart:
    def test_matches_separate_runs(self):
        seeds = [5, 6, 7]
        alone = separate(build(), 3, seeds)
        assert fit_all.calls == [1, 1, 1]
        fit_all.calls = []
        together = lockstep(build(), 3, seeds)
        assert fit_all.calls == [3]
        assert_same_runs(alone, together)

    def test_run_is_the_one_run_case(self):
        alone = separate(build(), 1, [9])
        together = lockstep(build(), 1, [9])
        assert_same_runs(alone, together)

    def test_cache_and_fast_forward_stay_per_run(self):
        store = ArtifactStore()
        seeds = [5, 6, 7]
        # Warm the store with the first two runs alone: their generators
        # start where those runs of the lockstep start, so both hit.
        separate(build(store), 2, seeds[:2])
        fit_all.calls = []
        cold = separate(build(), 3, seeds)
        fit_all.calls = []
        warm = lockstep(build(store), 3, seeds)
        assert fit_all.calls == [1]
        cached = [run.record("fit").cached for run in warm[0]]
        assert cached == [True, True, False]
        runs, generators, accountants = warm
        for cold_run, warm_run in zip(cold[0], runs):
            np.testing.assert_array_equal(
                cold_run.artifact("released"), warm_run.artifact("released")
            )
        assert [g.bit_generator.state for g in generators] == [
            g.bit_generator.state for g in cold[1]
        ]
        assert [a.spent_epsilon for a in accountants] == [0.5, 0.5, 0.5]

    def test_batched_call_time_is_shared_not_repeated(self):
        def slow_fit(contexts, jittered):
            time.sleep(0.2)
            return list(jittered)

        runs = build(fit=slow_fit).run_lockstep(
            initials(4), [1, 2, 3, 4], [BudgetAccountant(1.0) for __ in range(4)]
        )
        seconds = [run.record("fit").seconds for run in runs]
        assert 0.2 <= sum(seconds) < 0.4
        assert max(seconds) - min(seconds) < 0.01


class TestLockstepRefusals:
    def test_each_run_needs_its_own_generator_and_accountant(self):
        shared = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="own generator"):
            build().run_lockstep(initials(2), [shared, shared])
        ledger = BudgetAccountant(1.0)
        with pytest.raises(ConfigurationError, match="accountant"):
            build().run_lockstep(initials(2), [1, 2], [ledger, ledger])

    def test_one_generator_per_run(self):
        with pytest.raises(ConfigurationError, match="2 run"):
            build().run_lockstep(initials(2), [1])

    def test_batched_stage_returns_one_value_per_run(self):
        def short(contexts, jittered):
            return jittered[:1]

        with pytest.raises(ConfigurationError, match="returned 1 value"):
            build(fit=short).run_lockstep(
                initials(2), [1, 2], [BudgetAccountant(1.0), BudgetAccountant(1.0)]
            )

    def test_stage_rngs_for_unknown_stage(self):
        with pytest.raises(ConfigurationError, match="unknown stage"):
            build().run_lockstep(initials(1), [1], stage_rngs=[{"ghost": 3}])
