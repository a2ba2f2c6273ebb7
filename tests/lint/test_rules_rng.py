"""RNG001 and RNG100 — numpy RNG discipline rules."""


class TestGlobalRngRule:
    def test_global_draw_flagged_with_location(self, lint_snippet):
        result = lint_snippet(
            """\
            import numpy as np

            def jitter(data):
                np.random.shuffle(data)
                return data
            """,
            rule="RNG001",
        )
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == "RNG001"
        assert finding.path == "src/pkg/mod.py"
        assert (finding.line, finding.col) == (4, 4)
        assert "np.random.shuffle()" in finding.message

    def test_numpy_spelling_flagged(self, lint_snippet):
        result = lint_snippet(
            """\
            import numpy

            def draw():
                return numpy.random.normal(0.0, 1.0)
            """,
            rule="RNG001",
        )
        assert [f.line for f in result.findings] == [4]

    def test_seedless_default_rng_flagged(self, lint_snippet):
        result = lint_snippet(
            """\
            import numpy as np

            def draw():
                rng = np.random.default_rng()
                return rng.normal()
            """,
            rule="RNG001",
        )
        assert [f.line for f in result.findings] == [4]
        assert "seedless" in result.findings[0].message

    def test_seeded_default_rng_allowed(self, lint_snippet):
        result = lint_snippet(
            """\
            import numpy as np

            def draw(seed):
                explicit = np.random.default_rng(0)
                threaded = np.random.default_rng(seed)
                return explicit, threaded
            """,
            rule="RNG001",
        )
        assert result.ok

    def test_bare_seedless_default_rng_flagged(self, lint_snippet):
        result = lint_snippet(
            """\
            from numpy.random import default_rng

            def draw():
                return default_rng()
            """,
            rule="RNG001",
        )
        assert [f.line for f in result.findings] == [4]

    def test_bitgenerator_construction_allowed(self, lint_snippet):
        result = lint_snippet(
            """\
            import numpy as np

            def make(seed):
                return np.random.Generator(np.random.PCG64(seed))
            """,
            rule="RNG001",
        )
        assert result.ok

    def test_threaded_generator_methods_allowed(self, lint_snippet):
        # Draws on an explicit Generator object are the sanctioned idiom.
        result = lint_snippet(
            """\
            def draw(rng):
                return rng.normal(0.0, 1.0, size=8)
            """,
            rule="RNG001",
        )
        assert result.ok


class TestExecutorCapturedRngRule:
    def test_generator_payload_flagged(self, lint_snippet):
        result = lint_snippet(
            """\
            import numpy as np

            def fan_out(executor, task, seed):
                rng = np.random.default_rng(seed)
                return executor.submit(task, rng)
            """,
            rule="RNG100",
        )
        assert [f.line for f in result.findings] == [5]
        assert "'rng'" in result.findings[0].message
        assert "task_generator" in result.findings[0].message

    def test_generator_inside_tuple_payload_flagged(self, lint_snippet):
        result = lint_snippet(
            """\
            from repro.rng import ensure_rng

            def fan_out(pool, task, items, seed):
                generator = ensure_rng(seed)
                payloads = 0
                return pool.map(task, [(item, generator) for item in items])
            """,
            rule="RNG100",
        )
        assert [f.line for f in result.findings] == [6]

    def test_generator_constructed_in_payload_flagged(self, lint_snippet):
        result = lint_snippet(
            """\
            import numpy as np

            def fan_out(executor, task, seed):
                return executor.submit(task, np.random.default_rng(seed))
            """,
            rule="RNG100",
        )
        assert len(result.findings) == 1
        assert "constructed inside" in result.findings[0].message

    def test_closure_capturing_generator_flagged(self, lint_snippet):
        result = lint_snippet(
            """\
            import numpy as np

            from repro.parallel import ParallelExecutor

            def fan_out(seeds):
                rng = np.random.default_rng(0)

                def task(x):
                    return rng.normal() + x

                return ParallelExecutor(2).run(task, seeds)
            """,
            rule="RNG100",
        )
        assert [f.line for f in result.findings] == [11]
        assert "'task'" in result.findings[0].message

    def test_lambda_capturing_generator_flagged(self, lint_snippet):
        result = lint_snippet(
            """\
            import numpy as np

            def fan_out(executor, items):
                rng = np.random.default_rng(3)
                return executor.map(lambda x: x + rng.normal(), items)
            """,
            rule="RNG100",
        )
        assert [f.line for f in result.findings] == [5]
        assert "lambda" in result.findings[0].message

    def test_seed_payloads_allowed(self, lint_snippet):
        # The sanctioned pattern: derive seeds up front, rebuild inside.
        result = lint_snippet(
            """\
            from repro.parallel import execute, task_generator
            from repro.rng import derive_seed, ensure_rng

            def task(payload):
                value, seed = payload
                rng = task_generator(seed)
                return value + rng.normal()

            def fan_out(values, rng=None):
                generator = ensure_rng(rng)
                seeds = [derive_seed(generator) for __ in values]
                return execute(task, list(zip(values, seeds)), workers=2)
            """,
            rule="RNG100",
        )
        assert result.ok

    def test_locally_rebuilt_generator_in_task_allowed(self, lint_snippet):
        # A task that builds its own generator from a seed payload is
        # self-contained — nothing live crosses the boundary.
        result = lint_snippet(
            """\
            import numpy as np

            def task(seed):
                rng = np.random.default_rng(seed)
                return rng.normal()

            def fan_out(executor, seeds):
                return [executor.submit(task, seed) for seed in seeds]
            """,
            rule="RNG100",
        )
        assert result.ok

    def test_unrelated_run_and_map_receivers_ignored(self, lint_snippet):
        # subprocess.run / pandas .map must not trip the heuristic even
        # with a generator in scope.
        result = lint_snippet(
            """\
            import subprocess

            import numpy as np

            def shell_out(series, rng=None):
                generator = np.random.default_rng(0)
                subprocess.run(["echo", "hi"], check=True)
                return series.map(lambda x: x + generator.normal())
            """,
            rule="RNG100",
        )
        assert result.ok

    def test_shadowed_name_not_flagged(self, lint_snippet):
        # The submitted function rebinds `rng` locally: no capture.
        result = lint_snippet(
            """\
            import numpy as np

            def task(seed):
                rng = np.random.default_rng(seed)
                return rng.normal()

            def fan_out(executor):
                rng = np.random.default_rng(1)
                seed = int(rng.integers(2**32))
                return executor.submit(task, seed)
            """,
            rule="RNG100",
        )
        assert result.ok

    def test_module_function_reads_module_scope_not_submitter(
        self, lint_snippet
    ):
        # ``task`` reads the module global SCALE; the submitting
        # function's local SCALE generator is not in its scope.
        result = lint_snippet(
            """\
            import numpy as np

            SCALE = 2.0


            def task(x):
                return SCALE * x


            def fan_out(executor, items):
                SCALE = np.random.default_rng(0)
                return executor.submit(task, items)
            """,
            rule="RNG100",
        )
        assert result.ok

    def test_module_function_capturing_module_generator_flagged(
        self, lint_snippet
    ):
        result = lint_snippet(
            """\
            import numpy as np

            NOISE = np.random.default_rng(0)


            def task(x):
                return NOISE.normal() + x


            def fan_out(executor, items):
                return executor.submit(task, items)
            """,
            rule="RNG100",
        )
        assert [f.line for f in result.findings] == [11]
        assert "'task'" in result.findings[0].message
        assert "'NOISE'" in result.findings[0].message
