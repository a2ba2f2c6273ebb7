"""Lint-run warnings: suppression audit, unknown rule ids, flow rules.

Warnings never change the exit code, but the self-clean test holds the
tree to zero of them — so their semantics are pinned here: a directive
that matches no finding warns, one without a justification warns, an
unknown rule id (in config or in a comment) warns with its location,
and a ``--select`` subset never flags other rules' suppressions.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.config import LintConfig
from repro.lint.engine import run_lint
from tests.lint.conftest import write_module

LEAK = 'rng.laplace(0.0, scale)'


def _lint(tmp_path, source, enable, config_kwargs=None):
    write_module(tmp_path, "src/pkg/mod.py", textwrap.dedent(source))
    kwargs = dict(
        root=tmp_path,
        include=("src",),
        rule_options={"DP001": {"allow": []}},
    )
    kwargs.update(config_kwargs or {})
    config = LintConfig(**kwargs)
    return run_lint([tmp_path / "src"], config=config, enable=enable)


class TestSuppressionAudit:
    def test_used_justified_directive_is_silent(self, tmp_path):
        result = _lint(
            tmp_path,
            f"""\
            def leak(rng, scale):
                return {LEAK}  # lint: disable=DP001 -- calibration test double
            """,
            enable=["DP001"],
        )
        assert result.ok
        assert result.suppressed == 1
        assert result.warnings == ()

    def test_unused_directive_warns(self, tmp_path):
        result = _lint(
            tmp_path,
            """\
            def fine(scale):
                return scale  # lint: disable=DP001 -- stale justification
            """,
            enable=["DP001"],
        )
        assert result.ok
        [warning] = result.warnings
        assert "src/pkg/mod.py:2" in warning
        assert "unused suppression" in warning
        assert "DP001" in warning

    def test_missing_justification_warns(self, tmp_path):
        result = _lint(
            tmp_path,
            f"""\
            def leak(rng, scale):
                return {LEAK}  # lint: disable=DP001
            """,
            enable=["DP001"],
        )
        assert result.suppressed == 1
        [warning] = result.warnings
        assert "src/pkg/mod.py:2" in warning
        assert "without justification" in warning

    def test_unknown_rule_in_directive_warns_with_location(self, tmp_path):
        result = _lint(
            tmp_path,
            """\
            def fine(scale):
                return scale  # lint: disable=DP999 -- typo'd rule id
            """,
            enable=["DP001"],
        )
        warnings = "\n".join(result.warnings)
        assert "src/pkg/mod.py:2" in warnings
        assert "unknown rule id 'DP999'" in warnings

    def test_select_subset_does_not_flag_other_rules(self, tmp_path):
        # A live RNG001 suppression must not be called unused just
        # because this invocation only ran DP001.
        result = _lint(
            tmp_path,
            """\
            import numpy as np

            def seed():
                return np.random.seed(0)  # lint: disable=RNG001 -- pinned
            """,
            enable=["DP001"],
        )
        assert result.warnings == ()

    def test_all_directive_judged_only_on_full_runs(self, tmp_path):
        result = _lint(
            tmp_path,
            """\
            def fine(scale):
                return scale  # lint: disable=all -- blanket excuse
            """,
            enable=["DP001"],
        )
        assert result.warnings == ()  # subset run: not judged


class TestConfigWarnings:
    def test_unknown_rule_table_warns(self, tmp_path):
        result = _lint(
            tmp_path,
            "x = 1\n",
            enable=["DP001"],
            config_kwargs={
                "rule_options": {
                    "DP001": {"allow": []},
                    "DP999": {"allow": ["src"]},
                }
            },
        )
        warnings = "\n".join(result.warnings)
        assert "rules.DP999" in warnings
        assert "unknown rule id" in warnings

    def test_unknown_enable_entry_warns(self, tmp_path):
        result = _lint(
            tmp_path,
            "x = 1\n",
            enable=None,
            config_kwargs={"enable": ("DP001", "NOPE99")},
        )
        warnings = "\n".join(result.warnings)
        assert "enable" in warnings
        assert "'NOPE99'" in warnings

    def test_explicit_unknown_selection_is_an_error(self, tmp_path):
        from repro.exceptions import ConfigurationError

        write_module(tmp_path, "src/pkg/mod.py", "x = 1\n")
        config = LintConfig(root=tmp_path, include=("src",))
        with pytest.raises(ConfigurationError, match="NOPE99"):
            run_lint([tmp_path / "src"], config=config, enable=["NOPE99"])


FLOW_LEAK = {
    "src/pkg/__init__.py": "",
    "src/pkg/data.py": (
        '__flow_sources__ = ("load",)\n\n\ndef load():\n    return [1.0]\n'
    ),
    "src/pkg/out.py": (
        '__flow_sinks__ = ("write_release:release-writer",)\n\n\n'
        "def write_release(payload):\n    return payload\n"
    ),
    "src/pkg/use.py": (
        "from pkg.data import load\n"
        "from pkg.out import write_release\n\n\n"
        "def publish():\n"
        "    write_release(load())\n"
    ),
}


class TestFlowGating:
    def _write(self, tmp_path):
        for rel, source in FLOW_LEAK.items():
            write_module(tmp_path, rel, source)
        return lambda **kw: run_lint(
            [tmp_path / "src"],
            config=LintConfig(
                root=tmp_path,
                include=("src",),
                rule_options={"DP100": {"allow": []}},
            ),
            **kw,
        )

    def test_flow_rules_run_by_default(self, tmp_path):
        lint = self._write(tmp_path)
        result = lint()
        assert any(f.rule == "DP100" for f in result.findings)

    def test_explicit_enable_always_runs_flow_rule(self, tmp_path):
        lint = self._write(tmp_path)
        result = lint(enable=["DP100"])
        [finding] = result.findings
        assert finding.rule == "DP100"
        assert finding.path == "src/pkg/use.py"

    def test_syntactic_selection_never_builds_the_call_graph(
        self, tmp_path, monkeypatch
    ):
        from repro.lint.flow.callgraph import CallGraph

        def refuse(symbols):
            raise AssertionError("flow analysis built for a syntactic run")

        lint = self._write(tmp_path)
        monkeypatch.setattr(CallGraph, "build", staticmethod(refuse))
        assert lint(enable=["DP001", "PY001"]).ok
        with pytest.raises(AssertionError, match="syntactic run"):
            lint()
