"""SCN001 — experiment code must resolve scenarios, not build configs.

The scenario registry (``repro.scenarios``) is the single description
of every run: one named spec carries the scale geometry, mechanism
configuration and ε schedule, and ``repro scenarios show NAME`` prints
exactly what runs. An experiment or benchmark module that constructs
``ScalePreset(...)`` or ``STPTConfig(...)`` inline re-creates that
description out of band — the printed spec and the executed run drift
apart silently, and the run stops being reproducible from its name.
SCN001 flags those constructions in experiment/benchmark modules;
the sanctioned homes are the registry package itself (where presets
and the catalog live) and non-experiment library code such as the CLI
argument mapping.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo
from repro.lint.registry import Rule, RuleOptions, register
from repro.lint.rules.common import finding_at, identifier_of

#: Constructors that belong behind the scenario registry.
_CONFIG_TYPES = frozenset({"ScalePreset", "STPTConfig"})

#: Path segments that mark a module as experiment/benchmark code.
_TARGET_SEGMENTS = frozenset({"experiments", "benchmarks"})


def _is_experiment_module(module: ModuleInfo) -> bool:
    parts = PurePosixPath(module.rel).parts
    return bool(_TARGET_SEGMENTS.intersection(parts)) or parts[-1].startswith(
        "bench"
    )


@register
class InlineScenarioConfigRule(Rule):
    """SCN001 — inline ScalePreset/STPTConfig in experiment code."""

    id = "SCN001"
    title = "experiment module builds ScalePreset/STPTConfig inline"
    rationale = (
        "Experiment and benchmark runs are described by named scenario "
        "specs ('repro scenarios show NAME' prints what runs); an "
        "inline ScalePreset/STPTConfig construction drifts from that "
        "description silently. Register a scenario (or extend one with "
        "overrides) and resolve it instead."
    )
    default_allow = ("src/repro/scenarios", "tests")

    def check_module(
        self, module: ModuleInfo, options: RuleOptions
    ) -> Iterable[Finding]:
        if not _is_experiment_module(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = identifier_of(node.func)
            if callee is None:
                continue
            name = callee.rsplit(".", 1)[-1]
            if name not in _CONFIG_TYPES:
                continue
            yield finding_at(
                module,
                node,
                self.id,
                f"{name}(...) constructed inline in an experiment/"
                "benchmark module; the run's geometry and budgets "
                "should come from a registered scenario "
                "(repro.scenarios.resolve_scenario) so 'repro "
                "scenarios show' matches what actually runs",
            )


__all__ = ["InlineScenarioConfigRule"]
