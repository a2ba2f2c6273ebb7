"""The six flow-backed lint rules (DP100–DP102, RNG100, RNG101, PURE001).

All six are project-scope rules over one shared
:func:`~repro.lint.flow.engine.analyze_project` result — the analysis
runs once per lint invocation regardless of how many flow rules are
enabled. Each rule just selects its findings by id; the detection
logic lives in :mod:`repro.lint.flow.summaries`.

They run on every lint invocation that enables them (all of them by
default). The analysis is built on first use, so a run that selects
only syntactic rules (``--select DP001``) never builds the call graph.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.project import Project
from repro.lint.registry import Rule, RuleOptions, register


class _FlowRule(Rule):
    """Shared plumbing: pull this rule's findings from the analysis."""

    def check_project(
        self, project: Project, options: RuleOptions
    ) -> Iterable[Finding]:
        # Imported lazily: rules/__init__ pulls this module in while
        # repro.lint.flow.engine may itself still be mid-import (its
        # summaries module uses rules.common helpers).
        from repro.lint.flow.engine import analyze_project

        analysis = analyze_project(project)
        for flow_finding in analysis.findings_for(self.id):
            yield Finding(
                path=flow_finding.path,
                line=flow_finding.line,
                col=flow_finding.col,
                rule=self.id,
                message=flow_finding.message,
            )


@register
class RawDataReachesSink(_FlowRule):
    id = "DP100"
    title = "raw household data reaches a publication sink uncharged"
    rationale = (
        "Theorem 1's guarantee holds only if every published value passed "
        "through a calibrated, accountant-charged mechanism. The flow "
        "analysis tracks raw readings/matrices through assignments, calls, "
        "returns, containers and closures; any path from a source to an "
        "artifact store, release writer, trace span, file/stdout write or "
        "non-spending stage output that is not killed by a sanitizer is a "
        "privacy leak, even when source and sink live in different modules."
    )
    default_allow = ("tests", "benchmarks")


@register
class MechanismNotDominatedByCharge(_FlowRule):
    id = "DP101"
    title = "mechanism call not dominated by an accountant charge"
    rationale = (
        "A mechanism that runs without its spend reaching a "
        "BudgetAccountant produces output that *looks* sanitized but is "
        "off the ledger — composition (Theorem 2) silently breaks. Calls "
        "to accountant-aware sanitizers must thread accountant= (or be "
        "made in a scope that itself charges or constructs an accountant)."
    )
    default_allow = ("tests", "benchmarks")


@register
class DataDependentBudget(_FlowRule):
    id = "DP102"
    title = "privacy budget (ε/δ) derived from raw data"
    rationale = (
        "Choosing ε from the data being protected leaks information "
        "through the budget itself and voids the calibration of every "
        "noise draw made with it. Budgets must come from configuration "
        "or a BudgetSplit, never from statistics of the input."
    )
    default_allow = ("tests", "benchmarks")


@register
class GeneratorCrossesExecutor(_FlowRule):
    id = "RNG100"
    title = "live np.random.Generator crosses an executor boundary"
    rationale = (
        "Pickling a live Generator into a worker forks its state: parent "
        "and worker replay the same stream, correlating 'independent' "
        "noise and making results depend on worker count. The rule "
        "follows generators into submission payloads (passed directly, "
        "built inside the payload, hidden in a container, returned by a "
        "helper, or forwarded through a wrapper that submits them) and "
        "into submitted lambdas and functions that capture one from the "
        "scope that defines them. Ship a seed (repro.rng.derive_seed / "
        "SeedSequence.spawn) and rebuild with "
        "repro.parallel.task_generator inside the task."
    )
    default_allow = ()


@register
class SeedsSpawnedInsideTask(_FlowRule):
    id = "RNG101"
    title = "per-task seed sequences derived inside a submitted task body"
    rationale = (
        "The sharded-publish determinism contract requires every task's "
        "seed sequence to be spawned from the parent generator *before* "
        "dispatch, in submission order. A task function that calls "
        "spawn_seed_sequences in its own body (directly or through a "
        "callee) derives streams whose identity depends on how the work "
        "was sharded and scheduled — two runs with different worker "
        "counts or shard depths would draw different noise, silently "
        "breaking bit-identical replay. Spawn at the dispatch site and "
        "ship one SeedSequence per task instead."
    )
    default_allow = ()


@register
class ImpureStageFunction(_FlowRule):
    id = "PURE001"
    title = "stage function is not a pure function of (ctx, inputs)"
    rationale = (
        "Stage caching and replay assume a stage's output is determined "
        "by its declared inputs, config and seeded rng. A stage body that "
        "reads a mutable module global or calls a nondeterministic "
        "builtin (time, uuid, os.urandom, global random) can return "
        "different values for identical cache keys, corrupting resumed "
        "runs."
    )
    default_allow = ("tests", "benchmarks")


__all__ = [
    "DataDependentBudget",
    "GeneratorCrossesExecutor",
    "ImpureStageFunction",
    "MechanismNotDominatedByCharge",
    "RawDataReachesSink",
    "SeedsSpawnedInsideTask",
]
