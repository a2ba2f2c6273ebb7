"""The lint runner: collect files, run rules, apply suppressions.

``run_lint`` is the single entry point used by the CLI, the tests and
the benchmark. The pipeline is deliberately linear:

1. parse every python file under the requested paths into a
   :class:`repro.lint.project.Project` (parse failures become ``PARSE``
   findings — an uncheckable file must fail the run);
2. run each enabled rule, skipping files on the rule's allow-list
   (built-in default, overridable per rule in ``pyproject.toml``).
   The interprocedural flow analysis is built by the first flow rule
   that runs, so a syntactic-only selection never pays for it;
3. drop findings answered by a ``# lint: disable=RULE`` comment on the
   offending line (or ``disable-file`` anywhere in the file);
4. return the surviving findings sorted by location, plus *warnings*:
   suppressions that matched nothing, suppressions without a written
   justification, and unknown rule ids in config or comments. Warnings
   never change the exit code on their own, but the self-clean test
   holds the tree to zero of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.exceptions import ConfigurationError
from repro.lint.config import LintConfig
from repro.lint.findings import Finding, PARSE_RULE
from repro.lint.project import ModuleInfo, Project, path_matches
from repro.lint.registry import RuleOptions, create_rules, registered_rule_ids
from repro.lint.suppress import Directive, SuppressionIndex, scan_suppressions


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run."""

    findings: tuple[Finding, ...]
    files_checked: int
    suppressed: int
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings


def _suppression_for(
    module: ModuleInfo, cache: dict[str, SuppressionIndex]
) -> SuppressionIndex:
    index = cache.get(module.rel)
    if index is None:
        index = scan_suppressions(module.source)
        cache[module.rel] = index
    return index


def _config_warnings(config: LintConfig) -> list[str]:
    """Unknown rule ids in ``[tool.repro-lint]`` warn instead of vanishing."""
    known = set(registered_rule_ids())
    warnings: list[str] = []
    for rule_id in config.enable or ():
        if rule_id.upper() not in known:
            warnings.append(
                f"[tool.repro-lint].enable: unknown rule id {rule_id!r} "
                "(entry has no effect)"
            )
    for rule_id in config.rule_options:
        if rule_id.upper() not in known:
            warnings.append(
                f"[tool.repro-lint.rules.{rule_id}]: unknown rule id "
                f"{rule_id!r} (table has no effect)"
            )
    return warnings


def _suppression_warnings(
    project: Project,
    cache: dict[str, SuppressionIndex],
    used: set[tuple[str, Directive]],
    ran_ids: set[str],
) -> list[str]:
    """Audit every directive in the linted tree, not just matching ones."""
    known = set(registered_rule_ids())
    full_run = known <= ran_ids
    warnings: list[str] = []
    for module in project.modules:
        index = _suppression_for(module, cache)
        for directive in index.directives:
            where = f"{module.rel}:{directive.line}"
            for rule_id in sorted(directive.rules - known - {"ALL"}):
                warnings.append(
                    f"{where}: suppression names unknown rule id {rule_id!r}"
                )
            if not directive.justification:
                warnings.append(
                    f"{where}: suppression without justification (append "
                    "'-- why this is safe' to the directive)"
                )
            named = directive.rules & known
            # Only judge a directive unused when every rule it names ran
            # in this invocation (an ALL directive needs a full run);
            # otherwise a --select subset would flag live suppressions.
            ran_everything_named = (
                named <= ran_ids if named else full_run
            ) and ("ALL" not in directive.rules or full_run)
            if ran_everything_named and (module.rel, directive) not in used:
                what = ", ".join(sorted(directive.rules))
                warnings.append(
                    f"{where}: unused suppression for {what} (no finding "
                    "matches; delete the directive)"
                )
    return warnings


def run_lint(
    paths: Sequence[Path | str] | None = None,
    config: LintConfig | None = None,
    enable: Iterable[str] | None = None,
) -> LintResult:
    """Lint ``paths`` (default: the config's include paths).

    ``enable`` narrows the rule set for this run; otherwise the
    config's ``enable`` list (or every registered rule) applies.
    """
    if config is None:
        config = LintConfig(root=Path.cwd())
    if paths is None:
        target_paths = config.include_paths()
    else:
        # Explicitly requested paths must exist: a typo'd path would
        # otherwise lint zero files and report a (false) clean run.
        target_paths = [Path(p) for p in paths]
        missing = [str(p) for p in target_paths if not p.exists()]
        if missing:
            raise ConfigurationError(
                f"path(s) do not exist: {', '.join(missing)}"
            )
    project = Project.from_paths(config.root, target_paths, config.exclude)
    known = set(registered_rule_ids())
    if enable is not None:
        requested = [rule_id.upper() for rule_id in enable]
        unknown = sorted(set(requested) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown rule id(s) in selection: {', '.join(unknown)}"
            )
    elif config.enable is not None:
        # Unknown ids in config warn (via _config_warnings) instead of
        # aborting the run — a typo'd pyproject entry must not mask
        # every other rule's findings.
        requested = [
            rule_id
            for rule_id in (r.upper() for r in config.enable)
            if rule_id in known
        ]
    else:
        requested = None
    rules = create_rules(requested)

    raw: list[Finding] = [
        Finding(
            path=failure.rel,
            line=failure.line,
            col=failure.col,
            rule=PARSE_RULE,
            message=failure.message,
        )
        for failure in project.failures
    ]
    for rule in rules:
        options = RuleOptions(
            allow=config.rule_allow(rule.id, rule.default_allow),
            extra=config.rule_options.get(rule.id, {}),
        )
        produced: list[Finding] = []
        for module in project.modules:
            if path_matches(module.rel, options.allow):
                continue
            produced.extend(rule.check_module(module, options))
        produced.extend(rule.check_project(project, options))
        # Project-scope rules emit findings for arbitrary files; the
        # allow-list is enforced uniformly on the finding's path.
        raw.extend(
            finding
            for finding in produced
            if not path_matches(finding.path, options.allow)
        )

    modules_by_rel = {module.rel: module for module in project.modules}
    suppression_cache: dict[str, SuppressionIndex] = {}
    used_directives: set[tuple[str, Directive]] = set()
    kept: list[Finding] = []
    suppressed = 0
    for finding in raw:
        module = modules_by_rel.get(finding.path)
        if module is not None and finding.rule != PARSE_RULE:
            index = _suppression_for(module, suppression_cache)
            matched = index.matching(finding.rule, finding.line)
            if matched:
                suppressed += 1
                for directive in matched:
                    used_directives.add((module.rel, directive))
                continue
        kept.append(finding)

    warnings = _config_warnings(config)
    warnings.extend(
        _suppression_warnings(
            project,
            suppression_cache,
            used_directives,
            {rule.id for rule in rules},
        )
    )
    return LintResult(
        findings=tuple(sorted(set(kept))),
        files_checked=len(project.modules) + len(project.failures),
        suppressed=suppressed,
        warnings=tuple(warnings),
    )


__all__ = ["LintResult", "run_lint"]
