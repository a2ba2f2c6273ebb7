"""Rule base class and the global rule registry.

A rule subclasses :class:`Rule`, declares its metadata as class
attributes and registers itself with the :func:`register` decorator.
Rules come in two scopes:

* **module** rules implement :meth:`Rule.check_module` and see one
  parsed file at a time — the common case for syntactic checks;
* **project** rules implement :meth:`Rule.check_project` and see the
  whole parsed tree at once — needed when a defect is a relationship
  between files (PY002's re-export check).

``default_allow`` lists path patterns the rule does not apply to (the
sanctioned home of the construct it polices); a repo can widen or
narrow that via ``[tool.repro-lint.rules.<ID>]`` in ``pyproject.toml``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Mapping, Type

from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, Project


@dataclass(frozen=True)
class RuleOptions:
    """Effective per-rule settings after config merging."""

    allow: tuple[str, ...] = ()
    extra: Mapping[str, object] = field(default_factory=dict)


class Rule:
    """Base class: metadata plus the two check hooks."""

    id: ClassVar[str] = ""
    title: ClassVar[str] = ""
    rationale: ClassVar[str] = ""
    default_allow: ClassVar[tuple[str, ...]] = ()

    def check_module(
        self, module: ModuleInfo, options: RuleOptions
    ) -> Iterable[Finding]:
        return ()

    def check_project(
        self, project: Project, options: RuleOptions
    ) -> Iterable[Finding]:
        return ()


_REGISTRY: dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule_id = rule_class.id
    if not rule_id or not rule_id.isupper():
        raise ValueError(f"rule {rule_class.__name__} needs an uppercase id")
    if not rule_class.title:
        raise ValueError(f"rule {rule_id} needs a title")
    if rule_id in _REGISTRY and _REGISTRY[rule_id] is not rule_class:
        raise ValueError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = rule_class
    return rule_class


def registered_rule_ids() -> list[str]:
    """All known rule ids, sorted (rule modules are imported first)."""
    _load_builtin_rules()
    return sorted(_REGISTRY)


def get_rule_class(rule_id: str) -> Type[Rule]:
    _load_builtin_rules()
    try:
        return _REGISTRY[rule_id.upper()]
    except KeyError:
        raise KeyError(f"unknown lint rule {rule_id!r}") from None


def create_rules(enabled: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate the enabled rules (all registered ones by default)."""
    _load_builtin_rules()
    if enabled is None:
        ids = sorted(_REGISTRY)
    else:
        ids = [rule_id.upper() for rule_id in enabled]
    return [get_rule_class(rule_id)() for rule_id in ids]


def _load_builtin_rules() -> None:
    # Importing the rules package triggers the register() decorators.
    # Done lazily to avoid a registry/rules import cycle.
    import repro.lint.rules  # noqa: F401


__all__ = [
    "Rule",
    "RuleOptions",
    "create_rules",
    "get_rule_class",
    "register",
    "registered_rule_ids",
]
