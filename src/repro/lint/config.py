"""Lint configuration: defaults plus ``[tool.repro-lint]`` overrides.

The configuration is deliberately small:

* ``include`` — root-relative paths linted when the CLI gets none;
* ``exclude`` — root-relative patterns always skipped;
* ``enable``  — rule ids to run (every registered rule when omitted);
* ``[tool.repro-lint.rules.<ID>]`` — per-rule tables; the ``allow``
  key replaces the rule's built-in allow-list of sanctioned paths.

``load_config`` reads the nearest ``pyproject.toml`` (walking up from
``start``), so ``python -m repro.lint`` behaves the same from any
subdirectory of the repo.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import ConfigurationError

DEFAULT_INCLUDE = ("src", "tests")


@dataclass(frozen=True)
class LintConfig:
    """Resolved settings for one lint run."""

    root: Path
    include: tuple[str, ...] = DEFAULT_INCLUDE
    exclude: tuple[str, ...] = ()
    enable: tuple[str, ...] | None = None
    rule_options: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def rule_allow(self, rule_id: str, default: tuple[str, ...]) -> tuple[str, ...]:
        """The allow-list for ``rule_id``: config override or default."""
        options = self.rule_options.get(rule_id, {})
        allow = options.get("allow")
        if allow is None:
            return default
        return tuple(str(pattern) for pattern in allow)

    def include_paths(self) -> list[Path]:
        return [self.root / rel for rel in self.include]


def _string_tuple(table: Mapping[str, Any], key: str, where: str) -> tuple[str, ...] | None:
    value = table.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigurationError(f"{where}.{key} must be a list of strings")
    return tuple(value)


def config_from_mapping(root: Path, data: Mapping[str, Any]) -> LintConfig:
    """Build a :class:`LintConfig` from parsed pyproject data."""
    table = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, Mapping):
        raise ConfigurationError("[tool.repro-lint] must be a table")
    where = "[tool.repro-lint]"
    include = _string_tuple(table, "include", where) or DEFAULT_INCLUDE
    exclude = _string_tuple(table, "exclude", where) or ()
    enable = _string_tuple(table, "enable", where)
    if enable is not None:
        enable = tuple(rule_id.upper() for rule_id in enable)
    rules_table = table.get("rules", {})
    if not isinstance(rules_table, Mapping):
        raise ConfigurationError("[tool.repro-lint.rules] must be a table")
    rule_options: dict[str, dict[str, Any]] = {}
    for rule_id, options in rules_table.items():
        if not isinstance(options, Mapping):
            raise ConfigurationError(
                f"[tool.repro-lint.rules.{rule_id}] must be a table"
            )
        rule_options[str(rule_id).upper()] = dict(options)
    return LintConfig(
        root=root.resolve(),
        include=include,
        exclude=exclude,
        enable=enable,
        rule_options=rule_options,
    )


def find_pyproject(start: Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current, *current.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(
    start: Path | None = None, explicit: Path | None = None
) -> LintConfig:
    """Load config from an explicit file or the nearest pyproject.

    Without any pyproject the defaults apply, rooted at ``start``
    (the current directory when omitted).
    """
    if explicit is not None:
        pyproject = Path(explicit)
        if not pyproject.is_file():
            raise ConfigurationError(f"config file not found: {pyproject}")
    else:
        pyproject = find_pyproject(start or Path.cwd())
        if pyproject is None:
            root = (start or Path.cwd()).resolve()
            return LintConfig(root=root)
    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as error:
        raise ConfigurationError(f"cannot parse {pyproject}: {error}") from error
    return config_from_mapping(pyproject.parent, data)


__all__ = [
    "DEFAULT_INCLUDE",
    "LintConfig",
    "config_from_mapping",
    "find_pyproject",
    "load_config",
]
