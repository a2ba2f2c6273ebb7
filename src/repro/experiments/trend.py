"""Commit-stamped benchmark trend histories (``repro bench NAME``).

A ``BENCH_<name>.json`` file holds the newest payload flat at the top
level (so anything reading ``wall_seconds`` directly still works) and a
``history`` list with one compact entry per recorded run: commit, wall
seconds, ``cpu_count`` and the benchmark's registered trend metrics.
Every ``repro bench NAME`` run appends one entry and checks it; a file
without a ``history`` list is refused, so a run can never drop the
trajectory it was meant to extend.

A :class:`Threshold` names the payload metrics (dotted paths) a
benchmark is judged by and the floor/ceiling each must respect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Threshold:
    """Trend metrics of one benchmark and the bounds they must hold."""

    metrics: tuple[str, ...]
    floor: float | None = None
    ceiling: float | None = None

    def __post_init__(self) -> None:
        if not self.metrics:
            raise ConfigurationError("a trend threshold needs >= 1 metric")
        if self.floor is None and self.ceiling is None:
            raise ConfigurationError(
                "a trend threshold needs a floor or a ceiling"
            )


def metric_value(payload: Mapping[str, Any], dotted: str) -> float | None:
    """Resolve a dotted metric path against a payload; None if absent."""
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def compact_entry(
    payload: Mapping[str, Any], threshold: Threshold | None = None
) -> dict[str, Any]:
    """One history row: commit stamp, wall time, trend metrics."""
    metrics: dict[str, float] = {}
    for dotted in threshold.metrics if threshold is not None else ():
        value = metric_value(payload, dotted)
        if value is not None:
            metrics[dotted] = value
    entry: dict[str, Any] = {
        "commit": payload.get("commit"),
        "wall_seconds": payload.get("wall_seconds"),
        "metrics": metrics,
    }
    if "cpu_count" in payload:
        entry["cpu_count"] = payload["cpu_count"]
    return entry


def load_history(path: str | Path) -> list[dict[str, Any]]:
    """History entries of a BENCH file; empty if the file does not exist."""
    path = Path(path)
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"unreadable benchmark file {path}: {error}")
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"benchmark file {path} must hold a JSON object"
        )
    history = payload.get("history")
    if not isinstance(history, list):
        raise ConfigurationError(
            f"benchmark file {path} has no 'history' list"
        )
    return list(history)


def append_result(
    path: str | Path,
    payload: Mapping[str, Any],
    threshold: Threshold | None = None,
) -> list[dict[str, Any]]:
    """Record one run: newest payload flat + accumulated history.

    Returns the updated history (oldest first, newest last).
    """
    path = Path(path)
    history = load_history(path)
    history.append(compact_entry(payload, threshold))
    merged = dict(payload)
    merged["history"] = history
    path.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    return history


def trend_rows(history: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """History entries as printable table rows (one per recorded run)."""
    names: list[str] = []
    for entry in history:
        for name in entry.get("metrics") or {}:
            if name not in names:
                names.append(name)
    rows = []
    for entry in history:
        commit = entry.get("commit")
        row: dict[str, Any] = {
            "commit": (commit or "-")[:12],
            "wall_s": entry.get("wall_seconds"),
        }
        metrics = entry.get("metrics") or {}
        for name in names:
            row[name] = metrics.get(name, "")
        if "cpu_count" in entry:
            row["cpus"] = entry["cpu_count"]
        rows.append(row)
    return rows


#: A trend metric may drift this far below (floor) / above (ceiling)
#: the previous entry before the ratchet reports a regression; wall
#: clocks are noisy enough that an exact ratchet would flap.
_RATCHET_SLACK = 0.8


def check_regression(
    name: str,
    history: list[dict[str, Any]],
    threshold: Threshold | None,
) -> list[str]:
    """Bound violations of the newest entry; empty list means healthy.

    Two layers of enforcement:

    * the registered absolute floor/ceiling, and
    * a history ratchet — the newest value may not fall more than
      ``1 - _RATCHET_SLACK`` below (floor metrics) or rise above
      (ceiling metrics) the previous entry.
    """
    if threshold is None or not history:
        return []
    failures = []
    metrics = history[-1].get("metrics") or {}
    baseline_metrics = (
        (history[-2].get("metrics") or {}) if len(history) > 1 else {}
    )
    for dotted in threshold.metrics:
        value = metrics.get(dotted)
        if value is None:
            failures.append(
                f"{name}: trend metric {dotted!r} missing from the "
                "newest run"
            )
            continue
        if threshold.floor is not None and value < threshold.floor:
            failures.append(
                f"{name}: {dotted} = {value:g} regressed below the "
                f"{threshold.floor:g} floor"
            )
        if threshold.ceiling is not None and value > threshold.ceiling:
            failures.append(
                f"{name}: {dotted} = {value:g} exceeds the "
                f"{threshold.ceiling:g} ceiling"
            )
        base = baseline_metrics.get(dotted)
        if not isinstance(base, (int, float)) or base <= 0:
            continue
        if threshold.floor is not None and value < base * _RATCHET_SLACK:
            failures.append(
                f"{name}: {dotted} = {value:g} fell more than "
                f"{(1 - _RATCHET_SLACK):.0%} below the previous "
                f"recorded {base:g}"
            )
        if threshold.ceiling is not None and value > base / _RATCHET_SLACK:
            failures.append(
                f"{name}: {dotted} = {value:g} rose more than "
                f"{(1 - _RATCHET_SLACK):.0%} above the previous "
                f"recorded {base:g}"
            )
    return failures


__all__ = [
    "Threshold",
    "append_result",
    "check_regression",
    "compact_entry",
    "load_history",
    "metric_value",
    "trend_rows",
]
