"""The static flow model must not drift from the runtime registry.

The flow analysis derives its sanitizer table statically (``sanitize``
overrides on ``Mechanism`` subclasses plus explicit ``__flow_*__``
declarations); the harness dispatches mechanisms through the runtime
``MECHANISM_REGISTRY``. If a new mechanism registers at runtime but the
static table misses it (or vice versa), DP100/DP101 silently stop
covering that mechanism — so both directions are pinned here against
the real ``src/`` tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.baselines.base import MECHANISM_REGISTRY, Mechanism
from repro.lint.flow import analyze_project
from repro.lint.flow.model import MECHANISM_BASE
from repro.lint.project import Project

REPO_ROOT = Path(__file__).resolve().parents[3]


@pytest.fixture(scope="module")
def src_analysis():
    import repro.baselines  # noqa: F401  (registers every mechanism)

    project = Project.from_paths(REPO_ROOT, [REPO_ROOT / "src"])
    return analyze_project(project)


def test_mechanism_base_matches_runtime():
    assert MECHANISM_BASE == (
        f"{Mechanism.__module__}.{Mechanism.__qualname__}"
    )


def test_every_registered_mechanism_is_a_known_sanitizer(src_analysis):
    assert MECHANISM_REGISTRY, "registry unexpectedly empty"
    for key, cls in sorted(MECHANISM_REGISTRY.items()):
        qualname = f"{cls.__module__}.{cls.__qualname__}.sanitize"
        owner = src_analysis.symbols.resolve_dotted(qualname)
        assert owner in src_analysis.model.sanitizers, (
            f"mechanism {key!r} ({qualname}) is not in the static "
            "sanitizer table; the flow rules would not recognize it"
        )


def test_every_static_mechanism_sanitizer_is_registered(src_analysis):
    runtime = {
        f"{cls.__module__}.{cls.__qualname__}"
        for cls in MECHANISM_REGISTRY.values()
    }
    runtime.add(MECHANISM_BASE)  # the abstract base itself never registers
    for qualname, decl in src_analysis.symbols.classes.items():
        if "sanitize" not in decl.methods:
            continue
        if not src_analysis.symbols.is_subclass(qualname, MECHANISM_BASE):
            continue
        assert qualname in runtime, (
            f"{qualname} defines sanitize() on a Mechanism subclass but "
            "never registers in MECHANISM_REGISTRY; its spends would be "
            "invisible to the harness"
        )


def test_declared_model_names_resolve(src_analysis):
    """Every __flow_*__ declaration points at a real symbol."""
    symbols = src_analysis.symbols
    known_prefixes = tuple(symbols.modules)
    declared = (
        set(src_analysis.model.sources)
        | set(src_analysis.model.sanitizers)
        | set(src_analysis.model.noise_sources)
        | set(src_analysis.model.sinks)
    )
    for qualname in sorted(declared):
        resolved = symbols.resolve_dotted(qualname)
        assert resolved in symbols.functions, (
            f"flow declaration {qualname!r} does not resolve to a known "
            "function; fix or remove the stale __flow_*__ entry"
        )
    assert any(q.startswith("repro.") for q in declared)
    assert known_prefixes  # sanity: the src tree parsed


def test_built_context_carries_the_raw_label(src_analysis):
    """A context holds the private readings, so the flow analysis must
    see ``raw`` come out of its build: printing a field of it is DP100."""
    summary = src_analysis.summaries["repro.experiments.harness.build_context"]
    assert "raw" in summary.returns_labels
