"""The source / sanitizer / sink model the taint rules check against.

The tables come from three places:

1. **Built-ins** — language- and library-level facts that hold in any
   repo, kept as the module constants below (``SINK_METHODS``,
   ``EXTERNAL_SINKS``, ``GENERATOR_MAKERS``, ``NONDETERMINISTIC``):
   ``print`` is a stdout sink, ``open(...).write`` and
   ``Path.write_text`` are file sinks, ``default_rng``/``ensure_rng``
   make live generators.
2. **In-tree declarations** — modules that *own* a privacy-relevant
   function declare it next to its definition via module-level tuples::

       __flow_sources__ = ("load_dataset", "load_matrix")
       __flow_sanitizers__ = ("LaplaceMechanism.randomize",)
       __flow_noise_sources__ = ("laplace_noise",)
       __flow_sinks__ = ("ArtifactStore.put:artifact-store",)

   Names are relative to the declaring module (``Class.method`` for
   methods); sink entries may carry a ``:kind`` suffix. Keeping the
   annotations with the code means a new loader or writer cannot be
   added without its flow role being reviewable in the same diff.
3. **Registry-derived sanitizers** — every ``sanitize`` method on a
   (transitive) subclass of ``repro.baselines.base.Mechanism`` is a
   sanitizer, mirroring how ``MECHANISM_REGISTRY`` registers concrete
   mechanisms at import time. A property test asserts the static table
   and the runtime registry never drift.

The last two depend on the project, so :func:`build_model` resolves them
into a :class:`FlowModel` per lint run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Mapping

from repro.lint.project import ModuleInfo, Project
from repro.lint.flow.symbols import SymbolTable

#: The abstract base whose ``sanitize`` overrides are sanitizers.
MECHANISM_BASE = "repro.baselines.base.Mechanism"

#: Sink kinds the model distinguishes (used in finding messages).
SINK_KINDS = (
    "artifact-store",
    "trace-span",
    "release-writer",
    "file",
    "stdout",
    "stage-output",
    "http-response",
)

#: Method names that are sinks when the receiver looks the part.
SINK_METHODS: Mapping[str, str] = {
    "put": "artifact-store",       # guarded by a store-ish receiver
    "set_attribute": "trace-span",
    "write": "file",
    "write_text": "file",
    "write_bytes": "file",
}

#: Identifier tokens marking a ``.put`` receiver as an artifact store.
_STORE_TOKENS = frozenset({"store", "cache", "artifact", "artifacts"})

#: External dotted calls that write values out of the process.
EXTERNAL_SINKS: Mapping[str, str] = {
    "json.dump": "file",
    "numpy.save": "file",
    "numpy.savetxt": "file",
    "numpy.savez": "file",
    "np.save": "file",
    "np.savetxt": "file",
    "np.savez": "file",
}

#: Calls whose result is a live ``np.random.Generator``.
GENERATOR_MAKERS = frozenset({"default_rng", "ensure_rng", "task_generator"})

#: Dotted chains whose call makes a stage function nondeterministic.
NONDETERMINISTIC = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "os.urandom",
        "os.getpid",
        "os.getenv",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.random",
        "random.randint",
        "random.choice",
        "random.shuffle",
        "input",
    }
)

#: Parameter-name tokens that denote a privacy budget.
_BUDGET_TOKENS = frozenset({"eps", "epsilon", "delta"})


def is_budget_param(name: str | None) -> bool:
    """Does a parameter name denote an ε/δ privacy budget?"""
    if not name:
        return False
    return any(token in _BUDGET_TOKENS for token in name.lower().split("_"))


def is_storeish_name(name: str | None) -> bool:
    """Does an identifier plausibly denote an artifact store (DP003, DP100)?"""
    if not name:
        return False
    if name == "ArtifactStore":
        return True
    return any(token in _STORE_TOKENS for token in name.lower().split("_"))


@dataclass(frozen=True)
class FlowModel:
    """Resolved qualname tables for one project."""

    sources: frozenset[str] = frozenset()
    sanitizers: frozenset[str] = frozenset()
    noise_sources: frozenset[str] = frozenset()
    sinks: Mapping[str, str] = field(default_factory=dict)

    def is_sanitizer(self, qualname: str | None) -> bool:
        return qualname is not None and qualname in self.sanitizers

    def is_source(self, qualname: str | None) -> bool:
        return qualname is not None and qualname in self.sources

    def is_noise_source(self, qualname: str | None) -> bool:
        return qualname is not None and qualname in self.noise_sources

    def sink_kind(self, qualname: str | None) -> str | None:
        if qualname is None:
            return None
        return self.sinks.get(qualname)


_DECLARATION_NAMES = {
    "__flow_sources__": "sources",
    "__flow_sanitizers__": "sanitizers",
    "__flow_noise_sources__": "noise_sources",
    "__flow_sinks__": "sinks",
}


def _declared_entries(module: ModuleInfo) -> dict[str, list[str]]:
    """Module-level ``__flow_*__`` tuples, as raw strings."""
    found: dict[str, list[str]] = {}
    for node in module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (
                isinstance(target, ast.Name)
                and target.id in _DECLARATION_NAMES
            ):
                continue
            if not isinstance(node.value, (ast.Tuple, ast.List)):
                continue
            entries = [
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
            found.setdefault(_DECLARATION_NAMES[target.id], []).extend(entries)
    return found


def build_model(project: Project, symbols: SymbolTable) -> FlowModel:
    """Merge in-tree declarations and registry-derived sanitizers."""
    sources: set[str] = set()
    sanitizers: set[str] = set()
    noise_sources: set[str] = set()
    sinks: dict[str, str] = {}
    for module in project.modules:
        declared = _declared_entries(module)
        if not declared:
            continue
        prefix = symbols.module_prefix(module)
        for name in declared.get("sources", ()):
            sources.add(f"{prefix}.{name}")
        for name in declared.get("sanitizers", ()):
            sanitizers.add(f"{prefix}.{name}")
        for name in declared.get("noise_sources", ()):
            noise_sources.add(f"{prefix}.{name}")
        for entry in declared.get("sinks", ()):
            name, __sep, kind = entry.partition(":")
            sinks[f"{prefix}.{name}"] = kind or "release-writer"
    sanitizers |= _registry_sanitizers(symbols)
    return FlowModel(
        sources=frozenset(sources),
        sanitizers=frozenset(sanitizers),
        noise_sources=frozenset(noise_sources),
        sinks=sinks,
    )


def _registry_sanitizers(symbols: SymbolTable) -> set[str]:
    """``sanitize`` overrides on Mechanism subclasses, statically."""
    derived: set[str] = set()
    for qualname, decl in symbols.classes.items():
        if "sanitize" not in decl.methods:
            continue
        if qualname == MECHANISM_BASE or symbols.is_subclass(
            qualname, MECHANISM_BASE
        ):
            derived.add(decl.methods["sanitize"].qualname)
    return derived


__all__ = [
    "EXTERNAL_SINKS",
    "FlowModel",
    "GENERATOR_MAKERS",
    "MECHANISM_BASE",
    "NONDETERMINISTIC",
    "SINK_KINDS",
    "SINK_METHODS",
    "build_model",
    "is_budget_param",
    "is_storeish_name",
]
