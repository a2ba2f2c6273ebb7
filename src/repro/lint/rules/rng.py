"""RNG001 — numpy RNG discipline, statically enforced.

``repro.rng`` gives every stochastic component the same contract: an
optional ``rng`` argument coerced by ``ensure_rng``, so experiments are
reproducible and parallel stages get independent streams via ``spawn``.
A single ``np.random.shuffle(...)`` — or a seedless ``default_rng()``
conjured mid-pipeline — breaks both properties invisibly: results stop
being a pure function of the seed, and DP noise can end up correlated
with unrelated draws. RNG001 turns the module docstring convention
into a checked invariant.

The process-boundary half of the discipline — a live
``np.random.Generator`` pickled into an executor-submitted task — is the
flow rule RNG100 (:mod:`repro.lint.flow.rules`), which sees generators
through helpers, containers and closures alike.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo
from repro.lint.registry import Rule, RuleOptions, register
from repro.lint.rules.common import dotted_chain, finding_at

#: numpy.random attributes that are constructors, not global-state draws.
_CONSTRUCTION_API = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)


@register
class GlobalRngRule(Rule):
    """RNG001 — global ``np.random`` state or seedless ``default_rng``."""

    id = "RNG001"
    title = "numpy global RNG use (or seedless default_rng)"
    rationale = (
        "Global np.random state and untracked seedless generators break "
        "seed-reproducibility and stream independence; thread a "
        "np.random.Generator through repro.rng.ensure_rng instead."
    )
    default_allow = ("src/repro/rng.py", "tests", "benchmarks")

    def check_module(
        self, module: ModuleInfo, options: RuleOptions
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            if chain is None:
                continue
            finding = self._check_call(module, node, chain)
            if finding is not None:
                yield finding

    def _check_call(
        self, module: ModuleInfo, node: ast.Call, chain: tuple[str, ...]
    ) -> Finding | None:
        # Bare default_rng() via `from numpy.random import default_rng`.
        if chain == ("default_rng",):
            return self._check_default_rng(module, node, "default_rng")
        if len(chain) < 3 or chain[0] not in {"np", "numpy"}:
            return None
        if chain[1] != "random":
            return None
        attr = chain[-1]
        if attr == "default_rng":
            return self._check_default_rng(module, node, "np.random.default_rng")
        if attr in _CONSTRUCTION_API or attr[:1].isupper():
            return None
        return finding_at(
            module,
            node,
            self.id,
            f"np.random.{attr}() draws from numpy's hidden global RNG; "
            "accept an rng argument and use repro.rng.ensure_rng so the "
            "stream is explicit and seedable",
        )

    def _check_default_rng(
        self, module: ModuleInfo, node: ast.Call, spelled: str
    ) -> Finding | None:
        if node.args or node.keywords:
            return None
        return finding_at(
            module,
            node,
            self.id,
            f"seedless {spelled}() creates an untracked stream; accept an "
            "rng argument (repro.rng.ensure_rng) or derive a child via "
            "repro.rng.spawn",
        )


__all__ = ["GlobalRngRule"]
