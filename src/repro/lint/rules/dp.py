"""Differential-privacy hygiene rules: DP001, DP002 and DP003.

These encode the two invariants STPT's user-level ε-DP proof leans on:
every noise draw is calibrated by an explicit ``sensitivity / epsilon``
pair at a single choke point, and every division of a privacy budget
happens in an allocator that an accountant can audit. Noise drawn "off
ledger" or an ad-hoc ``eps / 2`` both silently weaken the nominal
guarantee — the failure mode implementation studies of DP systems
report most often.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.flow.model import is_storeish_name
from repro.lint.project import ModuleInfo, path_matches
from repro.lint.registry import Rule, RuleOptions, register
from repro.lint.rules.common import (
    finding_at,
    identifier_of,
    is_numeric_literal,
    source_of,
)

#: Distribution methods that implement a DP primitive in this codebase.
NOISE_PRIMITIVES = frozenset({"laplace", "geometric"})


@register
class NoisePrimitiveRule(Rule):
    """DP001 — raw noise draws outside ``repro.dp.mechanisms``.

    Any ``<obj>.laplace(...)`` / ``<obj>.geometric(...)`` call is a
    noise primitive. Outside the mechanisms module the scale argument
    is a hand-rolled ``sensitivity / epsilon`` the budget ledger never
    sees; such draws must go through
    :func:`repro.dp.mechanisms.laplace_noise` or a mechanism object so
    the (sensitivity, epsilon) pair is explicit and validated.
    """

    id = "DP001"
    title = "noise primitive drawn outside repro.dp.mechanisms"
    rationale = (
        "Raw laplace()/geometric() draws bypass the epsilon/sensitivity "
        "validation and the budget ledger, silently weakening the ε-DP "
        "guarantee."
    )
    default_allow = ("src/repro/dp/mechanisms.py",)

    def check_module(
        self, module: ModuleInfo, options: RuleOptions
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in NOISE_PRIMITIVES:
                continue
            yield finding_at(
                module,
                node,
                self.id,
                f"raw {func.attr}() noise draw outside repro.dp.mechanisms; "
                "route it through laplace_noise()/LaplaceMechanism so the "
                "(sensitivity, epsilon) calibration is explicit and checked",
            )


def _is_epsilon_identifier(name: str | None) -> bool:
    if not name:
        return False
    tokens = name.lower().split("_")
    return "eps" in tokens or "epsilon" in tokens


@register
class EpsilonArithmeticRule(Rule):
    """DP002 — hard-coded ε splits outside the budget allocators.

    Multiplying or dividing an ε-named value by a numeric literal
    (``eps / 2``, ``0.5 * epsilon``) is a budget split decision hidden
    in a call site. Splits belong in ``repro.dp.budget`` (``BudgetSplit``)
    or behind a validated config field so composition can be audited in
    one place. Dividing by a *variable* (``epsilon / n_slices``) is the
    sequential-composition idiom and stays legal.
    """

    id = "DP002"
    title = "hard-coded epsilon split outside repro.dp.budget"
    rationale = (
        "Literal budget fractions scattered through call sites make "
        "sequential-composition accounting unreviewable; allocators and "
        "validated config fields keep every split auditable."
    )
    default_allow = (
        "src/repro/dp/budget.py",
        "src/repro/analysis/allocation.py",
        "tests",
        "benchmarks",
    )

    def check_module(
        self, module: ModuleInfo, options: RuleOptions
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if isinstance(node.op, ast.Div):
                flagged = _is_epsilon_identifier(
                    identifier_of(node.left)
                ) and is_numeric_literal(node.right)
            elif isinstance(node.op, ast.Mult):
                flagged = (
                    _is_epsilon_identifier(identifier_of(node.left))
                    and is_numeric_literal(node.right)
                ) or (
                    _is_epsilon_identifier(identifier_of(node.right))
                    and is_numeric_literal(node.left)
                )
            else:
                flagged = False
            if flagged:
                yield finding_at(
                    module,
                    node,
                    self.id,
                    f"hard-coded epsilon split '{source_of(node)}'; move the "
                    "fraction into repro.dp.budget.BudgetSplit or a validated "
                    "config field",
                )


#: Modules whose code draws calibrated noise; cache writes from here are
#: categorically suspect regardless of call-site shape.
DP_MODULE_PREFIXES = ("src/repro/dp",)


def _is_storeish(node: ast.expr) -> bool:
    """Does this expression plausibly denote an artifact store?"""
    if isinstance(node, ast.Call):
        return identifier_of(node.func) == "ArtifactStore"
    return is_storeish_name(identifier_of(node))


def _store_put_calls(root: ast.AST) -> Iterable[ast.Call]:
    for node in ast.walk(root):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "put"
            and _is_storeish(node.func.value)
        ):
            yield node


def _spends_budget_stage_fns(
    module: ModuleInfo,
) -> Iterable[ast.AST]:
    """Function bodies passed as ``fn`` to ``Stage(..., spends_budget=True)``."""
    defs: dict[str, ast.AST] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = node
    for node in ast.walk(module.tree):
        if not (
            isinstance(node, ast.Call)
            and identifier_of(node.func) == "Stage"
        ):
            continue
        spends = any(
            kw.arg == "spends_budget"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )
        if not spends:
            continue
        fn_expr: ast.expr | None = None
        for kw in node.keywords:
            if kw.arg == "fn":
                fn_expr = kw.value
        if fn_expr is None and len(node.args) >= 2:
            fn_expr = node.args[1]
        if isinstance(fn_expr, ast.Lambda):
            yield fn_expr
        elif fn_expr is not None:
            name = identifier_of(fn_expr)
            if name and name in defs:
                yield defs[name]


@register
class CacheWriteRule(Rule):
    """DP003 — artifact-cache writes from noise-drawing code.

    The artifact store may only hold outputs of deterministic,
    budget-free stages: a cached noisy release replayed on a later run
    is a release the accountant never charged for, silently breaking
    the ε ledger (and re-serving the *same* noise defeats the privacy
    analysis of the Laplace mechanism). Two code shapes are flagged:

    * any store write (``<store>.put(...)``) inside ``repro.dp``
      modules — mechanism/budget code has no business persisting what
      it just perturbed;
    * a store write inside a function passed as ``fn`` to
      ``Stage(..., spends_budget=True)`` — the runner refuses to cache
      such stages, and a manual ``put`` from inside one is exactly the
      bypass the refusal exists to prevent.
    """

    id = "DP003"
    title = "artifact-store write from budget-spending code"
    rationale = (
        "Caching a noisy release lets a later run replay it without the "
        "accountant charging ε, and re-serving identical noise voids the "
        "Laplace mechanism's guarantee; only deterministic DP-free stage "
        "outputs may enter the artifact store."
    )
    default_allow = (
        "src/repro/pipeline",
        "tests",
        "benchmarks",
    )

    def check_module(
        self, module: ModuleInfo, options: RuleOptions
    ) -> Iterable[Finding]:
        flagged: set[int] = set()
        if path_matches(module.rel, DP_MODULE_PREFIXES):
            for call in _store_put_calls(module.tree):
                flagged.add(id(call))
                yield finding_at(
                    module,
                    call,
                    self.id,
                    f"artifact-store write '{source_of(call)}' inside a "
                    "repro.dp module; noise-drawing code must never persist "
                    "its output to a cache",
                )
        for fn_node in _spends_budget_stage_fns(module):
            for call in _store_put_calls(fn_node):
                if id(call) in flagged:
                    continue
                flagged.add(id(call))
                yield finding_at(
                    module,
                    call,
                    self.id,
                    f"artifact-store write '{source_of(call)}' inside a "
                    "spends_budget=True stage function; budget-spending "
                    "stages are uncacheable by design — remove the put",
                )


__all__ = [
    "CacheWriteRule",
    "EpsilonArithmeticRule",
    "NoisePrimitiveRule",
    "DP_MODULE_PREFIXES",
    "NOISE_PRIMITIVES",
]
