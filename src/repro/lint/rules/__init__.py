"""Built-in rule set; importing this package registers every rule."""

from repro.lint.flow.rules import (
    DataDependentBudget,
    GeneratorCrossesExecutor,
    ImpureStageFunction,
    MechanismNotDominatedByCharge,
    RawDataReachesSink,
)
from repro.lint.rules.dp import (
    CacheWriteRule,
    EpsilonArithmeticRule,
    NoisePrimitiveRule,
)
from repro.lint.rules.hygiene import MutableDefaultRule, ReexportedModuleAllRule
from repro.lint.rules.numerics import FloatEqualityRule
from repro.lint.rules.obs import SpanNameRule
from repro.lint.rules.rng import GlobalRngRule
from repro.lint.rules.scenarios import InlineScenarioConfigRule

__all__ = [
    "CacheWriteRule",
    "DataDependentBudget",
    "EpsilonArithmeticRule",
    "FloatEqualityRule",
    "GeneratorCrossesExecutor",
    "GlobalRngRule",
    "ImpureStageFunction",
    "InlineScenarioConfigRule",
    "MechanismNotDominatedByCharge",
    "MutableDefaultRule",
    "NoisePrimitiveRule",
    "RawDataReachesSink",
    "ReexportedModuleAllRule",
    "SpanNameRule",
]
