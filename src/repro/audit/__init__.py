"""Empirical DP auditing: falsifiable checks of the claimed ε.

Four layers, from primitive to verdict:

- :mod:`repro.audit.estimator` — the statistical core: Clopper-Pearson
  bounds, the deterministic parallel trial engine, and the empirical
  ε lower bound over a neighbouring pair.
- :mod:`repro.audit.targets` / :mod:`repro.audit.composed` — what gets
  audited: single mechanisms, the full staged STPT publish (sharded
  included), and its deliberately broken variants.
- :mod:`repro.audit.attacks` — what an adversary achieves: membership
  and pattern inference with advantage confidence intervals against
  the DP ceiling.
- :mod:`repro.audit.frontier` — the privacy-utility frontier table a
  ``kind="audit"`` scenario sweep produces, and the CI-gate predicate.
"""

from repro.audit.attacks import (
    AttackResult,
    dp_advantage_bound,
    mann_whitney_auc,
    membership_inference_attack,
    pattern_inference_attack,
    pattern_worlds,
    threshold_attack,
)
from repro.audit.composed import BREAK_MODES, ComposedSTPTTarget
from repro.audit.estimator import (
    AuditResult,
    AuditTarget,
    audit_epsilon,
    clopper_pearson_lower,
    clopper_pearson_upper,
    collect_scores,
)
from repro.audit.frontier import FrontierPoint, FrontierResult, run_frontier
from repro.audit.suite import (
    ComposedAuditPoint,
    ComposedAuditReport,
    audit_pair,
    run_composed_audit,
)
from repro.audit.targets import (
    BrokenIdentityTarget,
    MechanismAuditTarget,
    audit_cells,
    neighbouring_readings,
)

__all__ = [
    "AttackResult",
    "AuditResult",
    "AuditTarget",
    "BREAK_MODES",
    "BrokenIdentityTarget",
    "ComposedAuditPoint",
    "ComposedAuditReport",
    "ComposedSTPTTarget",
    "FrontierPoint",
    "FrontierResult",
    "MechanismAuditTarget",
    "audit_cells",
    "audit_epsilon",
    "audit_pair",
    "clopper_pearson_lower",
    "clopper_pearson_upper",
    "collect_scores",
    "dp_advantage_bound",
    "mann_whitney_auc",
    "membership_inference_attack",
    "neighbouring_readings",
    "pattern_inference_attack",
    "pattern_worlds",
    "run_composed_audit",
    "run_frontier",
    "threshold_attack",
]
