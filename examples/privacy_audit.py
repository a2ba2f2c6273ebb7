"""Empirically audit the privacy of a release pipeline.

Builds a worst-case neighbouring pair (a household consuming at the
clipping bound vs its removal), runs mechanisms hundreds of times on
both, and derives a statistically sound lower bound on the ε each one
actually provides. An honest mechanism never exceeds its claim; the
deliberately broken control shows what detection looks like.

Run:  python examples/privacy_audit.py
"""

import numpy as np

from repro.audit import (
    BrokenIdentityTarget,
    ComposedSTPTTarget,
    MechanismAuditTarget,
    audit_epsilon,
    neighbouring_readings,
)
from repro.baselines.identity import Identity
from repro.core.pattern import PatternConfig
from repro.core.stpt import STPTConfig


def main() -> None:
    n_households, n_steps = 8, 12
    cells = np.zeros((n_households, 2), dtype=int)
    cells[1:, 0] = np.arange(n_households - 1) % 4
    cells[1:, 1] = np.arange(n_households - 1) // 4 % 4
    dataset, neighbour = neighbouring_readings(n_households, n_steps, rng=0)

    stpt_config = STPTConfig(
        epsilon_pattern=1.0, epsilon_sanitize=2.0, t_train=8,
        quantization_levels=4,
        pattern=PatternConfig(window=3, epochs=1, embed_dim=8, hidden_dim=8,
                              depth=1),
    )

    audits = [
        ("Identity, claimed ε=1",
         MechanismAuditTarget(Identity(), 1.0, cells, (4, 4)), 1.0, 400),
        ("STPT pipeline, claimed ε=3",
         ComposedSTPTTarget(stpt_config, cells, (4, 4), statistic="pillar-sum"),
         3.0, 60),
        ("BROKEN control (no noise), claimed ε=1",
         BrokenIdentityTarget(cells, (4, 4)), 1.0, 60),
    ]

    print(f"{'mechanism':42s} {'claim':>6s} {'audited lb':>11s}  verdict")
    print("-" * 75)
    for name, target, claim, trials in audits:
        result = audit_epsilon(
            target, dataset, neighbour,
            trials=trials, claimed_epsilon=claim, rng=1,
        )
        verdict = "VIOLATION" if result.violates_claim else "ok"
        print(f"{name:42s} {claim:6.1f} {result.epsilon_lower_bound:11.3f}  {verdict}")
    print("\nThe audit is falsification, not proof: a pass means no leak was")
    print("detectable at this sample size; the violation row shows the")
    print("auditor catching a pipeline whose noise was silently removed.")


if __name__ == "__main__":
    main()
