"""Empirical privacy audit of the implemented mechanisms.

Not a figure of the paper — a verification artifact: the audited
ε lower bound of every honest mechanism must stay below its claim,
and the deliberately broken control must be flagged.
"""

import numpy as np

from repro.audit import (
    BrokenIdentityTarget,
    MechanismAuditTarget,
    audit_epsilon,
    neighbouring_readings,
)
from repro.baselines.fourier import FourierPerturbation
from repro.baselines.identity import Identity


def run():
    cells = np.zeros((6, 2), dtype=int)
    cells[1:, 0] = np.arange(5) % 4
    cells[1:, 1] = np.arange(5) // 4
    d, dp = neighbouring_readings(6, 4, rng=10)
    rows = []
    for name, target, claim in [
        ("Identity (ε=1)",
         MechanismAuditTarget(Identity(), 1.0, cells, (4, 4)), 1.0),
        ("Fourier-2 (ε=1)",
         MechanismAuditTarget(FourierPerturbation(k=2), 1.0, cells, (4, 4)),
         1.0),
        ("BROKEN no-noise control",
         BrokenIdentityTarget(cells, (4, 4)), 1.0),
    ]:
        result = audit_epsilon(
            target, d, dp, trials=300, claimed_epsilon=claim, rng=11
        )
        rows.append({
            "mechanism": name,
            "claimed_eps": claim,
            "audited_lower_bound": result.epsilon_lower_bound,
            "violates": result.violates_claim,
        })
    return rows


def test_privacy_audit(print_rows):
    rows = print_rows("Empirical privacy audit (user-level adjacency)", run)
    by_name = {row["mechanism"]: row for row in rows}
    assert not by_name["Identity (ε=1)"]["violates"]
    assert not by_name["Fourier-2 (ε=1)"]["violates"]
    assert by_name["BROKEN no-noise control"]["violates"]
