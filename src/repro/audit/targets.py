"""Ready-made audit targets for the library's mechanisms.

Each target maps ``(dataset, rng) -> scalar`` for the estimator, plus
the canonical neighbouring pair for the user-level adjacency the paper
uses (add/remove one household). The distinguishing statistic is chosen
where the removed household's influence concentrates, which is where a
privacy bug would surface first.

Targets are frozen dataclasses rather than closures so they pickle
cleanly into :class:`~repro.parallel.ParallelExecutor` payloads. The
full STPT publish is audited through
:class:`~repro.audit.composed.ComposedSTPTTarget`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import Mechanism
from repro.data.matrix import build_matrices
from repro.exceptions import ConfigurationError
from repro.rng import RngLike, derive_seed, ensure_rng


def neighbouring_readings(
    n_households: int,
    n_steps: int,
    rng: RngLike = None,
    heavy_value: float = 1.0,
    background_scale: float = 0.3,
) -> tuple[np.ndarray, np.ndarray]:
    """A dataset and its neighbour differing in one heavy household.

    The distinguished household consumes ``heavy_value`` (the clipping
    bound) at every step — the worst case the sensitivity analysis must
    cover. Removal is modelled by zeroing its row, which changes every
    cell sum exactly as removing the record would. ``background_scale``
    caps the other households' consumption; a small value keeps shared
    cells from clipping away part of the distinguished signal, which
    maximizes the audit's distinguishing power.
    """
    if n_households < 2:
        raise ConfigurationError("need at least two households")
    generator = ensure_rng(rng)
    readings = generator.random((n_households, n_steps)) * background_scale
    readings[0, :] = heavy_value
    neighbour = readings.copy()
    neighbour[0, :] = 0.0
    return readings, neighbour


def audit_cells(n_households: int, grid_shape: tuple[int, int]) -> np.ndarray:
    """Deterministic household placement for audit datasets.

    The distinguished household 0 sits *alone* at cell ``(0, 0)`` (so
    clipping of shared cells cannot mask its signal); the rest are
    spread round-robin over the remaining cells. Deterministic, so
    every trial sees the same geometry without consuming audit
    randomness.
    """
    if n_households < 1:
        raise ConfigurationError("need at least one household")
    rows, cols = grid_shape
    n_cells = rows * cols
    cells = np.zeros((n_households, 2), dtype=int)
    others = np.arange(max(0, n_households - 1))
    # flat index into cells 1..n_cells-1 (fall back to sharing the full
    # grid when it is a single cell)
    if n_cells > 1:
        flat = 1 + (others % (n_cells - 1))
    else:
        flat = others % n_cells
    cells[1:, 0] = flat // cols
    cells[1:, 1] = flat % cols
    return cells


@dataclass(frozen=True, eq=False)
class MechanismAuditTarget:
    """Audit target for a baseline mechanism.

    The statistic is the released total of the distinguished
    household's pillar — exactly where its removal shows.
    """

    mechanism: Mechanism
    epsilon: float
    cells: np.ndarray
    grid_shape: tuple[int, int]
    clip_factor: float = 1.0

    def __call__(self, readings: np.ndarray, rng: np.random.Generator) -> float:
        row, col = int(self.cells[0, 0]), int(self.cells[0, 1])
        __, norm = build_matrices(
            readings, self.cells, self.grid_shape, self.clip_factor
        )
        release = self.mechanism.run(norm, self.epsilon, rng=derive_seed(rng))
        return float(release.sanitized.values[row, col, :].sum())


@dataclass(frozen=True, eq=False)
class BrokenIdentityTarget:
    """A deliberately broken 'mechanism' that adds no noise.

    Exists so audit tests can demonstrate detection: the estimator must
    assign it an unbounded (large) empirical ε.
    """

    cells: np.ndarray
    grid_shape: tuple[int, int]

    def __call__(self, readings: np.ndarray, rng: np.random.Generator) -> float:
        row, col = int(self.cells[0, 0]), int(self.cells[0, 1])
        __, norm = build_matrices(readings, self.cells, self.grid_shape, 1.0)
        return float(norm.values[row, col, :].sum())


__all__ = [
    "audit_cells",
    "neighbouring_readings",
    "MechanismAuditTarget",
    "BrokenIdentityTarget",
]
