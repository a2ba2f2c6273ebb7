"""Seed-spawning discipline for work that crosses process boundaries.

A live :class:`numpy.random.Generator` must never be captured into a
task submitted to an executor: its state would be *copied* into every
worker, all tasks would draw the same stream, and the result would
depend on how work was sharded. The sound pattern — enforced by lint
rule RNG100 — is to derive one :class:`numpy.random.SeedSequence` per
task **before** dispatch via :func:`spawn_seed_sequences` and construct
the generator *inside* the task.

Because the children come from ``SeedSequence.spawn`` on a root derived
once from the caller's rng, the set of per-task streams depends only on
the root seed and the task count — not on the worker count or the
completion order — which is what makes an N-worker run bit-identical to
a serial run.
"""

from __future__ import annotations

import numpy as np

from repro.rng import RngLike, derive_seed


def spawn_seed_sequences(rng: RngLike, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent per-task seed sequences from one root.

    The root entropy is drawn once from ``rng`` (consuming exactly one
    ``derive_seed``), so the caller's generator advances identically
    whether the tasks later run on one worker or many.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    root = np.random.SeedSequence(derive_seed(rng))
    return list(root.spawn(count))


def task_generator(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Build the task-local generator from its payload seed.

    Call this *inside* the task body; the payload carries only the seed.
    """
    return np.random.default_rng(seed)


__all__ = ["spawn_seed_sequences", "task_generator"]
