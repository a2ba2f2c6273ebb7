"""Structured run bookkeeping and the unified release-result dataclass.

Every stage execution produces one :class:`RunRecord` — wall time, the
rng position it started from, the ε it debited, its cache key and
whether the artifact was served from cache. A :class:`PublicationResult`
is the common shape of "a sanitized matrix plus bookkeeping" that
``STPTResult`` extends and every baseline's ``Mechanism.run`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.data.matrix import ConsumptionMatrix
    from repro.parallel import TaskRecord


@dataclass(frozen=True)
class RunRecord:
    """Bookkeeping for one stage execution inside a pipeline run."""

    stage: str                       #: stage name
    seconds: float                   #: wall time of this execution
    epsilon_spent: float             #: ε debited from the accountant
    spends_budget: bool              #: declared privacy charge flag
    cached: bool                     #: artifact served from the store
    artifact_key: str | None = None  #: cache key (None when uncacheable)
    rng_state: str | None = None     #: entry rng fingerprint (stochastic stages)
    worker: str | None = None        #: executor worker id (None outside ``execute``)
    queued_seconds: float = 0.0      #: dispatch -> execution start wait

    def as_row(self) -> dict[str, object]:
        """Plain-dict rendering for ``format_table`` and the CLI."""
        return {
            "stage": self.stage,
            "seconds": self.seconds,
            "epsilon": self.epsilon_spent,
            "budget": "spends" if self.spends_budget else "free",
            "cached": "hit" if self.cached else ("-" if self.artifact_key is None else "miss"),
            "key": (self.artifact_key or "")[:12],
        }


def stamp_task(
    records: Iterable[RunRecord], task: "TaskRecord"
) -> list[RunRecord]:
    """The stage records one executor task produced, with its bookkeeping.

    Every record gets the task's worker id; only the first gets the
    task's queue wait, so summing ``queued_seconds`` over the records
    counts each task's wait once.
    """
    stamped = [replace(record, worker=task.worker) for record in records]
    if stamped:
        stamped[0] = replace(stamped[0], queued_seconds=task.queued_seconds)
    return stamped


@dataclass
class PublicationResult:
    """A sanitized release plus bookkeeping — the unified result shape.

    ``epsilon_spent`` is the privacy budget the release consumed (a
    baseline's requested ε, an STPT publish's ledger total) and
    ``elapsed_seconds`` its wall time; ``records`` holds one
    :class:`RunRecord` per stage, or the one record of a baseline.
    """

    sanitized: "ConsumptionMatrix"
    epsilon_spent: float
    elapsed_seconds: float
    mechanism: str = field(default="", kw_only=True)
    records: list[RunRecord] = field(default_factory=list, kw_only=True)


__all__ = ["PublicationResult", "RunRecord", "stamp_task"]
