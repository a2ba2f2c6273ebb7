"""Spatio-temporal range queries (Definition 3 of the paper).

A range query is a 3-orthotope ``[x0, x1) x [y0, y1) x [t0, t1)`` over
the consumption matrix; its answer is the sum of the covered cells.
The workload generators mirror Section 5.1: *small* (1x1x1), *large*
(10x10x10, clamped to the matrix), and *random shape and size*
queries, 300 of each by default.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.data.matrix import ConsumptionMatrix
from repro.exceptions import ConfigurationError, QueryError
from repro.obs import get_metrics
from repro.queries.engine import QueryEngine
from repro.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class RangeQuery:
    """Half-open 3-orthotope ``[x0, x1) x [y0, y1) x [t0, t1)``."""

    x0: int
    x1: int
    y0: int
    y1: int
    t0: int
    t1: int

    def __post_init__(self) -> None:
        if not (self.x0 < self.x1 and self.y0 < self.y1 and self.t0 < self.t1):
            raise QueryError(f"degenerate query bounds: {self}")
        if min(self.x0, self.y0, self.t0) < 0:
            raise QueryError(f"negative query bounds: {self}")

    @property
    def extent(self) -> tuple[int, int, int]:
        return self.x1 - self.x0, self.y1 - self.y0, self.t1 - self.t0

    @property
    def volume(self) -> int:
        dx, dy, dt = self.extent
        return dx * dy * dt

    def fits(self, shape: tuple[int, int, int]) -> bool:
        return self.x1 <= shape[0] and self.y1 <= shape[1] and self.t1 <= shape[2]

    def evaluate(self, matrix: ConsumptionMatrix | np.ndarray) -> float:
        """Sum of covered cells; raises if the query exceeds the matrix."""
        values = matrix.values if isinstance(matrix, ConsumptionMatrix) else matrix
        values = np.asarray(values, dtype=float)
        if values.ndim != 3:
            raise QueryError("queries evaluate against 3-D matrices")
        if not self.fits(values.shape):
            raise QueryError(f"query {self} exceeds matrix shape {values.shape}")
        return float(
            values[self.x0 : self.x1, self.y0 : self.y1, self.t0 : self.t1].sum()
        )


def evaluate_queries(
    queries: list[RangeQuery],
    matrix: "ConsumptionMatrix | np.ndarray | QueryEngine",
    engine: QueryEngine | None = None,
) -> np.ndarray:
    """Vector of answers for a workload.

    Builds one :class:`QueryEngine` over ``matrix`` and answers the
    whole workload with a single vectorized gather; pass a prebuilt
    engine (either as ``matrix`` or via ``engine=``) to reuse its table
    across workloads over the same matrix.
    """
    if engine is None:
        engine = (
            matrix if isinstance(matrix, QueryEngine) else QueryEngine(matrix)
        )
    return engine.evaluate_many(queries)


_MAX_REJECTION_ATTEMPTS = 200


def _reference_engine(
    reference: "ConsumptionMatrix | np.ndarray | QueryEngine | None",
) -> QueryEngine | None:
    if reference is None or isinstance(reference, QueryEngine):
        return reference
    values = (
        reference.values
        if isinstance(reference, ConsumptionMatrix)
        else np.asarray(reference, dtype=float)
    )
    if values.ndim != 3:
        raise QueryError("reference matrix must be 3-D")
    return QueryEngine(values)


def _place_query(
    shape: tuple[int, int, int],
    size: tuple[int, int, int],
    rng: np.random.Generator,
    reference: QueryEngine | None,
    workload: str = "unnamed",
) -> RangeQuery:
    """Place a query of the given size; rejection-sample a positive
    true answer when a reference engine is supplied (Eq. 5 divides by
    the true answer, so the paper's workloads are non-degenerate)."""
    spans = [min(s, d) for s, d in zip(size, shape)]
    query = None
    for __ in range(_MAX_REJECTION_ATTEMPTS):
        starts = [int(rng.integers(0, d - s + 1)) for s, d in zip(spans, shape)]
        query = RangeQuery(
            x0=starts[0], x1=starts[0] + spans[0],
            y0=starts[1], y1=starts[1] + spans[1],
            t0=starts[2], t1=starts[2] + spans[2],
        )
        if reference is None or reference.evaluate(query) > 0:
            return query
    # All sampled regions answered zero: fall back to the last
    # placement, but say so — a zero true answer makes this query's
    # Eq. 5 denominator degenerate (floored by the sanity bound). The
    # counter travels home from fork workers with the task's metrics
    # snapshot; the warning rides the TaskRecord (see repro.parallel).
    get_metrics().counter("queries.rejection_exhausted")
    warnings.warn(
        f"workload {workload!r}: {_MAX_REJECTION_ATTEMPTS} rejection "
        f"attempts found no region of size {tuple(spans)} with a "
        f"positive true answer in shape {tuple(shape)}; keeping the "
        f"all-zero region {query}",
        RuntimeWarning,
        stacklevel=3,
    )
    return query


def small_queries(
    shape: tuple[int, int, int],
    count: int = 300,
    rng: RngLike = None,
    reference: "ConsumptionMatrix | np.ndarray | None" = None,
) -> list[RangeQuery]:
    """Unit (1x1x1) queries at random positions."""
    generator = ensure_rng(rng)
    engine = _reference_engine(reference)
    return [
        _place_query(shape, (1, 1, 1), generator, engine, workload="small")
        for __ in range(count)
    ]


def large_queries(
    shape: tuple[int, int, int],
    count: int = 300,
    size: tuple[int, int, int] = (10, 10, 10),
    rng: RngLike = None,
    reference: "ConsumptionMatrix | np.ndarray | None" = None,
) -> list[RangeQuery]:
    """10x10x10 queries (clamped to the matrix) at random positions."""
    generator = ensure_rng(rng)
    engine = _reference_engine(reference)
    return [
        _place_query(shape, size, generator, engine, workload="large")
        for __ in range(count)
    ]


def random_queries(
    shape: tuple[int, int, int],
    count: int = 300,
    rng: RngLike = None,
    reference: "ConsumptionMatrix | np.ndarray | None" = None,
) -> list[RangeQuery]:
    """Queries with uniformly random shape and size in every dimension."""
    if count <= 0:
        raise ConfigurationError("count must be positive")
    generator = ensure_rng(rng)
    engine = _reference_engine(reference)
    queries = []
    for __ in range(count):
        spans = [int(generator.integers(1, d + 1)) for d in shape]
        queries.append(
            _place_query(shape, tuple(spans), generator, engine, workload="random")
        )
    return queries


WORKLOADS = {
    "random": random_queries,
    "small": small_queries,
    "large": large_queries,
}


def make_workload(
    kind: str,
    shape: tuple[int, int, int],
    count: int = 300,
    rng: RngLike = None,
    reference: "ConsumptionMatrix | np.ndarray | None" = None,
) -> list[RangeQuery]:
    """Generate a named workload (``random``/``small``/``large``)."""
    try:
        factory = WORKLOADS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {kind!r}; options: {sorted(WORKLOADS)}"
        ) from None
    return factory(shape, count=count, rng=rng, reference=reference)

__all__ = [
    "RangeQuery",
    "evaluate_queries",
    "small_queries",
    "large_queries",
    "random_queries",
    "WORKLOADS",
    "make_workload",
]
