"""Tests for the prefix-sum :class:`QueryEngine` and ``query_bounds``.

The engine's contract against :meth:`RangeQuery.evaluate` slice sums,
and against the whole-workload oracle ``evaluate_queries_reference`` in
``tests/oracles.py``, is agreement to floating-point round-off (corner
differences reassociate the slice sum); ``evaluate`` vs
``evaluate_many`` on identical queries is bit-identity (same
expression order element-wise).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.matrix import ConsumptionMatrix
from repro.exceptions import QueryError
from repro.queries.engine import QueryEngine, query_bounds
from repro.queries.range_query import (
    RangeQuery,
    evaluate_queries,
    large_queries,
    make_workload,
    random_queries,
    small_queries,
)

from tests.oracles import evaluate_queries_reference

#: Slice sums and corner differences agree to round-off of the table
#: magnitudes; for O(100) entries of O(1) values this is plenty.
_ATOL = 1e-9


def _random_workload(shape, rng):
    return (
        small_queries(shape, count=20, rng=rng)
        + large_queries(shape, count=20, rng=rng + 1)
        + random_queries(shape, count=20, rng=rng + 2)
    )


class TestEvaluate:
    def test_matches_range_query_evaluate(self, rng):
        values = rng.random((6, 5, 9))
        engine = QueryEngine(values)
        for query in _random_workload(values.shape, rng=0):
            assert engine.evaluate(query) == pytest.approx(
                query.evaluate(values), abs=_ATOL
            )

    def test_single_cell_query_is_the_cell(self, rng):
        values = rng.random((4, 4, 4))
        engine = QueryEngine(values)
        query = RangeQuery(2, 3, 1, 2, 3, 4)
        assert engine.evaluate(query) == pytest.approx(
            values[2, 1, 3], abs=_ATOL
        )

    def test_full_matrix_query_is_the_total(self, rng):
        values = rng.random((5, 6, 7))
        engine = QueryEngine(values)
        query = RangeQuery(0, 5, 0, 6, 0, 7)
        assert engine.evaluate(query) == pytest.approx(
            values.sum(), abs=_ATOL
        )

    def test_all_zero_matrix_is_exactly_zero(self):
        engine = QueryEngine(np.zeros((3, 3, 3)))
        assert engine.evaluate(RangeQuery(0, 3, 0, 3, 0, 3)) == 0.0

    def test_consumption_matrix_accepted(self, rng):
        values = rng.random((3, 3, 3))
        engine = QueryEngine(ConsumptionMatrix(values))
        assert engine.evaluate(RangeQuery(0, 3, 0, 3, 0, 3)) == pytest.approx(
            values.sum(), abs=_ATOL
        )

    def test_oversize_query_raises(self, rng):
        engine = QueryEngine(rng.random((3, 3, 3)))
        with pytest.raises(QueryError):
            engine.evaluate(RangeQuery(0, 4, 0, 1, 0, 1))

    def test_wrong_rank_matrix_rejected(self):
        with pytest.raises(QueryError):
            QueryEngine(np.ones((2, 2)))

    @settings(max_examples=50)
    @given(data=st.data())
    def test_equivalence_property(self, data):
        nx = data.draw(st.integers(1, 5), label="nx")
        ny = data.draw(st.integers(1, 5), label="ny")
        nt = data.draw(st.integers(1, 6), label="nt")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        values = np.random.default_rng(seed).random((nx, ny, nt))
        x0 = data.draw(st.integers(0, nx - 1))
        x1 = data.draw(st.integers(x0 + 1, nx))
        y0 = data.draw(st.integers(0, ny - 1))
        y1 = data.draw(st.integers(y0 + 1, ny))
        t0 = data.draw(st.integers(0, nt - 1))
        t1 = data.draw(st.integers(t0 + 1, nt))
        query = RangeQuery(x0, x1, y0, y1, t0, t1)
        engine = QueryEngine(values)
        assert engine.evaluate(query) == pytest.approx(
            query.evaluate(values), abs=_ATOL
        )


class TestEvaluateMany:
    def test_bit_identical_to_evaluate(self, rng):
        values = rng.random((8, 8, 10))
        engine = QueryEngine(values)
        queries = _random_workload(values.shape, rng=3)
        vectorized = engine.evaluate_many(queries)
        assert vectorized.shape == (len(queries),)
        for query, answer in zip(queries, vectorized):
            assert answer == engine.evaluate(query)  # exact, not approx

    def test_precomputed_bounds_path(self, rng):
        values = rng.random((8, 8, 10))
        engine = QueryEngine(values)
        queries = _random_workload(values.shape, rng=5)
        bounds = query_bounds(queries)
        assert np.array_equal(
            engine.evaluate_many(bounds), engine.evaluate_many(queries)
        )

    def test_empty_workload(self, rng):
        engine = QueryEngine(rng.random((3, 3, 3)))
        assert engine.evaluate_many([]).shape == (0,)
        assert engine.evaluate_many(query_bounds([])).shape == (0,)

    def test_oversize_query_named_in_error(self, rng):
        engine = QueryEngine(rng.random((3, 3, 3)))
        queries = [
            RangeQuery(0, 1, 0, 1, 0, 1),
            RangeQuery(0, 3, 0, 3, 0, 4),  # t out of range
        ]
        with pytest.raises(QueryError, match=r"query 1 "):
            engine.evaluate_many(queries)

    def test_malformed_bounds_rejected(self, rng):
        engine = QueryEngine(rng.random((3, 3, 3)))
        with pytest.raises(QueryError):
            engine.evaluate_many(np.zeros((4, 5), dtype=np.intp))
        with pytest.raises(QueryError):
            engine.evaluate_many(np.zeros((2, 3, 6), dtype=np.intp))

    def test_matches_evaluate_queries_wrapper(self, rng):
        values = rng.random((6, 6, 8))
        queries = _random_workload(values.shape, rng=7)
        engine = QueryEngine(values)
        answers = evaluate_queries(queries, values)
        assert np.array_equal(answers, engine.evaluate_many(queries))
        np.testing.assert_allclose(
            answers,
            evaluate_queries_reference(queries, values),
            rtol=0.0,
            atol=_ATOL,
        )


class TestQueryBounds:
    def test_shape_and_dtype(self):
        queries = [RangeQuery(0, 1, 2, 3, 4, 5), RangeQuery(1, 2, 0, 4, 0, 1)]
        bounds = query_bounds(queries)
        assert bounds.shape == (2, 6)
        assert bounds.dtype == np.intp
        assert bounds[0].tolist() == [0, 1, 2, 3, 4, 5]

    def test_empty(self):
        bounds = query_bounds([])
        assert bounds.shape == (0, 6)

    def test_round_trips_workload_generators(self):
        queries = make_workload("random", (5, 5, 5), count=9, rng=11)
        bounds = query_bounds(queries)
        for query, row in zip(queries, bounds):
            assert row.tolist() == [
                query.x0, query.x1, query.y0, query.y1, query.t0, query.t1,
            ]
