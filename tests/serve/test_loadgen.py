"""Load harness: workload pool determinism, live-server runs, reports."""

import asyncio

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.queries.engine import QueryEngine
from repro.serve import (
    ReleaseServer,
    ServeConfig,
    fetch_release_shape,
    mixed_workload_bounds,
    run_load_async,
)

SHAPE = (8, 8, 12)


@pytest.fixture()
def release(tmp_path):
    values = np.random.default_rng(9).random(SHAPE)
    path = tmp_path / "r.npz"
    np.savez(path, values=values)
    return values, path


class TestMixedWorkloadBounds:
    def test_three_classes_concatenated(self):
        bounds = mixed_workload_bounds(SHAPE, count=10, rng=0)
        assert bounds.shape == (30, 6)
        # Small queries are unit cubes.
        extents = bounds[:10, 1::2] - bounds[:10, 0::2]
        assert (extents == 1).all()

    def test_deterministic_for_a_seed(self):
        first = mixed_workload_bounds(SHAPE, count=12, rng=42)
        second = mixed_workload_bounds(SHAPE, count=12, rng=42)
        assert np.array_equal(first, second)
        other = mixed_workload_bounds(SHAPE, count=12, rng=43)
        assert not np.array_equal(first, other)

    def test_all_bounds_fit_the_shape(self):
        bounds = mixed_workload_bounds(SHAPE, count=50, rng=1)
        assert (bounds[:, 0::2] >= 0).all()
        assert (bounds[:, 0::2] < bounds[:, 1::2]).all()
        assert (bounds[:, 1::2] <= np.asarray(SHAPE)).all()


class TestRunLoad:
    def test_load_answers_match_reference_bits(self, release):
        values, path = release
        bounds = mixed_workload_bounds(SHAPE, count=8, rng=2)
        reference = QueryEngine(values).evaluate_many(bounds)
        requests = 60

        async def main():
            server = ReleaseServer({"r": str(path)}, ServeConfig())
            async with server:
                return await run_load_async(
                    "127.0.0.1", server.port, "r", bounds,
                    requests=requests, connections=5,
                    collect_answers=True,
                )

        report = asyncio.run(main())
        assert report.errors == 0
        assert report.requests == requests
        assert report.connections == 5
        assert report.requests_per_second > 0
        assert 0 < report.p50_ms <= report.p99_ms
        got = np.array([row[0] for row in report.answers])
        want = np.array(
            [reference[i % len(bounds)] for i in range(requests)]
        )
        assert np.array_equal(got, want)

    def test_queries_per_request_sends_row_blocks(self, release):
        values, path = release
        bounds = mixed_workload_bounds(SHAPE, count=6, rng=3)
        reference = QueryEngine(values).evaluate_many(bounds)

        async def main():
            server = ReleaseServer({"r": str(path)}, ServeConfig())
            async with server:
                return await run_load_async(
                    "127.0.0.1", server.port, "r", bounds,
                    requests=9, connections=3,
                    queries_per_request=4, collect_answers=True,
                )

        report = asyncio.run(main())
        assert report.errors == 0
        for index, answers in enumerate(report.answers):
            rows = (index * 4 + np.arange(4)) % len(bounds)
            assert answers == reference[rows].tolist()

    def test_fetch_release_shape(self, release):
        values, path = release

        async def main():
            server = ReleaseServer({"r": str(path)}, ServeConfig())
            async with server:
                shape = await fetch_release_shape(
                    "127.0.0.1", server.port, "r"
                )
                with pytest.raises(ServeError, match="rejected"):
                    await fetch_release_shape("127.0.0.1", server.port, "zz")
            return shape

        assert asyncio.run(main()) == SHAPE

    def test_input_validation(self):
        bounds = np.zeros((0, 6), dtype=np.intp)
        with pytest.raises(ServeError, match="empty"):
            asyncio.run(
                run_load_async("127.0.0.1", 1, "r", bounds, requests=1)
            )
        with pytest.raises(ServeError, match="requests"):
            asyncio.run(
                run_load_async(
                    "127.0.0.1", 1, "r",
                    np.array([[0, 1, 0, 1, 0, 1]]), requests=0,
                )
            )
