"""ReleaseServer: routes, concurrency, pipelining, bit-identity, termination.

pytest-asyncio is deliberately not a dependency; each test drives the
server inside ``asyncio.run`` from a synchronous test function.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.obs import Metrics, use_metrics
from repro.queries.engine import QueryEngine
from repro.queries.range_query import RangeQuery
from repro.serve import ReleaseServer, ServeConfig, mixed_workload_bounds
from repro.serve.protocol import ProtocolError, parse_query_request

SHAPE = (6, 6, 10)


@pytest.fixture()
def release(tmp_path):
    values = np.random.default_rng(3).random(SHAPE)
    path = tmp_path / "r.npz"
    np.savez(path, values=values)
    return values, path


@pytest.fixture()
def other_release(tmp_path):
    values = np.random.default_rng(5).random(SHAPE)
    path = tmp_path / "o.npz"
    np.savez(path, values=values)
    return values, path


async def _http(port, method, target, payload=None):
    """One request over a fresh connection; (status, parsed body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = json.dumps(payload).encode() if payload is not None else b""
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    status = int(raw.split(b" ", 2)[1])
    data = raw.split(b"\r\n\r\n", 1)[1]
    return status, json.loads(data) if data else {}


async def _raw(port, data):
    """Send raw bytes over a fresh connection; the response's status."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    return int(raw.split(b" ", 2)[1])


async def _read_response(reader):
    """One keep-alive response off ``reader``; (status, parsed body)."""
    head = await reader.readuntil(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length")
    )
    body = await reader.readexactly(length)
    return int(head.split(b" ", 2)[1]), json.loads(body)


def _serve(coro_fn, values, path):
    """Run ``coro_fn(server, engine)`` against a live server."""
    engine = QueryEngine(values)

    async def main():
        server = ReleaseServer({"r": str(path)})
        async with server:
            return await coro_fn(server, engine)

    return asyncio.run(main())


class TestRoutes:
    def test_healthz_reports_cache_occupancy(self, release):
        values, path = release

        async def scenario(server, engine):
            status, body = await _http(server.port, "GET", "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["cache"]["registered"] == ["r"]
            assert body["cache"]["loaded"] == []
            await _http(server.port, "GET", "/releases/r")
            status, body = await _http(server.port, "GET", "/healthz")
            assert body["cache"]["loaded"] == ["r"]

        _serve(scenario, values, path)

    def test_releases_routes(self, release):
        values, path = release

        async def scenario(server, engine):
            status, body = await _http(server.port, "GET", "/releases")
            assert status == 200
            assert body["releases"] == [{"name": "r", "loaded": False}]
            status, body = await _http(server.port, "GET", "/releases/r")
            assert status == 200
            assert body == {"name": "r", "shape": list(SHAPE)}
            status, body = await _http(server.port, "GET", "/releases/zz")
            assert status == 404

        _serve(scenario, values, path)

    def test_metrics_endpoint_serves_the_registry(self, release):
        values, path = release

        async def scenario(server, engine):
            await _http(server.port, "GET", "/releases/r")
            status, body = await _http(server.port, "GET", "/metrics")
            assert status == 200
            assert body["counters"]["serve.requests"] >= 1.0

        metrics = Metrics()
        with use_metrics(metrics):
            _serve(scenario, values, path)

    def test_every_error_response_is_counted(self, release):
        """Framing errors (answered before a request exists) count in
        serve.requests/serve.errors and requests_served like any other
        response."""
        values, path = release

        async def scenario(server, engine):
            statuses = [
                await _raw(server.port, b"GARBAGE\r\n\r\n"),
                await _raw(
                    server.port,
                    b"POST /query HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 999999999\r\n\r\n",
                ),
                await _raw(
                    server.port,
                    b"POST /query HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 8\r\nConnection: close\r\n\r\n"
                    b"not json",
                ),
            ]
            assert statuses == [400, 413, 400]
            return server.requests_served

        metrics = Metrics()
        with use_metrics(metrics):
            served = _serve(scenario, values, path)
        counters = metrics.as_dict()["counters"]
        assert counters["serve.requests"] == 3
        assert counters["serve.errors"] == 3
        assert served == 3

    def test_unknown_route_is_404_wrong_method_405(self, release):
        values, path = release

        async def scenario(server, engine):
            status, _ = await _http(server.port, "GET", "/nope")
            assert status == 404
            status, _ = await _http(server.port, "POST", "/healthz")
            assert status == 405
            status, _ = await _http(server.port, "GET", "/query")
            assert status == 405

        _serve(scenario, values, path)


class TestQuery:
    def test_single_query_matches_engine_bits(self, release):
        values, path = release
        query = RangeQuery(1, 4, 0, 5, 2, 9)

        async def scenario(server, engine):
            status, body = await _http(
                server.port, "POST", "/query",
                {"release": "r", "queries": [[1, 4, 0, 5, 2, 9]]},
            )
            assert status == 200
            assert body["answers"] == [engine.evaluate(query)]

        _serve(scenario, values, path)

    def test_average_aggregate_divides_by_volume(self, release):
        values, path = release
        query = RangeQuery(0, 2, 0, 3, 0, 4)

        async def scenario(server, engine):
            status, body = await _http(
                server.port, "POST", "/query",
                {
                    "release": "r",
                    "aggregate": "average",
                    "queries": [[0, 2, 0, 3, 0, 4]],
                },
            )
            assert status == 200
            assert body["answers"] == [engine.evaluate(query) / query.volume]

        _serve(scenario, values, path)

    def test_bad_bounds_and_bad_json_are_400(self, release):
        values, path = release

        async def scenario(server, engine):
            status, body = await _http(
                server.port, "POST", "/query",
                {"release": "r", "queries": [[0, 99, 0, 1, 0, 1]]},
            )
            assert status == 400
            assert "invalid for shape" in body["error"]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 8\r\nConnection: close\r\n\r\nnot json"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b" 400 " in raw.split(b"\r\n", 1)[0]

        _serve(scenario, values, path)

    def test_unknown_release_is_404(self, release):
        values, path = release

        async def scenario(server, engine):
            status, body = await _http(
                server.port, "POST", "/query",
                {"release": "zz", "queries": [[0, 1, 0, 1, 0, 1]]},
            )
            assert status == 404

        _serve(scenario, values, path)


class TestBatching:
    """Concurrent and pipelined requests: each answer carries exactly
    the bits of ``evaluate_many`` over that request's bounds."""

    def test_interleaved_clients_get_bit_identical_answers(self, release):
        """Concurrent clients see the same bits as ``evaluate_many``
        over each client's rows."""
        values, path = release
        rng = np.random.default_rng(11)
        queries = []
        for _ in range(40):
            x0, y0, t0 = (int(rng.integers(0, d)) for d in SHAPE)
            x1 = int(rng.integers(x0 + 1, SHAPE[0] + 1))
            y1 = int(rng.integers(y0 + 1, SHAPE[1] + 1))
            t1 = int(rng.integers(t0 + 1, SHAPE[2] + 1))
            queries.append([x0, x1, y0, y1, t0, t1])

        async def scenario(server, engine):
            await _http(server.port, "GET", "/releases/r")  # warm

            async def client(rows):
                out = []
                for row in rows:
                    status, body = await _http(
                        server.port, "POST", "/query",
                        {"release": "r", "queries": [row]},
                    )
                    assert status == 200
                    out.extend(body["answers"])
                return out

            chunks = [queries[i::4] for i in range(4)]
            results = await asyncio.gather(*(client(c) for c in chunks))
            for chunk, answers in zip(chunks, results):
                expected = engine.evaluate_many(
                    np.array(chunk, dtype=np.intp)
                )
                assert answers == expected.tolist()

        _serve(scenario, values, path)

    def test_multi_release_batch_groups_by_release(self, release, other_release):
        values, path = release
        other, other_path = other_release

        async def main():
            server = ReleaseServer({"r": str(path), "o": str(other_path)})
            async with server:
                await _http(server.port, "GET", "/releases/r")
                await _http(server.port, "GET", "/releases/o")
                payloads = [
                    ("r", [[0, 3, 0, 3, 0, 3]]),
                    ("o", [[0, 3, 0, 3, 0, 3]]),
                    ("r", [[1, 2, 1, 2, 1, 2]]),
                    ("o", [[1, 2, 1, 2, 1, 2]]),
                ]
                results = await asyncio.gather(*(
                    _http(
                        server.port, "POST", "/query",
                        {"release": name, "queries": rows},
                    )
                    for name, rows in payloads
                ))
            engines = {"r": QueryEngine(values), "o": QueryEngine(other)}
            for (name, rows), (status, body) in zip(payloads, results):
                assert status == 200
                expected = engines[name].evaluate_many(
                    np.array(rows, dtype=np.intp)
                )
                assert body["answers"] == expected.tolist()

        asyncio.run(main())

    def test_pipelined_requests_answer_in_order(self, release, other_release):
        """Six requests written on one keep-alive connection before any
        response is read come back in order, each equal to
        ``evaluate_many`` on its own release."""
        values, path = release
        other, other_path = other_release
        pool = mixed_workload_bounds(SHAPE, count=100, rng=4)
        payloads = [
            ("r", pool[:1]),
            ("o", pool),
            ("o", pool[7:8]),
            ("r", pool),
            ("r", pool[150:151]),
            ("o", pool[::-1]),
        ]

        async def main():
            server = ReleaseServer({"r": str(path), "o": str(other_path)})
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    for name, rows in payloads:
                        body = json.dumps(
                            {"release": name, "queries": rows.tolist()}
                        ).encode()
                        writer.write(
                            b"POST /query HTTP/1.1\r\nHost: t\r\n"
                            + f"Content-Length: {len(body)}\r\n\r\n".encode()
                            + body
                        )
                    await writer.drain()
                    return [await _read_response(reader) for _ in payloads]
                finally:
                    writer.close()

        responses = asyncio.run(main())
        engines = {"r": QueryEngine(values), "o": QueryEngine(other)}
        for (name, rows), (status, body) in zip(payloads, responses):
            assert status == 200
            assert body["release"] == name
            assert body["answers"] == engines[name].evaluate_many(rows).tolist()


class TestDerived:
    def test_profile_peak_base_par(self, release):
        values, path = release

        async def scenario(server, engine):
            base = {"release": "r", "region": [0, 3, 0, 3], "t0": 0, "t1": 8}
            status, body = await _http(
                server.port, "POST", "/derived", {**base, "metric": "profile"}
            )
            assert status == 200 and len(body["values"]) == 8
            status, peak = await _http(
                server.port, "POST", "/derived", {**base, "metric": "peak"}
            )
            assert status == 200
            assert peak["value"] == max(body["values"])
            status, low = await _http(
                server.port, "POST", "/derived", {**base, "metric": "base"}
            )
            assert low["value"] == min(body["values"])
            status, par = await _http(
                server.port, "POST", "/derived", {**base, "metric": "par"}
            )
            mean = sum(body["values"]) / len(body["values"])
            assert par["value"] == pytest.approx(peak["value"] / mean)

        _serve(scenario, values, path)

    def test_top_k(self, release):
        values, path = release

        async def scenario(server, engine):
            status, body = await _http(
                server.port, "POST", "/derived",
                {"release": "r", "metric": "top_k", "block_side": 3, "k": 2},
            )
            assert status == 200
            assert len(body["regions"]) == 2
            totals = [r["total"] for r in body["regions"]]
            assert totals == sorted(totals, reverse=True)

        _serve(scenario, values, path)

    def test_boolean_bounds_are_400(self, release):
        values, path = release

        async def scenario(server, engine):
            for payload in [
                {"metric": "peak", "region": [True, 3, 0, 3], "t0": 0},
                {"metric": "peak", "region": [0, 3, 0, 3], "t0": False},
                {"metric": "top_k", "block_side": 3, "k": True},
            ]:
                status, body = await _http(
                    server.port, "POST", "/derived",
                    {"release": "r", **payload},
                )
                assert status == 400, payload
                assert "integers" in body["error"]

        _serve(scenario, values, path)

    def test_unknown_metric_and_bad_region_are_400(self, release):
        values, path = release

        async def scenario(server, engine):
            status, body = await _http(
                server.port, "POST", "/derived",
                {"release": "r", "metric": "median", "region": [0, 1, 0, 1]},
            )
            assert status == 400
            assert "unknown metric" in body["error"]
            status, body = await _http(
                server.port, "POST", "/derived",
                {"release": "r", "metric": "peak", "region": [3, 1, 0, 1]},
            )
            assert status == 400

        _serve(scenario, values, path)


class TestLifecycle:
    def test_max_requests_terminates_the_server(self, release):
        values, path = release

        async def main():
            server = ReleaseServer(
                {"r": str(path)},
                ServeConfig(max_requests=3),
            )
            async with server:
                for _ in range(3):
                    await _http(server.port, "GET", "/healthz")
                served = await asyncio.wait_for(
                    server.serve_until_done(), timeout=5
                )
            return served

        assert asyncio.run(main()) == 3

    def test_keep_alive_serves_multiple_requests_per_connection(self, release):
        values, path = release

        async def scenario(server, engine):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                for _ in range(3):
                    writer.write(
                        b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                    )
                    await writer.drain()
                    status, _ = await _read_response(reader)
                    assert status == 200
            finally:
                writer.close()
            return server.requests_served

        assert _serve(scenario, values, path) == 3

    def test_server_requires_a_release(self):
        with pytest.raises(ServeError, match="at least one"):
            ReleaseServer({})

    def test_config_validation(self):
        with pytest.raises(ServeError, match="max_requests"):
            ServeConfig(max_requests=0)
        # Requests are answered inline: there is no batching to tune.
        with pytest.raises(TypeError):
            ServeConfig(batch_window=0.001)
        with pytest.raises(TypeError):
            ServeConfig(max_batch=8)


class TestParseQueryRequest:
    def test_valid_bounds_round_trip(self):
        bounds, aggregate = parse_query_request(
            {"queries": [[0, 1, 0, 2, 0, 3]]}, SHAPE
        )
        assert bounds.tolist() == [[0, 1, 0, 2, 0, 3]]
        assert aggregate == "sum"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "JSON object"),
            ({"queries": []}, "non-empty list"),
            ({"queries": "x"}, "non-empty list"),
            ({"queries": [[0, 1, 0, 1]]}, "six integers"),
            ({"queries": [["a"] * 6]}, "six integers"),
            ({"queries": [[0, 0, 0, 1, 0, 1]]}, "invalid for shape"),
            ({"queries": [[-1, 1, 0, 1, 0, 1]]}, "invalid for shape"),
            ({"queries": [[0, 7, 0, 1, 0, 1]]}, "invalid for shape"),
            (
                {"queries": [[0, 1, 0, 1, 0, 1]], "aggregate": "max"},
                "aggregate",
            ),
            ({"queries": [[0.5, 3.7, 0, 1, 0, 1]]}, "six integers"),
            ({"queries": [[True, 3, 0, 1, 0, 1]]}, "six integers"),
            ({"queries": [["1", "3", 0, 1, 0, 1]]}, "six integers"),
        ],
    )
    def test_rejects_malformed_payloads(self, payload, message):
        with pytest.raises(ProtocolError, match=message):
            parse_query_request(payload, SHAPE)
