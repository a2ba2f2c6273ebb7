"""Asyncio query server: each ``/query`` is one ``evaluate_many`` call.

One process serves every registered release: connections are handled by
stdlib asyncio streams, cold engine builds go through the single-flight
:class:`~repro.serve.cache.ReleaseCache` (in an executor thread so the
event loop never blocks on a cumsum), and a warm ``/query`` is answered
inline on the event loop by one :meth:`QueryEngine.evaluate_many` call
over its ``(n, 6)`` bounds array, so every answer carries exactly the
bits ``evaluate_many`` gives for that request's bounds. Requests on one
keep-alive connection, pipelined or not, are answered in order.

Observability rides on ``repro.obs``: each request opens a
``serve.request`` span, counters/histograms land in the active
:class:`Metrics` registry (which ``GET /metrics`` serves back), and
``GET /healthz`` reports cache occupancy. Every response the server
writes, framing errors included, is counted in one place, so
``serve.requests``, ``serve.errors`` and ``requests_served`` agree.

Routes::

    GET  /healthz          -> {"status", "requests", "cache": {...}}
    GET  /metrics          -> the active Metrics registry, as JSON
    GET  /releases         -> registered names + loaded flags
    GET  /releases/NAME    -> loads NAME (warming the cache), its shape
    POST /query            -> {"release", "queries": [[x0,x1,y0,y1,t0,t1],...],
                               "aggregate": "sum"|"average"} -> {"answers": [...]}
    POST /derived          -> {"release", "metric", "region": [x0,x1,y0,y1],
                               "t0", "t1", ...} -> metric-specific payload
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro.exceptions import QueryError, ServeError
from repro.obs import get_metrics, get_tracer
from repro.queries.derived import (
    SpatialRegion,
    base_load,
    consumption_profile,
    peak_demand,
    peak_to_average_ratio,
    top_k_regions,
)
from repro.serve.cache import CachedRelease, ReleaseCache
from repro.serve.protocol import (
    HttpRequest,
    ProtocolError,
    parse_query_request,
    read_request,
    write_response,
)

_LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1)


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for one :class:`ReleaseServer`.

    ``max_requests`` makes the server self-terminating after N requests
    — the hook tests and the CLI's bounded mode use it.
    """

    host: str = "127.0.0.1"
    port: int = 0
    cache_capacity: int = 8
    max_requests: int | None = None

    def __post_init__(self) -> None:
        if self.max_requests is not None and self.max_requests < 1:
            raise ServeError(
                f"max_requests must be >= 1, got {self.max_requests}"
            )


class ReleaseServer:
    """Serves range/derived queries over published releases."""

    def __init__(
        self,
        releases: Mapping[str, Any] | ReleaseCache,
        config: ServeConfig | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.cache = (
            releases
            if isinstance(releases, ReleaseCache)
            else ReleaseCache(releases, capacity=self.config.cache_capacity)
        )
        if not self.cache.names():
            raise ServeError("a server needs at least one registered release")
        self.requests_served = 0
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._done: asyncio.Event | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> int:
        """Bind and return the bound port."""
        if self._server is not None:
            raise ServeError("server already started")
        self._done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        """Close the listener and open connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Python 3.11's wait_closed() does not wait for handler
        # coroutines; close lingering keep-alive sockets so their
        # readers see EOF and the handlers unwind.
        for writer in list(self._writers):
            writer.close()
        if self._done is not None:
            self._done.set()

    async def serve_until_done(self) -> int:
        """Block until ``max_requests`` is reached; requests served."""
        if self._done is None:
            raise ServeError("server not started")
        await self._done.wait()
        return self.requests_served

    async def __aenter__(self) -> "ReleaseServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as error:
                    await self._respond(
                        writer, error.status, {"error": str(error)}
                    )
                    break
                if request is None:
                    break
                status, payload = await self._handle_request(request)
                await self._respond(writer, status, payload)
                if not request.keep_alive:
                    break
                if self._done is not None and self._done.is_set():
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        """Write one response and count it; every response passes here."""
        await write_response(writer, status, payload)
        metrics = get_metrics()
        metrics.counter("serve.requests")
        if status >= 400:
            metrics.counter("serve.errors")
        self.requests_served += 1
        limit = self.config.max_requests
        if limit is not None and self.requests_served >= limit:
            if self._done is not None:
                self._done.set()

    async def _handle_request(
        self, request: HttpRequest
    ) -> tuple[int, Any]:
        started = time.perf_counter()
        with get_tracer().span(
            "serve.request", method=request.method, target=request.target
        ):
            try:
                status, payload = await self._route(request)
            except ProtocolError as error:
                status, payload = error.status, {"error": str(error)}
            except (ServeError, QueryError) as error:
                status, payload = 500, {"error": str(error)}
            except Exception as error:  # pragma: no cover - last resort
                status, payload = 500, {
                    "error": f"internal error: {type(error).__name__}"
                }
        get_metrics().histogram(
            "serve.request.seconds",
            time.perf_counter() - started,
            buckets=_LATENCY_BUCKETS,
        )
        return status, payload

    async def _route(self, request: HttpRequest) -> tuple[int, Any]:
        method, target = request.method, request.target.rstrip("/") or "/"
        if target == "/healthz":
            if method != "GET":
                raise ProtocolError(405, "/healthz supports GET only")
            return 200, {
                "status": "ok",
                "requests": self.requests_served,
                "cache": self.cache.snapshot(),
            }
        if target == "/metrics":
            if method != "GET":
                raise ProtocolError(405, "/metrics supports GET only")
            return 200, get_metrics().as_dict()
        if target == "/releases":
            if method != "GET":
                raise ProtocolError(405, "/releases supports GET only")
            snapshot = self.cache.snapshot()
            loaded = set(snapshot["loaded"])
            return 200, {
                "releases": [
                    {"name": name, "loaded": name in loaded}
                    for name in snapshot["registered"]
                ]
            }
        if target.startswith("/releases/"):
            if method != "GET":
                raise ProtocolError(405, "/releases/NAME supports GET only")
            entry = await self._entry(target[len("/releases/"):])
            return 200, {"name": entry.name, "shape": list(entry.shape)}
        if target == "/query":
            if method != "POST":
                raise ProtocolError(405, "/query supports POST only")
            return await self._query(request)
        if target == "/derived":
            if method != "POST":
                raise ProtocolError(405, "/derived supports POST only")
            return await self._derived(request)
        raise ProtocolError(404, f"no such route: {request.target}")

    async def _entry(self, name: str) -> CachedRelease:
        if name not in self.cache:
            raise ProtocolError(
                404,
                f"unknown release {name!r}; registered: {self.cache.names()}",
            )
        entry = self.cache.peek(name)
        if entry is not None:
            return entry
        # Cold: build the cumsum table off the event loop. The cache's
        # single-flight logic collapses concurrent cold requests.
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.cache.get, name)

    # -- /query: the hot path -----------------------------------------

    async def _query(self, request: HttpRequest) -> tuple[int, Any]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError(400, "query payload must be a JSON object")
        name = payload.get("release")
        if not isinstance(name, str):
            raise ProtocolError(400, "'release' must be a release name")
        entry = await self._entry(name)
        bounds, aggregate = parse_query_request(payload, entry.shape)
        answers = entry.engine.evaluate_many(bounds)
        if aggregate == "average":
            volumes = (
                (bounds[:, 1] - bounds[:, 0])
                * (bounds[:, 3] - bounds[:, 2])
                * (bounds[:, 5] - bounds[:, 4])
            )
            answers = answers / volumes
        return 200, {
            "release": name,
            "aggregate": aggregate,
            "queries": int(len(bounds)),
            "answers": answers.tolist(),
        }

    # -- /derived ------------------------------------------------------

    async def _derived(self, request: HttpRequest) -> tuple[int, Any]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError(400, "derived payload must be a JSON object")
        name = payload.get("release")
        if not isinstance(name, str):
            raise ProtocolError(400, "'release' must be a release name")
        metric = payload.get("metric")
        entry = await self._entry(name)
        engine = entry.engine
        t0 = payload.get("t0", 0)
        t1 = payload.get("t1")
        # ``type(v) is int``: JSON true/false decode to bool, an int subclass.
        if type(t0) is not int or (t1 is not None and type(t1) is not int):
            raise ProtocolError(400, "'t0'/'t1' must be integers")
        try:
            if metric == "top_k":
                block_side = payload.get("block_side")
                k = payload.get("k", 1)
                if type(block_side) is not int or type(k) is not int:
                    raise ProtocolError(
                        400, "'block_side' and 'k' must be integers"
                    )
                ranked = top_k_regions(engine, block_side, k, t0, t1)
                return 200, {
                    "release": name,
                    "metric": metric,
                    "regions": [
                        {
                            "region": [r.x0, r.x1, r.y0, r.y1],
                            "total": total,
                        }
                        for r, total in ranked
                    ],
                }
            region = self._region(payload)
            if metric == "profile":
                series = consumption_profile(engine, region, t0, t1)
                return 200, {
                    "release": name,
                    "metric": metric,
                    "values": series.tolist(),
                }
            if metric == "peak":
                value, at = peak_demand(engine, region, t0, t1)
                return 200, {
                    "release": name, "metric": metric,
                    "value": value, "t": at,
                }
            if metric == "base":
                value, at = base_load(engine, region, t0, t1)
                return 200, {
                    "release": name, "metric": metric,
                    "value": value, "t": at,
                }
            if metric == "par":
                value = peak_to_average_ratio(engine, region, t0, t1)
                return 200, {
                    "release": name, "metric": metric, "value": value,
                }
        except QueryError as error:
            raise ProtocolError(400, str(error))
        raise ProtocolError(
            400,
            f"unknown metric {metric!r}; options: "
            f"['base', 'par', 'peak', 'profile', 'top_k']",
        )

    @staticmethod
    def _region(payload: dict) -> SpatialRegion:
        raw = payload.get("region")
        if (
            not isinstance(raw, list)
            or len(raw) != 4
            or not all(type(v) is int for v in raw)
        ):
            raise ProtocolError(
                400, "'region' must be four integers [x0, x1, y0, y1]"
            )
        try:
            return SpatialRegion(*raw)
        except QueryError as error:
            raise ProtocolError(400, str(error))


def run_server(
    releases: Mapping[str, Any] | ReleaseCache,
    config: ServeConfig | None = None,
    ready=None,
) -> int:
    """Blocking entry point: serve until ``max_requests`` (or forever).

    ``ready(port)``, when given, fires once the socket is bound — the
    CLI prints the URL from it and tests use it to start load.
    Returns the number of requests served.
    """

    async def _main() -> int:
        server = ReleaseServer(releases, config)
        async with server:
            if ready is not None:
                ready(server.port)
            return await server.serve_until_done()

    return asyncio.run(_main())


__all__ = ["ReleaseServer", "ServeConfig", "run_server"]
