"""Load-generation harness for ``repro serve``.

Replays a mixed range-query workload (small / large / random, the same
three classes ``repro evaluate`` scores) against a running server over
N concurrent keep-alive connections, measuring per-request latency at
the client. The request count is a shared dispenser, so the harness
scales to millions of requests without materializing them: each worker
pulls the next global request index, maps it onto the precomputed
bounds pool (round-robin), and fires.

This is a *client*: it never touches raw data, only the HTTP surface.
The sync :func:`run_load` wrapper is what ``repro serve loadgen``
calls.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ServeError
from repro.queries.engine import query_bounds
from repro.queries.range_query import make_workload
from repro.rng import RngLike, derive_seed, ensure_rng


@dataclass
class LoadReport:
    """What one load run measured, JSON-ready via ``as_dict``."""

    requests: int
    errors: int
    connections: int
    seconds: float
    requests_per_second: float
    p50_ms: float
    p99_ms: float
    answers: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "connections": self.connections,
            "seconds": self.seconds,
            "requests_per_second": self.requests_per_second,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
        }


def mixed_workload_bounds(
    shape: tuple[int, int, int],
    count: int = 300,
    rng: RngLike = None,
) -> np.ndarray:
    """``(3 * count, 6)`` bounds pool: small + large + random queries.

    Mirrors the three workload classes of ``repro evaluate`` so served
    traffic exercises the same query-shape distribution the paper's
    utility metrics use. Deterministic for a given seed.
    """
    generator = ensure_rng(rng)
    pools = [
        make_workload(kind, shape, count=count, rng=derive_seed(generator))
        for kind in ("small", "large", "random")
    ]
    return np.concatenate([query_bounds(pool) for pool in pools])


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, dict]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, json.loads(body) if body else {}


def _request_bytes(host: str, path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    ).encode("latin-1") + body


async def run_load_async(
    host: str,
    port: int,
    release: str,
    bounds: np.ndarray,
    *,
    requests: int,
    connections: int = 8,
    queries_per_request: int = 1,
    collect_answers: bool = False,
) -> LoadReport:
    """Fire ``requests`` POST /query calls over ``connections`` sockets.

    Request ``i`` sends ``queries_per_request`` consecutive rows of the
    ``bounds`` pool starting at ``i * queries_per_request`` (wrapping
    round-robin), so the full pool is exercised and — crucially for a
    bit-identity check — every request's expected answers are
    reproducible from ``i`` alone. With ``collect_answers`` the
    per-request answer lists come back ordered by request index.
    """
    if requests < 1:
        raise ServeError(f"requests must be >= 1, got {requests}")
    if connections < 1:
        raise ServeError(f"connections must be >= 1, got {connections}")
    if len(bounds) == 0:
        raise ServeError("bounds pool is empty")
    dispenser = itertools.count()
    latencies: list[float] = []
    answers: dict[int, list] = {}
    errors = 0
    pool_rows = np.arange(queries_per_request)

    async def worker() -> None:
        nonlocal errors
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                index = next(dispenser)
                if index >= requests:
                    return
                rows = (index * queries_per_request + pool_rows) % len(bounds)
                payload = {
                    "release": release,
                    "queries": bounds[rows].tolist(),
                }
                started = time.perf_counter()
                writer.write(_request_bytes(host, "/query", payload))
                await writer.drain()
                status, body = await _read_response(reader)
                latencies.append(time.perf_counter() - started)
                if status != 200:
                    errors += 1
                elif collect_answers:
                    answers[index] = body["answers"]
        finally:
            writer.close()

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(min(connections, requests))))
    elapsed = time.perf_counter() - started
    ms = np.asarray(latencies) * 1000.0
    return LoadReport(
        requests=len(latencies),
        errors=errors,
        connections=min(connections, requests),
        seconds=elapsed,
        requests_per_second=len(latencies) / elapsed if elapsed else 0.0,
        p50_ms=float(np.percentile(ms, 50)) if len(ms) else 0.0,
        p99_ms=float(np.percentile(ms, 99)) if len(ms) else 0.0,
        answers=[answers[i] for i in sorted(answers)] if collect_answers else [],
    )


async def fetch_release_shape(
    host: str, port: int, release: str
) -> tuple[int, int, int]:
    """``GET /releases/NAME`` — the shape (also warms the server cache)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"GET /releases/{release} HTTP/1.1\r\n"
                f"Host: {host}\r\nConnection: close\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        status, body = await _read_response(reader)
    finally:
        writer.close()
    if status != 200:
        raise ServeError(
            f"server rejected release {release!r}: "
            f"{body.get('error', status)}"
        )
    return tuple(body["shape"])


def run_load(
    host: str,
    port: int,
    release: str,
    *,
    requests: int,
    connections: int = 8,
    queries_per_class: int = 300,
    queries_per_request: int = 1,
    seed: int | None = None,
) -> LoadReport:
    """Sync wrapper: fetch the release shape, build the pool, run load."""

    async def _main() -> LoadReport:
        shape = await fetch_release_shape(host, port, release)
        bounds = mixed_workload_bounds(shape, count=queries_per_class, rng=seed)
        return await run_load_async(
            host,
            port,
            release,
            bounds,
            requests=requests,
            connections=connections,
            queries_per_request=queries_per_request,
        )

    return asyncio.run(_main())


__all__ = [
    "LoadReport",
    "fetch_release_shape",
    "mixed_workload_bounds",
    "run_load",
    "run_load_async",
]
