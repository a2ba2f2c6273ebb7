"""Serve phase: one ``repro serve run`` process under open-loop load.

Traffic comes from one client process (this one) over
:data:`CONNECTIONS` keep-alive connections. Every request is encoded
before a step starts; requests are due at evenly spaced times, written
on schedule without waiting for earlier answers (HTTP/1.1 pipelining),
and each is timed from its due time, so a stall also delays the
requests queued behind it. 95 % of requests carry one query from
``mixed_workload_bounds(count=300)``; 5 % carry a whole 300-query class.
Which release a request targets follows a seeded, skewed popularity.

After the timed steps, every answer is compared bit for bit with
``QueryEngine(values).evaluate_many`` on the same bounds.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import math
import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import measure
from repro.queries.engine import QueryEngine
from repro.serve.loadgen import mixed_workload_bounds

HOST = "127.0.0.1"
#: Keep-alive connections: 2, but never more than the cores (``nproc``).
CONNECTIONS = min(2, os.cpu_count() or 1)
NOMINAL_RATE = 500.0
NOMINAL_WINDOWS = 3
#: Requests per capacity-search step: enough for a p99 with ten
#: samples beyond it.
STEP_REQUESTS = 1000
CLASS_SIZE = 300
FULL_CLASS_SHARE = 0.05
POPULARITY_EXPONENT = 1.2
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 15.0


# -- the server process ---------------------------------------------------


class Server:
    """One running server process, started and stopped from here."""

    def __init__(self, argv: list[str], releases: dict[str, Path], env: dict) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv + [arg for name, path in releases.items()
                    for arg in ("--release", f"{name}={path}")],
            stdout=subprocess.PIPE,
            env=env,
        )
        self.maxrss_kib = 0
        try:
            self.port = self._await_port()
            for name in releases:
                status, body = self.request("GET", f"/releases/{name}")
                if status != 200:
                    raise RuntimeError(f"loading release {name} failed: {body}")
        except BaseException:
            self.stop()
            raise
        #: Spawn until every release is loaded through GET /releases/NAME.
        self.setup_s = time.perf_counter() - started

    def _await_port(self) -> int:
        ready, __, __ = select.select([self.process.stdout], [], [], READY_TIMEOUT_S)
        line = self.process.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            raise RuntimeError(f"server did not come up: {line!r}")
        return int(line.strip().rsplit(":", 1)[1])

    def request(self, method: str, path: str) -> tuple[int, dict]:
        connection = http.client.HTTPConnection(HOST, self.port, timeout=60)
        try:
            connection.request(method, path)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def stop(self) -> None:
        """Record the server's high-water RSS, then interrupt and reap it."""
        process = self.process
        if process.returncode is not None:
            return
        self.maxrss_kib = high_water_kib(process.pid)
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


def high_water_kib(pid: int | str = "self") -> int:
    """Peak resident set of a live process since its exec, in KiB.

    ``VmHWM`` rather than ``ru_maxrss``: on Linux the latter also counts
    the memory a child held between fork and exec, which for a child of
    a large publisher is the publisher's own footprint.
    """
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


# -- traffic ---------------------------------------------------------------


def _encode(name: str, bounds: np.ndarray) -> bytes:
    body = json.dumps({"release": name, "queries": bounds.tolist()}).encode()
    head = (
        f"POST /query HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


@dataclass
class Traffic:
    """Pre-encoded requests and the seeded mix they are drawn from."""

    names: list[str]
    bounds: np.ndarray
    popularity: np.ndarray
    seed: int
    encoded: dict[tuple[int, int, int], bytes] = field(default_factory=dict)

    @classmethod
    def build(cls, names: list[str], shape: tuple[int, int, int], seed: int) -> "Traffic":
        bounds = mixed_workload_bounds(shape, count=CLASS_SIZE, rng=seed)
        ranks = np.random.default_rng([seed, 1]).permutation(len(names))
        weights = 1.0 / (1.0 + ranks) ** POPULARITY_EXPONENT
        traffic = cls(list(names), bounds, weights / weights.sum(), seed)
        for release, name in enumerate(names):
            for row in range(len(bounds)):
                traffic.encoded[release, row, 1] = _encode(name, bounds[row : row + 1])
            for start in range(0, len(bounds), CLASS_SIZE):
                traffic.encoded[release, start, CLASS_SIZE] = _encode(
                    name, bounds[start : start + CLASS_SIZE]
                )
        return traffic

    def draw(self, count: int, step: int) -> list[tuple[int, int, int]]:
        """``count`` requests as (release, first row, rows) keys."""
        rng = np.random.default_rng([self.seed, 2, step])
        releases = rng.choice(len(self.names), size=count, p=self.popularity)
        full = rng.random(count) < FULL_CLASS_SHARE
        rows = rng.integers(0, len(self.bounds), size=count)
        classes = rng.integers(0, len(self.bounds) // CLASS_SIZE, size=count)
        return [
            (int(r), int(c) * CLASS_SIZE, CLASS_SIZE) if f else (int(r), int(q), 1)
            for r, f, q, c in zip(releases, full, rows, classes)
        ]


def _content_length(head: bytes) -> int:
    for line in head.split(b"\r\n"):
        name, __, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            return int(value)
    return 0


async def _run_step(port: int, payloads: list[bytes], rate: float):
    """Send ``payloads`` at ``rate`` per second; time each from its due time.

    Returns latency (ms, ``inf`` for a failed request), send lateness
    (ms) and response bodies, all in due order, plus the seconds from the
    first due time to the last answer.
    """
    loop = asyncio.get_running_loop()
    count = len(payloads)
    latency = [math.inf] * count
    lateness = [0.0] * count
    bodies: list[bytes | None] = [None] * count
    connections = [await asyncio.open_connection(HOST, port) for __ in range(CONNECTIONS)]
    start = loop.time() + 0.01
    finished = start

    async def send(lane: int) -> None:
        writer = connections[lane][1]
        for index in range(lane, count, CONNECTIONS):
            due = start + index / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(payloads[index])
            lateness[index] = (loop.time() - due) * 1000.0
            await writer.drain()

    async def receive(lane: int) -> None:
        nonlocal finished
        reader = connections[lane][0]
        for index in range(lane, count, CONNECTIONS):
            head = await reader.readuntil(b"\r\n\r\n")
            body = await reader.readexactly(_content_length(head))
            if head.startswith(b"HTTP/1.1 200 "):
                latency[index] = (loop.time() - start - index / rate) * 1000.0
                bodies[index] = body
            finished = max(finished, loop.time())

    tasks = [send(lane) for lane in range(CONNECTIONS)]
    tasks += [receive(lane) for lane in range(CONNECTIONS)]
    try:
        await asyncio.wait_for(
            asyncio.gather(*tasks, return_exceptions=True), timeout=count / rate + 60.0
        )
    except asyncio.TimeoutError:
        pass  # unanswered requests stay failed
    finally:
        for __, writer in connections:
            writer.close()
    return latency, lateness, bodies, finished - start


@dataclass
class Step:
    verdict: measure.StepVerdict
    keys: list[tuple[int, int, int]]
    bodies: list[bytes | None]
    latency_ms: list[float]
    lateness_ms: list[float]
    seconds: float

    @property
    def achieved_rps(self) -> float:
        """Answers per second, from the first due time to the last answer."""
        return self.verdict.succeeded / self.seconds if self.seconds > 0 else 0.0


@dataclass
class ServeRun:
    steps: list[Step]             # every step sent, nominal windows first
    nominal: list[Step]           # the valid nominal-rate windows
    max_rps: float | None

    def _pooled(self, field_name: str, q: float) -> float | None:
        """Percentile over every valid nominal window; needs two windows."""
        if len(self.nominal) < 2:
            return None
        return measure.percentile(
            [value for step in self.nominal for value in getattr(step, field_name)], q
        )

    @property
    def p50_ms(self) -> float | None:
        return self._pooled("latency_ms", 50.0)

    @property
    def p99_ms(self) -> float | None:
        return self._pooled("latency_ms", 99.0)

    @property
    def lag_p99_ms(self) -> float | None:
        return self._pooled("lateness_ms", 99.0)


def drive(server: Server, traffic: Traffic, seconds: float) -> ServeRun:
    """Nominal-rate windows for ``seconds``, then the capacity search.

    The reference machine is shared, so a stall from outside can spoil
    one step. The nominal rate is offered in :data:`NOMINAL_WINDOWS`
    windows and its figures pool the valid ones; a step that misses
    while its median still meets the limit is sent once more before it
    counts as missed: an outside stall passes, a capacity limit does not.
    """
    steps: list[Step] = []
    # Long-lived objects of the publish phase leave the collector's
    # working set, so no collection walks them between steps.
    gc.collect()
    gc.freeze()

    def run(rate: float, count: int) -> Step:
        keys = traffic.draw(count, len(steps))
        payloads = [traffic.encoded[key] for key in keys]
        # The client is the instrument: a collector pause here would be
        # charged to the server as latency.
        gc.disable()
        try:
            latency, lateness, bodies, seconds = asyncio.run(
                _run_step(server.port, payloads, rate)
            )
        finally:
            gc.enable()
        step = Step(
            measure.judge_step(rate, latency, lateness),
            keys, bodies, latency, lateness, seconds,
        )
        steps.append(step)
        return step

    def attempt(rate: float, count: int) -> Step:
        step = run(rate, count)
        verdict = step.verdict
        # A step past capacity queues most requests, so even its median
        # misses the limit; only a miss that may be a stall is re-sent.
        stalled = not verdict.valid or (
            verdict.p50_ms is not None and verdict.p50_ms <= measure.P99_LIMIT_MS
        )
        return run(rate, count) if not verdict.met and stalled else step

    window = max(STEP_REQUESTS, round(NOMINAL_RATE * seconds / NOMINAL_WINDOWS))
    windows = [attempt(NOMINAL_RATE, window) for __ in range(NOMINAL_WINDOWS)]
    nominal_met = 2 * sum(step.verdict.met for step in windows) > len(windows)

    def probe(rate: float) -> bool:
        if rate == NOMINAL_RATE:
            return nominal_met
        return attempt(rate, STEP_REQUESTS).verdict.met

    best = measure.search_capacity(probe, NOMINAL_RATE)
    # Report the measured throughput of the best step, not the offered
    # rate, which only takes values on the search grid.
    served = [
        step.achieved_rps for step in steps
        if step.verdict.met and step.verdict.rate == best
    ]
    nominal = [step for step in windows if step.verdict.valid]
    return ServeRun(steps, nominal, max(served) if served else None)


def verify(run: ServeRun, traffic: Traffic, releases: dict[str, np.ndarray]) -> int:
    """Answers that differ from a direct ``evaluate_many``; after timing."""
    engines = [QueryEngine(releases[name]) for name in traffic.names]
    wrong = 0
    for step in run.steps:
        for (release, first, rows), body in zip(step.keys, step.bodies):
            if body is None:
                continue  # already counted as a failed request
            expected = engines[release].evaluate_many(traffic.bounds[first : first + rows])
            answers = np.asarray(json.loads(body)["answers"], dtype=float)
            if answers.shape != expected.shape or not np.array_equal(answers, expected):
                wrong += 1
    return wrong
