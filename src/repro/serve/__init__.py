"""``repro.serve`` — async query serving over published releases.

The post-publication half of the system: a zero-dependency asyncio HTTP
server (:mod:`repro.serve.server`) that keeps one prefix-sum
:class:`~repro.queries.engine.QueryEngine` per release hot in an LRU
:class:`~repro.serve.cache.ReleaseCache` and answers each range-query
request with one ``evaluate_many`` call, plus the load harness
(:mod:`repro.serve.loadgen`) behind ``repro serve loadgen``. Everything
here is pure post-processing of sanitized releases — no privacy budget
is ever touched.
"""

from repro.serve.cache import CachedRelease, ReleaseCache, load_release
from repro.serve.loadgen import (
    LoadReport,
    fetch_release_shape,
    mixed_workload_bounds,
    run_load,
    run_load_async,
)
from repro.serve.protocol import ProtocolError
from repro.serve.server import ReleaseServer, ServeConfig, run_server

__all__ = [
    "CachedRelease",
    "LoadReport",
    "ProtocolError",
    "ReleaseCache",
    "ReleaseServer",
    "ServeConfig",
    "fetch_release_shape",
    "load_release",
    "mixed_workload_bounds",
    "run_load",
    "run_load_async",
    "run_server",
]
