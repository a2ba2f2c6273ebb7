"""Hot release cache: one prefix-sum engine per published release.

Serving happens entirely on the *output* side of the privacy boundary:
a published ``.npz`` release is the result of a charged, sanitized
publish, so answering queries against it is pure post-processing
(Theorem 3) and consumes no budget no matter how many queries arrive.
That is why :func:`load_release` is deliberately **not** declared a
``__flow_sources__`` entry — the flow analysis (DP100) proves that only
these loaded releases, never the raw datasets that enter through the
``repro.data.io`` loaders, can reach the server's response writer.

The cache itself is a size-bounded LRU of :class:`CachedRelease`
entries keyed by release name. Building the O(volume) cumsum table is
the expensive step a server must never repeat per request, so cold
loads are **single-flight**: concurrent requests for the same release
block on one loader invocation and share its engine. The cache is
synchronous and thread-safe — the asyncio server calls it through an
executor thread, while ``repro evaluate`` uses it directly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.data.matrix import ConsumptionMatrix
from repro.exceptions import ServeError
from repro.obs import get_metrics
from repro.queries.engine import QueryEngine


def load_release(path: str | Path) -> ConsumptionMatrix:
    """Read one published release ``.npz`` (the ``values`` array).

    Accepts exactly the files ``repro publish --out`` writes. This is
    the post-processing boundary: the bytes on disk are already
    sanitized, so the loaded matrix carries no raw-data taint. A
    release holding NaN or infinite values is refused, since every
    query touching it would answer non-finite.
    """
    path = Path(path)
    if not path.exists():
        raise ServeError(f"release file not found: {path}")
    try:
        with np.load(path) as archive:
            if "values" not in archive:
                raise ServeError(
                    f"release file {path} has no 'values' array"
                )
            matrix = ConsumptionMatrix(archive["values"])
    except (OSError, ValueError) as error:
        raise ServeError(f"unreadable release file {path}: {error}")
    if not np.all(np.isfinite(matrix.values)):
        raise ServeError(f"release file {path} holds non-finite values")
    return matrix


@dataclass(frozen=True)
class CachedRelease:
    """One hot release: its name, origin path and prefix-sum engine."""

    name: str
    path: Path
    engine: QueryEngine

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.engine.shape

    @property
    def nbytes(self) -> int:
        return self.engine.nbytes


class ReleaseCache:
    """Size-bounded LRU of hot :class:`CachedRelease` engines.

    ``releases`` maps release names to ``.npz`` paths; more can be
    registered later via :meth:`add`. ``capacity`` bounds how many
    engines stay resident — the least-recently-used entry is evicted
    when a load would exceed it. Hit/miss/load/eviction counts are kept
    as instance counters and mirrored into the active
    :class:`~repro.obs.metrics.Metrics` registry
    (``serve.cache.hit`` / ``.miss`` / ``.load`` / ``.eviction``).
    """

    def __init__(
        self,
        releases: Mapping[str, str | Path] | None = None,
        capacity: int = 8,
        loader: Callable[[Path], ConsumptionMatrix] = load_release,
    ) -> None:
        if capacity < 1:
            raise ServeError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._loader = loader
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CachedRelease]" = OrderedDict()
        self._paths: dict[str, Path] = {}
        self._inflight: dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.loads = 0
        self.evictions = 0
        for name, path in (releases or {}).items():
            self.add(name, path)

    # -- registration --------------------------------------------------

    def add(self, name: str, path: str | Path) -> None:
        """Register (or re-point) a servable release by name.

        Re-registering an existing name drops its cached engine, so the
        next request loads the new file.
        """
        if not isinstance(name, str) or not name:
            raise ServeError(f"release name must be a non-empty str, got {name!r}")
        with self._lock:
            self._paths[name] = Path(path)
            self._entries.pop(name, None)

    @property
    def capacity(self) -> int:
        return self._capacity

    def names(self) -> list[str]:
        """Registered release names, sorted."""
        with self._lock:
            return sorted(self._paths)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._paths

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- lookup --------------------------------------------------------

    def peek(self, name: str) -> CachedRelease | None:
        """The cached entry if already resident, else ``None``.

        A resident peek counts as a hit (it is a real access and
        refreshes the LRU position); a non-resident peek counts
        nothing — the caller is expected to follow up with :meth:`get`.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                return None
            self._entries.move_to_end(name)
            self.hits += 1
        get_metrics().counter("serve.cache.hit")
        return entry

    def get(self, name: str) -> CachedRelease:
        """The hot entry for ``name``, loading (once) when cold."""
        missed = False
        while True:
            with self._lock:
                entry = self._entries.get(name)
                if entry is not None:
                    self._entries.move_to_end(name)
                    self.hits += 1
                    get_metrics().counter("serve.cache.hit")
                    return entry
                if not missed:
                    self.misses += 1
                    get_metrics().counter("serve.cache.miss")
                    missed = True
                if name not in self._paths:
                    raise ServeError(
                        f"unknown release {name!r}; registered: "
                        f"{sorted(self._paths)}"
                    )
                flight = self._inflight.get(name)
                if flight is None:
                    flight = threading.Event()
                    self._inflight[name] = flight
                    leader = True
                else:
                    leader = False
            if not leader:
                # Single-flight: wait for the leader's load, then loop
                # to pick the entry up as a plain cache read. If the
                # leader failed, the entry stays absent and one waiter
                # becomes the next leader (and surfaces the error).
                flight.wait()
                continue
            try:
                entry = self._load(name)
            finally:
                with self._lock:
                    self._inflight.pop(name, None)
                flight.set()
            return entry

    def _load(self, name: str) -> CachedRelease:
        """Leader path: run the loader outside the lock, then insert."""
        path = self._paths[name]
        matrix = self._loader(path)
        entry = CachedRelease(
            name=name, path=Path(path), engine=QueryEngine(matrix)
        )
        metrics = get_metrics()
        with self._lock:
            self.loads += 1
            self._entries[name] = entry
            self._entries.move_to_end(name)
            evicted = 0
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
            size = len(self._entries)
        metrics.counter("serve.cache.load")
        if evicted:
            metrics.counter("serve.cache.eviction", float(evicted))
        metrics.gauge("serve.cache.size", float(size))
        return entry

    # -- introspection -------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Occupancy + counters, JSON-ready (the ``/healthz`` payload)."""
        with self._lock:
            return {
                "capacity": self._capacity,
                "size": len(self._entries),
                "loaded": list(self._entries),  # LRU -> MRU order
                "resident_bytes": sum(
                    entry.nbytes for entry in self._entries.values()
                ),
                "registered": sorted(self._paths),
                "hits": self.hits,
                "misses": self.misses,
                "loads": self.loads,
                "evictions": self.evictions,
            }


__all__ = ["CachedRelease", "ReleaseCache", "load_release"]
