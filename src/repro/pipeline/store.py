"""Content-addressed artifact storage (in-memory with optional disk tier).

Artifacts are keyed by a stable content hash (see
:mod:`repro.pipeline.fingerprint`): stage name, config fingerprint,
input fingerprints and — for stochastic stages — the entry rng state.
Identical keys therefore mean "this exact computation, on these exact
bytes, from this exact generator position", which is what makes a hit
safe to substitute for a re-run.

Two privacy properties are enforced *here*, not just in the runner:

* ``put`` refuses artifacts from budget-spending stages
  (``spends_budget=True`` raises :class:`~repro.exceptions.PrivacyError`),
  so even a buggy or adversarial runner cannot persist a noisy release;
* stored entries remember the generator state *after* the stage ran, so
  a cache hit can fast-forward the caller's generator and leave every
  downstream noise draw bit-identical to the cold path.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.exceptions import ConfigurationError, PrivacyError

#: Flow-analysis role (repro.lint.flow): everything put in the store is
#: presumed publishable by later stages.
__flow_sinks__ = ("ArtifactStore.put:artifact-store",)

#: How long a writer waits on a peer's lock before treating it as stale.
#: Artifact pickles are small (milliseconds to write); a lock this old
#: belongs to a crashed process, not a slow one.
_LOCK_TIMEOUT_SECONDS = 10.0
_LOCK_POLL_SECONDS = 0.01


@dataclass
class Artifact:
    """One stored stage output plus replay metadata."""

    key: str
    stage: str
    value: Any
    rng_state: dict | None = None    #: generator state after the stage ran
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StoreStats:
    """Hit/miss/write counters of one store instance."""

    hits: int
    misses: int
    puts: int


class ArtifactStore:
    """In-memory artifact cache with an optional on-disk tier.

    With ``cache_dir`` set, every ``put`` is also pickled to
    ``<cache_dir>/<key>.pkl`` and ``get`` falls back to disk on a memory
    miss — which is how a warm cache survives across processes (the CLI
    ``--cache-dir`` flag).

    A pickled store (the copy a fork worker receives) carries only its
    disk tier: the memory tier stays with the process that filled it.
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self._memory: dict[str, Artifact] = {}
        self._dir: Path | None = None
        self._hits = 0
        self._misses = 0
        self._puts = 0
        if cache_dir is not None:
            self._dir = Path(cache_dir)
            try:
                self._dir.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError) as error:
                raise ConfigurationError(
                    f"cache_dir {self._dir} is not a directory: {error}"
                ) from error

    def __getstate__(self) -> dict[str, Any]:
        return {"cache_dir": self._dir}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(state["cache_dir"])

    # ------------------------------------------------------------------
    # core protocol
    # ------------------------------------------------------------------

    def get(self, key: str) -> Artifact | None:
        """The stored artifact for ``key``, or None on a miss."""
        artifact = self._memory.get(key)
        if artifact is None and self._dir is not None:
            artifact = self._read_disk(key)
            if artifact is not None:
                self._memory[key] = artifact
        if artifact is None:
            self._misses += 1
        else:
            self._hits += 1
        return artifact

    def put(
        self,
        key: str,
        value: Any,
        stage: str = "",
        rng_state: dict | None = None,
        spends_budget: bool = False,
        meta: dict | None = None,
    ) -> Artifact:
        """Store one artifact; refuses budget-spending stage outputs."""
        if spends_budget:
            raise PrivacyError(
                f"refusing to cache artifact of budget-spending stage "
                f"{stage or key!r}: noisy releases must be recomputed so the "
                "accountant sees every draw"
            )
        if not key:
            raise ConfigurationError("artifact key must be non-empty")
        artifact = Artifact(
            key=key, stage=stage, value=value,
            rng_state=rng_state, meta=dict(meta or {}),
        )
        self._memory[key] = artifact
        self._puts += 1
        if self._dir is not None:
            self._write_disk(artifact)
        return artifact

    def __contains__(self, key: str) -> bool:
        return key in self._memory or (
            self._dir is not None and self._path_for(key).is_file()
        )

    def __len__(self) -> int:
        return len(set(self.keys()))

    def keys(self) -> Iterator[str]:
        seen = set(self._memory)
        yield from seen
        if self._dir is not None:
            for path in sorted(self._dir.glob("*.pkl")):
                if path.stem not in seen:
                    yield path.stem

    def clear(self) -> None:
        """Drop the in-memory tier (disk entries are left untouched)."""
        self._memory.clear()

    @property
    def stats(self) -> StoreStats:
        return StoreStats(hits=self._hits, misses=self._misses, puts=self._puts)

    @property
    def cache_dir(self) -> Path | None:
        return self._dir

    # ------------------------------------------------------------------
    # inspection (CLI `repro pipeline inspect`)
    # ------------------------------------------------------------------

    def entries(self) -> list[dict[str, object]]:
        """One describing row per stored artifact, memory and disk."""
        rows = []
        for key in self.keys():
            artifact = self._memory.get(key)
            if artifact is not None:
                rows.append(
                    {"key": key, "stage": artifact.stage, "tier": "memory",
                     "bytes": ""}
                )
                continue
            path = self._path_for(key)
            loaded = self._read_disk(key)
            stage = loaded.stage if loaded is not None else "?"
            rows.append(
                {"key": key, "stage": stage, "tier": "disk",
                 "bytes": path.stat().st_size if path.is_file() else 0}
            )
        return sorted(rows, key=lambda row: (str(row["stage"]), str(row["key"])))

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------

    def _path_for(self, key: str) -> Path:
        assert self._dir is not None
        return self._dir / f"{key}.pkl"

    def _write_disk(self, artifact: Artifact) -> None:
        path = self._path_for(artifact.key)
        # Concurrent writers (parallel sweeps sharing one cache_dir) are
        # serialized per key by a lock file. Keys are content hashes, so
        # two writers racing on one key carry identical bytes — the lock
        # only avoids redundant I/O; even lock-free the write-then-rename
        # below can never tear a pickle.
        lock = self._acquire_lock(path)
        try:
            if lock is not None and path.is_file():
                return  # a peer finished this key while we waited
            fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(artifact, handle, protocol=4)
                os.replace(tmp_name, path)
            except Exception:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        finally:
            if lock is not None:
                self._release_lock(lock)

    @staticmethod
    def _acquire_lock(path: Path) -> Path | None:
        """Take ``<path>.lock`` exclusively; None means proceed unlocked.

        O_CREAT|O_EXCL is atomic on every POSIX filesystem. A lock older
        than :data:`_LOCK_TIMEOUT_SECONDS` is stolen (its owner crashed);
        if stealing also fails the writer proceeds without the lock,
        which is safe because ``os.replace`` keeps the data atomic.
        """
        lock_path = path.with_name(path.name + ".lock")
        deadline = time.monotonic() + _LOCK_TIMEOUT_SECONDS
        while True:
            try:
                fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if time.monotonic() >= deadline:
                    try:
                        os.unlink(lock_path)  # steal the stale lock
                    except OSError:
                        return None
                    continue
                time.sleep(_LOCK_POLL_SECONDS)
                continue
            except OSError:
                return None
            os.close(fd)
            return lock_path

    @staticmethod
    def _release_lock(lock_path: Path) -> None:
        try:
            os.unlink(lock_path)
        except OSError:  # pragma: no cover - already stolen or cleaned up
            pass

    def _read_disk(self, key: str) -> Artifact | None:
        path = self._path_for(key)
        if not path.is_file():
            return None
        try:
            with path.open("rb") as handle:
                artifact = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None  # unreadable entry == miss; it will be rewritten
        if not isinstance(artifact, Artifact) or artifact.key != key:
            return None
        return artifact


__all__ = ["Artifact", "ArtifactStore", "StoreStats"]
