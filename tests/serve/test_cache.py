"""ReleaseCache: LRU order, single-flight loads, counters."""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.obs import Metrics, use_metrics
from repro.serve import ReleaseCache, load_release


@pytest.fixture()
def releases(tmp_path):
    """Four tiny release files keyed a..d."""
    paths = {}
    for index, name in enumerate("abcd"):
        values = np.full((2, 2, 3), float(index + 1))
        path = tmp_path / f"{name}.npz"
        np.savez(path, values=values)
        paths[name] = path
    return paths


class TestLoadRelease:
    def test_loads_the_values_array(self, releases):
        matrix = load_release(releases["b"])
        assert matrix.shape == (2, 2, 3)
        assert float(matrix.values[0, 0, 0]) == 2.0

    def test_missing_file_is_a_serve_error(self, tmp_path):
        with pytest.raises(ServeError, match="not found"):
            load_release(tmp_path / "nope.npz")

    def test_wrong_key_is_a_serve_error(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, other=np.zeros((2, 2, 2)))
        with pytest.raises(ServeError, match="no 'values'"):
            load_release(path)

    def test_garbage_file_is_a_serve_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not an npz")
        with pytest.raises(ServeError, match="unreadable"):
            load_release(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_a_serve_error(self, tmp_path, bad):
        # Served as-is, such a release would answer every query touching
        # the cell with a non-finite number.
        values = np.ones((2, 2, 3))
        values[1, 0, 2] = bad
        path = tmp_path / "non-finite.npz"
        np.savez(path, values=values)
        with pytest.raises(ServeError, match="non-finite"):
            load_release(path)


class TestReleaseCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ServeError, match="capacity"):
            ReleaseCache(capacity=0)

    def test_unknown_release_is_a_serve_error(self, releases):
        cache = ReleaseCache(releases)
        with pytest.raises(ServeError, match="unknown release 'z'"):
            cache.get("z")

    def test_get_builds_an_engine_once_and_hits_after(self, releases):
        cache = ReleaseCache(releases)
        first = cache.get("a")
        second = cache.get("a")
        assert first is second
        assert first.shape == (2, 2, 3)
        assert (cache.hits, cache.misses, cache.loads) == (1, 1, 1)

    def test_lru_eviction_order(self, releases):
        cache = ReleaseCache(releases, capacity=2)
        cache.get("a")
        cache.get("b")
        cache.get("a")  # refresh a; b is now least recent
        cache.get("c")  # evicts b
        snapshot = cache.snapshot()
        assert snapshot["loaded"] == ["a", "c"]
        assert cache.evictions == 1
        cache.get("b")  # cold again: evicts a (LRU after c refresh? no — a)
        assert cache.snapshot()["loaded"] == ["c", "b"]
        assert cache.evictions == 2

    def test_peek_hits_only_resident_entries(self, releases):
        cache = ReleaseCache(releases)
        assert cache.peek("a") is None
        assert cache.misses == 0  # peek never counts a miss
        entry = cache.get("a")
        assert cache.peek("a") is entry
        assert cache.hits == 1

    def test_peek_refreshes_lru_position(self, releases):
        cache = ReleaseCache(releases, capacity=2)
        cache.get("a")
        cache.get("b")
        cache.peek("a")
        cache.get("c")  # must evict b, not the peeked a
        assert cache.snapshot()["loaded"] == ["a", "c"]

    def test_re_registering_invalidates_the_cached_engine(self, releases):
        cache = ReleaseCache(releases)
        old = cache.get("a")
        cache.add("a", releases["d"])
        new = cache.get("a")
        assert new is not old
        assert float(new.engine.evaluate_many(
            np.array([[0, 1, 0, 1, 0, 1]])
        )[0]) == 4.0

    def test_contains_and_names_track_registration(self, releases):
        cache = ReleaseCache(releases)
        assert "a" in cache and "z" not in cache
        assert cache.names() == ["a", "b", "c", "d"]
        assert len(cache) == 0
        cache.get("c")
        assert len(cache) == 1

    def test_single_flight_concurrent_cold_loads(self, releases):
        # The leader blocks inside the loader until every one of the 8
        # threads has entered get() and recorded its miss, so all of
        # them observe the cold cache — yet only one loader call runs.
        loads = []
        release_gate = threading.Event()

        def slow_loader(path):
            loads.append(path)
            assert release_gate.wait(timeout=10)
            return load_release(path)

        cache = ReleaseCache(releases, loader=slow_loader)
        results = []

        def worker():
            results.append(cache.get("a"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while cache.misses < 8 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert cache.misses == 8
        release_gate.set()
        for thread in threads:
            thread.join()
        assert len(loads) == 1  # one loader call despite 8 cold requests
        assert cache.loads == 1
        assert all(entry is results[0] for entry in results)

    def test_failed_leader_load_surfaces_to_a_waiter(self, releases, tmp_path):
        cache = ReleaseCache({"ghost": tmp_path / "ghost.npz"})
        with pytest.raises(ServeError, match="not found"):
            cache.get("ghost")
        # The in-flight marker is cleaned up: a retry fails afresh, not hangs.
        with pytest.raises(ServeError, match="not found"):
            cache.get("ghost")

    def test_counters_mirror_into_the_metrics_registry(self, releases):
        metrics = Metrics()
        with use_metrics(metrics):
            cache = ReleaseCache(releases, capacity=1)
            cache.get("a")
            cache.get("a")
            cache.get("b")  # evicts a
        assert metrics.counter_value("serve.cache.hit") == 1.0
        assert metrics.counter_value("serve.cache.miss") == 2.0
        assert metrics.counter_value("serve.cache.load") == 2.0
        assert metrics.counter_value("serve.cache.eviction") == 1.0

    def test_snapshot_is_json_ready(self, releases):
        cache = ReleaseCache(releases, capacity=3)
        cache.get("a")
        snapshot = cache.snapshot()
        assert snapshot["capacity"] == 3
        assert snapshot["size"] == 1
        assert snapshot["registered"] == ["a", "b", "c", "d"]
        assert snapshot["resident_bytes"] > 0
        import json

        json.dumps(snapshot)
