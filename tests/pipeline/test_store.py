"""ArtifactStore: memory tier, disk tier, stats and the privacy guard."""

import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, PrivacyError
from repro.pipeline import ArtifactStore


class TestMemoryTier:
    def test_put_get_roundtrip(self):
        store = ArtifactStore()
        value = np.arange(6.0).reshape(2, 3)
        store.put("k1", value, stage="stage-a")
        artifact = store.get("k1")
        assert artifact is not None
        assert artifact.stage == "stage-a"
        assert np.array_equal(artifact.value, value)

    def test_miss_returns_none(self):
        assert ArtifactStore().get("nope") is None

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigurationError):
            ArtifactStore().put("", 1)

    def test_contains_and_len(self):
        store = ArtifactStore()
        store.put("a", 1)
        store.put("b", 2)
        assert "a" in store and "b" in store and "c" not in store
        assert len(store) == 2

    def test_stats_count_hits_misses_puts(self):
        store = ArtifactStore()
        store.put("a", 1)
        store.get("a")
        store.get("missing")
        stats = store.stats
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)


class TestPrivacyGuard:
    def test_put_refuses_budget_spending_artifacts(self):
        store = ArtifactStore()
        with pytest.raises(PrivacyError):
            store.put("k", object(), stage="noise", spends_budget=True)
        # nothing was stored and nothing hit disk
        assert len(store) == 0


class TestDiskTier:
    def test_survives_across_instances(self, tmp_path):
        first = ArtifactStore(cache_dir=tmp_path)
        value = np.linspace(0, 1, 7)
        first.put("persist", value, stage="s", rng_state={"x": 1})

        second = ArtifactStore(cache_dir=tmp_path)
        artifact = second.get("persist")
        assert artifact is not None
        assert np.array_equal(artifact.value, value)
        assert artifact.rng_state == {"x": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("ok", 1)
        (tmp_path / "broken.pkl").write_bytes(b"not a pickle")
        fresh = ArtifactStore(cache_dir=tmp_path)
        assert fresh.get("broken") is None
        assert fresh.get("ok").value == 1

    def test_clear_drops_memory_but_not_disk(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("k", 41)
        store.clear()
        assert store.get("k").value == 41  # reloaded from disk

    def test_entries_lists_both_tiers(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("k1", 1, stage="alpha")
        fresh = ArtifactStore(cache_dir=tmp_path)
        fresh.put("k2", 2, stage="beta")
        rows = fresh.entries()
        assert {row["stage"] for row in rows} == {"alpha", "beta"}
        assert {row["key"] for row in rows} == {"k1", "k2"}


class TestPickledCopy:
    def test_carries_only_the_disk_tier(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("on-disk", np.ones(3), stage="s")
        memory_only = ArtifactStore()
        memory_only.put("in-memory", np.ones(3), stage="s")
        copy = pickle.loads(pickle.dumps(store))
        assert copy.cache_dir == store.cache_dir
        assert np.array_equal(copy.get("on-disk").value, np.ones(3))
        assert len(pickle.loads(pickle.dumps(memory_only))) == 0
