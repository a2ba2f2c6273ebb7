"""Golden determinism test for the sharded STPT publish.

A sharded publish (``shard_depth >= 1``) is a different algorithm from
the classic serial release — each quadtree subtree trains and noises
its own subgrid from its own pre-spawned seed sequence — so it gets its
own frozen goldens rather than reusing the unsharded ones in
``test_determinism_golden.py``. The contract pinned here is the one
that makes intra-publish parallelism safe to ship:

* the sharded release is **bit-identical at any worker count** — the
  per-shard seed sequences are spawned at the dispatch site, so the
  serial executor and a two-worker pool must produce the same bits;
* the merged parent accountant's total equals the single-shard total
  **float-exactly** (parallel composition over disjoint subgrids:
  every shard spends the full budget, the merge debits the maximum);
* the goldens themselves are ``float.hex`` literals, so any change
  that perturbs one noise draw in one shard trips the comparison.

A worker publishes its contiguous group of shards in lockstep and
trains the group's forecasters as one member stack, so the worker count
sets the group sizes (4; 2 and 2; 2, 1 and 1): the goldens must hold at
each. ``TestShardedLockstep`` pins what lockstep keeps per shard: cache
dispositions (memory and disk tiers), records and their worker tags,
and stage times that add up instead of repeating.

Geometry is the 8x8x24 golden matrix at shard depth 1 (four 4x4
subtrees) — small enough for the tier-1 suite.
"""

import numpy as np
import pytest

from repro.core.pattern import PatternConfig
from repro.core.stpt import STPT, STPT_STAGES, STPTConfig
from repro.data.matrix import ConsumptionMatrix
from repro.obs import Tracer, use_tracer
from repro.pipeline import ArtifactStore
from tests.pipeline.test_determinism_golden import golden_matrix

GOLDEN_SUM = float.fromhex("0x1.32845328e1197p+9")
GOLDEN_PATTERN_SUM = float.fromhex("0x1.3ae7741d134e5p+9")
GOLDEN_ROW = [
    float.fromhex(h)
    for h in [
        "0x1.532f43f9679dfp+0",
        "0x1.532f43f9679dfp+0",
        "0x1.65daf5f975e9cp+0",
        "0x1.532f43f9679dfp+0",
        "0x1.53ba395410d64p+0",
        "0x1.699872b23426cp+0",
        "0x1.bc3b31890f9a0p+0",
        "0x1.d58b1851e6e87p+0",
    ]
]
GOLDEN_DIAG = [
    float.fromhex(h)
    for h in [
        "0x1.532f43f9679dfp+0",
        "0x1.532f43f9679dfp+0",
        "0x1.65daf5f975e9cp+0",
        "0x1.532f43f9679dfp+0",
        "0x1.4192f34e947bfp+0",
        "0x1.261571845a794p+0",
        "0x1.261571845a794p+0",
        "0x1.e5d45a7de278ep-1",
    ]
]


def sharded_config() -> STPTConfig:
    return STPTConfig(
        epsilon_pattern=10.0,
        epsilon_sanitize=20.0,
        t_train=16,
        quantization_levels=6,
        shard_depth=1,
        pattern=PatternConfig(window=3, epochs=2, embed_dim=8, hidden_dim=8),
    )


def publish(workers=None, store=None, matrix=None):
    return STPT(sharded_config(), rng=1234, store=store).publish(
        matrix if matrix is not None else golden_matrix(),
        clip_scale=2.0,
        workers=workers,
    )


def assert_matches_goldens(result):
    sanitized = result.sanitized.values
    assert float(sanitized.sum()) == GOLDEN_SUM
    assert float(result.pattern_matrix.sum()) == GOLDEN_PATTERN_SUM
    assert [float(v) for v in sanitized[0, 0, :8]] == GOLDEN_ROW
    assert [float(v) for v in (sanitized[i, i, i % 8] for i in range(8))] == (
        GOLDEN_DIAG
    )


class TestShardedGolden:
    def test_single_worker_matches_frozen_goldens(self):
        result = publish(workers=1)
        assert_matches_goldens(result)
        assert result.shard_depth == 1
        assert [s.key for s in result.shards] == [
            "shard0[0:4,0:4]",
            "shard1[0:4,4:8]",
            "shard2[4:8,0:4]",
            "shard3[4:8,4:8]",
        ]

    def test_two_workers_bit_identical_to_one(self):
        serial = publish(workers=1)
        # Two groups of 2 shards, then uneven groups of 2, 1 and 1.
        for workers in (2, 3):
            parallel = publish(workers=workers)
            np.testing.assert_array_equal(
                serial.sanitized.values, parallel.sanitized.values
            )
            np.testing.assert_array_equal(
                serial.pattern_matrix, parallel.pattern_matrix
            )
            assert_matches_goldens(parallel)
            # Merged totals are float-equal, not approximately equal:
            # the merge debits the exact maximum of the shard spends.
            assert (
                serial.accountant.spent_epsilon
                == parallel.accountant.spent_epsilon
            )

    def test_parallel_composition_spends_one_budget(self):
        result = publish(workers=1)
        # Four shards each spent (up to allocation rounding) the full
        # 30.0 over disjoint households; Theorem 2 composition counts
        # them once — the merged total is float-equal to the worst
        # shard, not the 120.0 a sequential reading of the ledgers
        # would suggest.
        assert len(result.shard_accountants) == 4
        spends = [c.spent_epsilon for c in result.shard_accountants]
        assert result.epsilon_spent == max(spends)
        assert result.epsilon_spent == 30.0
        for spend in spends:
            assert abs(spend - 30.0) < 1e-9
        partitions = [a.partition for a in result.shard_accountants]
        assert len(set(partitions)) == 4

    def test_shard_records_carry_worker_attribution(self):
        result = publish(workers=2)
        # 4 shards x 4 stages, every record tagged with a worker.
        assert len(result.records) == 16
        assert all(record.worker for record in result.records)


def cached(result, stage):
    return [record.cached for record in result.records if record.stage == stage]


class TestShardedLockstep:
    def test_memory_only_store_serves_a_serial_sharded_publish(self):
        store = ArtifactStore()
        first = publish(store=store)
        second = publish(store=store)
        assert cached(first, "stpt/pattern-train") == [False] * 4
        assert cached(second, "stpt/pattern-train") == [True] * 4
        assert cached(second, "stpt/quantize") == [True] * 4
        np.testing.assert_array_equal(
            first.sanitized.values, second.sanitized.values
        )
        assert_matches_goldens(second)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_partially_warm_disk_cache(self, tmp_path, workers):
        publish(workers=workers, store=ArtifactStore(cache_dir=tmp_path))
        changed = golden_matrix().values.copy()
        changed[4:, 4:, :] *= 1.25  # shard3[4:8,4:8], training days included
        changed = ConsumptionMatrix(changed)
        warm = publish(
            workers=workers, store=ArtifactStore(cache_dir=tmp_path), matrix=changed
        )
        cold = publish(workers=workers, matrix=changed)
        assert cached(warm, "stpt/pattern-train") == [True, True, True, False]
        np.testing.assert_array_equal(warm.sanitized.values, cold.sanitized.values)
        np.testing.assert_array_equal(warm.pattern_matrix, cold.pattern_matrix)
        assert warm.accountant.spent_epsilon == cold.accountant.spent_epsilon

    def test_every_shard_keeps_four_records_tagged_with_its_worker(self):
        result = publish(workers=3)
        assert [record.stage for record in result.records] == list(STPT_STAGES) * 4
        workers = [
            {record.worker for record in result.records[4 * shard : 4 * shard + 4]}
            for shard in range(4)
        ]
        assert all(len(tags) == 1 and None not in tags for tags in workers)
        # Shards 0 and 1 form the first group, so one worker ran both.
        assert workers[0] == workers[1]

    def test_group_pattern_train_seconds_add_up_to_one_fit(self):
        tracer = Tracer()
        with use_tracer(tracer):
            result = publish(workers=1)
        (stage,) = [
            span for span in tracer.spans
            if span.name == "pipeline.stage"
            and span.attributes["stage"] == "stpt/pattern-train"
        ]
        (fit,) = [span for span in tracer.spans if span.name == "nn.fit"]
        assert fit.attributes["members"] == 4
        seconds = sum(
            record.seconds for record in result.records
            if record.stage == "stpt/pattern-train"
        )
        assert fit.wall_seconds <= seconds <= stage.wall_seconds
