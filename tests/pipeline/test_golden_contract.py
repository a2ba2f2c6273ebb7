"""Regression lock for the golden contract, batched and per-step BPTT.

The batched BPTT backward (time-stacked weight-gradient gemms)
reassociates gradient sums, moving the trained pattern matrix by
exactly one ulp relative to per-step backpropagation through the
cells. The release contract is that this drift never reaches the
published bits: k-quantization snaps the pattern matrix to level
values, so the sanitized output is bit-identical whichever backward
runs. The per-step mode patches the recurrent wrappers' ``forward`` and
``backward`` with the per-step oracle from ``tests/oracles.py``. Its
training forwards match the fused ones bit for bit at this geometry;
its batch-1 roll-out forwards differ from them by round-off (a gemv
per step instead of one stacked gemm). This module pins all three
facts — the batched golden, the per-step golden, and the invariance of
the release — so a change to either path trips a test instead of
silently shifting goldens.
"""

import numpy as np
import pytest

from repro.nn.recurrent import GRU, LSTM, RNN

from tests.oracles import backward_per_step, forward_per_step
from tests.pipeline.test_determinism_golden import (
    GOLDEN_DIAG,
    GOLDEN_PATTERN_SUM,
    GOLDEN_ROW,
    GOLDEN_SUM,
    assert_matches_goldens,
    publish,
)

# Captured from the per-step backward on the same golden run; exactly
# one ulp below the batched value.
GOLDEN_PATTERN_SUM_PER_STEP = float.fromhex("0x1.13fd7f2d670e0p+9")


@pytest.fixture(params=[True, False], ids=["batched", "per-step"])
def batched(request, monkeypatch):
    if not request.param:
        for layer_cls in (RNN, GRU, LSTM):
            monkeypatch.setattr(layer_cls, "forward", forward_per_step)
            monkeypatch.setattr(layer_cls, "backward", backward_per_step)
    return request.param


class TestGoldenContract:
    def test_sanitized_release_is_identical_in_both_modes(self, batched):
        # ``assert_matches_goldens`` pins the batched pattern sum, so
        # only the sanitized-release goldens apply to both modes.
        result = publish()
        sanitized = result.sanitized.values
        assert float(sanitized.sum()) == GOLDEN_SUM
        assert [float(v) for v in sanitized[0, 0, :]] == GOLDEN_ROW
        assert [
            float(v) for v in (sanitized[i, i, i % 8] for i in range(8))
        ] == GOLDEN_DIAG
        if batched:
            assert_matches_goldens(result)

    def test_pattern_matrix_matches_its_mode_golden(self, batched):
        result = publish()
        pattern_sum = float(result.pattern_matrix.sum())
        if batched:
            assert pattern_sum == GOLDEN_PATTERN_SUM
        else:
            assert pattern_sum == GOLDEN_PATTERN_SUM_PER_STEP

    def test_mode_goldens_differ_by_exactly_one_ulp(self):
        assert GOLDEN_PATTERN_SUM != GOLDEN_PATTERN_SUM_PER_STEP
        ulp = np.spacing(GOLDEN_PATTERN_SUM_PER_STEP)
        assert GOLDEN_PATTERN_SUM - GOLDEN_PATTERN_SUM_PER_STEP == ulp

    def test_default_ships_batched(self):
        # No patch: the shipped wrappers must land on the batched golden.
        assert float(publish().pattern_matrix.sum()) == GOLDEN_PATTERN_SUM
