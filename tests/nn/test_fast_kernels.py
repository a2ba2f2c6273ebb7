"""Equivalence tests for the vectorized NN hot kernels.

Each kernel is held to its plain-loop oracle in ``tests/oracles.py``:

* ``make_windows`` vs ``make_windows_reference`` — bit-identical;
* the fused RNN/GRU/LSTM ``forward`` vs per-step ``cell.step`` —
  equal to round-off (<= 1e-12) on every shape, and bit-identical on
  the shapes pinned below, the publish geometry among them. The
  elementwise operations run in the same order; only the stacked
  input-projection gemm may pick a different BLAS kernel than a
  per-step one, which at batch 1 (a gemv per step) it usually does;
* ``sigmoid`` vs ``sigmoid_reference`` (the boolean-mask form) —
  bit-identical, NaN payloads included;
* the batched BPTT ``backward`` vs per-step ``cell.step_backward`` —
  equal to 1e-10 (the time-stacked weight-gradient gemms reassociate
  floating-point sums);
* batched multi-node roll-out vs ``rollout_per_node_reference`` —
  equal to a tight absolute tolerance (single-row gemv and batched
  gemm legitimately differ in the last ulp).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.layers import sigmoid
from repro.nn.models import make_forecaster
from repro.nn.recurrent import GRU, LSTM, RNN
from repro.nn.training import make_windows

from tests.oracles import (
    backward_per_step,
    forward_per_step,
    make_windows_reference,
    rollout_per_node_reference,
    sigmoid_reference,
)

#: Grad tolerance of the batched BPTT backward against the per-step
#: oracle: the time-stacked gemms reassociate floating-point sums, so
#: equality holds to round-off, not bit-for-bit.
_BATCHED_BACKWARD_ATOL = 1e-10


class TestMakeWindowsEquivalence:
    def test_equal_length_series(self):
        rng = np.random.default_rng(0)
        series = [rng.random(12) for __ in range(5)]
        fast = make_windows(series, 4)
        ref = make_windows_reference(series, 4)
        assert np.array_equal(fast[0], ref[0])
        assert np.array_equal(fast[1], ref[1])

    def test_mixed_length_series(self):
        rng = np.random.default_rng(1)
        lengths = [9, 9, 4, 17, 17, 17, 5, 9]
        series = [rng.random(n) for n in lengths]
        fast = make_windows(series, 4)
        ref = make_windows_reference(series, 4)
        assert np.array_equal(fast[0], ref[0])
        assert np.array_equal(fast[1], ref[1])

    def test_short_series_contribute_nothing(self):
        rng = np.random.default_rng(2)
        series = [rng.random(3), rng.random(10), rng.random(2)]
        fast = make_windows(series, 4)
        ref = make_windows_reference(series, 4)
        assert np.array_equal(fast[0], ref[0])
        assert np.array_equal(fast[1], ref[1])
        assert fast[0].shape == (6, 4)

    def test_exact_length_series_yields_one_window(self):
        series = [np.arange(5.0)]
        inputs, targets = make_windows(series, 4)
        assert np.array_equal(inputs, [[0.0, 1.0, 2.0, 3.0]])
        assert np.array_equal(targets, [4.0])

    def test_all_too_short_raises(self):
        for fn in (make_windows, make_windows_reference):
            with pytest.raises(TrainingError):
                fn([np.arange(3.0)], 4)

    def test_empty_series_list_raises(self):
        for fn in (make_windows, make_windows_reference):
            with pytest.raises(TrainingError):
                fn([], 4)

    def test_empty_series_entries(self):
        series = [np.array([]), np.arange(6.0), np.array([])]
        fast = make_windows(series, 3)
        ref = make_windows_reference(series, 3)
        assert np.array_equal(fast[0], ref[0])
        assert np.array_equal(fast[1], ref[1])

    def test_nonpositive_window_raises(self):
        for fn in (make_windows, make_windows_reference):
            with pytest.raises(ConfigurationError):
                fn([np.arange(6.0)], 0)

    def test_output_owns_its_memory(self):
        # The windows must be real copies, not strided views that alias
        # (and keep alive) the input series.
        series = [np.arange(8.0), np.arange(8.0) + 10.0]
        inputs, targets = make_windows(series, 3)
        series[0][:] = -1.0
        assert inputs[0, 0] == 0.0
        assert inputs.base is None or inputs.base.base is None
        assert targets[0] == 3.0

    def test_2d_series_ravels_like_reference(self):
        series = [np.arange(12.0).reshape(3, 4)]
        fast = make_windows(series, 5)
        ref = make_windows_reference(series, 5)
        assert np.array_equal(fast[0], ref[0])
        assert np.array_equal(fast[1], ref[1])


@pytest.mark.parametrize("layer_cls", [RNN, GRU, LSTM])
@pytest.mark.parametrize(
    "shape",
    [
        (5, 9, 3, 4),
        (1, 1, 2, 3),
        (17, 12, 6, 8),
        (32, 6, 32, 32),  # the publish geometry: batch 32, window 6
        # Hidden 20: one h @ [u_z | u_r] gemm would not match the two
        # separate ones at this width.
        (32, 6, 8, 20),
    ],
)
class TestFusedRecurrentWrappers:
    def test_bit_identical_to_per_step_cell(self, layer_cls, shape):
        # At these shapes the fused forward reproduces the per-step
        # outputs bit for bit; the batched backward reassociates
        # gradient sums, so it is held to <= 1e-10.
        batch, steps, features, hidden = shape
        fused = layer_cls(features, hidden, rng=np.random.default_rng(11))
        reference = layer_cls(features, hidden, rng=np.random.default_rng(11))
        rng = np.random.default_rng(7)
        x = rng.standard_normal((batch, steps, features))
        grad = rng.standard_normal((batch, steps, hidden))

        out_fast = fused.forward(x)
        dx_fast = fused.backward(grad)
        out_ref = forward_per_step(reference, x)
        dx_ref = backward_per_step(reference, grad)

        assert np.array_equal(out_fast, out_ref)
        np.testing.assert_allclose(
            dx_fast, dx_ref, rtol=0.0, atol=_BATCHED_BACKWARD_ATOL
        )
        for fast_p, ref_p in zip(fused.parameters(), reference.parameters()):
            np.testing.assert_allclose(
                fast_p.grad,
                ref_p.grad,
                rtol=0.0,
                atol=_BATCHED_BACKWARD_ATOL,
                err_msg=fast_p.name,
            )


@pytest.mark.parametrize("layer_cls", [RNN, GRU, LSTM])
@pytest.mark.parametrize(
    "shape",
    [
        (1, 6, 4, 3),  # batch 1: each per-step x @ W is a gemv
        (7, 6, 16, 3),  # an odd batch
    ],
)
def test_forward_within_round_off_of_per_step_cell(layer_cls, shape):
    # The stacked input gemm may take another BLAS kernel than the
    # per-step one, so only round-off is promised here. On OpenBLAS
    # 0.3.31 both shapes differ from the oracle by up to 2.2e-16 (the
    # LSTM at the odd batch matches).
    batch, steps, features, hidden = shape
    fused = layer_cls(features, hidden, rng=np.random.default_rng(11))
    reference = layer_cls(features, hidden, rng=np.random.default_rng(11))
    x = np.random.default_rng(7).standard_normal((batch, steps, features))
    np.testing.assert_allclose(
        fused.forward(x), forward_per_step(reference, x), rtol=0.0, atol=1e-12
    )


class TestSigmoidEquivalence:
    """The branch-free ``sigmoid`` against the boolean-mask oracle."""

    @staticmethod
    def assert_same_bits(x):
        fast = np.asarray(sigmoid(x))
        ref = sigmoid_reference(x)
        assert fast.shape == ref.shape
        assert np.array_equal(fast.view(np.int64), ref.view(np.int64))

    def test_special_values(self):
        tiny = np.nextafter(0.0, 1.0)  # smallest subnormal
        self.assert_same_bits(
            np.array(
                [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                 709.8, -709.8, 745.0, -745.0, tiny, -tiny]
            )
        )

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
    def test_random_normals(self, scale):
        rng = np.random.default_rng(int(scale * 1000))
        self.assert_same_bits(rng.standard_normal((32, 64)) * scale)


@pytest.mark.parametrize("layer_cls", [RNN, GRU, LSTM])
@pytest.mark.parametrize(
    "shape",
    [
        (5, 9, 3, 4),
        (1, 1, 2, 3),  # T=1: the loop degenerates to a single step
        (2, 5, 4, 1),  # hidden=1: gemms collapse to dot products
        (17, 12, 6, 8),
        (64, 24, 8, 16),  # production-like batch
    ],
)
class TestBatchedBackwardEquivalence:
    def test_matches_per_step_reference(self, layer_cls, shape):
        batch, steps, features, hidden = shape
        layer = layer_cls(features, hidden, rng=np.random.default_rng(11))
        rng = np.random.default_rng(7)
        x = rng.standard_normal((batch, steps, features))
        grad = rng.standard_normal((batch, steps, hidden))

        layer.forward(x)
        dx_fast = layer.backward(grad)
        fast_grads = [p.grad.copy() for p in layer.parameters()]

        for param in layer.parameters():
            param.grad[...] = 0.0
        forward_per_step(layer, x)
        dx_ref = backward_per_step(layer, grad)

        np.testing.assert_allclose(
            dx_fast, dx_ref, rtol=0.0, atol=_BATCHED_BACKWARD_ATOL
        )
        for fast_grad, param in zip(fast_grads, layer.parameters()):
            np.testing.assert_allclose(
                fast_grad,
                param.grad,
                rtol=0.0,
                atol=_BATCHED_BACKWARD_ATOL,
                err_msg=param.name,
            )

    def test_grad_accumulation_matches(self, layer_cls, shape):
        # Two backward calls must accumulate (+=) into .grad, not
        # overwrite it.
        batch, steps, features, hidden = shape
        layer = layer_cls(features, hidden, rng=np.random.default_rng(11))
        rng = np.random.default_rng(13)
        x = rng.standard_normal((batch, steps, features))
        grad = rng.standard_normal((batch, steps, hidden))

        layer.forward(x)
        layer.backward(grad)
        once = [p.grad.copy() for p in layer.parameters()]
        layer.backward(grad)
        for single, param in zip(once, layer.parameters()):
            np.testing.assert_allclose(
                param.grad, 2.0 * single, rtol=0.0, atol=1e-12
            )


@pytest.mark.parametrize("layer_cls", [RNN, GRU, LSTM])
def test_backward_before_forward_raises(layer_cls):
    layer = layer_cls(2, 3)
    with pytest.raises(ConfigurationError):
        layer.backward(np.zeros((1, 1, 3)))


@pytest.mark.parametrize("family", ["rnn", "gru", "lstm"])
def test_batched_rollout_matches_per_node_reference(family):
    model = make_forecaster(family, window=6, rng=np.random.default_rng(3))
    rng = np.random.default_rng(5)
    for param in model.parameters():
        param.value += rng.standard_normal(param.value.shape) * 0.05
    seeds = rng.random((16, 6))
    batched = model.predict_autoregressive(seeds, 12, clip=(0.0, 2.0))
    per_node = rollout_per_node_reference(model, seeds, 12, clip=(0.0, 2.0))
    assert batched.shape == per_node.shape == (16, 12)
    # gemv (one row) vs gemm (full batch) may differ in the last ulp;
    # anything beyond ~1e-12 would be a real divergence.
    np.testing.assert_allclose(batched, per_node, rtol=0.0, atol=1e-12)
