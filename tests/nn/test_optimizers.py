"""Tests for SGD, RMSProp, Adam and gradient clipping."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn import optimizers
from repro.nn.module import Parameter
from repro.nn.optimizers import SGD, Adam, RMSProp, clip_grad_norm

from tests.oracles import PerParameterAdam, PerParameterRMSProp, PerParameterSGD


def quadratic_descent(optimizer_factory, steps=200):
    """Minimize ||x - 3||^2 and return the final parameter value."""
    param = Parameter(np.array([10.0]))
    optimizer = optimizer_factory([param])
    for __ in range(steps):
        optimizer.zero_grad()
        param.grad += 2.0 * (param.value - 3.0)
        optimizer.step()
    return float(param.value[0])


class TestConvergence:
    def test_sgd(self):
        assert quadratic_descent(lambda p: SGD(p, lr=0.1)) == pytest.approx(3.0, abs=1e-4)

    def test_sgd_momentum(self):
        final = quadratic_descent(lambda p: SGD(p, lr=0.05, momentum=0.9))
        assert final == pytest.approx(3.0, abs=1e-3)

    def test_rmsprop(self):
        final = quadratic_descent(lambda p: RMSProp(p, lr=0.05), steps=500)
        assert final == pytest.approx(3.0, abs=1e-2)

    def test_adam(self):
        final = quadratic_descent(lambda p: Adam(p, lr=0.1), steps=500)
        assert final == pytest.approx(3.0, abs=1e-2)


class TestValidation:
    @pytest.mark.parametrize("factory", [SGD, RMSProp, Adam])
    def test_positive_lr_required(self, factory):
        with pytest.raises(ConfigurationError):
            factory([Parameter(np.zeros(1))], lr=0.0)

    @pytest.mark.parametrize("factory", [SGD, RMSProp, Adam])
    def test_empty_params_rejected(self, factory):
        with pytest.raises(ConfigurationError):
            factory([], lr=0.1)

    def test_sgd_momentum_range(self):
        with pytest.raises(ConfigurationError):
            SGD([Parameter(np.zeros(1))], momentum=1.0)

    def test_rmsprop_alpha_range(self):
        with pytest.raises(ConfigurationError):
            RMSProp([Parameter(np.zeros(1))], alpha=1.0)

    def test_adam_betas_range(self):
        with pytest.raises(ConfigurationError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.999))


class TestZeroGrad:
    def test_resets_all(self):
        params = [Parameter(np.zeros(3)), Parameter(np.zeros(2))]
        optimizer = SGD(params, lr=0.1)
        for param in params:
            param.grad += 1.0
        optimizer.zero_grad()
        assert all(np.all(p.grad == 0) for p in params)


class TestStepMechanics:
    def test_sgd_step_direction(self):
        param = Parameter(np.array([1.0]))
        optimizer = SGD([param], lr=0.5)
        param.grad += np.array([2.0])
        optimizer.step()
        assert param.value[0] == pytest.approx(0.0)

    def test_adam_bias_correction_first_step(self):
        param = Parameter(np.array([0.0]))
        optimizer = Adam([param], lr=0.1)
        param.grad += np.array([1.0])
        optimizer.step()
        # With bias correction the first step is ~ -lr * sign(grad).
        assert param.value[0] == pytest.approx(-0.1, rel=1e-3)

    def test_rmsprop_scales_by_history(self):
        param = Parameter(np.array([0.0, 0.0]))
        optimizer = RMSProp([param], lr=0.1)
        param.grad += np.array([1.0, 100.0])
        optimizer.step()
        # large-gradient coordinate moves a similar (normalized) amount
        assert abs(param.value[1]) < abs(param.value[0]) * 1.05


def _make_params(rng: np.random.Generator) -> list[Parameter]:
    """A small heterogeneous parameter set (matrix, vector, scalar-ish)."""
    shapes = [(4, 3), (3,), (2, 2), (1,)]
    params = []
    for index, shape in enumerate(shapes):
        param = Parameter(rng.standard_normal(shape), name=f"p{index}")
        params.append(param)
    return params


#: name -> (flat-buffer optimizer, per-parameter oracle) factories.
_OPTIMIZER_FACTORIES = {
    "sgd": (
        lambda params: SGD(params, lr=0.05),
        lambda params: PerParameterSGD(params, lr=0.05),
    ),
    "sgd_momentum": (
        lambda params: SGD(params, lr=0.05, momentum=0.9),
        lambda params: PerParameterSGD(params, lr=0.05, momentum=0.9),
    ),
    "rmsprop": (
        lambda params: RMSProp(params, lr=1e-3),
        lambda params: PerParameterRMSProp(params, lr=1e-3),
    ),
    "adam": (
        lambda params: Adam(params, lr=1e-3),
        lambda params: PerParameterAdam(params, lr=1e-3),
    ),
}


@pytest.mark.parametrize("name", sorted(_OPTIMIZER_FACTORIES))
class TestFlatBufferMode:
    def test_bit_identical_to_per_parameter_steps(self, name):
        # The fused kernels are purely elementwise, so running them over
        # one contiguous buffer must produce the exact bits of the
        # classic formulas applied parameter by parameter.
        factory, oracle_factory = _OPTIMIZER_FACTORIES[name]
        rng = np.random.default_rng(3)
        grads = [rng.standard_normal((4, 3)), rng.standard_normal((3,)),
                 rng.standard_normal((2, 2)), rng.standard_normal((1,))]

        plain = _make_params(np.random.default_rng(5))
        flat = _make_params(np.random.default_rng(5))
        oracle = oracle_factory(plain)
        flat_opt = factory(flat)

        for step in range(25):
            oracle.zero_grad()
            flat_opt.zero_grad()
            for param_list in (plain, flat):
                for param, grad in zip(param_list, grads):
                    param.grad += (step + 1) * grad
            oracle.step()
            flat_opt.step()
            for plain_p, flat_p in zip(plain, flat):
                assert np.array_equal(plain_p.value, flat_p.value), plain_p.name

    def test_views_alias_the_flat_buffer(self, name):
        factory, __ = _OPTIMIZER_FACTORIES[name]
        params = _make_params(np.random.default_rng(7))
        optimizer = factory(params)
        for param in params:
            assert param.value.base is optimizer._flat_value
            assert param.grad.base is optimizer._flat_grad
            assert param.value.flags.writeable

    def test_zero_grad_clears_views(self, name):
        factory, __ = _OPTIMIZER_FACTORIES[name]
        params = _make_params(np.random.default_rng(9))
        optimizer = factory(params)
        for param in params:
            param.grad += 1.0
        optimizer.zero_grad()
        assert all(np.all(p.grad == 0.0) for p in params)


@pytest.mark.parametrize("factory", [SGD, RMSProp, Adam])
def test_flat_keyword_is_gone(factory):
    with pytest.raises(TypeError):
        factory([Parameter(np.zeros(1))], flat=True)


class TestOptimizerClipGradNorm:
    def test_flat_matches_function_within_ulp(self):
        # Views into the flat buffer sum and scale exactly like the
        # same gradients held in standalone arrays.
        flat = _make_params(np.random.default_rng(11))
        plain = _make_params(np.random.default_rng(11))
        flat_opt = SGD(flat, lr=0.1)
        for param_list in (plain, flat):
            local = np.random.default_rng(13)
            for param in param_list:
                param.grad += 10.0 * local.standard_normal(param.grad.shape)
        norm_flat = flat_opt.clip_grad_norm(1.0)
        norm_plain = clip_grad_norm(plain, 1.0)
        assert norm_flat == norm_plain
        for plain_p, flat_p in zip(plain, flat):
            assert np.array_equal(plain_p.grad, flat_p.grad), plain_p.name

    def test_per_parameter_mode_delegates_exactly(self, monkeypatch):
        params = _make_params(np.random.default_rng(15))
        optimizer = SGD(params, lr=0.1)
        calls = []

        def spy(spied_params, max_norm):
            calls.append((spied_params, max_norm))
            return 2.5

        monkeypatch.setattr(optimizers, "clip_grad_norm", spy)
        assert optimizer.clip_grad_norm(1.0) == 2.5
        assert calls == [(optimizer.params, 1.0)]

    def test_below_threshold_untouched(self):
        params = _make_params(np.random.default_rng(19))
        optimizer = SGD(params, lr=0.1)
        for param in params:
            param.grad += 1e-3
        before = [param.grad.copy() for param in params]
        optimizer.clip_grad_norm(100.0)
        for param, kept in zip(params, before):
            assert np.array_equal(param.grad, kept)

    def test_invalid_max_norm(self):
        optimizer = SGD(_make_params(np.random.default_rng(21)), lr=0.1)
        with pytest.raises(ConfigurationError):
            optimizer.clip_grad_norm(0.0)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        param = Parameter(np.zeros(3))
        param.grad += np.array([0.1, 0.1, 0.1])
        before = param.grad.copy()
        norm = clip_grad_norm([param], max_norm=10.0)
        np.testing.assert_array_equal(param.grad, before)
        assert norm == pytest.approx(np.linalg.norm(before))

    def test_clips_above_threshold(self):
        param = Parameter(np.zeros(2))
        param.grad += np.array([3.0, 4.0])  # norm 5
        clip_grad_norm([param], max_norm=1.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)

    def test_global_norm_across_params(self):
        a = Parameter(np.zeros(1))
        b = Parameter(np.zeros(1))
        a.grad += np.array([3.0])
        b.grad += np.array([4.0])
        clip_grad_norm([a, b], max_norm=1.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(1.0)

    def test_invalid_max_norm(self):
        with pytest.raises(ConfigurationError):
            clip_grad_norm([Parameter(np.zeros(1))], max_norm=0.0)
