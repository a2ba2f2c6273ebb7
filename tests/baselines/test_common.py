"""Contract tests every baseline mechanism must satisfy."""

import numpy as np
import pytest

from repro.baselines import (
    FAST,
    FourierPerturbation,
    Identity,
    LGANConfig,
    LGANDP,
    WPO,
    WaveletPerturbation,
    standard_benchmarks,
)
from repro.data.matrix import ConsumptionMatrix
from repro.exceptions import PrivacyError


def all_mechanisms():
    return [
        Identity(),
        FAST(),
        FourierPerturbation(k=4),
        WaveletPerturbation(k=4),
        LGANDP(LGANConfig(window=4, iterations=2, hidden_dim=4, noise_dim=2)),
        WPO(),
    ]


@pytest.fixture()
def matrix(rng):
    base = rng.random((4, 4, 1)) + 0.5
    return ConsumptionMatrix(base * (1 + 0.1 * rng.random((4, 4, 12))))


@pytest.mark.parametrize("mechanism", all_mechanisms(), ids=lambda m: m.name)
class TestMechanismContract:
    def test_output_shape(self, mechanism, matrix):
        run = mechanism.run(matrix, epsilon=10.0, rng=0)
        assert run.sanitized.shape == matrix.shape

    def test_output_differs_from_input(self, mechanism, matrix):
        run = mechanism.run(matrix, epsilon=1.0, rng=0)
        assert not np.allclose(run.sanitized.values, matrix.values)

    def test_run_metadata(self, mechanism, matrix):
        run = mechanism.run(matrix, epsilon=5.0, rng=0)
        assert run.epsilon_spent == 5.0
        assert run.mechanism == mechanism.name
        assert run.elapsed_seconds >= 0

    def test_invalid_epsilon(self, mechanism, matrix):
        with pytest.raises(PrivacyError):
            mechanism.run(matrix, epsilon=0.0)

    def test_deterministic_given_seed(self, mechanism, matrix):
        a = mechanism.run(matrix, epsilon=2.0, rng=77)
        b = mechanism.run(matrix, epsilon=2.0, rng=77)
        np.testing.assert_array_equal(a.sanitized.values, b.sanitized.values)

    def test_budget_accounted(self, mechanism, matrix):
        # run() builds its own accountant and asserts the total; this
        # exercises that path at a budget where any over-spend throws.
        mechanism.run(matrix, epsilon=0.5, rng=0)


class TestStandardBenchmarks:
    def test_figure6_suite_composition(self):
        names = [m.name for m in standard_benchmarks()]
        assert names == [
            "Identity",
            "FAST",
            "Fourier-10",
            "Fourier-20",
            "Wavelet-10",
            "Wavelet-20",
            "LGAN-DP",
        ]

    def test_wpo_not_in_suite(self):
        assert all(m.name != "WPO" for m in standard_benchmarks())
