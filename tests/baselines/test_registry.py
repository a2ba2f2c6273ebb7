"""Mechanism registry, name lookup and the unified release record."""

import numpy as np
import pytest

from repro.baselines import (
    MECHANISM_REGISTRY,
    Mechanism,
    available_mechanisms,
    get_mechanism,
)
from repro.data.matrix import ConsumptionMatrix
from repro.exceptions import ConfigurationError, PrivacyError
from repro.pipeline import PublicationResult, RunRecord


class TestRegistry:
    def test_every_baseline_registered(self):
        names = available_mechanisms()
        # Class-level names register under the display name; the
        # parameterized Fourier/Wavelet families, whose display names
        # are per-instance, register under the class name.
        for expected in [
            "Identity",
            "Identity(event)",
            "FAST",
            "DPCube",
            "LGAN-DP",
            "UGrid",
            "AGrid",
            "WPO",
            "FourierPerturbation",
            "WaveletPerturbation",
        ]:
            assert expected in names

    def test_registry_holds_classes_not_instances(self):
        for cls in MECHANISM_REGISTRY.values():
            assert isinstance(cls, type)
            assert issubclass(cls, Mechanism)

    def test_get_mechanism_forwards_constructor_args(self):
        mech = get_mechanism("FourierPerturbation", k=20)
        assert mech.name == "Fourier-20"

    def test_unknown_name_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="available"):
            get_mechanism("NoSuchMechanism")

    def test_register_false_opts_out(self):
        class Hidden(Mechanism, register=False):
            name = "Hidden"

            def sanitize(self, norm_matrix, epsilon, rng=None, accountant=None):
                return norm_matrix

        assert "Hidden" not in MECHANISM_REGISTRY

    def test_abstract_subclasses_not_registered(self):
        assert "Mechanism" not in MECHANISM_REGISTRY
        assert "mechanism" not in MECHANISM_REGISTRY


class TestUnifiedResult:
    def test_run_produces_records_and_epsilon_alias(self):
        matrix = ConsumptionMatrix(np.full((4, 4, 6), 0.5))
        result = get_mechanism("Identity").run(matrix, epsilon=3.0, rng=11)
        assert isinstance(result, PublicationResult)
        assert result.mechanism == "Identity"
        assert result.epsilon_spent == 3.0
        assert result.elapsed_seconds >= 0.0
        assert len(result.records) == 1
        record = result.records[0]
        assert isinstance(record, RunRecord)
        assert record.stage == "baseline/Identity"
        assert record.spends_budget
        assert not record.cached

    def test_as_stage_rejects_nonpositive_epsilon(self):
        with pytest.raises(PrivacyError):
            get_mechanism("Identity").run(
                ConsumptionMatrix(np.full((2, 2, 3), 0.5)), epsilon=0.0
            )
