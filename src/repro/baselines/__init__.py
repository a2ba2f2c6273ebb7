"""Benchmark mechanisms the paper compares STPT against (Section 5.1)."""

from repro.baselines.base import (
    MECHANISM_REGISTRY,
    Mechanism,
    available_mechanisms,
    get_mechanism,
)
from repro.baselines.dpcube import DPCube, DPCubeConfig
from repro.baselines.event_level import EventLevelIdentity
from repro.baselines.fast import FAST, FASTConfig
from repro.baselines.fourier import FourierPerturbation
from repro.baselines.grids import AdaptiveGrid, GridConfig, UniformGrid
from repro.baselines.identity import Identity
from repro.baselines.lgan import LGANConfig, LGANDP
from repro.baselines.wavelet import WaveletPerturbation, haar_dwt, haar_idwt
from repro.baselines.wpo import WPO, WPOConfig


def standard_benchmarks() -> list[Mechanism]:
    """The Figure 6 benchmark suite (WPO is reported separately, Fig. 7)."""
    return [
        Identity(),
        FAST(),
        FourierPerturbation(k=10),
        FourierPerturbation(k=20),
        WaveletPerturbation(k=10),
        WaveletPerturbation(k=20),
        LGANDP(),
    ]


def extended_benchmarks() -> list[Mechanism]:
    """Spatial-decomposition methods from the paper's related work.

    Not part of Figure 6 — the paper only cites them — but included so
    STPT can be compared against the classic DP-histogram toolbox.
    """
    return [UniformGrid(), AdaptiveGrid(), DPCube()]


__all__ = [
    "MECHANISM_REGISTRY",
    "Mechanism",
    "available_mechanisms",
    "get_mechanism",
    "UniformGrid",
    "AdaptiveGrid",
    "GridConfig",
    "DPCube",
    "DPCubeConfig",
    "EventLevelIdentity",
    "extended_benchmarks",
    "Identity",
    "FAST",
    "FASTConfig",
    "FourierPerturbation",
    "WaveletPerturbation",
    "haar_dwt",
    "haar_idwt",
    "LGANDP",
    "LGANConfig",
    "WPO",
    "WPOConfig",
    "standard_benchmarks",
]
