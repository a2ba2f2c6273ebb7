"""Golden bits of the forecaster at the geometry a paper-scale publish trains.

The pipeline goldens (``tests/pipeline/test_*golden*.py``) train at
embed/hidden 8. A paper-scale ``STPT.publish`` trains the default
``GRUForecaster``: window 6, embed and hidden 32, single-head
attention, batch 32. Which gemm kernel BLAS picks, and so which bits
come out, depends on those widths, so this module pins the training
step and the roll-out at that geometry directly.

The data leaves 115 windows, so every epoch ends on a batch of 19: a
row count that is not a multiple of 4 exercises the gemm edge kernels.
The clip is 0.05 rather than the default 5, so 10 of the 12 steps
scale their gradients: the goldens pin the clip's norm to the last
bit (a norm summed in another order moves the last epoch's loss) as
well as its scaling.

The roll-out is the batch-1, 6-step ``predict_autoregressive`` the
pattern phase runs from the root series. The values are ``float.hex``
literals, captured before the fused GRU training step landed, so the
comparison is exact and also pins that rewrite.
"""

import numpy as np

from repro.nn.models import GRUForecaster
from repro.nn.training import Trainer, make_windows

GOLDEN_EPOCH_LOSSES = [
    float.fromhex(h)
    for h in [
        "0x1.973ba892fb51bp-5",
        "0x1.0f02d69c5cc27p-5",
        "0x1.ded82d45af452p-6",
    ]
]
GOLDEN_PARAMETER_SUM = float.fromhex("-0x1.01164b6479fb2p+4")
GOLDEN_PREDICTIONS = [
    float.fromhex(h)
    for h in [
        "0x1.6f7d4539c5116p+0",
        "0x1.ab30ca9434170p+0",
        "0x1.cc7ccd5399c37p+0",
        "0x1.8b17e2a83e977p+0",
    ]
]
GOLDEN_ROLLOUT = [
    float.fromhex(h)
    for h in [
        "0x1.6e8ad1f9293c9p+0",
        "0x1.7fb4246164153p+0",
        "0x1.90e7c39266474p+0",
        "0x1.a1023c12e45f0p+0",
        "0x1.afb2f6d65803cp+0",
        "0x1.bd181b07b6dd3p+0",
    ]
]


def production_series() -> list[np.ndarray]:
    """Five deterministic 29-step series: 5 x 23 = 115 windows of 6."""
    t = np.arange(29, dtype=float)
    return [
        1.0
        + 0.4 * np.sin(2.0 * np.pi * t / 24.0 + 0.7 * k)
        + 0.15 * np.cos(0.9 * t + k)
        + 0.05 * ((7 * t + 3 * k) % 5)
        for k in range(5)
    ]


def train_production_model() -> tuple[GRUForecaster, list[float]]:
    inputs, targets = make_windows(production_series(), 6)
    model = GRUForecaster(window=6, embed_dim=32, hidden_dim=32, rng=5)
    history = Trainer(
        model, epochs=3, batch_size=32, grad_clip=0.05, rng=9
    ).fit(inputs, targets)
    return model, history.epoch_losses


class TestProductionGeometryGolden:
    def test_training_matches_goldens(self):
        inputs, __ = make_windows(production_series(), 6)
        assert inputs.shape == (115, 6)  # three batches of 32, one of 19
        model, losses = train_production_model()
        assert [float(v) for v in losses] == GOLDEN_EPOCH_LOSSES
        total = sum(float(p.value.sum()) for p in model.parameters())
        assert total == GOLDEN_PARAMETER_SUM
        preds = model.forward(inputs[:4])
        assert [float(v) for v in preds] == GOLDEN_PREDICTIONS

    def test_batch_one_rollout_matches_goldens(self):
        model, __ = train_production_model()
        seed = production_series()[2][:6]
        rollout = model.predict_autoregressive(seed, 6)
        assert rollout.shape == (1, 6)
        assert [float(v) for v in rollout[0]] == GOLDEN_ROLLOUT
