"""Forecasting models used by STPT's pattern-recognition phase.

Appendix C of the paper specifies the default "RNN unit" as a
self-attention mechanism followed by a GRU (embedding size 128, hidden
dimension 64, window of 6 datapoints predicting the next one). Fig. 8i
swaps the sequence core for a vanilla RNN, a GRU, or a transformer. All
variants share the same scalar-window interface:

* ``forward(windows)`` maps ``(batch, window)`` normalized consumption
  values to ``(batch,)`` next-step predictions, and
* ``predict_autoregressive(seed, steps)`` rolls a model forward by
  feeding predictions back as inputs, which is how ``C_pattern`` is
  generated for the test horizon.

A member stack of forecasters (:func:`repro.nn.module.stack_members`)
maps ``(M, batch, window)`` to ``(M, batch)`` through the same
``forward``/``backward``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.attention import (
    MultiHeadSelfAttention,
    PositionalEncoding,
    TransformerEncoderLayer,
)
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.recurrent import GRU, LSTM, RNN
from repro.rng import RngLike, spawn


class SequenceForecaster(Module):
    """Base class implementing the scalar-window protocol."""

    stackable = True

    def forward(self, windows: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def predict_autoregressive(
        self,
        seed: np.ndarray,
        steps: int,
        clip: tuple[float, float] | None = None,
    ) -> np.ndarray:
        """Roll the model ``steps`` ahead from ``seed`` windows.

        ``seed`` has shape ``(batch, window)``; the return value has
        shape ``(batch, steps)``. When ``clip`` is given, predictions
        are clamped to that range before being fed back, which keeps a
        long roll-out from drifting off the training distribution.
        """
        if steps <= 0:
            raise ConfigurationError("steps must be positive")
        seed = np.atleast_2d(np.asarray(seed, dtype=float))
        window = seed.copy()
        out = np.empty((seed.shape[0], steps))
        for t in range(steps):
            pred = self.forward(window)
            if clip is not None:
                pred = np.clip(pred, clip[0], clip[1])
            out[:, t] = pred
            window = np.concatenate([window[:, 1:], pred[:, None]], axis=1)
        return out


def _expand_windows(windows: np.ndarray, embed: Linear) -> np.ndarray:
    """``(batch, window)`` -> ``(batch, window, 1)``, after a member axis if any."""
    windows = np.asarray(windows, dtype=float)
    members = embed.weight.value.ndim - 2
    if windows.ndim != members + 2:
        expected = "(members, batch, window)" if members else "(batch, window)"
        raise ConfigurationError(
            f"expected {expected} input, got shape {windows.shape}"
        )
    return windows[..., None]


class _RecurrentForecaster(SequenceForecaster):
    """Shared skeleton: embed -> [attention] -> recurrent core -> head."""

    def __init__(
        self,
        core: str,
        window: int = 6,
        embed_dim: int = 32,
        hidden_dim: int = 32,
        num_heads: int = 1,
        use_attention: bool = True,
        residual: bool = True,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if window <= 0:
            raise ConfigurationError("window must be positive")
        rngs = spawn(rng, 4)
        self.window = window
        self.use_attention = use_attention
        self.residual = residual
        self.embed = Linear(1, embed_dim, rngs[0])
        if use_attention:
            self.pos = PositionalEncoding(embed_dim, max_len=max(64, 2 * window))
            self.attn = MultiHeadSelfAttention(embed_dim, num_heads, rngs[1])
        cores = {"rnn": RNN, "gru": GRU, "lstm": LSTM}
        if core not in cores:
            raise ConfigurationError(f"unknown core {core!r}; options: {sorted(cores)}")
        self.core = cores[core](embed_dim, hidden_dim, rngs[2])
        self.head = Linear(hidden_dim, 1, rngs[3])
        if residual:
            # Zero-init the head so the untrained model is exact
            # persistence; training grows the correction from zero.
            self.head.weight.value[:] = 0.0
        self._steps: int | None = None

    def forward(self, windows: np.ndarray) -> np.ndarray:
        x = _expand_windows(windows, self.embed)
        self._steps = x.shape[-2]
        h = self.embed(x)
        if self.use_attention:
            h = self.attn(self.pos(h))
        hidden = self.core(h)
        last = hidden[..., -1, :]
        out = self.head(last)[..., 0]
        if self.residual:
            # Predict the *change* from the last observation: keeps
            # long autoregressive roll-outs anchored to the series
            # level instead of collapsing to the training mean.
            out = out + x[..., -1, 0]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._steps is None:
            raise RuntimeError("backward called before forward")
        grad_out = np.asarray(grad_out, dtype=float)
        d_last = self.head.backward(grad_out[..., None])
        d_hidden = np.zeros(
            d_last.shape[:-1] + (self._steps, self.core.hidden_size)
        )
        d_hidden[..., -1, :] = d_last
        d_h = self.core.backward(d_hidden)
        if self.use_attention:
            d_h = self.pos.backward(self.attn.backward(d_h))
        dx = self.embed.backward(d_h)[..., 0]
        if self.residual:
            dx[..., -1] += grad_out
        return dx


class GRUForecaster(_RecurrentForecaster):
    """The paper's default pattern model: self-attention + GRU."""

    def __init__(self, window: int = 6, embed_dim: int = 32, hidden_dim: int = 32,
                 num_heads: int = 1, use_attention: bool = True,
                 rng: RngLike = None) -> None:
        super().__init__("gru", window, embed_dim, hidden_dim, num_heads,
                         use_attention, rng=rng)


class RNNForecaster(_RecurrentForecaster):
    """Vanilla-RNN variant (Fig. 8i)."""

    def __init__(self, window: int = 6, embed_dim: int = 32, hidden_dim: int = 32,
                 num_heads: int = 1, use_attention: bool = True,
                 rng: RngLike = None) -> None:
        super().__init__("rnn", window, embed_dim, hidden_dim, num_heads,
                         use_attention, rng=rng)


class LSTMForecaster(_RecurrentForecaster):
    """LSTM variant, also the generator core of the LGAN-DP baseline."""

    def __init__(self, window: int = 6, embed_dim: int = 32, hidden_dim: int = 32,
                 num_heads: int = 1, use_attention: bool = False,
                 rng: RngLike = None) -> None:
        super().__init__("lstm", window, embed_dim, hidden_dim, num_heads,
                         use_attention, rng=rng)


class TransformerForecaster(SequenceForecaster):
    """Transformer-encoder variant (Fig. 8i)."""

    def __init__(
        self,
        window: int = 6,
        embed_dim: int = 32,
        num_heads: int = 2,
        num_layers: int = 1,
        d_ff: int | None = None,
        residual: bool = True,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if window <= 0 or num_layers <= 0:
            raise ConfigurationError("window and num_layers must be positive")
        rngs = spawn(rng, num_layers + 2)
        self.window = window
        self.residual = residual
        self.embed = Linear(1, embed_dim, rngs[0])
        self.pos = PositionalEncoding(embed_dim, max_len=max(64, 2 * window))
        self.blocks = [
            TransformerEncoderLayer(embed_dim, num_heads, d_ff, rng=rngs[1 + i])
            for i in range(num_layers)
        ]
        for i, block in enumerate(self.blocks):
            setattr(self, f"block_{i}", block)
        self.head = Linear(embed_dim, 1, rngs[-1])
        if residual:
            self.head.weight.value[:] = 0.0
        self._steps: int | None = None

    def forward(self, windows: np.ndarray) -> np.ndarray:
        x = _expand_windows(windows, self.embed)
        self._steps = x.shape[-2]
        h = self.pos(self.embed(x))
        for block in self.blocks:
            h = block(h)
        out = self.head(h[..., -1, :])[..., 0]
        if self.residual:
            out = out + x[..., -1, 0]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._steps is None:
            raise RuntimeError("backward called before forward")
        grad_out = np.asarray(grad_out, dtype=float)
        d_last = self.head.backward(grad_out[..., None])
        d_h = np.zeros(d_last.shape[:-1] + (self._steps, self.embed.out_features))
        d_h[..., -1, :] = d_last
        for block in reversed(self.blocks):
            d_h = block.backward(d_h)
        dx = self.embed.backward(self.pos.backward(d_h))[..., 0]
        if self.residual:
            dx[..., -1] += grad_out
        return dx


MODEL_FAMILIES = {
    "rnn": RNNForecaster,
    "gru": GRUForecaster,
    "lstm": LSTMForecaster,
    "transformer": TransformerForecaster,
}


def make_forecaster(
    family: str,
    window: int = 6,
    embed_dim: int = 32,
    hidden_dim: int = 32,
    use_attention: bool = True,
    rng: RngLike = None,
) -> SequenceForecaster:
    """Factory keyed by family name (``rnn``/``gru``/``lstm``/``transformer``).

    ``use_attention`` toggles the self-attention stage of the recurrent
    families (the ablation of the paper's attention+GRU design); the
    transformer is attention-based by construction and ignores it.
    """
    if family not in MODEL_FAMILIES:
        raise ConfigurationError(
            f"unknown model family {family!r}; options: {sorted(MODEL_FAMILIES)}"
        )
    if family == "transformer":
        return TransformerForecaster(window=window, embed_dim=embed_dim, rng=rng)
    return MODEL_FAMILIES[family](
        window=window,
        embed_dim=embed_dim,
        hidden_dim=hidden_dim,
        use_attention=use_attention,
        rng=rng,
    )

__all__ = [
    "SequenceForecaster",
    "GRUForecaster",
    "RNNForecaster",
    "LSTMForecaster",
    "TransformerForecaster",
    "MODEL_FAMILIES",
    "make_forecaster",
]
