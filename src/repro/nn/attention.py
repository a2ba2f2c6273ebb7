"""Self-attention and transformer encoder blocks.

Implements scaled dot-product multi-head self-attention with an exact
manual backward pass, sinusoidal positional encoding, and a standard
post-norm transformer encoder layer (attention + feed-forward, residual
connections, layer norm). The paper's "RNN unit" (Appendix C) couples a
self-attention mechanism with a GRU; its transformer variant (Fig. 8i)
stacks encoder layers.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers import Dropout, Linear, ReLU, softmax
from repro.nn.module import Module
from repro.rng import RngLike, spawn


class PositionalEncoding(Module):
    """Additive sinusoidal positional encoding (Vaswani et al.)."""

    stackable = True

    def __init__(self, d_model: int, max_len: int = 2048) -> None:
        super().__init__()
        if d_model <= 0 or d_model % 2 != 0:
            raise ConfigurationError("d_model must be a positive even number")
        position = np.arange(max_len)[:, None].astype(float)
        div = np.exp(np.arange(0, d_model, 2) * (-np.log(10000.0) / d_model))
        table = np.zeros((max_len, d_model))
        table[:, 0::2] = np.sin(position * div)
        table[:, 1::2] = np.cos(position * div)
        self._table = table
        self.max_len = max_len

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        steps = x.shape[-2]
        if steps > self.max_len:
            raise ConfigurationError(
                f"sequence length {steps} exceeds max_len {self.max_len}"
            )
        return x + self._table[:steps]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return np.asarray(grad_out, dtype=float)


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention over ``(batch, time, d_model)``."""

    stackable = True

    def __init__(self, d_model: int, num_heads: int = 1, rng: RngLike = None) -> None:
        super().__init__()
        if d_model <= 0 or num_heads <= 0:
            raise ConfigurationError("d_model and num_heads must be positive")
        if d_model % num_heads != 0:
            raise ConfigurationError(
                f"d_model ({d_model}) must be divisible by num_heads ({num_heads})"
            )
        rngs = spawn(rng, 4)
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.q_proj = Linear(d_model, d_model, rngs[0])
        self.k_proj = Linear(d_model, d_model, rngs[1])
        self.v_proj = Linear(d_model, d_model, rngs[2])
        self.out_proj = Linear(d_model, d_model, rngs[3])
        self._cache: tuple | None = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """``(..., time, d_model)`` -> ``(..., heads, time, d_head)``."""
        split = x.reshape(x.shape[:-1] + (self.num_heads, self.d_head))
        return split.swapaxes(-3, -2)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        """``(..., heads, time, d_head)`` -> ``(..., time, d_model)``."""
        merged = x.swapaxes(-3, -2)
        return merged.reshape(merged.shape[:-2] + (self.d_model,))

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(x))
        v = self._split_heads(self.v_proj(x))
        scale = 1.0 / np.sqrt(self.d_head)
        scores = (q @ k.mT) * scale
        attn = softmax(scores, axis=-1)
        context = attn @ v
        self._cache = (q, k, v, attn, scale)
        return self.out_proj(self._merge_heads(context))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        q, k, v, attn, scale = self._cache
        d_context = self._split_heads(self.out_proj.backward(grad_out))
        d_attn = d_context @ v.mT
        d_v = attn.mT @ d_context
        # Softmax backward along the last axis.
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_scores *= scale
        d_q = d_scores @ k
        d_k = d_scores.mT @ q
        dx = self.q_proj.backward(self._merge_heads(d_q))
        dx = dx + self.k_proj.backward(self._merge_heads(d_k))
        dx = dx + self.v_proj.backward(self._merge_heads(d_v))
        return dx

    @property
    def attention_weights(self) -> np.ndarray | None:
        """Attention map of the last forward pass (for inspection)."""
        if self._cache is None:
            return None
        return self._cache[3]


class TransformerEncoderLayer(Module):
    """Post-norm encoder block: self-attention + position-wise FFN."""

    stackable = True

    def __init__(
        self,
        d_model: int,
        num_heads: int = 4,
        d_ff: int | None = None,
        dropout: float = 0.0,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        from repro.nn.layers import LayerNorm  # avoid import cycle at top level

        d_ff = d_ff if d_ff is not None else 4 * d_model
        rngs = spawn(rng, 4)
        self.attn = MultiHeadSelfAttention(d_model, num_heads, rngs[0])
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.ff1 = Linear(d_model, d_ff, rngs[1])
        self.ff_act = ReLU()
        self.ff2 = Linear(d_ff, d_model, rngs[2])
        self.drop_attn = Dropout(dropout, rngs[3])
        self.drop_ff = Dropout(dropout, rngs[3])

    def forward(self, x: np.ndarray) -> np.ndarray:
        attn_out = self.drop_attn(self.attn(x))
        y1 = self.norm1(x + attn_out)
        ff_out = self.drop_ff(self.ff2(self.ff_act(self.ff1(y1))))
        return self.norm2(y1 + ff_out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        d_sum2 = self.norm2.backward(grad_out)
        d_ff = self.ff1.backward(
            self.ff_act.backward(self.ff2.backward(self.drop_ff.backward(d_sum2)))
        )
        d_y1 = d_sum2 + d_ff
        d_sum1 = self.norm1.backward(d_y1)
        d_attn = self.attn.backward(self.drop_attn.backward(d_sum1))
        return d_sum1 + d_attn

__all__ = [
    "PositionalEncoding",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
]
