"""Recurrent layers: vanilla RNN, GRU and LSTM with exact BPTT.

Cells are stateless: ``step`` returns the new hidden state plus an
opaque cache, and ``step_backward`` consumes that cache. The sequence
wrappers (:class:`RNN`, :class:`GRU`, :class:`LSTM`) unroll a cell over
the time axis of a ``(batch, time, features)`` tensor and run
backpropagation-through-time in reverse, summing the gradient flowing
from the output at each step with the gradient arriving from the
future.

The wrappers compute the same recurrence without calling ``cell.step``
per timestep:

* ``forward`` precomputes the input-side gate projections ``x @ W`` for
  *all* timesteps in one gemm before the recurrence and stores the
  activations in preallocated ``(batch, time, hidden)`` arrays instead
  of per-step cache tuples. Slicing the reshaped
  ``(batch*time, features) @ W`` result reproduces the same dgemm rows,
  and the elementwise addition order ``(x@W + h@U) + b`` is preserved,
  so the outputs are **bit-identical** to unrolling ``cell.step``.
* ``backward`` is *batched BPTT*: the reversed recurrence only computes
  the per-step gate deltas (cheap elementwise ops plus the unavoidable
  ``da @ U.T`` hidden back-projections, which feed the previous step),
  stashing them into preallocated ``(batch, time, gates)`` arrays; every
  input-projection gradient — ``dW``, ``d_bias`` and ``d_x`` — plus the
  recurrent-weight gradient ``dU`` is then a single time-stacked gemm
  (or column sum) after the loop. Summing over ``batch*time`` at once
  reorders the floating-point reduction relative to the per-step
  ``+=`` accumulation of ``cell.step_backward``, so the gradients agree
  with it to <= 1e-10, not bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.initializers import orthogonal, xavier_uniform, zeros
from repro.nn.layers import sigmoid
from repro.nn.module import Module, Parameter
from repro.rng import RngLike, spawn


class RNNCell(Module):
    """Elman cell ``h' = tanh(x W + h U + b)``."""

    def __init__(self, input_size: int, hidden_size: int, rng: RngLike = None) -> None:
        super().__init__()
        _check_sizes(input_size, hidden_size)
        rng_w, rng_u = spawn(rng, 2)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w = Parameter(xavier_uniform((input_size, hidden_size), rng_w), "w")
        self.u = Parameter(orthogonal((hidden_size, hidden_size), rng_u), "u")
        self.b = Parameter(zeros((hidden_size,)), "b")

    def step(self, x: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, tuple]:
        h_new = np.tanh(x @ self.w.value + h @ self.u.value + self.b.value)
        return h_new, (x, h, h_new)

    def step_backward(
        self, grad_h: np.ndarray, cache: tuple
    ) -> tuple[np.ndarray, np.ndarray]:
        x, h, h_new = cache
        da = grad_h * (1.0 - h_new**2)
        self.w.grad += x.T @ da
        self.u.grad += h.T @ da
        self.b.grad += da.sum(axis=0)
        return da @ self.w.value.T, da @ self.u.value.T


class GRUCell(Module):
    """Gated recurrent unit.

    Uses the formulation ``n = tanh(x Wn + (r * h) Un + bn)`` with
    update ``h' = (1 - z) * n + z * h``, matching Cho et al. (2014).
    """

    def __init__(self, input_size: int, hidden_size: int, rng: RngLike = None) -> None:
        super().__init__()
        _check_sizes(input_size, hidden_size)
        rngs = spawn(rng, 6)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_z = Parameter(xavier_uniform((input_size, hidden_size), rngs[0]), "w_z")
        self.u_z = Parameter(orthogonal((hidden_size, hidden_size), rngs[1]), "u_z")
        self.b_z = Parameter(zeros((hidden_size,)), "b_z")
        self.w_r = Parameter(xavier_uniform((input_size, hidden_size), rngs[2]), "w_r")
        self.u_r = Parameter(orthogonal((hidden_size, hidden_size), rngs[3]), "u_r")
        self.b_r = Parameter(zeros((hidden_size,)), "b_r")
        self.w_n = Parameter(xavier_uniform((input_size, hidden_size), rngs[4]), "w_n")
        self.u_n = Parameter(orthogonal((hidden_size, hidden_size), rngs[5]), "u_n")
        self.b_n = Parameter(zeros((hidden_size,)), "b_n")

    def step(self, x: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, tuple]:
        z = sigmoid(x @ self.w_z.value + h @ self.u_z.value + self.b_z.value)
        r = sigmoid(x @ self.w_r.value + h @ self.u_r.value + self.b_r.value)
        rh = r * h
        n = np.tanh(x @ self.w_n.value + rh @ self.u_n.value + self.b_n.value)
        h_new = (1.0 - z) * n + z * h
        return h_new, (x, h, z, r, rh, n)

    def step_backward(
        self, grad_h: np.ndarray, cache: tuple
    ) -> tuple[np.ndarray, np.ndarray]:
        x, h, z, r, rh, n = cache
        dn = grad_h * (1.0 - z)
        dz = grad_h * (h - n)
        dh_prev = grad_h * z

        da_n = dn * (1.0 - n**2)
        self.w_n.grad += x.T @ da_n
        self.u_n.grad += rh.T @ da_n
        self.b_n.grad += da_n.sum(axis=0)
        dx = da_n @ self.w_n.value.T
        drh = da_n @ self.u_n.value.T
        dr = drh * h
        dh_prev = dh_prev + drh * r

        da_z = dz * z * (1.0 - z)
        da_r = dr * r * (1.0 - r)
        self.w_z.grad += x.T @ da_z
        self.u_z.grad += h.T @ da_z
        self.b_z.grad += da_z.sum(axis=0)
        self.w_r.grad += x.T @ da_r
        self.u_r.grad += h.T @ da_r
        self.b_r.grad += da_r.sum(axis=0)

        dx += da_z @ self.w_z.value.T + da_r @ self.w_r.value.T
        dh_prev += da_z @ self.u_z.value.T + da_r @ self.u_r.value.T
        return dx, dh_prev


class LSTMCell(Module):
    """Long short-term memory cell (Hochreiter & Schmidhuber)."""

    def __init__(self, input_size: int, hidden_size: int, rng: RngLike = None) -> None:
        super().__init__()
        _check_sizes(input_size, hidden_size)
        rng_w, rng_u = spawn(rng, 2)
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Fused gate weights, ordered [i, f, g, o] along the output axis.
        self.w = Parameter(xavier_uniform((input_size, 4 * hidden_size), rng_w), "w")
        self.u = Parameter(
            np.concatenate(
                [orthogonal((hidden_size, hidden_size), rng_u) for __ in range(4)],
                axis=1,
            ),
            "u",
        )
        bias = zeros((4 * hidden_size,))
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias trick
        self.b = Parameter(bias, "b")

    def step(
        self, x: np.ndarray, state: tuple[np.ndarray, np.ndarray]
    ) -> tuple[tuple[np.ndarray, np.ndarray], tuple]:
        h, c = state
        hs = self.hidden_size
        a = x @ self.w.value + h @ self.u.value + self.b.value
        i = sigmoid(a[:, :hs])
        f = sigmoid(a[:, hs : 2 * hs])
        g = np.tanh(a[:, 2 * hs : 3 * hs])
        o = sigmoid(a[:, 3 * hs :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        return (h_new, c_new), (x, h, c, i, f, g, o, tanh_c)

    def step_backward(
        self,
        grad_h: np.ndarray,
        grad_c: np.ndarray,
        cache: tuple,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x, h, c, i, f, g, o, tanh_c = cache
        do = grad_h * tanh_c
        dc_total = grad_c + grad_h * o * (1.0 - tanh_c**2)
        di = dc_total * g
        df = dc_total * c
        dg = dc_total * i
        dc_prev = dc_total * f

        da = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g**2),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        self.w.grad += x.T @ da
        self.u.grad += h.T @ da
        self.b.grad += da.sum(axis=0)
        dx = da @ self.w.value.T
        dh_prev = da @ self.u.value.T
        return dx, dh_prev, dc_prev


class RNN(Module):
    """Unrolled Elman RNN over ``(batch, time, features)`` inputs."""

    def __init__(self, input_size: int, hidden_size: int, rng: RngLike = None) -> None:
        super().__init__()
        self.cell = RNNCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size
        self._fwd: tuple | None = None

    def forward(self, x: np.ndarray, h0: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        batch, steps, __ = x.shape
        cell = self.cell
        h = np.zeros((batch, self.hidden_size)) if h0 is None else h0
        # All input-side projections in one gemm; the time-major copy
        # only rearranges memory, so per-step values (and bits) match
        # the historical x[:, t, :] @ w exactly while every slice the
        # recurrence touches is contiguous.
        hidden = self.hidden_size
        px = x.reshape(batch * steps, cell.input_size) @ cell.w.value
        px_tm = np.ascontiguousarray(
            px.reshape(batch, steps, hidden).transpose(1, 0, 2)
        )
        outputs_tm = np.empty((steps, batch, hidden))
        h_init = h
        for t in range(steps):
            # tanh writes straight into the (contiguous) time-major slot
            # and h stays a contiguous view for the next step's gemm;
            # the produced bits match tanh-then-copy exactly.
            h = np.tanh(px_tm[t] + h @ cell.u.value + cell.b.value,
                        out=outputs_tm[t])
        outputs = np.ascontiguousarray(outputs_tm.transpose(1, 0, 2))
        # hs_prev is just outputs shifted right by one step; building it
        # once here replaces a per-step copy inside the recurrence.
        hs_prev = np.empty((batch, steps, hidden))
        hs_prev[:, 0, :] = h_init
        hs_prev[:, 1:, :] = outputs[:, :-1, :]
        self._fwd = (x, hs_prev, outputs, outputs_tm)
        return outputs

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_out = np.asarray(grad_out, dtype=float)
        batch, steps, __ = grad_out.shape
        if self._fwd is None:
            raise ConfigurationError("backward called before forward")
        x, hs_prev, outputs, outputs_tm = self._fwd
        cell = self.cell
        hidden = self.hidden_size
        u_t = cell.u.value.T
        # Time-major copies make every per-step slice contiguous, so the
        # three kernels inside the recurrence run without strided-view
        # penalties or implicit gemm copies. The tanh derivative has no
        # sequential dependency and is hoisted out as one whole-sequence
        # op on the cached time-major activations.
        g_tm = np.ascontiguousarray(grad_out.transpose(1, 0, 2))
        d_act = 1.0 - outputs_tm**2
        das = np.empty((steps, batch, hidden))
        dh_next = np.zeros((batch, hidden))
        for t in reversed(range(steps)):
            da = das[t]
            np.add(g_tm[t], dh_next, out=da)
            np.multiply(da, d_act[t], out=da)
            dh_next = da @ u_t
        # reshape of the transposed view copies back to batch-major, the
        # row order of the x and hs_prev reshapes the stacked gemms use.
        flat_da = das.transpose(1, 0, 2).reshape(batch * steps, hidden)
        cell.w.grad += x.reshape(batch * steps, cell.input_size).T @ flat_da
        cell.u.grad += hs_prev.reshape(batch * steps, hidden).T @ flat_da
        cell.b.grad += flat_da.sum(axis=0)
        return (flat_da @ cell.w.value.T).reshape(batch, steps, cell.input_size)


class GRU(Module):
    """Unrolled GRU over ``(batch, time, features)`` inputs."""

    def __init__(self, input_size: int, hidden_size: int, rng: RngLike = None) -> None:
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size
        self._fwd: tuple | None = None

    def forward(self, x: np.ndarray, h0: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        batch, steps, __ = x.shape
        cell = self.cell
        hidden = self.hidden_size
        h = np.zeros((batch, hidden)) if h0 is None else h0
        flat = x.reshape(batch * steps, cell.input_size)
        px_z = (flat @ cell.w_z.value).reshape(batch, steps, hidden)
        px_r = (flat @ cell.w_r.value).reshape(batch, steps, hidden)
        px_n = (flat @ cell.w_n.value).reshape(batch, steps, hidden)
        hs_prev = np.empty((batch, steps, hidden))
        zs = np.empty((batch, steps, hidden))
        rs = np.empty((batch, steps, hidden))
        rhs = np.empty((batch, steps, hidden))
        ns = np.empty((batch, steps, hidden))
        outputs = np.empty((batch, steps, hidden))
        for t in range(steps):
            hs_prev[:, t, :] = h
            z = sigmoid(px_z[:, t, :] + h @ cell.u_z.value + cell.b_z.value)
            r = sigmoid(px_r[:, t, :] + h @ cell.u_r.value + cell.b_r.value)
            rh = r * h
            n = np.tanh(px_n[:, t, :] + rh @ cell.u_n.value + cell.b_n.value)
            h = (1.0 - z) * n + z * h
            zs[:, t, :] = z
            rs[:, t, :] = r
            rhs[:, t, :] = rh
            ns[:, t, :] = n
            outputs[:, t, :] = h
        self._fwd = (x, hs_prev, zs, rs, rhs, ns)
        return outputs

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_out = np.asarray(grad_out, dtype=float)
        batch, steps, __ = grad_out.shape
        if self._fwd is None:
            raise ConfigurationError("backward called before forward")
        x, hs_prev, zs, rs, rhs, ns = self._fwd
        cell = self.cell
        hidden = self.hidden_size
        das_z = np.empty((batch, steps, hidden))
        das_r = np.empty((batch, steps, hidden))
        das_n = np.empty((batch, steps, hidden))
        uz_t = cell.u_z.value.T
        ur_t = cell.u_r.value.T
        un_t = cell.u_n.value.T
        # Every gate-derivative factor is elementwise in cached forward
        # activations, so all three are hoisted out of the recurrence
        # as single (batch, time, hidden) ops; the loop keeps only the
        # dh/drh products that carry the sequential dependency.
        fac_n = (1.0 - zs) * (1.0 - ns**2)
        fac_z = (hs_prev - ns) * zs * (1.0 - zs)
        fac_r = hs_prev * rs * (1.0 - rs)
        dh_next = np.zeros((batch, hidden))
        for t in reversed(range(steps)):
            da_n = das_n[:, t, :]
            da_z = das_z[:, t, :]
            da_r = das_r[:, t, :]
            dh = grad_out[:, t, :] + dh_next
            np.multiply(dh, fac_n[:, t, :], out=da_n)
            drh = da_n @ un_t
            np.multiply(dh, fac_z[:, t, :], out=da_z)
            np.multiply(drh, fac_r[:, t, :], out=da_r)
            dh_next = dh * zs[:, t, :]
            dh_next += drh * rs[:, t, :]
            dh_next += da_z @ uz_t
            dh_next += da_r @ ur_t
        x_flat = x.reshape(batch * steps, cell.input_size)
        h_flat = hs_prev.reshape(batch * steps, hidden)
        rh_flat = rhs.reshape(batch * steps, hidden)
        dz_flat = das_z.reshape(batch * steps, hidden)
        dr_flat = das_r.reshape(batch * steps, hidden)
        dn_flat = das_n.reshape(batch * steps, hidden)
        cell.w_n.grad += x_flat.T @ dn_flat
        cell.u_n.grad += rh_flat.T @ dn_flat
        cell.b_n.grad += dn_flat.sum(axis=0)
        cell.w_z.grad += x_flat.T @ dz_flat
        cell.u_z.grad += h_flat.T @ dz_flat
        cell.b_z.grad += dz_flat.sum(axis=0)
        cell.w_r.grad += x_flat.T @ dr_flat
        cell.u_r.grad += h_flat.T @ dr_flat
        cell.b_r.grad += dr_flat.sum(axis=0)
        dx = dn_flat @ cell.w_n.value.T
        dx += dz_flat @ cell.w_z.value.T
        dx += dr_flat @ cell.w_r.value.T
        return dx.reshape(batch, steps, cell.input_size)


class LSTM(Module):
    """Unrolled LSTM over ``(batch, time, features)`` inputs."""

    def __init__(self, input_size: int, hidden_size: int, rng: RngLike = None) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size
        self._fwd: tuple | None = None

    def forward(
        self,
        x: np.ndarray,
        state0: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        batch, steps, __ = x.shape
        cell = self.cell
        hidden = self.hidden_size
        if state0 is None:
            h = np.zeros((batch, hidden))
            c = np.zeros((batch, hidden))
        else:
            h, c = state0
        px = (x.reshape(batch * steps, cell.input_size) @ cell.w.value).reshape(
            batch, steps, 4 * hidden
        )
        hs_prev = np.empty((batch, steps, hidden))
        cs_prev = np.empty((batch, steps, hidden))
        gates = np.empty((batch, steps, 4 * hidden))  # sigm/tanh-activated
        tanh_cs = np.empty((batch, steps, hidden))
        outputs = np.empty((batch, steps, hidden))
        for t in range(steps):
            hs_prev[:, t, :] = h
            cs_prev[:, t, :] = c
            a = px[:, t, :] + h @ cell.u.value + cell.b.value
            i = sigmoid(a[:, :hidden])
            f = sigmoid(a[:, hidden : 2 * hidden])
            g = np.tanh(a[:, 2 * hidden : 3 * hidden])
            o = sigmoid(a[:, 3 * hidden :])
            c = f * c + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            gates[:, t, :hidden] = i
            gates[:, t, hidden : 2 * hidden] = f
            gates[:, t, 2 * hidden : 3 * hidden] = g
            gates[:, t, 3 * hidden :] = o
            tanh_cs[:, t, :] = tanh_c
            outputs[:, t, :] = h
        self._fwd = (x, hs_prev, cs_prev, gates, tanh_cs)
        return outputs

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_out = np.asarray(grad_out, dtype=float)
        batch, steps, __ = grad_out.shape
        if self._fwd is None:
            raise ConfigurationError("backward called before forward")
        x, hs_prev, cs_prev, gates, tanh_cs = self._fwd
        cell = self.cell
        hidden = self.hidden_size
        das = np.empty((batch, steps, 4 * hidden))
        u_t = cell.u.value.T
        i = gates[:, :, :hidden]
        f = gates[:, :, hidden : 2 * hidden]
        g = gates[:, :, 2 * hidden : 3 * hidden]
        o = gates[:, :, 3 * hidden :]
        # Gate-derivative factors are elementwise in cached activations;
        # hoist them out of the recurrence as whole-sequence ops and
        # keep only the dc/dh chain (the sequential dependency) inside.
        fac_c = o * (1.0 - tanh_cs**2)
        fac_i = g * i * (1.0 - i)
        fac_f = cs_prev * f * (1.0 - f)
        fac_g = i * (1.0 - g**2)
        fac_o = tanh_cs * (o * (1.0 - o))
        dh_next = np.zeros((batch, hidden))
        dc_next = np.zeros((batch, hidden))
        for t in reversed(range(steps)):
            dh = grad_out[:, t, :] + dh_next
            dc_total = dc_next + dh * fac_c[:, t, :]
            da = das[:, t, :]
            np.multiply(dc_total, fac_i[:, t, :], out=da[:, :hidden])
            np.multiply(dc_total, fac_f[:, t, :], out=da[:, hidden : 2 * hidden])
            np.multiply(dc_total, fac_g[:, t, :], out=da[:, 2 * hidden : 3 * hidden])
            np.multiply(dh, fac_o[:, t, :], out=da[:, 3 * hidden :])
            dc_next = dc_total * f[:, t, :]
            dh_next = da @ u_t
        flat_da = das.reshape(batch * steps, 4 * hidden)
        cell.w.grad += x.reshape(batch * steps, cell.input_size).T @ flat_da
        cell.u.grad += hs_prev.reshape(batch * steps, hidden).T @ flat_da
        cell.b.grad += flat_da.sum(axis=0)
        return (flat_da @ cell.w.value.T).reshape(batch, steps, cell.input_size)


def _check_sizes(input_size: int, hidden_size: int) -> None:
    if input_size <= 0 or hidden_size <= 0:
        raise ConfigurationError("input_size and hidden_size must be positive")

__all__ = [
    "RNNCell",
    "GRUCell",
    "LSTMCell",
    "RNN",
    "GRU",
    "LSTM",
]
