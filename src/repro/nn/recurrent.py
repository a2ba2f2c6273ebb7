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
  *all* timesteps in one gemm before the recurrence and keeps the
  activations in preallocated arrays instead of per-step cache tuples.
  Every elementwise operation of ``cell.step`` runs in the same order,
  ``(x@W + h@U) + b`` included. The one difference is where a step's
  ``x @ W`` rows come from: a ``(batch*time)``-row gemm instead of a
  ``batch``-row one, and BLAS may pick a different kernel for the two.
  So the outputs agree with unrolling ``cell.step`` to round-off
  (<= 1e-12), and are bit-identical on most shapes but not all. On
  OpenBLAS 0.3.31 (Haswell kernels), over 1200 random shapes with two
  or more steps: every RNN and GRU shape whose batch is a multiple of
  4 matched (282 of 282); at other batches about 23 % differed; at
  batch 1, where the per-step product is a gemv, 41 of 43 differed;
  the largest difference was 8.3e-16.
* The RNN and GRU recurrences walk contiguous time-major ``(time,
  batch, ·)`` buffers. The GRU writes its z and r pre-activations side
  by side into one ``[a_z | a_r]`` buffer per step (still two
  ``h @ U`` gemms; a gemm's output stride does not change its bits)
  and activates both with one ``sigmoid`` call.
* ``backward`` is *batched BPTT*: the reversed recurrence only computes
  the per-step gate deltas (cheap elementwise ops plus the unavoidable
  ``da @ U.T`` hidden back-projections, which feed the previous step),
  stashing them into preallocated arrays; every input-projection
  gradient — ``dW``, ``d_bias`` and ``d_x`` — plus the recurrent-weight
  gradient ``dU`` is then a single time-stacked gemm (or column sum)
  after the loop. A stacked gemm sums over its rows in order, so
  time-major deltas are copied back to batch-major rows first. Summing
  over ``batch*time`` at once reorders the floating-point reduction
  relative to the per-step ``+=`` accumulation of
  ``cell.step_backward``, so the gradients agree with it to <= 1e-10,
  not bit-for-bit.
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
        # All input-side projections in one gemm, copied time-major so
        # every slice the recurrence touches is contiguous.
        hidden = self.hidden_size
        flat = x.reshape(batch * steps, cell.input_size)
        px_tm = _time_major(flat @ cell.w.value, batch, steps)
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
        # Back to batch-major rows, the order of the x and hs_prev
        # reshapes the stacked gemms pair the deltas with.
        flat_da = _batch_major(das)
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
        # The input projections are the cell's three gemms, run once
        # over every timestep. z and r land side by side in one buffer
        # (a gemm's output stride does not change its bits), and both
        # buffers are copied time-major once, so every slice the
        # recurrence reads is contiguous.
        flat = x.reshape(batch * steps, cell.input_size)
        px_zr = np.empty((batch * steps, 2 * hidden))
        np.matmul(flat, cell.w_z.value, out=px_zr[:, :hidden])
        np.matmul(flat, cell.w_r.value, out=px_zr[:, hidden:])
        px_zr = _time_major(px_zr, batch, steps)
        px_n = _time_major(flat @ cell.w_n.value, batch, steps)
        b_zr = np.concatenate([cell.b_z.value, cell.b_r.value])
        # states[t] is the hidden state entering step t, so hs_prev is
        # states[:-1] and the outputs are states[1:], with no copies.
        states = np.empty((steps + 1, batch, hidden))
        states[0] = 0.0 if h0 is None else h0
        zrs = np.empty((steps, batch, 2 * hidden))  # [z | r] activations
        rhs = np.empty((steps, batch, hidden))
        ns = np.empty((steps, batch, hidden))
        for t in range(steps):
            h = states[t]
            # (x@W + h@U) + b per gate, as in GRUCell.step: the z and r
            # pre-activations fill one [a_z | a_r] buffer, which takes
            # each addition and the sigmoid in one call.
            zr = zrs[t]
            np.matmul(h, cell.u_z.value, out=zr[:, :hidden])
            np.matmul(h, cell.u_r.value, out=zr[:, hidden:])
            np.add(px_zr[t], zr, out=zr)
            zr += b_zr
            zr[...] = sigmoid(zr)
            z = zr[:, :hidden]
            rh = np.multiply(zr[:, hidden:], h, out=rhs[t])
            n = np.matmul(rh, cell.u_n.value, out=ns[t])
            np.add(px_n[t], n, out=n)
            n += cell.b_n.value
            np.tanh(n, out=n)
            np.add((1.0 - z) * n, z * h, out=states[t + 1])
        self._fwd = (x, states, zrs, rhs, ns)
        return np.ascontiguousarray(states[1:].transpose(1, 0, 2))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_out = np.asarray(grad_out, dtype=float)
        batch, steps, __ = grad_out.shape
        if self._fwd is None:
            raise ConfigurationError("backward called before forward")
        x, states, zrs, rhs, ns = self._fwd
        cell = self.cell
        hidden = self.hidden_size
        hs_prev = states[:-1]
        zs = zrs[:, :, :hidden]
        rs = zrs[:, :, hidden:]
        uz_t = cell.u_z.value.T
        ur_t = cell.u_r.value.T
        un_t = cell.u_n.value.T
        # Every gate-derivative factor is elementwise in cached forward
        # activations, so all three are hoisted out of the recurrence
        # as whole-sequence ops; the loop keeps only the dh/drh
        # products that carry the sequential dependency, on contiguous
        # time-major slices.
        fac_n = (1.0 - zs) * (1.0 - ns**2)
        fac_z = (hs_prev - ns) * zs * (1.0 - zs)
        fac_r = hs_prev * rs * (1.0 - rs)
        g_tm = np.ascontiguousarray(grad_out.transpose(1, 0, 2))
        das_z = np.empty((steps, batch, hidden))
        das_r = np.empty((steps, batch, hidden))
        das_n = np.empty((steps, batch, hidden))
        dh_next = np.zeros((batch, hidden))
        for t in reversed(range(steps)):
            dh = g_tm[t] + dh_next
            da_n = np.multiply(dh, fac_n[t], out=das_n[t])
            drh = da_n @ un_t
            da_z = np.multiply(dh, fac_z[t], out=das_z[t])
            da_r = np.multiply(drh, fac_r[t], out=das_r[t])
            dh_next = dh * zs[t]
            dh_next += drh * rs[t]
            dh_next += da_z @ uz_t
            dh_next += da_r @ ur_t
        # A stacked gemm sums over its rows in order, so the deltas and
        # the states they pair with go back to batch-major row order.
        x_flat = x.reshape(batch * steps, cell.input_size)
        h_flat = _batch_major(hs_prev)
        rh_flat = _batch_major(rhs)
        dz_flat = _batch_major(das_z)
        dr_flat = _batch_major(das_r)
        dn_flat = _batch_major(das_n)
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


def _time_major(flat: np.ndarray, batch: int, steps: int) -> np.ndarray:
    """``(batch*time, k)`` rows in batch-major order -> ``(time, batch, k)``."""
    return np.ascontiguousarray(
        flat.reshape(batch, steps, flat.shape[1]).transpose(1, 0, 2)
    )


def _batch_major(seq: np.ndarray) -> np.ndarray:
    """``(time, batch, k)`` -> contiguous ``(batch*time, k)``, batch-major rows."""
    steps, batch, width = seq.shape
    return np.ascontiguousarray(seq.transpose(1, 0, 2)).reshape(batch * steps, width)


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
