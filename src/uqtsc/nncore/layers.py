"""Layer forward/backward kernels.

Conventions: sequence tensors are [batch, length, channels], so the
channel axis is last and every time step's channels sit together in
memory; feature tensors are [batch, features].  Conv, batch norm,
pooling and LSTM layers all take and return this layout, and an LSTM
reads a conv stack's output as it is.  Parameters keep their own shapes
(a conv weight is [filters, in_channels, kernel]).
A train-mode `forward(x, mode, rng)` caches whatever `backward(dy)`
needs; backward returns dx and accumulates parameter gradients in place.
Modes: "train" (batch statistics, stochastic regularizers on), "infer"
(deterministic), "mc_infer" (deterministic statistics but stochastic
regularizers on — that distinction belongs to the uq layers, plain layers
treat it like infer except batch norm, which always uses running stats
outside train).  Training backpropagates only train-mode passes, so no
layer caches anything outside train: an infer or mc_infer pass clears
the cache, and nothing but the Params stays held between passes.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(Exception):
    pass


class BatchTooSmall(Exception):
    pass


class LabelOutOfRange(Exception):
    pass


class Param:
    """One named parameter tensor with an accumulated gradient."""

    __slots__ = ("name", "value", "grad", "trainable")

    def __init__(self, name: str, value: np.ndarray, trainable: bool = True):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.trainable = trainable

    def zero_grad(self):
        self.grad = np.zeros_like(self.value)

    def __repr__(self):
        return f"Param({self.name}, shape={self.value.shape})"


class Layer:
    """Base layer: stateless by default, subclasses add params and caches.

    `stochastic` marks a layer that draws from the rng in mc_infer mode;
    every layer before a network's first stochastic one is deterministic
    there.
    """

    name: str = ""
    stochastic: bool = False

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, mode: str = "train",
                rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def astype(self, dtype):
        for p in self.params():
            p.value = p.value.astype(dtype)
            p.grad = p.grad.astype(dtype)
        return self


def _fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Dense(Layer):
    """y = x W + b with W of shape [in, out]."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 name: str = "dense"):
        self.name = name
        self.n_in, self.n_out = n_in, n_out
        self.w = Param(f"{name}_w", _fan_in_uniform(rng, (n_in, n_out), n_in))
        self.b = Param(f"{name}_b", np.zeros(n_out))
        self._x = self._w_used = None

    def params(self):
        return [self.w, self.b]

    def _weight(self, mode, rng):
        """Effective weight for this pass; UQ subclasses mask it."""
        return self.w.value

    def _backprop_weight(self, dw_eff):
        self.w.grad += dw_eff

    def forward(self, x, mode="train", rng=None):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeMismatch(
                f"{self.name}: expected [batch, {self.n_in}], got {x.shape}")
        w = self._weight(mode, rng)
        self._x, self._w_used = (x, w) if mode == "train" else (None, None)
        return x @ w + self.b.value

    def backward(self, dy):
        self._backprop_weight(self._x.T @ dy)
        self.b.grad += dy.sum(axis=0)
        return dy @ self._w_used.T


def pad_same(x: np.ndarray, k: int) -> tuple[np.ndarray, int, int]:
    """Zero-pad the time axis so a valid k-conv preserves length.

    Total padding k-1 split floor-left / ceil-right.
    """
    left = (k - 1) // 2
    right = k - 1 - left
    if left == 0 and right == 0:
        return x, 0, 0
    return np.pad(x, ((0, 0), (left, right), (0, 0))), left, right


def _im2col(xp: np.ndarray, k: int) -> np.ndarray:
    """[B, Lp, C] -> [B*Lout, k*C]: every length-k window as one row.

    xp is C-contiguous, so the k time steps of a window are k*C adjacent
    elements and one strided view covers every window.
    """
    b, lp, c = xp.shape
    s_b, s_l, _ = xp.strides
    v = np.lib.stride_tricks.as_strided(
        xp, (b, lp - k + 1, k * c), (s_b, s_l, xp.itemsize), writeable=False)
    return v.reshape(b * (lp - k + 1), k * c)


class Conv1D(Layer):
    """Same-padded cross-correlation over [batch, length, channels] with bias.

    Implemented as one GEMM of the im2col matrix of the padded input
    against the [k*C, F] weight matrix, whose output is already
    [batch, length, filters].
    """

    def __init__(self, n_in: int, filters: int, kernel: int,
                 rng: np.random.Generator, name: str = "conv"):
        self.name = name
        self.n_in, self.filters, self.kernel = n_in, filters, kernel
        fan_in = n_in * kernel
        self.w = Param(f"{name}_w",
                       _fan_in_uniform(rng, (filters, n_in, kernel), fan_in))
        self.b = Param(f"{name}_b", np.zeros(filters))
        self._xp = self._wmat = None
        self._pads = (0, 0)

    def params(self):
        return [self.w, self.b]

    def _weight(self, mode, rng):
        return self.w.value

    def _backprop_weight(self, dw_eff):
        self.w.grad += dw_eff

    def forward(self, x, mode="train", rng=None):
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeMismatch(
                f"{self.name}: expected [batch, len, {self.n_in}], got {x.shape}")
        k = self.kernel
        xp, left, right = pad_same(x, k)
        xp = np.ascontiguousarray(xp)
        # [F, C, k] -> [k*C, F], rows in im2col column order; the cast
        # keeps the GEMM and its output in the input precision
        wmat = self._weight(mode, rng).astype(x.dtype, copy=False).transpose(
            2, 1, 0).reshape(k * self.n_in, self.filters)
        self._pads = (left, right)
        self._xp, self._wmat = (xp, wmat) if mode == "train" else (None, None)
        y = np.dot(_im2col(xp, k), wmat).reshape(len(x), -1, self.filters)
        y += self.b.value
        return y

    def backward(self, dy, input_grad=True):
        """Accumulate the weight and bias gradients, then return dx.

        With input_grad=False nothing is returned and the dx GEMM and
        col2im are skipped: a network's first layer has no use for dx.
        """
        xp, (left, right) = self._xp, self._pads
        b, l_out, f = dy.shape
        k, c = self.kernel, self.n_in
        dy2 = dy.reshape(b * l_out, f)
        dw = np.dot(dy2.T, _im2col(xp, k))
        self._backprop_weight(dw.reshape(f, k, c).transpose(0, 2, 1))
        self.b.grad += dy2.sum(axis=0)
        if not input_grad:
            return None
        dcol = np.dot(dy2, self._wmat.T).reshape(b, l_out, k, c)
        # col2im in the input's dtype: scatter-add each kernel offset
        dxp = np.zeros((b, l_out + k - 1, c), dtype=xp.dtype)
        for j in range(k):
            dxp[:, j:j + l_out] += dcol[:, :, j]
        return dxp[:, left:xp.shape[1] - right]


class BatchNorm1D(Layer):
    """Per-channel batch normalization over the last axis.

    Statistics reduce over every other axis, so [B, L, C] sequences and
    [B, F] features share one path.  Train mode normalizes by biased
    batch statistics and updates running stats with momentum 0.9, kept
    in the parameter dtype; infer/mc_infer use the running stats.
    Per-channel vectors are tiled to a row of L*C values before they
    broadcast, which keeps the elementwise loops long.
    """

    MOMENTUM = 0.9
    EPS = 1e-5

    def __init__(self, n_ch: int, name: str = "bn"):
        self.name = name
        self.n_ch = n_ch
        self.gamma = Param(f"{name}_gamma", np.ones(n_ch))
        self.beta = Param(f"{name}_beta", np.zeros(n_ch))
        self.running_mean = Param(f"{name}_rmean", np.zeros(n_ch), trainable=False)
        self.running_var = Param(f"{name}_rvar", np.ones(n_ch), trainable=False)
        self._cache = None

    def params(self):
        return [self.gamma, self.beta, self.running_mean, self.running_var]

    def forward(self, x, mode="train", rng=None):
        c = self.n_ch
        if x.shape[-1] != c:
            raise ShapeMismatch(f"{self.name}: expected {c} channels")
        rows = x.reshape(len(x), -1)  # [B, L*C]
        reps = rows.shape[1] // c
        if mode == "train":
            if len(x) < 2:
                raise BatchTooSmall(f"{self.name}: train mode needs batch >= 2")
            n = rows.size // c
            mean = np.einsum("nc->c", rows.reshape(-1, c)) / n
            xhat = rows - np.tile(mean, reps)
            flat = xhat.reshape(-1, c)
            var = np.einsum("nc,nc->c", flat, flat) / n
            m = self.MOMENTUM
            for stat, batch in ((self.running_mean, mean),
                                (self.running_var, var)):
                stat.value = (m * stat.value + (1 - m) * batch).astype(
                    stat.value.dtype, copy=False)
        else:
            xhat = rows - np.tile(self.running_mean.value, reps)
            var = self.running_var.value
        ivar = 1.0 / np.sqrt(var + self.EPS)
        xhat *= np.tile(ivar, reps)
        self._cache = (xhat, ivar) if mode == "train" else None
        # outside train xhat is not kept, so y takes its buffer
        y = np.multiply(xhat, np.tile(self.gamma.value, reps),
                        out=None if mode == "train" else xhat)
        y += np.tile(self.beta.value, reps)
        return y.reshape(x.shape)

    def backward(self, dy):
        xhat, ivar = self._cache
        c = self.n_ch
        rows = dy.reshape(len(dy), -1)
        reps = rows.shape[1] // c
        n = rows.size // c
        dgamma = np.einsum("nc,nc->c", rows.reshape(-1, c), xhat.reshape(-1, c))
        dbeta = np.einsum("nc->c", rows.reshape(-1, c))
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        # gamma * ivar / n * (n * dy - dbeta - xhat * dgamma)
        dx = xhat * np.tile(dgamma, reps)
        np.subtract(rows * n, dx, out=dx)
        dx -= np.tile(dbeta, reps)
        dx *= np.tile(self.gamma.value * ivar / n, reps)
        return dx.reshape(dy.shape)


class MaxPool1D(Layer):
    """Non-overlapping max pooling over time; trailing remainder is dropped.

    The max is a running np.maximum over the p positions of each window.
    On ties np.maximum returns its second operand, the running max, so the
    first occurrence wins, as with argmax (signed zeros too).  Train mode
    also records which position that was, for backward.
    """

    def __init__(self, pool: int, name: str = "pool"):
        if pool < 1:
            raise ValueError("pool size must be >= 1")
        self.name = name
        self.pool = pool
        self._cache = None

    def forward(self, x, mode="train", rng=None):
        p = self.pool
        b, l, c = x.shape
        n = l // p
        xr = x[:, :n * p].reshape(b, n, p, c)
        y = xr[:, :, 0].copy()
        for j in range(1, p):
            np.maximum(xr[:, :, j], y, out=y)
        if mode != "train":
            self._cache = None
            return y
        # first position holding the max: the last one unless an earlier
        # one matches, checked back to front so the earliest match wins.
        # arg = j + miss * (arg - j) sets j where x_j == y, else keeps arg
        arg = np.full(y.shape, p - 1, dtype=np.min_scalar_type(p - 1))
        miss = np.empty_like(arg)
        for j in range(p - 2, -1, -1):
            np.not_equal(xr[:, :, j], y, out=miss)
            arg -= j
            arg *= miss
            arg += j
        self._cache = (x.shape, arg)
        return y

    def backward(self, dy):
        (b, l, c), arg = self._cache
        p = self.pool
        n = l // p
        # flat position in dx of the max of window i, channel k: time step
        # i*p + arg, so (bi*l + i*p + arg)*c + k; the dropped remainder
        # keeps a zero gradient
        idx = arg * np.intp(c)
        idx += np.arange(n)[:, None] * (p * c) + np.arange(c)
        idx += np.arange(b)[:, None, None] * (l * c)
        dx = np.zeros((b, l, c), dtype=dy.dtype)
        dx.reshape(-1)[idx.reshape(-1)] = dy.reshape(-1)
        return dx


class GlobalAvgPool1D(Layer):
    """[B,L,C] -> [B,C] mean over the time axis."""

    def __init__(self, name: str = "gap"):
        self.name = name
        self._l = None

    def forward(self, x, mode="train", rng=None):
        self._l = x.shape[1]
        return x.mean(axis=1)

    def backward(self, dy):
        return np.repeat(dy[:, None, :], self._l, axis=1) / self._l


class ReLU(Layer):
    def __init__(self, name: str = "relu"):
        self.name = name
        self._mask = None

    def forward(self, x, mode="train", rng=None):
        mask = x > 0
        self._mask = mask if mode == "train" else None
        return x * mask

    def backward(self, dy):
        return dy * self._mask


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LSTM(Layer):
    """Standard LSTM over [batch, length, features], zero initial state.

    Gate order in the fused weight matrices is (input, forget, candidate,
    output).  Returns the full hidden sequence [B,T,u] when
    return_sequences is set (for stacking), else the last hidden state
    [B,u].  Backward is full backpropagation through time.
    """

    def __init__(self, n_in: int, units: int, rng: np.random.Generator,
                 return_sequences: bool = False, name: str = "lstm"):
        self.name = name
        self.n_in, self.units = n_in, units
        self.return_sequences = return_sequences
        u = units
        self.wx = Param(f"{name}_wx", _fan_in_uniform(rng, (n_in, 4 * u), n_in))
        self.wh = Param(f"{name}_wh", _fan_in_uniform(rng, (u, 4 * u), u))
        b = np.zeros(4 * u)
        b[u:2 * u] = 1.0  # forget-gate bias keeps early memory open
        self.b = Param(f"{name}_b", b)
        self._cache = None

    def params(self):
        return [self.wx, self.wh, self.b]

    def forward(self, x, mode="train", rng=None):
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeMismatch(
                f"{self.name}: expected [batch, len, {self.n_in}], got {x.shape}")
        bsz, t_len, _ = x.shape
        u = self.units
        train = mode == "train"
        h = np.zeros((bsz, u), dtype=x.dtype)
        c = np.zeros((bsz, u), dtype=x.dtype)
        # backward needs every step's state; an infer pass keeps the
        # hidden states only when it returns them
        hs = (np.empty((t_len, bsz, u), dtype=x.dtype)
              if train or self.return_sequences else None)
        if train:
            cs = np.empty((t_len, bsz, u), dtype=x.dtype)
            gates = np.empty((t_len, bsz, 4 * u), dtype=x.dtype)
            c_prev = np.empty((t_len, bsz, u), dtype=x.dtype)
        for t in range(t_len):
            z = x[:, t] @ self.wx.value + h @ self.wh.value + self.b.value
            i = _sigmoid(z[:, :u])
            f = _sigmoid(z[:, u:2 * u])
            g = np.tanh(z[:, 2 * u:3 * u])
            o = _sigmoid(z[:, 3 * u:])
            if train:
                c_prev[t] = c
                np.concatenate([i, f, g, o], axis=1, out=gates[t])
            c = f * c + i * g
            h = o * np.tanh(c)
            if hs is not None:
                hs[t] = h
            if train:
                cs[t] = c
        self._cache = (x, hs, cs, gates, c_prev) if train else None
        if self.return_sequences:
            return hs.transpose(1, 0, 2)
        return h

    def backward(self, dy):
        x, hs, cs, gates, c_prev = self._cache
        bsz, t_len, _ = x.shape
        u = self.units
        dx = np.zeros_like(x)
        dh_next = np.zeros((bsz, u), dtype=x.dtype)
        dc_next = np.zeros((bsz, u), dtype=x.dtype)
        dy_seq = dy.transpose(1, 0, 2) if self.return_sequences else None
        for t in range(t_len - 1, -1, -1):
            dh = dh_next.copy()
            if self.return_sequences:
                dh += dy_seq[t]
            elif t == t_len - 1:
                dh += dy
            i = gates[t][:, :u]
            f = gates[t][:, u:2 * u]
            g = gates[t][:, 2 * u:3 * u]
            o = gates[t][:, 3 * u:]
            tc = np.tanh(cs[t])
            dc = dc_next + dh * o * (1.0 - tc * tc)
            dz = np.concatenate([
                dc * g * i * (1.0 - i),
                dc * c_prev[t] * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                dh * tc * o * (1.0 - o),
            ], axis=1)
            self.wx.grad += x[:, t].T @ dz
            h_prev = hs[t - 1] if t > 0 else np.zeros((bsz, u), dtype=x.dtype)
            self.wh.grad += h_prev.T @ dz
            self.b.grad += dz.sum(axis=0)
            dx[:, t] = dz @ self.wx.value.T
            dh_next = dz @ self.wh.value.T
            dc_next = dc * f
        return dx


def softmax_cross_entropy(logits: np.ndarray,
                          labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean NLL of a row-max-stabilized softmax; returns (loss, probs)."""
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise LabelOutOfRange(f"labels must lie in [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    probs = ex / ex.sum(axis=1, keepdims=True)
    logz = np.log(ex.sum(axis=1))
    nll = logz - shifted[np.arange(n), labels]
    return float(nll.mean()), probs


def softmax_cross_entropy_backward(probs: np.ndarray,
                                   labels: np.ndarray) -> np.ndarray:
    """d(mean NLL)/d(logits) = (probs - onehot) / batch."""
    n = probs.shape[0]
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    return d / n
