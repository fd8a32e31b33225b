"""Layer forward/backward kernels.

Conventions: sequence tensors are [batch, channels, length]; feature
tensors are [batch, features]; LSTM inputs are [batch, length, features].
A train-mode `forward(x, mode, rng)` caches whatever `backward(dy)`
needs; backward returns dx and accumulates parameter gradients in place.
Modes: "train" (batch statistics, stochastic regularizers on), "infer"
(deterministic), "mc_infer" (deterministic statistics but stochastic
regularizers on — that distinction belongs to the uq layers, plain layers
treat it like infer except batch norm, which always uses running stats
outside train).  Training backpropagates only train-mode passes, so
BatchNorm1D and MaxPool1D cache nothing outside train.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(Exception):
    pass


class KernelTooLarge(Exception):
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
    """Base layer: stateless by default, subclasses add params and caches."""

    name: str = ""

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
        self._x = None

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
        self._x = x
        self._w_used = self._weight(mode, rng)
        return x @ self._w_used + self.b.value

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
    return np.pad(x, ((0, 0), (0, 0), (left, right))), left, right


def _im2col(xp: np.ndarray, k: int) -> np.ndarray:
    """[B, C, Lp] -> [B*Lout, C*k]: every length-k window as one row."""
    b, c, lp = xp.shape
    v = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)
    return v.transpose(0, 2, 1, 3).reshape(b * (lp - k + 1), c * k)


class Conv1D(Layer):
    """Cross-correlation over [batch, channels, length] with bias.

    Implemented as one GEMM over the im2col matrix of the padded input,
    i.e. one large GEMM per call instead of one small matmul per kernel
    offset.
    """

    def __init__(self, n_in: int, filters: int, kernel: int,
                 rng: np.random.Generator, padding: str = "same",
                 name: str = "conv"):
        if padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {padding!r}")
        self.name = name
        self.n_in, self.filters, self.kernel = n_in, filters, kernel
        self.padding = padding
        fan_in = n_in * kernel
        self.w = Param(f"{name}_w",
                       _fan_in_uniform(rng, (filters, n_in, kernel), fan_in))
        self.b = Param(f"{name}_b", np.zeros(filters))
        self._xp = None
        self._pads = (0, 0)

    def params(self):
        return [self.w, self.b]

    def _weight(self, mode, rng):
        return self.w.value

    def _backprop_weight(self, dw_eff):
        self.w.grad += dw_eff

    def forward(self, x, mode="train", rng=None):
        if x.ndim != 3 or x.shape[1] != self.n_in:
            raise ShapeMismatch(
                f"{self.name}: expected [batch, {self.n_in}, len], got {x.shape}")
        k = self.kernel
        if self.padding == "same":
            xp, left, right = pad_same(x, k)
        else:
            xp, left, right = x, 0, 0
        if k > xp.shape[2]:
            raise KernelTooLarge(
                f"{self.name}: kernel {k} exceeds padded length {xp.shape[2]}")
        # cast so the GEMM and its output stay in the input precision
        w = self._weight(mode, rng).astype(x.dtype, copy=False)
        self._w_used = w
        self._xp, self._pads = xp, (left, right)
        y = np.dot(_im2col(xp, k),
                   w.transpose(1, 2, 0).reshape(-1, self.filters))
        y = np.ascontiguousarray(
            y.reshape(len(x), -1, self.filters).transpose(0, 2, 1))
        y += self.b.value[None, :, None]
        return y

    def backward(self, dy, input_grad=True):
        """Accumulate the weight and bias gradients, then return dx.

        With input_grad=False nothing is returned and the dx GEMM and
        col2im are skipped: a network's first layer has no use for dx.
        """
        xp, (left, right) = self._xp, self._pads
        b, f, l_out = dy.shape
        k = self.kernel
        c = self.n_in
        dw = np.dot(dy.transpose(1, 0, 2).reshape(f, b * l_out),
                    _im2col(xp, k))
        self._backprop_weight(dw.reshape(f, c, k))
        self.b.grad += dy.sum(axis=(0, 2))
        if not input_grad:
            return None
        dcol = np.dot(dy.transpose(0, 2, 1).reshape(b * l_out, f),
                      self._w_used.reshape(f, c * k))
        dcol = dcol.reshape(b, l_out, c, k)
        # col2im in the input's dtype: scatter-add each kernel offset,
        # time-major so every add writes a contiguous block
        dxp_t = np.zeros((b, l_out + k - 1, c), dtype=xp.dtype)
        for j in range(k):
            dxp_t[:, j:j + l_out] += dcol[:, :, :, j]
        return np.ascontiguousarray(
            dxp_t[:, left:xp.shape[2] - right].transpose(0, 2, 1))


class BatchNorm1D(Layer):
    """Per-channel batch normalization for [B,C,L] or [B,F] tensors.

    Train mode normalizes by biased batch statistics and updates running
    stats with momentum 0.9, kept in the parameter dtype; infer/mc_infer
    use the running stats.
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

    @staticmethod
    def _as3d(x):
        return x[:, :, None] if x.ndim == 2 else x

    def forward(self, x, mode="train", rng=None):
        if x.shape[1] != self.n_ch:
            raise ShapeMismatch(f"{self.name}: expected {self.n_ch} channels")
        squeeze = x.ndim == 2
        x3 = self._as3d(x)
        if mode == "train":
            if x3.shape[0] < 2:
                raise BatchTooSmall(f"{self.name}: train mode needs batch >= 2")
            mean = x3.mean(axis=(0, 2))
            xhat = x3 - mean[None, :, None]
            # biased variance from the same sums np.var does: bit-identical
            var = np.square(xhat).sum(axis=(0, 2))
            np.true_divide(var, np.intp(x3.shape[0] * x3.shape[2]), out=var,
                           casting="unsafe")
            m = self.MOMENTUM
            for stat, batch in ((self.running_mean, mean),
                                (self.running_var, var)):
                stat.value = (m * stat.value + (1 - m) * batch).astype(
                    stat.value.dtype, copy=False)
        else:
            xhat = x3 - self.running_mean.value[None, :, None]
            var = self.running_var.value
        ivar = 1.0 / np.sqrt(var + self.EPS)
        xhat *= ivar[None, :, None]
        self._cache = (xhat, ivar, squeeze) if mode == "train" else None
        y = self.gamma.value[None, :, None] * xhat
        y += self.beta.value[None, :, None]
        return y[:, :, 0] if squeeze else y

    def backward(self, dy):
        xhat, ivar, squeeze = self._cache
        dy3 = self._as3d(dy)
        self.gamma.grad += (dy3 * xhat).sum(axis=(0, 2))
        self.beta.grad += dy3.sum(axis=(0, 2))
        dxhat = dy3 * self.gamma.value[None, :, None]
        # (ivar / n) * (n * dxhat - s1 - xhat * s2), reusing two buffers
        n = dy3.shape[0] * dy3.shape[2]
        s1 = dxhat.sum(axis=(0, 2), keepdims=True)
        dx = dxhat * xhat
        s2 = dx.sum(axis=(0, 2), keepdims=True)
        dxhat *= n
        dxhat -= s1
        np.multiply(xhat, s2, out=dx)
        np.subtract(dxhat, dx, out=dx)
        dx *= ivar[None, :, None] / n
        return dx[:, :, 0] if squeeze else dx


class MaxPool1D(Layer):
    """Non-overlapping max pooling; trailing remainder is dropped."""

    def __init__(self, pool: int, name: str = "pool"):
        if pool < 1:
            raise ValueError("pool size must be >= 1")
        self.name = name
        self.pool = pool
        self._cache = None

    def forward(self, x, mode="train", rng=None):
        p = self.pool
        b, c, l = x.shape
        n = l // p
        xr = x[:, :, :n * p].reshape(b, c, n, p)
        if mode != "train":
            # no backward follows: running max, nothing cached.  On ties
            # np.maximum returns its second operand, the running max, so
            # the first occurrence wins as with argmax (signed zeros too)
            self._cache = None
            y = xr[..., 0].copy()
            for j in range(1, p):
                np.maximum(xr[..., j], y, out=y)
            return y
        arg = xr.argmax(axis=3)
        self._cache = (x.shape, arg)
        return np.take_along_axis(xr, arg[..., None], axis=3)[..., 0]

    def backward(self, dy):
        (b, c, l), arg = self._cache
        p = self.pool
        n = l // p
        dxr = np.zeros((b, c, n, p), dtype=dy.dtype)
        np.put_along_axis(dxr, arg[..., None], dy[..., None], axis=3)
        dx = dxr.reshape(b, c, n * p)
        if n * p < l:  # the dropped remainder gets a zero gradient
            dx = np.pad(dx, ((0, 0), (0, 0), (0, l - n * p)))
        return dx


class GlobalAvgPool1D(Layer):
    """[B,C,L] -> [B,C] mean over the time axis."""

    def __init__(self, name: str = "gap"):
        self.name = name
        self._l = None

    def forward(self, x, mode="train", rng=None):
        self._l = x.shape[2]
        return x.mean(axis=2)

    def backward(self, dy):
        return np.repeat(dy[:, :, None], self._l, axis=2) / self._l


class ReLU(Layer):
    def __init__(self, name: str = "relu"):
        self.name = name
        self._mask = None

    def forward(self, x, mode="train", rng=None):
        self._mask = x > 0
        return x * self._mask

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
        h = np.zeros((bsz, u), dtype=x.dtype)
        c = np.zeros((bsz, u), dtype=x.dtype)
        hs = np.empty((t_len, bsz, u), dtype=x.dtype)
        cs = np.empty((t_len, bsz, u), dtype=x.dtype)
        gates = np.empty((t_len, bsz, 4 * u), dtype=x.dtype)
        c_prev = np.empty((t_len, bsz, u), dtype=x.dtype)
        for t in range(t_len):
            z = x[:, t] @ self.wx.value + h @ self.wh.value + self.b.value
            i = _sigmoid(z[:, :u])
            f = _sigmoid(z[:, u:2 * u])
            g = np.tanh(z[:, 2 * u:3 * u])
            o = _sigmoid(z[:, 3 * u:])
            c_prev[t] = c
            c = f * c + i * g
            h = o * np.tanh(c)
            gates[t] = np.concatenate([i, f, g, o], axis=1)
            hs[t], cs[t] = h, c
        self._cache = (x, hs, cs, gates, c_prev)
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
