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
the cache, and nothing but the Params stays held between passes, unless
the layer holds its inference constants (`Layer.hold`, opened by
`arch.Network.frozen` for one posterior call): then passes outside train
reuse what they derive from the parameters instead of deriving it again.
An infer or mc_infer pass reads its layers and writes nothing to them that
another pass needs, so several threads may run such passes on one
network at once.  Held constants are filled lazily by whichever pass
needs one first; every one is a pure function of the parameters, so two
threads that both make it store the same value.  A train pass writes its
caches and gradients into its layers, so a layer runs one train pass at
a time.  A data-parallel train step runs each chunk of a batch on its
own copy of the layers, which share the parameter values
(`arch.Network.replica`), one chunk per lane at a time; `forward_steps`
and `backward_steps` run a train pass as a generator that yields where
the pass needs a value over the whole batch, batch norm's statistics and
parameter gradients, and `lanes.run_steps` answers every chunk at once.
"""

from __future__ import annotations

import numpy as np

from . import lanes


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
    # constants derived from the parameters that passes outside train may
    # reuse: a dict while held (see hold), else None
    _held: dict | None = None

    def params(self) -> list[Param]:
        return []

    def hold(self, on: bool):
        """Start holding inference constants (on), or drop every one."""
        self._held = {} if on else None

    def _constant(self, mode: str, key, make):
        """make(), or outside train while held, the value held under key,
        made on first use."""
        held = self._held
        if held is None or mode == "train":
            return make()
        value = held.get(key)
        if value is None:
            value = held[key] = make()
        return value

    def forward(self, x: np.ndarray, mode: str = "train",
                rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward_steps(self, x: np.ndarray,
                      rng: np.random.Generator | None = None):
        """A train-mode forward as a generator (see `lanes.run_steps`)
        that yields a request wherever the pass needs a value taken over
        every chunk of the batch, and returns the output.  A layer whose
        train pass needs nothing from other chunks yields none."""
        return self.forward(x, mode="train", rng=rng)
        yield  # unreachable: makes this a generator

    def backward_steps(self, dy: np.ndarray):
        """backward as a generator, as forward_steps is forward."""
        return self.backward(dy)
        yield  # unreachable: makes this a generator

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
        return self._forward(x, mode, lambda: self._weight(mode, rng))

    def _forward(self, x, mode, weight):
        """forward with this pass's effective weight taken from weight()."""
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeMismatch(
                f"{self.name}: expected [batch, {self.n_in}], got {x.shape}")
        w = weight()
        self._x, self._w_used = (x, w) if mode == "train" else (None, None)
        return x @ w + self.b.value

    def backward(self, dy):
        self._backprop_weight(self._x.T @ dy)
        self.b.grad += dy.sum(axis=0)
        return dy @ self._w_used.T


def pad_same(x: np.ndarray, k: int) -> np.ndarray:
    """Zero-pad the time axis of [B, L, C] so a valid k-conv preserves length.

    Total padding k-1 split floor-left / ceil-right.  The result is
    C-contiguous: a new array, or with k = 1 x itself where x already is.
    """
    if k == 1:
        return np.ascontiguousarray(x)
    left = (k - 1) // 2
    b, l, c = x.shape
    xp = np.empty((b, l + k - 1, c), dtype=x.dtype)
    xp[:, :left] = 0
    xp[:, left + l:] = 0
    xp[:, left:left + l] = x
    return xp


def _im2col(xp: np.ndarray, k: int) -> np.ndarray:
    """[B, Lp, C] -> [B*Lout, k*C]: every length-k window as one row.

    xp is C-contiguous, so the k time steps of a window are k*C adjacent
    elements and one read-only strided view covers every window.
    """
    b, lp, c = xp.shape
    s_b, s_l, _ = xp.strides
    v = np.ndarray((b, lp - k + 1, k * c), dtype=xp.dtype, buffer=xp,
                   strides=(s_b, s_l, xp.itemsize))
    v.flags.writeable = False
    return v.reshape(b * (lp - k + 1), k * c)


class Conv1D(Layer):
    """Same-padded cross-correlation over [batch, length, channels] with bias.

    Implemented as one GEMM of the im2col matrix of the padded input
    against the [k*C, F] weight matrix, whose output is already
    [batch, length, filters].  A plain (not stochastic) conv holds that
    matrix per dtype while held.  A train pass keeps its im2col matrix
    until backward, which takes dw from it with one GEMM and dx from k
    products of dy with one offset's weight rows each, every one added
    into dx shifted by its offset: no matrix k times the input's size is
    built there.
    """

    def __init__(self, n_in: int, filters: int, kernel: int,
                 rng: np.random.Generator, name: str = "conv"):
        self.name = name
        self.n_in, self.filters, self.kernel = n_in, filters, kernel
        fan_in = n_in * kernel
        self.w = Param(f"{name}_w",
                       _fan_in_uniform(rng, (filters, n_in, kernel), fan_in))
        self.b = Param(f"{name}_b", np.zeros(filters))
        self._col = self._wmat = None

    def params(self):
        return [self.w, self.b]

    def _weight(self, mode, rng):
        return self.w.value

    def _backprop_weight(self, dw_eff):
        self.w.grad += dw_eff

    def forward(self, x, mode="train", rng=None):
        return self._forward(x, mode, lambda: self._weight(mode, rng))

    def _forward(self, x, mode, weight):
        """forward with this pass's effective weight taken from weight()."""
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeMismatch(
                f"{self.name}: expected [batch, len, {self.n_in}], got {x.shape}")
        k = self.kernel
        col = _im2col(pad_same(x, k), k)

        def relayout():
            # [F, C, k] -> [k*C, F], rows in im2col column order; the cast
            # keeps the GEMM and its output in the input precision
            return weight().astype(x.dtype, copy=False) \
                .transpose(2, 1, 0).reshape(k * self.n_in, self.filters)

        wmat = relayout() if self.stochastic else self._constant(
            mode, x.dtype, relayout)
        if mode == "train":
            self._col, self._wmat = col, wmat
        else:
            self._col = self._wmat = None
        y = np.dot(col, wmat).reshape(len(x), -1, self.filters)
        y += self.b.value
        return y

    def backward(self, dy, input_grad=True):
        """Accumulate the weight and bias gradients, then return dx.

        dx is col2im's sum without its matrix: for each offset j, the
        product of dy with weight rows j*C:(j+1)*C lands on input step
        t + j - left for output step t, and is added where that step
        exists, in j order from zeros.  With input_grad=False nothing is
        returned and the dx products are skipped: a network's first
        layer has no use for dx.
        """
        col, wmat = self._col, self._wmat
        self._col = self._wmat = None
        b, l_out, f = dy.shape
        k, c = self.kernel, self.n_in
        dy2 = dy.reshape(b * l_out, f)
        dw = np.dot(dy2.T, col)
        del col  # freed before dx's buffers are allocated
        self._backprop_weight(dw.reshape(f, k, c).transpose(0, 2, 1))
        self.b.grad += dy2.sum(axis=0)
        if not input_grad:
            return None
        left = (k - 1) // 2
        dx = np.zeros((b, l_out, c), dtype=wmat.dtype)  # the input's dtype
        part = np.empty((b * l_out, c), dtype=np.result_type(dy2, wmat))
        steps = part.reshape(b, l_out, c)
        for j in range(k):
            s = j - left  # dy at step t reaches input step t + s
            lo, hi = max(0, s), l_out + min(0, s)
            if lo >= hi:
                continue
            np.dot(dy2, wmat[j * c:(j + 1) * c].T, out=part)
            dx[:, lo:hi] += steps[:, lo - s:hi - s]
        return dx


class BatchNorm1D(Layer):
    """Per-channel batch normalization over the last axis.

    Statistics reduce over every other axis, so [B, L, C] sequences and
    [B, F] features share one path.  Train mode normalizes by biased
    batch statistics and updates running stats with momentum 0.9, kept
    in the parameter dtype; infer/mc_infer use the running stats.
    Per-channel vectors are tiled to a row of L*C values before they
    broadcast, which keeps the elementwise loops long; while held, the
    four rows of an inference pass are held per length.

    A train pass may see one chunk of its batch (`forward_steps`, run by
    `lanes.run_steps`): each chunk's partial sums are added in chunk
    order into the batch mean, then into the variance of the values
    centred on that mean, and backward's dgamma and dbeta likewise; the
    running stats move once per batch.  A plain train forward is the
    batch as one chunk.
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
        if mode == "train":
            return lanes.run_steps([self.forward_steps(x)])[0]
        c = self.n_ch
        if x.shape[-1] != c:
            raise ShapeMismatch(f"{self.name}: expected {c} channels")
        self._cache = None
        rows = x.reshape(len(x), -1)  # [B, L*C]
        reps = rows.shape[1] // c
        mean_row, ivar_row, gamma_row, beta_row = self._constant(
            mode, reps, lambda: self._inference_rows(reps))
        # the train path's operations in one buffer, as xhat is not kept
        y = rows - mean_row
        y *= ivar_row
        y *= gamma_row
        y += beta_row
        return y.reshape(x.shape)

    def forward_steps(self, x, rng=None):
        c = self.n_ch
        if x.shape[-1] != c:
            raise ShapeMismatch(f"{self.name}: expected {c} channels")
        rows = x.reshape(len(x), -1)  # [B, L*C]
        reps = rows.shape[1] // c
        flat = rows.reshape(-1, c)
        mean, n = yield self._batch_mean, (
            np.einsum("nc->c", flat), len(x), len(flat))
        xhat = rows - np.tile(mean, reps)
        flat = xhat.reshape(-1, c)
        ivar = yield self._batch_ivar, (np.einsum("nc,nc->c", flat, flat), n)
        xhat *= np.tile(ivar, reps)
        self._cache = (xhat, ivar, n)
        y = xhat * np.tile(self.gamma.value, reps)
        y += np.tile(self.beta.value, reps)
        return y.reshape(x.shape)

    def _batch_mean(self, parts, rng):
        """(batch mean, values per channel) from each chunk's (sum,
        windows, values per channel); moves the running mean."""
        if sum(windows for _, windows, _ in parts) < 2:
            raise BatchTooSmall(f"{self.name}: train mode needs batch >= 2")
        n = sum(count for _, _, count in parts)
        mean = lanes.ordered_sum([total for total, _, _ in parts]) / n
        self._move(self.running_mean, mean)
        return mean, n

    def _batch_ivar(self, parts, rng):
        """1/sqrt(batch var + eps) from each chunk's (sum of squares about
        the batch mean, values per channel); moves the running var."""
        var = lanes.ordered_sum([sq for sq, _ in parts]) / parts[0][1]
        self._move(self.running_var, var)
        return 1.0 / np.sqrt(var + self.EPS)

    def _move(self, stat: Param, batch: np.ndarray):
        m = self.MOMENTUM
        stat.value = (m * stat.value + (1 - m) * batch).astype(
            stat.value.dtype, copy=False)

    def _inference_rows(self, reps: int) -> tuple[np.ndarray, ...]:
        """The running mean, 1/sqrt(running var + eps), gamma and beta,
        each tiled to a row of reps*C values."""
        ivar = 1.0 / np.sqrt(self.running_var.value + self.EPS)
        return tuple(np.tile(v, reps) for v in (
            self.running_mean.value, ivar, self.gamma.value, self.beta.value))

    def backward(self, dy):
        return lanes.run_steps([self.backward_steps(dy)])[0]

    def backward_steps(self, dy):
        xhat, ivar, n = self._cache
        c = self.n_ch
        rows = dy.reshape(len(dy), -1)
        reps = rows.shape[1] // c
        flat = rows.reshape(-1, c)
        dgamma, dbeta = yield self._param_grads, (
            np.einsum("nc,nc->c", flat, xhat.reshape(-1, c)),
            np.einsum("nc->c", flat))
        # gamma * ivar / n * (n * dy - dbeta - xhat * dgamma), n over the
        # whole batch
        dx = xhat * np.tile(dgamma, reps)
        np.subtract(rows * n, dx, out=dx)
        dx -= np.tile(dbeta, reps)
        dx *= np.tile(self.gamma.value * ivar / n, reps)
        return dx.reshape(dy.shape)

    def _param_grads(self, parts, rng):
        """The batch's (dgamma, dbeta) from each chunk's, accumulated into
        the gradients once."""
        dgamma = lanes.ordered_sum([g for g, _ in parts])
        dbeta = lanes.ordered_sum([b for _, b in parts])
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        return dgamma, dbeta


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
        # the sum and the division of x.mean(axis=1), without its
        # Python-level wrapper
        self._l = x.shape[1]
        return np.add.reduce(x, axis=1) / self._l

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
    """1 / (1 + e) where z >= 0, else e / (1 + e), with e = exp(-|z|),
    which never overflows; branch-free, so one call covers every gate."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


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
        for t in range(t_len):
            z = x[:, t] @ self.wx.value + h @ self.wh.value + self.b.value
            gate = _sigmoid(z)  # the candidate's columns go unused
            i, f, o = gate[:, :u], gate[:, u:2 * u], gate[:, 3 * u:]
            g = np.tanh(z[:, 2 * u:3 * u])
            if train:
                np.concatenate([i, f, g, o], axis=1, out=gates[t])
            c = f * c + i * g
            h = o * np.tanh(c)
            if hs is not None:
                hs[t] = h
            if train:
                cs[t] = c
        self._cache = (x, hs, cs, gates) if train else None
        if self.return_sequences:
            return hs.transpose(1, 0, 2)
        return h

    def backward(self, dy):
        x, hs, cs, gates = self._cache
        bsz, t_len, _ = x.shape
        u = self.units
        dx = np.zeros_like(x)
        zeros = np.zeros((bsz, u), dtype=x.dtype)  # the initial state
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
            h_prev, c_prev = (hs[t - 1], cs[t - 1]) if t else (zeros, zeros)
            tc = np.tanh(cs[t])
            dc = dc_next + dh * o * (1.0 - tc * tc)
            dz = np.concatenate([
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                dh * tc * o * (1.0 - o),
            ], axis=1)
            self.wx.grad += x[:, t].T @ dz
            self.wh.grad += h_prev.T @ dz
            self.b.grad += dz.sum(axis=0)
            dx[:, t] = dz @ self.wx.value.T
            dh_next = dz @ self.wh.value.T
            dc_next = dc * f
        return dx


def _softmax_terms(logits: np.ndarray):
    """(logits minus their row max, row sums of its exp, softmax)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    total = ex.sum(axis=1, keepdims=True)
    return shifted, total, ex / total


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-max-stabilized softmax of [n, classes] logits."""
    return _softmax_terms(logits)[2]


def softmax_nll(logits: np.ndarray,
                labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row NLL of a row-max-stabilized softmax; returns (nll, probs)."""
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise LabelOutOfRange(f"labels must lie in [0, {c})")
    shifted, total, probs = _softmax_terms(logits)
    return np.log(total[:, 0]) - shifted[np.arange(n), labels], probs


def softmax_cross_entropy(logits: np.ndarray,
                          labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean NLL of a row-max-stabilized softmax; returns (loss, probs)."""
    nll, probs = softmax_nll(logits, labels)
    return float(nll.mean()), probs


def softmax_cross_entropy_backward(probs: np.ndarray, labels: np.ndarray,
                                   batch: int | None = None) -> np.ndarray:
    """d(mean NLL)/d(logits) = (probs - onehot) / batch, where batch is
    the rows of probs unless given (a chunk gives its whole batch's)."""
    d = probs.copy()
    d[np.arange(len(d)), labels] -= 1.0
    return d / (len(d) if batch is None else batch)
