"""Uncertainty mechanisms: MC Dropout, MC DropConnect, Flipout, ELBO.

All three stay stochastic at inference time (mode "mc_infer") so repeated
forward passes sample the predictive posterior; mode "infer" switches
them off for a deterministic baseline pass.  Dropout and DropConnect use
inverted scaling — survivors are multiplied by 2^16/t at mask time, where
t = round((1-p)·2^16) is the keep threshold of a 16-bit random lane —
which makes every masked pass an unbiased estimate of the deterministic
one.  2^16/t is 1/(1-p) up to the quantization of p to 1/65536.

An mc_infer input may stack several passes' rows, pass after pass, and
`passes` (handed on by `arch.Network.forward`) is the number of row
blocks a stochastic layer draws for in one call.  Dropout masks the
stacked tensor with one mask.  DropConnect and Flipout, whose noise is on
the weight, give each block its own weight sample in one batched
product: DropConnect's masks are the bytes of one draw per block in
turn, and Flipout draws each kind of noise once per call.
"""

from __future__ import annotations

import math

import numpy as np

from .nncore.layers import Conv1D, Dense, Layer, Param, ShapeMismatch

_ACTIVE_MODES = ("train", "mc_infer")


class InvalidRate(Exception):
    pass


class NonPositiveSigma(Exception):
    pass


def _keep_threshold(p: float) -> int:
    """Keep threshold t of a 16-bit lane: keep where lane < t."""
    return round((1.0 - p) * 65536)


def _check_rate(p: float):
    if not (0.0 <= p < 1.0) or _keep_threshold(p) == 0:
        raise InvalidRate(f"dropout rate must lie in [0, 1 - 2**-17), got {p}")


class _Bernoulli:
    """The one inverted-scaling Bernoulli mask behind dropout and DropConnect.

    A fresh mask is drawn per pass in active modes when p > 0; otherwise
    the tensor passes through.  Each element takes one 16-bit lane of the
    64-bit words of one `rng.integers` draw (full words on any bit
    generator), is kept where its lane is below t = round((1-p)·2^16) and
    is scaled by 2^16/t; a stack of q masks takes q masks' words from
    that one draw.  A p of at most 2^-17 rounds to t = 2^16 and keeps
    every element.  The scale takes the tensor's dtype, so a float32
    pass stays float32.  A train pass keeps its bool mask and scale for
    backward; an mc_infer pass writes the product into a scaled mask.
    Stochastic even at p = 0, as the layer kind, not the rate, decides
    it.
    """

    stochastic = True

    def _draw(self, shape, rng, passes=1) -> np.ndarray:
        """One bool keep mask of the given shape drawn from rng, or for
        passes > 1 a [passes, *shape] stack of masks, the bytes of passes
        one-mask draws in turn."""
        if rng is None:
            raise ValueError(f"{self.name}: active mode needs an rng")
        size = math.prod(shape)
        words = -(-size // 4)
        lanes = rng.integers(0, 1 << 64, size=passes * words,
                             dtype=np.uint64).view(np.uint16)
        kept = lanes.reshape(passes, 4 * words)[:, :size] \
            < _keep_threshold(self.p)
        return kept.reshape(shape if passes == 1 else (passes, *shape))

    def _masked(self, v, mode, rng, passes=1):
        """v masked in an active mode with p > 0, else v itself; for
        passes > 1, a stack of v under each of that many masks."""
        self._kept = None
        if mode in _ACTIVE_MODES and self.p > 0.0:
            return self._masked_by(self._draw(v.shape, rng, passes), v, mode)
        return v

    def _masked_by(self, kept, v, mode):
        """v times keep mask kept, scaled by 2^16/t, in an active mode."""
        scale = v.dtype.type(65536 / _keep_threshold(self.p))
        if mode == "train":
            self._kept, self._scale = kept, scale
            return self._apply_mask(v)
        mask = np.multiply(kept, scale, dtype=v.dtype)
        return np.multiply(v, mask, out=mask)

    def _apply_mask(self, a):
        """a * (kept * scale) of the last train pass, to the byte, with no
        a-sized mask; a itself when that pass masked nothing."""
        if self._kept is None:
            return a
        out = np.multiply(a, self._kept, dtype=a.dtype)
        out *= self._scale
        return out


class MCDropout(_Bernoulli, Layer):
    """Bernoulli activation masking, active in train and mc_infer modes.

    Stacked passes take one mask over all their rows."""

    def __init__(self, p: float, name: str = "dropout"):
        _check_rate(p)
        self.name = name
        self.p = p
        self._kept = None

    def forward(self, x, mode="train", rng=None, passes=1):
        return self._masked(x, mode, rng)

    def backward(self, dy):
        return self._apply_mask(dy)


class _DropConnect(_Bernoulli):
    """Bernoulli mask on a wrapped layer's weight (never its bias).

    Adopts the base layer's attributes and Param objects, hands its
    `_forward` the masked weight (a stack of them for stacked passes) and
    overrides the `_backprop_weight` hook.  A train pass run in chunks
    (`forward_steps`) masks every chunk's weight with one mask, drawn
    once per batch from the stream the chunks share.
    """

    def __init__(self, base, p: float):
        _check_rate(p)
        vars(self).update(vars(base))
        self.p = p
        self._kept = None

    def forward(self, x, mode="train", rng=None, passes=1):
        return self._forward(x, mode,
                             self._masked(self.w.value, mode, rng, passes))

    def forward_steps(self, x, rng=None):
        kept = yield self._draw_shared, None
        if kept is None:  # p = 0 masks nothing
            return self.forward(x, mode="train", rng=rng)
        return self._forward(x, "train",
                             self._masked_by(kept, self.w.value, "train"))

    def _draw_shared(self, parts, rng):
        return self._draw(self.w.value.shape, rng) if self.p > 0.0 else None

    def _backprop_weight(self, dw_eff):
        self.w.grad += self._apply_mask(dw_eff)


class DropConnectDense(_DropConnect, Dense):
    """Dense layer whose weight matrix (never bias) is Bernoulli-masked."""


class DropConnectConv1D(_DropConnect, Conv1D):
    """Conv1D whose filter bank (never bias) is Bernoulli-masked."""


def softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


# rho giving softplus(rho) ~= 0.05, the initial posterior spread
RHO_INIT = float(np.log(np.expm1(0.05)))

# Rademacher signs, indexed by rng.integers(0, 2): the values and the
# stream of rng.choice((-1.0, 1.0)) without its Python-level checks
_SIGNS = np.array((-1.0, 1.0))


class FlipoutDense(Layer):
    """Dense layer with a factorized Gaussian weight posterior.

    Each forward pass in an active mode draws one shared weight
    perturbation dW = sigma * E and decorrelates it across the batch with
    per-example Rademacher sign vectors r, s:

        y = x mu_W + ((x * r) @ dW) * s + mu_b + sigma_b * e_b

    An input stacking q passes draws r and s over all its rows, then E
    as [q, in, out], then e_b as [q, out], and runs each pass's row block
    with its own dW and e_b.  In "infer" mode only the posterior means
    are used.  The noise is drawn in float64 and cast to the input dtype.
    While held, passes outside train hold sigma = softplus(rho) of the
    weight and the bias.
    """

    stochastic = True

    def __init__(self, base: Dense, name: str | None = None):
        self.name = name or base.name
        self.n_in, self.n_out = base.n_in, base.n_out
        self.mu_w = Param(f"{self.name}_muw", base.w.value.copy())
        self.rho_w = Param(f"{self.name}_rhow",
                           np.full((self.n_in, self.n_out), RHO_INIT))
        self.mu_b = Param(f"{self.name}_mub", base.b.value.copy())
        self.rho_b = Param(f"{self.name}_rhob", np.full(self.n_out, RHO_INIT))
        self._cache = None

    def params(self):
        return [self.mu_w, self.rho_w, self.mu_b, self.rho_b]

    def forward(self, x, mode="train", rng=None, passes=1):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeMismatch(
                f"{self.name}: expected [batch, {self.n_in}], got {x.shape}")
        if mode == "infer":
            self._cache = None
            return x @ self.mu_w.value + self.mu_b.value
        if rng is None:
            raise ValueError(f"{self.name}: active mode needs an rng")
        xs = x.reshape(passes, -1, self.n_in)  # one row block per pass
        r, s, e_w, e_b = (a.astype(x.dtype, copy=False) for a in (
            _SIGNS[rng.integers(0, 2, size=xs.shape)],
            _SIGNS[rng.integers(0, 2, size=xs.shape[:2] + (self.n_out,))],
            rng.normal(size=(passes, self.n_in, self.n_out)),
            rng.normal(size=(passes, 1, self.n_out))))
        sig_w, sig_b = self._constant(mode, "sigma", lambda: (
            softplus(self.rho_w.value), softplus(self.rho_b.value)))
        dw = sig_w * e_w
        xr = xs * r
        y = xs @ self.mu_w.value + (xr @ dw) * s \
            + self.mu_b.value + sig_b * e_b
        self._cache = ((x, *(a[0] for a in (r, s, e_w, e_b[:, 0], xr, dw)))
                       if mode == "train" else None)
        return y.reshape(len(x), self.n_out)

    def backward(self, dy):
        x, r, s, e_w, e_b, xr, dw = self._cache
        self.mu_w.grad += x.T @ dy
        self.mu_b.grad += dy.sum(axis=0)
        dys = dy * s
        d_dw = xr.T @ dys
        # d softplus(rho) / d rho = sigmoid(rho)
        self.rho_w.grad += d_dw * e_w / (1.0 + np.exp(-self.rho_w.value))
        self.rho_b.grad += dy.sum(axis=0) * e_b / (1.0 + np.exp(-self.rho_b.value))
        return dy @ self.mu_w.value.T + (dys @ dw.T) * r

    def kl(self) -> float:
        """KL(posterior || N(0,1)) summed over every weight and bias."""
        total = gaussian_kl(self.mu_w.value, softplus(self.rho_w.value))
        total += gaussian_kl(self.mu_b.value, softplus(self.rho_b.value))
        return total

    def accumulate_kl_grads(self, kl_weight: float):
        """Add d(kl_weight * KL)/d{mu, rho} into the existing grads.

        Per element KL = -ln(sigma) + (sigma^2 + mu^2)/2 - 1/2, so
        dKL/dmu = mu and dKL/drho = (sigma - 1/sigma) * sigmoid(rho).
        """
        for mu, rho in ((self.mu_w, self.rho_w), (self.mu_b, self.rho_b)):
            sig = softplus(rho.value)
            mu.grad += kl_weight * mu.value
            rho.grad += kl_weight * (sig - 1.0 / sig) \
                / (1.0 + np.exp(-rho.value))


def gaussian_kl(mu: np.ndarray, sigma: np.ndarray) -> float:
    """Sum of KL(N(mu, sigma^2) || N(0,1)) over all elements."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0.0):
        raise NonPositiveSigma("sigma must be positive elementwise")
    return float(np.sum(-np.log(sigma) + (sigma * sigma + mu * mu) / 2.0 - 0.5))


def elbo_loss(ce_loss: float, kl: float, kl_weight: float) -> float:
    """Negative ELBO up to constants: data term plus weighted complexity."""
    if kl_weight <= 0.0:
        raise ValueError("kl_weight must be positive")
    return ce_loss + kl_weight * kl
