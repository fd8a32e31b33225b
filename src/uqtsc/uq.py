"""Uncertainty mechanisms: MC Dropout, MC DropConnect, Flipout, ELBO.

All three stay stochastic at inference time (mode "mc_infer") so repeated
forward passes sample the predictive posterior; mode "infer" switches
them off for a deterministic baseline pass.  Dropout and DropConnect use
inverted scaling — survivors are divided by (1-p) at mask time — which
makes every masked pass an unbiased estimate of the deterministic one.
"""

from __future__ import annotations

import numpy as np

from .nncore.gradcheck import layer_grad_error
from .nncore.layers import Conv1D, Dense, Layer, Param, ShapeMismatch

_ACTIVE_MODES = ("train", "mc_infer")


class InvalidRate(Exception):
    pass


class NonPositiveSigma(Exception):
    pass


def _check_rate(p: float):
    if not (0.0 <= p < 1.0):
        raise InvalidRate(f"dropout rate must lie in [0, 1), got {p}")


class _Bernoulli:
    """The one inverted-scaling Bernoulli mask behind dropout and DropConnect.

    A fresh mask is drawn per pass in active modes when p > 0; otherwise
    the tensor passes through.  Only a train pass keeps its mask for
    backward.  The mask comes from a float64 uniform draw but is built in
    the tensor's dtype, so a float32 pass stays float32; an mc_infer pass
    writes the product into the mask.  Stochastic even at p = 0, as the
    layer kind, not the rate, decides it.
    """

    stochastic = True

    def _masked(self, v, mode, rng):
        self._mask = None
        if mode in _ACTIVE_MODES and self.p > 0.0:
            if rng is None:
                raise ValueError(f"{self.name}: active mode needs an rng")
            keep = 1.0 - self.p
            mask = np.divide(rng.random(v.shape) < keep, keep, dtype=v.dtype)
            if mode == "train":
                self._mask = mask
                return v * mask
            return np.multiply(v, mask, out=mask)
        return v

    def _mask_grad(self, g):
        return g if self._mask is None else g * self._mask


class MCDropout(_Bernoulli, Layer):
    """Bernoulli activation masking, active in train and mc_infer modes."""

    def __init__(self, p: float, name: str = "dropout"):
        _check_rate(p)
        self.name = name
        self.p = p
        self._mask = None

    def forward(self, x, mode="train", rng=None):
        return self._masked(x, mode, rng)

    def backward(self, dy):
        return self._mask_grad(dy)


class _DropConnect(_Bernoulli):
    """Bernoulli mask on a wrapped layer's weight (never its bias).

    Adopts the base layer's attributes and Param objects, then overrides
    the `_weight`/`_backprop_weight` hooks that Dense and Conv1D route
    their weight through.
    """

    def __init__(self, base, p: float):
        _check_rate(p)
        vars(self).update(vars(base))
        self.p = p
        self._mask = None

    def _weight(self, mode, rng):
        return self._masked(self.w.value, mode, rng)

    def _backprop_weight(self, dw_eff):
        self.w.grad += self._mask_grad(dw_eff)


class DropConnectDense(_DropConnect, Dense):
    """Dense layer whose weight matrix (never bias) is Bernoulli-masked."""


class DropConnectConv1D(_DropConnect, Conv1D):
    """Conv1D whose filter bank (never bias) is Bernoulli-masked."""


def softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


# rho giving softplus(rho) ~= 0.05, the initial posterior spread
RHO_INIT = float(np.log(np.expm1(0.05)))


class FlipoutDense(Layer):
    """Dense layer with a factorized Gaussian weight posterior.

    Each forward pass in an active mode draws one shared weight
    perturbation dW = sigma * E and decorrelates it across the batch with
    per-example Rademacher sign vectors r, s:

        y = x mu_W + ((x * r) @ dW) * s + mu_b + sigma_b * e_b

    In "infer" mode only the posterior means are used.  freeze_noise()
    pins the random draws, which gradient checking needs.  The noise is
    drawn in float64 and cast to the input dtype.
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
        self._frozen = None
        self._cache = None

    def params(self):
        return [self.mu_w, self.rho_w, self.mu_b, self.rho_b]

    def freeze_noise(self, rng: np.random.Generator, batch: int):
        self._frozen = self._draw(rng, batch)

    def _draw(self, rng, batch):
        r = rng.choice((-1.0, 1.0), size=(batch, self.n_in))
        s = rng.choice((-1.0, 1.0), size=(batch, self.n_out))
        e_w = rng.normal(size=(self.n_in, self.n_out))
        e_b = rng.normal(size=self.n_out)
        return r, s, e_w, e_b

    def forward(self, x, mode="train", rng=None):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeMismatch(
                f"{self.name}: expected [batch, {self.n_in}], got {x.shape}")
        if mode == "infer" and self._frozen is None:
            self._cache = None
            return x @ self.mu_w.value + self.mu_b.value
        if self._frozen is not None:
            r, s, e_w, e_b = self._frozen
            if r.shape[0] != x.shape[0]:
                raise ShapeMismatch(f"{self.name}: frozen noise batch mismatch")
        else:
            if rng is None:
                raise ValueError(f"{self.name}: active mode needs an rng")
            r, s, e_w, e_b = self._draw(rng, x.shape[0])
        r, s, e_w, e_b = (a.astype(x.dtype, copy=False)
                          for a in (r, s, e_w, e_b))
        sig_w = softplus(self.rho_w.value)
        sig_b = softplus(self.rho_b.value)
        dw = sig_w * e_w
        xr = x * r
        y = x @ self.mu_w.value + (xr @ dw) * s \
            + self.mu_b.value + sig_b * e_b
        self._cache = (x, r, s, e_w, e_b, xr, dw) if mode == "train" else None
        return y

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


def flipout_grad_check(eps: float = 1e-5, seed: int = 0) -> float:
    """Finite-difference check of FlipoutDense with frozen noise.

    Covers the input and all four posterior parameters (mu/rho for weight
    and bias); returns the max relative error.  Frozen noise makes train
    and mc_infer passes identical, so the shared train-mode check applies.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xF11b0)))
    layer = FlipoutDense(Dense(3, 2, rng))
    layer.rho_w.value = rng.normal(-2.5, 0.3, size=layer.rho_w.value.shape)
    layer.rho_b.value = rng.normal(-2.5, 0.3, size=layer.rho_b.value.shape)
    x = rng.normal(size=(2, 3))
    layer.freeze_noise(rng, batch=2)
    return layer_grad_error(layer, x, rng, eps)
