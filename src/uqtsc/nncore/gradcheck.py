"""Finite-difference gradient verification for every layer kind.

Backward passes in this package carry no proof other than this check: a
layer is evaluated in 64-bit deterministic mode, its analytic gradients
(inputs and all trainable parameters) are compared against central
differences, and the max relative error must stay tiny.  Inputs for
kinked layers (relu, maxpool) are resampled until every element sits far
enough from a kink that the eps-perturbation cannot cross it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import layers as L


@dataclass(frozen=True)
class LayerSpec:
    """A layer kind plus the sizes needed to build a small instance."""

    kind: str
    sizes: dict = field(default_factory=dict)

    def describe(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.sizes.items()))
        return f"{self.kind}({inner})"


# Reference specs covering every differentiable kind (plus the stacked-LSTM
# and 2-D batchnorm variants, whose backward code paths differ).
GRAD_CHECKED_KINDS = [
    LayerSpec("dense", {"batch": 2, "n_in": 3, "n_out": 2}),
    LayerSpec("conv1d", {"batch": 2, "n_in": 2, "filters": 3, "kernel": 4,
                         "length": 12, "padding": "same"}),
    LayerSpec("conv1d", {"batch": 2, "n_in": 2, "filters": 3, "kernel": 4,
                         "length": 12, "padding": "valid"}),
    LayerSpec("batchnorm1d", {"batch": 4, "n_ch": 3, "length": 6}),
    LayerSpec("batchnorm1d", {"batch": 5, "n_ch": 4, "length": 0}),  # [B,F]
    LayerSpec("maxpool1d", {"batch": 2, "n_ch": 3, "length": 13, "pool": 3}),
    LayerSpec("globalavgpool", {"batch": 2, "n_ch": 3, "length": 7}),
    LayerSpec("relu", {"batch": 2, "n_ch": 3, "length": 9}),
    LayerSpec("lstm", {"batch": 2, "n_in": 3, "units": 4, "length": 5}),
    LayerSpec("lstm", {"batch": 2, "n_in": 3, "units": 4, "length": 5,
                       "return_sequences": 1}),
    LayerSpec("softmax", {"batch": 4, "n_classes": 2}),
]


def _batchnorm(s, rng):
    bn = L.BatchNorm1D(s["n_ch"])
    # non-trivial affine so dgamma/dbeta are exercised
    bn.gamma.value = rng.uniform(0.5, 1.5, size=s["n_ch"])
    bn.beta.value = rng.normal(size=s["n_ch"])
    return bn


def _seq_shape(s):
    return (s["batch"], s["n_ch"], s["length"])


# kind -> (input shape from sizes, builder from (sizes, rng)).  grad_check
# draws the input before the builder draws any weight or BN affine.
_KINDS = {
    "dense": (lambda s: (s["batch"], s["n_in"]),
              lambda s, rng: L.Dense(s["n_in"], s["n_out"], rng)),
    "conv1d": (lambda s: (s["batch"], s["n_in"], s["length"]),
               lambda s, rng: L.Conv1D(s["n_in"], s["filters"], s["kernel"],
                                       rng, padding=s.get("padding", "same"))),
    # length 0 means a [B,F] input
    "batchnorm1d": (lambda s: _seq_shape(s) if s.get("length", 0)
                    else (s["batch"], s["n_ch"]), _batchnorm),
    "maxpool1d": (_seq_shape, lambda s, rng: L.MaxPool1D(s["pool"])),
    "globalavgpool": (_seq_shape, lambda s, rng: L.GlobalAvgPool1D()),
    "relu": (_seq_shape, lambda s, rng: L.ReLU()),
    "lstm": (lambda s: (s["batch"], s["length"], s["n_in"]),
             lambda s, rng: L.LSTM(s["n_in"], s["units"], rng,
                                   return_sequences=bool(
                                       s.get("return_sequences", 0)))),
    "softmax": (lambda s: (s["batch"], s["n_classes"]), None),
}


def _sample_input(spec: LayerSpec, shape,
                  rng: np.random.Generator) -> np.ndarray:
    x = rng.normal(size=shape)
    if spec.kind == "relu":
        # keep every element at least 1e-3 from the kink at zero
        while np.any(np.abs(x) < 1e-3):
            x[np.abs(x) < 1e-3] = rng.normal(size=int((np.abs(x) < 1e-3).sum()))
    elif spec.kind == "maxpool1d":
        # keep within-window values separated so argmax cannot flip
        p = spec.sizes["pool"]
        while True:
            n = shape[2] // p
            xr = x[:, :, :n * p].reshape(shape[0], shape[1], n, p)
            srt = np.sort(xr, axis=3)
            if p == 1 or np.all(np.diff(srt, axis=3) > 1e-3):
                break
            x = rng.normal(size=shape)
    return x


def _rel_err(a: np.ndarray, n: np.ndarray) -> float:
    denom = np.maximum(np.abs(a) + np.abs(n), 1e-3)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def _central_diff(loss_at, flat: np.ndarray, eps: float) -> np.ndarray:
    """d loss / d flat by central differences, perturbing flat in place."""
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = loss_at()
        flat[i] = orig - eps
        fm = loss_at()
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * eps)
    return numeric


def layer_grad_error(layer, x: np.ndarray, rng: np.random.Generator,
                     eps: float) -> float:
    """Max relative error of a layer's input and trainable-param grads.

    The scalar loss is sum(forward(x) * proj) for a projection drawn from
    rng after the first forward pass, evaluated in train mode.
    """
    y = layer.forward(x, mode="train")
    proj = rng.uniform(-1.0, 1.0, size=y.shape)
    for p in layer.params():
        p.zero_grad()
    analytic_dx = layer.backward(proj)
    checked = [(x, analytic_dx)] + [(p.value, p.grad.copy())
                                    for p in layer.params() if p.trainable]

    def loss_at() -> float:
        return float(np.sum(layer.forward(x, mode="train") * proj))

    return max(_rel_err(grad.reshape(-1),
                        _central_diff(loss_at, value.reshape(-1), eps))
               for value, grad in checked)


def grad_check(spec: LayerSpec, eps: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference grads."""
    if spec.kind not in _KINDS:
        raise ValueError(f"unknown layer kind {spec.kind!r}")
    shape_of, build = _KINDS[spec.kind]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    x = _sample_input(spec, shape_of(spec.sizes), rng)
    if build is not None:
        return layer_grad_error(build(spec.sizes, rng), x, rng, eps)

    labels = rng.integers(0, spec.sizes["n_classes"], size=x.shape[0])
    _, probs = L.softmax_cross_entropy(x, labels)
    analytic = L.softmax_cross_entropy_backward(probs, labels)
    numeric = _central_diff(
        lambda: L.softmax_cross_entropy(x, labels)[0], x.reshape(-1), eps)
    return _rel_err(analytic.reshape(-1), numeric)
