"""Adam with bias correction, operating in place on Param objects."""

from __future__ import annotations

import numpy as np

from .layers import Param, ShapeMismatch

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params: list[Param], lr: float):
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g.shape != p.value.shape:
                raise ShapeMismatch(f"{p.name}: grad shape {g.shape} "
                                    f"!= param shape {p.value.shape}")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            p.value -= self.lr * mhat / (np.sqrt(vhat) + EPS)
