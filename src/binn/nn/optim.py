"""SGD and ADAM over shadow weights."""

from __future__ import annotations

import numpy as np


class SGD:
    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)

    def step(self):
        for p in self.params:
            if p.grad is not None:
                p.value -= (self.lr * p.grad).astype(p.value.dtype)


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = 0

    def step(self):
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self._t)
            vhat = v / (1 - b2**self._t)
            p.value -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(p.value.dtype)


def make_optimizer(name: str, params, lr: float):
    name = name.lower()
    if name == "sgd":
        return SGD(params, lr)
    if name == "adam":
        return Adam(params, lr)
    raise ValueError(f"unknown optimizer {name!r} (want sgd or adam)")
