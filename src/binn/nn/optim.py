"""SGD and ADAM over shadow weights.

An optimizer owns its parameters' storage: building one copies every
``Param.value`` into one contiguous buffer and rebinds it to a view of
that buffer, so a step updates all parameters with one ufunc per
operation. Writing into ``p.value`` in place (``np.copyto``, slicing,
``load_state_items``) reaches the optimizer; rebinding ``p.value`` to
another array afterwards detaches that parameter from it. Every element
goes through the same float operations, in the same order, as a
per-parameter update would.
"""

from __future__ import annotations

import numpy as np


class _FlatParams:
    """Parameters moved into one contiguous buffer of their common dtype."""

    def __init__(self, params):
        self.params = list(params)
        dtypes = {p.value.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"parameters of mixed dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float32
        sizes = [p.value.size for p in self.params]
        self._flat = np.empty(sum(sizes), dtype)
        self._slices = []
        lo = 0
        for p, n in zip(self.params, sizes):
            view = self._flat[lo : lo + n].reshape(p.value.shape)
            view[...] = p.value
            p.value = view
            self._slices.append(slice(lo, lo + n))
            lo += n
        self._grad = np.empty_like(self._flat)

    def _segments(self):
        """(values, gradients, buffer slice) triples to update: the whole
        buffer when every parameter has a gradient, else one per parameter
        that has one."""
        grads = [p.grad for p in self.params]
        if all(g is not None for g in grads):
            if grads:
                np.concatenate(grads, axis=None, out=self._grad)
            return [(self._flat, self._grad, slice(None))]
        return [(self._flat[s], p.grad.reshape(-1), s)
                for p, s in zip(self.params, self._slices) if p.grad is not None]


class SGD(_FlatParams):
    def __init__(self, params, lr):
        super().__init__(params)
        self.lr = float(lr)

    def step(self):
        for w, g, _ in self._segments():
            w -= self.lr * g


class Adam(_FlatParams):
    def __init__(self, params, lr=1e-3):
        super().__init__(params)
        self.lr = float(lr)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._t = 0

    def step(self):
        self._t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for w, g, s in self._segments():
            m, v = self._m[s], self._v[s]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self._t)
            vhat = v / (1 - b2**self._t)
            w -= self.lr * mhat / (np.sqrt(vhat) + eps)


def make_optimizer(name: str, params, lr: float):
    name = name.lower()
    if name == "sgd":
        return SGD(params, lr)
    if name == "adam":
        return Adam(params, lr)
    raise ValueError(f"unknown optimizer {name!r} (want sgd or adam)")
