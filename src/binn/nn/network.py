"""Network assembly, forward/backward, and the softmax cross-entropy loss."""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalError, ShapeError
from . import layers as L
from .config import NetworkConfig


def _build_layer(spec, in_shape, rng, dtype, init):
    kind = spec.kind
    p = dict(spec.params)
    if kind == "conv":
        if len(in_shape) != 3:
            raise ShapeError(f"conv needs [C, H, W] input, got {in_shape}")
        return L.Conv2d(
            in_shape[0],
            p["out"],
            p["kernel"],
            stride=p["stride"],
            padding=p["pad"],
            weight_bits=p["wbits"],
            act_bits=p["abits"],
            bias=bool(p["bias"]),
            rng=rng,
            dtype=dtype,
            init=init,
        )
    if kind == "fc":
        return L.Linear(
            int(np.prod(in_shape)),
            p["out"],
            weight_bits=p["wbits"],
            act_bits=p["abits"],
            bias=bool(p["bias"]),
            rng=rng,
            dtype=dtype,
            init=init,
        )
    if kind == "batchnorm":
        return L.BatchNorm(in_shape[0], eps=p["eps"], momentum=p["momentum"], dtype=dtype)
    if kind == "relu":
        return L.ReLU()
    if kind == "binact":
        return L.BinaryAct()
    if kind == "quantact":
        return L.QuantAct(p["bits"])
    if kind == "maxpool":
        return L.MaxPool(p["kernel"], p["stride"], p["pad"])
    if kind == "avgpool":
        return L.AvgPool(p["kernel"], p["stride"], p["pad"])
    if kind == "dropout":
        return L.Dropout(p["p"])
    raise ShapeError(f"unknown layer kind {kind!r}")


class Network:
    """Sequential net instantiated from a NetworkConfig.

    Single-writer during training; an immutable snapshot may serve inference
    from any number of threads. ``Network.stack`` makes one network of K
    members (``stack_size``; None for one net) that train in lockstep: a
    [K, B, ...] input gives each its own batch, a [B, ...] one is shared.
    """

    def __init__(self, config: NetworkConfig, net_layers, dtype):
        self.config = config
        self.layers = net_layers
        self.dtype = dtype
        self.stack_size = None
        self._params = [p for lay in net_layers for p in lay.params().values()]

    @classmethod
    def from_config(cls, config: NetworkConfig, seed=0, *, dtype=np.float32, init="kaiming"):
        if isinstance(seed, np.random.Generator):
            rng = seed
        else:
            rng = np.random.default_rng(np.random.SeedSequence(seed))
        shape = tuple(config.input_shape)
        net_layers = []
        for i, spec in enumerate(config.layers):
            try:
                lay = _build_layer(spec, shape, rng, dtype, init)
                lay.index = i
                lay.in_shape = shape
                shape = lay.out_shape(shape)
            except (ShapeError, ValueError, ZeroDivisionError) as e:  # zero stride
                raise ShapeError(f"layer {i} ({spec.kind}): {e}") from None
            net_layers.append(lay)
        if shape != (config.classes,):
            raise ShapeError(
                f"network output shape {shape} != (classes,) = ({config.classes},)"
            )
        return cls(config, net_layers, dtype)

    # ------------------------------------------------------------- forward

    def forward(self, x, *, train=False, surrogate=False, bn_batch_stats=False,
                rng=None) -> np.ndarray:
        ctx = L.ForwardContext(
            train=train, surrogate=surrogate, bn_batch_stats=bn_batch_stats, rng=rng,
        )
        x = np.asarray(x, dtype=self.dtype)
        first = self.layers[0]  # from_config fixed every later layer's input shape
        if first.kind != "fc" and x.ndim >= 4:  # images, carried channel-last
            x = L.channel_last(x)
        lead = self.stack_size is not None
        if lead and x.shape[1:] == first.in_shape:  # one batch for every member
            x = np.broadcast_to(x, (self.stack_size,) + x.shape)
        body = x.shape[lead + 1:]
        if first.kind == "fc":
            if math.prod(body) != first.in_features:
                raise ShapeError(
                    f"layer 0 (fc): expected {first.in_features} features, got {body}"
                )
        elif body != first.in_shape:
            raise ShapeError(
                f"layer 0 ({first.kind}): expected input {first.in_shape}, got {body}"
            )
        for lay in self.layers:
            try:
                x = lay.forward(x, ctx)
            except ValueError:  # sign_binarize refuses non-finite values
                if np.isfinite(x).all() and all(
                        np.isfinite(p.value).all() for p in lay.params().values()):
                    raise
                raise NumericalError(f"non-finite values at the binarization in layer "
                                     f"{lay.index} ({lay.kind})") from None
        return x

    def predict(self, x) -> np.ndarray:
        """Argmax labels of ``eval_logits``, which keeps no layer inputs."""
        return eval_logits(self, x).argmax(axis=-1)

    def forget(self):
        """Drop what every layer kept from the last forward for backward."""
        for lay in self.layers:
            lay.forget()

    # ------------------------------------------------------------ backward

    def backward(self, dlogits) -> np.ndarray:
        """Accumulate parameter grads; returns the gradient w.r.t. the input.

        Each layer drops what its forward kept right after its backward has
        read it, and no per-layer input gradient outlives the layer below, so
        nothing from this step sits under the next forward."""
        dy = np.asarray(dlogits, dtype=self.dtype)
        for lay in reversed(self.layers):
            dy = lay.backward(dy)
            lay.forget()
        return dy

    # ---------------------------------------------------------- bookkeeping

    def parameters(self):
        return list(self._params)

    def zero_grad(self):
        for p in self._params:
            p.grad = None

    def clip_binary_shadows(self):
        """Clip shadow weights of sub-32-bit layers into [-1, 1]."""
        for lay in self.layers:
            if getattr(lay, "weight_bits", 32) < 32:
                np.clip(lay.w.value, -1.0, 1.0, out=lay.w.value)

    def binary_layers(self):
        return [l for l in self.layers if getattr(l, "weight_bits", 32) == 1]

    # --------------------------------------------------------------- state

    def _state(self):
        """(name, layer, shape, stored array) of every checkpointed item, in
        order: params, buffers, then a 1-bit layer's ``scale``, which is derived
        from the weights (one per filter) and so has no stored array (None)."""
        for lay in self.layers:
            stored = {k: p.value for k, p in lay.params().items()}
            stored.update(lay.buffers())
            for key, arr in stored.items():
                yield f"layer{lay.index:03d}.{key}", lay, arr.shape, arr
            if getattr(lay, "weight_bits", 32) == 1:
                yield f"layer{lay.index:03d}.scale", lay, lay.w.value.shape[:1], None

    def state_items(self):
        """Deterministically ordered (name, array) pairs for checkpointing."""
        return [(name, lay.scale if arr is None else arr) for name, lay, _, arr in self._state()]

    def load_state_items(self, items: dict):
        """Copy params and buffers in; a stored 1-bit ``scale`` is shape-checked
        but not read, since the forward derives it from the weights."""
        state = list(self._state())
        expected = {name for name, *_ in state}
        if set(items) != expected:
            missing = sorted(expected - set(items))
            extra = sorted(set(items) - expected)
            raise ShapeError(f"state mismatch; missing={missing} extra={extra}")
        for name, _, shape, _ in state:
            got = items[name]
            if not isinstance(got, np.ndarray) or got.shape != shape:
                raise ShapeError(f"{name}: expected an array of shape {shape}, got "
                                 f"{type(got).__name__} of shape {np.shape(got)}")
        for name, _, _, arr in state:
            if arr is not None:
                np.copyto(arr, items[name])

    def _arrays(self):
        """(holder, attribute) of every parameter value and buffer, in state order."""
        for lay in self.layers:
            yield from ((p, "value") for p in lay.params().values())
            yield from ((lay, key) for key in lay.buffers())

    def _copy(self, pick) -> "Network":
        dup = Network.from_config(self.config, seed=0, dtype=self.dtype, init="zeros")
        for (dst, d), (src, s) in zip(dup._arrays(), self._arrays()):
            np.copyto(getattr(dst, d), pick(getattr(src, s)))
        return dup

    def clone(self) -> "Network":
        return self._copy(lambda a: a)

    @classmethod
    def stack(cls, nets) -> "Network":
        """One network holding ``nets`` (one config) as members along a new
        leading axis of every parameter and buffer."""
        dup = cls.from_config(nets[0].config, seed=0, dtype=nets[0].dtype, init="zeros")
        for (obj, attr), *srcs in zip(dup._arrays(), *(n._arrays() for n in nets)):
            setattr(obj, attr, np.stack([getattr(o, a) for o, a in srcs]))
        dup.stack_size = len(nets)
        return dup

    def unstack(self) -> list:
        """The stacked members as separate networks."""
        return [self._copy(lambda a, k=k: a[k]) for k in range(self.stack_size)]


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def cross_entropy_grad(probs, labels):
    """Mean softmax cross-entropy over the batch (per member of a stack) and its logit gradient."""
    n = labels.shape[-1]
    w = np.full(n, 1.0 / n)  # 1/n weights, not .mean(), which rounds differently
    at = np.arange(labels.size), labels.reshape(-1)  # each row's label, over all members
    picked = probs.reshape(-1, probs.shape[-1])[at].reshape(labels.shape)
    loss = -np.add.reduce(w * np.log(np.maximum(picked, 1e-300)), axis=-1)
    dlogits = probs.copy()
    dlogits.reshape(-1, probs.shape[-1])[at] -= 1.0
    dlogits *= w[:, None]
    return loss, dlogits


EVAL_ROWS = 512  # rows per eval forward, which bounds its memory


def eval_logits(net: Network, images) -> np.ndarray:
    """Eval-mode logits ([K, N, C] for a stack), EVAL_ROWS rows per forward;
    each forward's layer inputs are dropped before the next."""
    chunks = []
    for lo in range(0, len(images), EVAL_ROWS):
        chunks.append(net.forward(images[lo : lo + EVAL_ROWS]))
        net.forget()
    return np.concatenate(chunks, axis=-2)


def accuracy(net: Network, images, labels) -> float:
    """Fraction of argmax hits (one per member for a stack)."""
    hits = eval_logits(net, images).argmax(axis=-1) == labels
    return np.count_nonzero(hits, axis=-1) / len(labels)
