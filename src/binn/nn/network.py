"""Network assembly, forward/backward, and the softmax cross-entropy loss."""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalError, ShapeError
from . import layers as L
from .config import NetworkConfig

_LAYERS = {cls.kind: cls for cls in (L.Conv2d, L.Linear, L.BatchNorm, L.ReLU, L.BinaryAct,
                                     L.QuantAct, L.MaxPool, L.AvgPool, L.Dropout)}


def _build_layer(spec, in_shape, rng, dtype, init):
    """The layer ``spec`` describes, on ``in_shape`` inputs. Each config key
    (``config._SCHEMAS``) is the keyword of its kind's layer class, so the
    params pass through as they are. Conv and batchnorm also take their input
    channels, fc its flattened input size, and conv and fc the rng, dtype and init."""
    cls, params = _LAYERS.get(spec.kind), dict(spec.params)
    if cls is None:
        raise ShapeError(f"unknown layer kind {spec.kind!r}")
    if spec.kind == "conv" and len(in_shape) != 3:
        raise ShapeError(f"conv needs [C, H, W] input, got {in_shape}")
    if spec.kind in ("conv", "fc"):
        size = in_shape[0] if spec.kind == "conv" else math.prod(in_shape)
        return cls(size, rng=rng, dtype=dtype, init=init, **params)
    if spec.kind == "batchnorm":
        return cls(in_shape[0], dtype=dtype, **params)
    return cls(**params)


def _fold_segments(net_layers) -> dict:
    """{i: j} for each segment a keep-nothing eval forward folds: layer i is a
    conv with a +/-1 x +/-1 product, layer j the next conv, with 1-bit
    activations, and each layer between is relu, batchnorm, dropout or a max
    pool whose windows each hold an input value (pad < kernel) and which no
    batchnorm precedes in the segment: the map before it (scale >= 0, bias,
    relu) is then non-decreasing, so the pool commutes with it and may pool
    the integer product. An fc ends the search: its data's ``batch`` values
    per channel, unlike a conv's batch * H * W, do not repay the probe's
    2F + 1 (README, "Notes on eval forwards")."""
    segments = {}
    for i, lay in enumerate(net_layers):
        if lay.kind != "conv" or not lay.weight_bits == lay.act_bits == 1:
            continue
        normed = False
        for j, nxt in enumerate(net_layers[i + 1:], i + 1):
            if nxt.kind == "conv" and nxt.act_bits == 1:
                segments[i] = j
            normed |= nxt.kind == "batchnorm"
            if nxt.kind not in ("relu", "batchnorm", "dropout", "maxpool") or (
                    nxt.kind == "maxpool" and (normed or nxt.padding >= nxt.kernel)):
                break
    return segments


class Network:
    """Sequential net instantiated from a NetworkConfig.

    Single-writer during training; an immutable snapshot may serve inference
    from any number of threads, as no forward reads what a layer keeps
    (``test_predict_from_two_threads_equals_one_thread``). ``Network.stack``
    makes one network of K members (``stack_size``; None for one net) that
    train in lockstep: a [K, B, ...] input gives each its own batch, a
    [B, ...] one is shared.
    """

    def __init__(self, config: NetworkConfig, net_layers, dtype):
        self.config = config
        self.layers = net_layers
        self.dtype = dtype
        self.stack_size = None
        self._params = [p for lay in net_layers for p in lay.params().values()]
        self._segments = _fold_segments(net_layers)

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
                rng=None, keep=True) -> np.ndarray:
        """The logits of ``x``. Each layer keeps what its backward reads; with
        ``keep=False`` it keeps nothing, so a forward that no backward
        follows holds no layer's input beyond the next layer.

        Such a forward in eval mode (not ``train``, ``surrogate`` or
        ``bn_batch_stats``) folds each conv-to-conv segment of
        ``_fold_segments``: its first conv hands over its integer +/-1
        product, max pools pool it, and the next conv signs it by the
        per-channel steps of ``Conv2d.sign_steps``, all found before the
        first layer runs (the probes read no data). A segment with no steps
        runs the layer path, and so does every fc: an MLP's eval is the plain
        relu/batchnorm/sign path."""
        ctx = L.ForwardContext(
            train=train, surrogate=surrogate, bn_batch_stats=bn_batch_stats, rng=rng, keep=keep,
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
        plan = [{} for _ in self.layers]  # each layer's keywords; None: folded away
        if not (keep or train or surrogate or bn_batch_stats):
            for i, end in self._segments.items():
                rows = x.shape[lead] * math.prod(self.layers[end].in_shape[1:])
                steps = self.layers[i].sign_steps(self.layers[i + 1 : end], ctx, rows)
                if steps is not None:
                    plan[i]["raw"], plan[end]["steps"] = True, steps
                    for j in range(i + 1, end):  # the max pools pool the product
                        if self.layers[j].kind != "maxpool":
                            plan[j] = None
        for lay, kw in zip(self.layers, plan):
            if kw is None:
                continue
            try:
                x = lay.forward(x, ctx, **kw)
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

    # ------------------------------------------------------------ backward

    def backward(self, dlogits, input_grad=True) -> np.ndarray | None:
        """Accumulate parameter grads; returns the gradient w.r.t. the input,
        or, without ``input_grad``, None: backward then stops at the lowest
        layer with parameters, which computes their gradients alone.

        Each layer drops what its forward kept right after its backward has
        read it, and no per-layer input gradient outlives the layer below, so
        nothing from this step sits under the next forward."""
        dy = np.asarray(dlogits, dtype=self.dtype)
        low = 0 if input_grad else next(
            (lay.index for lay in self.layers if lay.params()), len(self.layers))
        for lay in reversed(self.layers):
            if input_grad or lay.index > low:
                dy = lay.backward(dy)
            elif lay.index == low:
                dy = lay.backward(dy, input_grad=False)
            lay.forget()
        return dy if input_grad else None

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

    # --------------------------------------------------------------- state

    def _state(self):
        """(name, layer, holder, attribute) of every checkpointed item, in
        order: each param's ``value`` and each buffer, held as ``attribute``
        of ``holder``, then a 1-bit layer's ``scale``, which is derived from
        the weights (one per filter) and so has no holder (None). Checkpoints,
        loads, clones, stacks and unstacks all take this one walk."""
        for lay in self.layers:
            prefix = f"layer{lay.index:03d}"
            for key, p in lay.params().items():
                yield f"{prefix}.{key}", lay, p, "value"
            for key in lay.buffers():
                yield f"{prefix}.{key}", lay, lay, key
            if getattr(lay, "weight_bits", 32) == 1:
                yield f"{prefix}.scale", lay, None, "scale"

    def state_items(self):
        """Deterministically ordered (name, array) pairs for checkpointing."""
        return [(name, getattr(lay if holder is None else holder, attr))
                for name, lay, holder, attr in self._state()]

    def load_state_items(self, items: dict):
        """Copy params and buffers in; a stored 1-bit ``scale`` is shape-checked
        but not read, since the forward derives it from the weights."""
        state = list(self._state())
        expected = {name for name, *_ in state}
        if set(items) != expected:
            missing = sorted(expected - set(items))
            extra = sorted(set(items) - expected)
            raise ShapeError(f"state mismatch; missing={missing} extra={extra}")
        for name, lay, holder, attr in state:
            got = items[name]
            shape = lay.w.value.shape[:1] if holder is None else getattr(holder, attr).shape
            if not isinstance(got, np.ndarray) or got.shape != shape:
                raise ShapeError(f"{name}: expected an array of shape {shape}, got "
                                 f"{type(got).__name__} of shape {np.shape(got)}")
        for name, _, holder, attr in state:
            if holder is not None:
                np.copyto(getattr(holder, attr), items[name])

    @classmethod
    def _assemble(cls, nets, pick, stack_size=None) -> "Network":
        """A network of the ``nets``' one config and ``stack_size`` whose every
        param value and buffer is ``pick`` of theirs."""
        dup = cls.from_config(nets[0].config, seed=0, dtype=nets[0].dtype, init="zeros")
        for (_, _, holder, attr), *srcs in zip(dup._state(), *(n._state() for n in nets)):
            if holder is not None:
                setattr(holder, attr, pick(*[getattr(src, attr) for _, _, src, _ in srcs]))
        dup.stack_size = stack_size
        return dup

    def clone(self) -> "Network":
        return self._assemble([self], np.copy)

    @classmethod
    def stack(cls, nets) -> "Network":
        """One network holding ``nets`` (one config) as members along a new
        leading axis of every parameter and buffer."""
        return cls._assemble(nets, lambda *a: np.stack(a), len(nets))

    def unstack(self) -> list:
        """The stacked members as separate networks."""
        return [self._assemble([self], lambda a, k=k: a[k].copy()) for k in range(self.stack_size)]


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
    """Eval-mode logits ([K, N, C] for a stack), EVAL_ROWS rows per forward,
    each of which keeps nothing for backward."""
    chunks = [net.forward(images[lo : lo + EVAL_ROWS], keep=False)
              for lo in range(0, len(images), EVAL_ROWS)]
    if not chunks:  # no images: no rows
        lead = () if net.stack_size is None else (net.stack_size,)
        return np.zeros(lead + (0, net.config.classes), net.dtype)
    return np.concatenate(chunks, axis=-2)


def accuracy(net: Network, images, labels) -> float:
    """Fraction of argmax hits (one per member for a stack)."""
    hits = eval_logits(net, images).argmax(axis=-1) == labels
    return np.count_nonzero(hits, axis=-1) / len(labels)
