"""Layers for training weak binary networks.

Binary conv/fc layers keep real-valued shadow weights; a layer with 1-bit
weights multiplies sign(W) by its per-filter scale, the mean |W| of the
shadow weights, computed from them on every forward (XNOR-Net), so no
cached state can go stale. Every precision runs one forward product in
float BLAS; for +/-1 inputs and weights it is the exact integer product
times the scale, equal bit for bit to the packed XNOR kernels, which only
the kernel-exactness checks run: export packs sign bits, and reload
unpacks them into this dense path. Gradients reach the shadow weights
straight through. fc/conv and binact/quantact quantize activations in one
step (``_Quantizer``) and backpropagate with its |x| <= 1 straight-through
mask. Conv and pooling read one padded window view per call
(``bitcore._windows``) and send gradients back through one scatter-add
(``_scatter_windows``) that reads each window offset's gradient in
(i, j) order from an iterator; a lone offset (kernel 1, stride 1) covers
the whole padded input, so its gradient passes through as dx.

Memory and time go to full-size activations, so layers avoid copies that
change no value: max pooling folds ``np.maximum`` over the window offsets
instead of reducing a gathered copy of the windows; batchnorm writes each
full-size step of its formulas into a buffer it already holds. Conv never
holds its whole patch matrix (k*k times its input's size): no temporary
holds more than ``_PATCH_VALUES`` (2**20, 4 MB of float32) patch values,
or one image's or one window offset's when that is more. Both directions
copy their patch blocks out of one window view of the padded input. Its
forward runs the product one block of whole images at a time into one
output, then scales and biases it once. Its backward is a generator over
blocks of window offsets (whole kernel rows, or part of one): each block's
patch columns give its weight-gradient columns and are freed, then its
column gradient yields its offsets to the scatter. A 1x1, stride-1,
unpadded conv's patch matrix is a view of its input and one block, whose
column gradient is dx. No
float operation or its order differs from the plain formulas, though BLAS
may sum a narrower GEMM in another order: that can move the last bits of
a weight gradient or of a float conv's output, never a +/-1 product, whose
sums are exact.

A forward keeps only what its backward reads (the names in ``_kept``), in
the narrowest exact form: every sub-32-bit quantizing forward keeps a bool
|x| <= 1 mask, not a float copy of ``x``, and fc/conv their quantized
input; dropout keeps a bool mask. ``Network.backward`` drops each layer's
share once that layer's backward has read it, and a ``keep=False`` forward
(``eval_logits``, so ``predict``) right after that layer's forward; such a
forward builds no mask or max-pool argmax at all. A training step's
backward stops at the lowest layer with parameters, which computes only
their gradients.

An eval ``keep=False`` forward folds the relu/batchnorm/dropout/maxpool
layers between a +/-1 x +/-1 product and the next 1-bit quantizer into
one step per channel (``_WeightedLayer.sign_steps``), exactly: the product
s is an integer in [-F, F], so running the layers' own float ops on a
probe of every such integer gives each channel's sign for every s. Each
op rounds monotonically and ``sign_binarize`` signs -0.0 and +0.0 alike,
so those signs form one step at a half-integer c: sign((s - c) * d), d =
+/-1. A max pool after relu (no batchnorm before it) commutes with the
non-decreasing map before it (scale mean |W| >= 0, bias, relu) and pools s.

Every 4-D activation and gradient is channel-last in memory: the logical
[*members, B, C, H, W] array holds NHWC memory, members outermost
(``channel_last``). Conv's product rows are pixels, so its output is a
free view in this layout and its backward reads ``dy`` as a free [rows, F]
matrix; a 1x1 conv's patch matrix is a view of its input. Elementwise
layers (relu, batchnorm, dropout, the pool folds) make outputs in their
input's memory order, so no product multiplies operands of mixed layout,
and batchnorm sums each channel over (B, H, W) in this memory order.
Dropout draws float32 uniforms in its input's memory order. An fc
flattens its input in (C, H, W) order and returns its input gradient in
C order, which for the NIN's [B, C, 1, 1] fc input is channel-last too.

A stack of K networks (``Network.stack``) gives every parameter, buffer
and activation a leading member axis. Each layer runs it through the same
code, indexing from the last axes, by broadcasting and per-slice
``matmul``, so every member's values equal its own network's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import bitcore
from ..errors import ShapeError


@dataclass
class ForwardContext:
    """Per-call forward switches.

    ``train`` enables dropout and batch-stat updates; ``bn_batch_stats``
    forces batchnorm to use batch statistics without updating running ones
    (used by the random-network robustness protocol); ``surrogate`` replaces
    every activation binarization/quantization by clipped identity so the
    straight-through gradient can be checked against finite differences;
    ``keep`` is False for a forward that no backward follows, whose layers
    then skip what only a backward reads (masks, max-pool argmaxes).
    """

    train: bool = False
    surrogate: bool = False
    bn_batch_stats: bool = False
    rng: np.random.Generator | list | None = None  # a list: one per stacked member
    keep: bool = True


class Param:
    """A trainable array with an optional gradient buffer."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad = None

    def add_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g + 0.0  # a fresh zeros + g, -0.0 included
        else:
            self.grad += g


def sign_binarize(x: np.ndarray) -> np.ndarray:
    """Elementwise deterministic binarization, Sign(0) = Sign(-0.0) = +1, in
    the input's float dtype (float32 for other input); ValueError on NaN or inf."""
    arr = np.asarray(x)
    # a finite sum means every element is finite; a finite array whose sum
    # overflows takes the elementwise check
    if not np.isfinite(np.add.reduce(arr, axis=None)) and not np.isfinite(arr).all():
        raise ValueError("non-finite input to binarization")
    dtype = arr.dtype if arr.dtype.kind == "f" else np.dtype(np.float32)
    # 2 * [x >= 0] - 1 is exact; np.where with scalar branches is ~7x slower on large arrays
    out = (arr >= 0) * dtype.type(2)
    out -= dtype.type(1)
    return out


def channel_last(x: np.ndarray) -> np.ndarray:
    """[..., C, H, W] ``x`` with NHWC memory; no copy if it already has it."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -3, -1)), -1, -3)


def _checked_bits(name: str, bits, k_bit_only: bool = False) -> int:
    """``bits`` as an int if it equals a precision the layers run: 1, 2..8 or
    32, only 2..8 with ``k_bit_only``; else ValueError."""
    if bits not in (range(2, 9) if k_bit_only else (1, *range(2, 9), 32)):
        rule = "2..8" if k_bit_only else "1, 2..8 or 32"
        raise ValueError(f"{name} must be {rule}, got {bits!r}")
    return int(bits)


def quantize_k_bit(x: np.ndarray, k: int) -> np.ndarray:
    """Uniform k-bit quantization of clip(x, -1, 1), round-half-up; idempotent."""
    levels = (1 << _checked_bits("k", k, k_bit_only=True)) - 1
    arr = np.asarray(x)
    dtype = arr.dtype if arr.dtype.kind == "f" else np.float32
    t = (np.clip(arr, -1.0, 1.0) + 1.0) / 2.0 * levels
    q = np.floor(t + 0.5)
    return (q / levels * 2.0 - 1.0).astype(dtype)


def _init_weights(shape, fan_in, rng, dtype, scheme):
    if scheme == "kaiming":
        bound = float(np.sqrt(6.0 / fan_in))
        return rng.uniform(-bound, bound, shape).astype(dtype)
    if scheme == "normal":
        return rng.standard_normal(shape).astype(dtype)
    if scheme == "zeros":
        return np.zeros(shape, dtype)
    raise ValueError(f"unknown init scheme {scheme!r}")


class Layer:
    kind = "layer"
    index = -1
    in_shape: tuple[int, ...] = ()
    _kept: tuple[str, ...] = ()  # what a forward keeps for backward

    def params(self) -> dict:
        return {}

    def buffers(self) -> dict:
        return {}

    def out_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x, ctx: ForwardContext):
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError

    def forget(self):
        """Drop what the last forward kept for backward (the names in ``_kept``)."""
        state = self.__dict__
        for key in self._kept:
            state.pop(key, None)


class _Quantizer(Layer):
    """A layer whose input is quantized to ``act_bits``: fc/conv, binact, quantact."""

    _kept = ("_ste",)

    def _quantize(self, x, ctx, steps=None):
        """``x`` at the activation precision: 32 bits pass through, the
        surrogate clips to [-1, 1], 1 bit takes the sign, 2..8 bits quantize
        uniformly. A folded +/-1 product ``x`` (``steps``, see
        ``_WeightedLayer.sign_steps``) takes its signs in place. A stack's
        shared input (a stride-0 member axis) is quantized once and broadcast.
        Below 32 bits, a forward that keeps anything keeps the bool |x| <= 1
        mask that the straight-through input gradient reads, not a float
        copy of ``x``."""
        self._ste = None
        if self.act_bits == 32:
            return x
        if steps is not None:  # sign((s - c) * d): s - c is never 0
            c, d = steps
            x -= c
            x *= d
            return np.copysign(x.dtype.type(1), x, out=x)
        src = x[0] if x.ndim and x.strides[0] == 0 else x
        if ctx.surrogate:
            xq = np.clip(src, -1.0, 1.0)
        else:
            xq = sign_binarize(src) if self.act_bits == 1 else quantize_k_bit(src, self.act_bits)
        if ctx.keep:
            self._ste = np.abs(src) <= 1.0  # broadcasts against a stack's gradient
        return xq if src is x else np.broadcast_to(xq, x.shape)

    def _input_grad(self, dxq):
        return dxq if self._ste is None else dxq * self._ste


class _WeightedLayer(_Quantizer):
    """Shared machinery for fc/conv: precision flags, shadow weights, scales."""

    _kept = ("_xq", "_ste", "_scale", "_wmat", "_signs_only")

    def __init__(self, shape, wbits, abits, bias, rng, dtype, init):
        self.weight_bits = _checked_bits("wbits", wbits)
        self.act_bits = _checked_bits("abits", abits)
        self.dtype = dtype
        self.w = Param(_init_weights(shape, math.prod(shape[1:]), rng, dtype, init))
        self.b = Param(np.zeros(shape[0], dtype)) if bias else None

    def params(self):
        out = {"w": self.w}
        if self.b is not None:
            out["b"] = self.b
        return out

    def _rows(self, arr):
        """``arr`` [*members, out, ...] (``w``'s shape) as [*members, out, fan_in]."""
        return arr.reshape(arr.shape[:1 - self._wdim] + (-1,))

    @property
    def scale(self) -> np.ndarray | None:
        """Per-filter scales of 1-bit weights, from the current shadow weights; else None."""
        return self.refresh() if self.weight_bits == 1 else None

    def refresh(self) -> np.ndarray:
        """Per-filter mean |W| of the shadow weights, in the layer dtype."""
        w2 = self._rows(self.w.value)
        # the float64 sum and divide of np.mean, without its wrapper
        total = np.add.reduce(np.abs(w2), axis=-1, dtype=np.float64)
        return (total / w2.shape[-1]).astype(self.dtype)

    def effective_weight(self, scale) -> np.ndarray:
        """The weights the product uses; 1-bit weights multiply by ``scale``."""
        if self.weight_bits == 32:
            return self.w.value
        if self.weight_bits == 1:
            shape = scale.shape + (1,) * (self.w.value.ndim - scale.ndim)
            return sign_binarize(self.w.value) * scale.reshape(shape)
        return quantize_k_bit(self.w.value, self.weight_bits)

    def _quantize(self, x, ctx, steps=None):
        """The product's input, also kept for the weight gradient."""
        self._xq = super()._quantize(x, ctx, steps)
        return self._xq

    def _weight_matrix(self, ctx):
        """The [*members, out, fan_in] matrix the forward product multiplies
        by: sign(W) alone for a +/-1 product, else the effective weights.
        Keeps it, and the scale, for backward."""
        self._scale = scale = self.scale
        w2 = self._rows(self.w.value)
        self._signs_only = self.weight_bits == 1 and self.act_bits == 1 and not ctx.surrogate
        # sums of +/-1 are exact integers in float32 while fan_in < 2**24,
        # so a +/-1 product equals the packed XNOR product times the scale
        self._wmat = sign_binarize(w2) if self._signs_only else self._rows(self.effective_weight(scale))
        return self._wmat

    def _scale_and_bias(self, y, scale):
        """The forward product ``y`` [*members, N, out] times ``scale`` (a
        +/-1 product's; None for others) plus the bias, in place."""
        if scale is not None:
            y *= scale[..., None, :]
        if self.b is not None:
            y += self.b.value[..., None, :]
        return y

    def _finish(self, y, raw):
        """The forward product ``y``, scaled and biased unless ``raw``."""
        return y if raw else self._scale_and_bias(y, self._scale if self._signs_only else None)

    def sign_steps(self, between, ctx, rows):
        """Per-channel (c, d), shaped against this layer's output, with which
        sign((s - c) * d) is the sign that the layers ``between`` and the next
        1-bit quantizer give this layer's integer +/-1 product s (the fold of
        the module notes), from a probe of every integer in [-F, F] (F the
        fan-in) through this layer's scale and bias, each layer's own eval
        ``forward`` (max pools commute and are skipped) and ``sign_binarize``.
        None where the probe would hold more than ``rows`` values per channel
        or holds a non-finite value: the layer path then runs, errors and all."""
        f = self._rows(self.w.value).shape[-1]
        if 2 * f + 1 > rows:
            return None
        lead, out = self.w.value.shape[:-self._wdim], self.w.value.shape[-self._wdim]
        probe = np.empty(lead + (2 * f + 1, out), self.dtype)
        probe[...] = np.arange(-f, f + 1)[:, None]
        v = self._scale_and_bias(probe, self.scale)
        for lay in between:
            if lay.kind != "maxpool":
                v = lay.forward(v, ctx)
                lay.forget()
        try:
            up = sign_binarize(v) > 0
        except ValueError:
            return None
        n = np.count_nonzero(up, axis=-2)  # +1 signs per channel
        d = 1 - 2 * (up[..., 0, :] & ~up[..., -1, :])  # -1 where the +1 signs lie below c
        shape = lead + (1, out) + (1,) * (self._wdim - 2)
        return ((d * (f + 0.5 - n)).astype(self.dtype).reshape(shape),
                d.astype(self.dtype).reshape(shape))

    def _backward_weight(self) -> np.ndarray:
        """The forward's effective weights as an [out, fan_in] matrix; the
        +/-1 product is scaled here, so eval forwards skip the scaling."""
        if self._signs_only:
            return self._wmat * self._scale[..., None]
        return self._wmat

    @property
    def pad_value(self) -> float:
        # binarized inputs pad with logical -1; float paths use zero padding
        return -1.0 if self.act_bits == 1 else 0.0


class Linear(_WeightedLayer):
    kind = "fc"
    _wdim = 2  # w is [out, in]
    _kept = _WeightedLayer._kept + ("_orig_shape",)

    def __init__(
        self,
        in_features,
        out,
        *,
        wbits=32,
        abits=32,
        bias=True,
        rng=None,
        dtype=np.float32,
        init="kaiming",
    ):
        super().__init__((out, in_features), wbits, abits, bias, rng, dtype, init)
        self.in_features = int(in_features)
        self.out_features = int(out)

    def out_shape(self, in_shape):
        return (self.out_features,)

    def forward(self, x, ctx, steps=None, raw=False):
        """The layer's output; ``steps`` sign a folded +/-1 product ``x``
        (``sign_steps``) and ``raw`` returns the unscaled, unbiased product."""
        self._orig_shape = x.shape
        xin = x.reshape(x.shape[:self.w.value.ndim - 1] + (-1,))
        xq = self._quantize(xin, ctx, steps)
        return self._finish(xq @ self._weight_matrix(ctx).swapaxes(-1, -2), raw)

    def backward(self, dy, input_grad=True):
        """The input gradient (None without ``input_grad``); accumulates the
        parameter gradients."""
        self.w.add_grad(dy.swapaxes(-1, -2) @ self._xq)
        if self.b is not None:
            self.b.add_grad(np.add.reduce(dy, axis=-2))
        if input_grad:
            return self._input_grad(dy @ self._backward_weight()).reshape(self._orig_shape)
        return None


# Patch values (4 MB of float32) that one conv block may hold. In a NIN-x0.5
# step at batch 32, blocks of 2 to 16 MB ran within noise of each other and
# ~10% faster than unbounded ones, and left the step's and a 32-row eval
# forward's traced peaks (72.5 and 40.9 MB) in conv 5, a 1x1 and one block;
# at 4 MB conv 10's own forward and backward peak at 14.7 MB, 51 unbounded.
_PATCH_VALUES = 1 << 20


def _scatter_windows(grads, in_shape, k, stride, padding, dtype):
    """Scatter-add window gradients back onto the unpadded [..., C, H, W]
    input in channel-last zeros; ``grads`` yields each window offset's
    channel-last [..., C, H', W'] gradient in (i, j) order. A lone offset
    (k = 1, stride 1) covers the padded input: its unpadded slice is dx, so
    an exact zero may keep the sign that adding it to +0.0 would drop."""
    *lead, c, h, w = in_shape
    p, s, grads = padding, stride, iter(grads)
    if k == 1 and s == 1:
        return next(grads)[..., p : p + h, p : p + w]
    ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    dx = np.moveaxis(np.zeros((*lead, h + 2 * p, w + 2 * p, c), dtype=dtype), -1, -3)
    for i in range(k):
        for j in range(k):
            # next(), not a loop over grads: no name or enumerate tuple holds
            # the gradient, which may view a block of several offsets, while
            # the next offset's is made
            dx[..., i : i + s * ho : s, j : j + s * wo : s] += next(grads)
    return dx[..., p : p + h, p : p + w]


class Conv2d(_WeightedLayer):
    kind = "conv"
    _wdim = 4  # w is [out, in, k, k]

    def __init__(
        self,
        in_channels,
        out,
        kernel,
        *,
        stride=1,
        pad=0,
        wbits=32,
        abits=32,
        bias=True,
        rng=None,
        dtype=np.float32,
        init="kaiming",
    ):
        super().__init__((out, in_channels, kernel, kernel), wbits, abits, bias, rng, dtype,
                         init)
        self.in_channels = int(in_channels)
        self.out_channels = int(out)
        self.kernel = int(kernel)
        self.stride = int(stride)
        self.padding = int(pad)

    def _rows(self, arr):
        """``arr`` [*members, F, C, k, k] as [*members, F, k*k*C], in the patch
        matrix's (k, k, C) column order."""
        return np.moveaxis(arr, -3, -1).reshape(arr.shape[:-3] + (-1,))

    def out_shape(self, in_shape):
        c, h, w = in_shape
        ho = bitcore._conv_out_size(h, self.kernel, self.stride, self.padding)
        wo = bitcore._conv_out_size(w, self.kernel, self.stride, self.padding)
        return (self.out_channels, ho, wo)

    def _windows(self, xq):
        """The padded input's windows as [*members, B, H', W', k, k, C], a view
        of the padded input (of ``xq`` itself when unpadded)."""
        return np.moveaxis(bitcore._windows(xq, self.kernel, self.stride, self.padding,
                                            self.pad_value), -5, -1)

    def forward(self, x, ctx, steps=None, raw=False):
        """As ``Linear.forward``."""
        xq = self._quantize(x, ctx, steps)
        k, s, p = self.kernel, self.stride, self.padding
        lead, b = x.shape[:-4], x.shape[-4]
        f, ho, wo = self.out_shape(x.shape[-3:])
        wt = self._weight_matrix(ctx).swapaxes(-1, -2)
        hw, win = ho * wo, self._windows(xq)
        # the product's rows are pixels: its [B, F, H', W'] view is channel-last
        y = np.empty(lead + (b * hw, f), np.result_type(xq, wt))
        # images per block; a 1x1, stride-1, unpadded conv's patch matrix is a
        # view of its channel-last input: it copies nothing, so it is one block
        per = (max(b, 1) if k == 1 and s == 1 and p == 0
               else max(1, _PATCH_VALUES // (math.prod(lead) * hw * wt.shape[-2])))
        for lo in range(0, b, per):
            cols = np.ascontiguousarray(win[..., lo : lo + per, :, :, :, :, :])
            np.matmul(cols.reshape(lead + (-1, wt.shape[-2])), wt,
                      out=y[..., lo * hw : (lo + per) * hw, :])
            del cols  # before the next block's is built
        y = self._finish(y, raw).reshape(lead + (b, ho, wo, f))
        return np.moveaxis(y, -1, -3)

    def backward(self, dy, input_grad=True):
        """As ``Linear.backward``."""
        *lead, b, f, ho, wo = dy.shape
        lead, k, c = tuple(lead), self.kernel, self.in_channels
        rows = b * ho * wo
        dy_cols = np.moveaxis(dy, -3, -1).reshape(lead + (rows, f))  # a view
        w_eff = self._backward_weight() if input_grad else None
        if self.b is not None:
            self.b.add_grad(np.add.reduce(dy, axis=(-4, -2, -1)))
        win = self._windows(self._xq)
        gw = np.empty(lead + (f, k * k * c), np.result_type(dy, self._xq))
        per = max(1, _PATCH_VALUES // (math.prod(lead) * rows * c))  # window offsets per block
        # a block is whole kernel rows or part of one, so its windows are one
        # basic slice and its weight-gradient columns one span
        if per >= k:
            plan = [(slice(i, i + per // k), slice(None)) for i in range(0, k, per // k)]
        else:
            plan = [(slice(i, i + 1), slice(j, j + per)) for i in range(k) for j in range(0, k, per)]

        def grads():
            # each block's patch columns (a view for a 1x1, stride-1, unpadded
            # conv) give its dW columns and go before its column gradient
            # [*members, B, H', W', offsets, C] yields its offsets and goes
            span = slice(0, 0)
            for ki, kj in plan:
                cols = win[..., ki, kj, :].reshape(lead + (rows, -1))
                span = slice(span.stop, span.stop + cols.shape[-1])
                np.matmul(dy_cols.swapaxes(-1, -2), cols, out=gw[..., span])
                del cols
                if not input_grad:
                    continue
                block = (dy_cols @ w_eff[..., span]).reshape(lead + (b, ho, wo, -1, c))
                for o in range(block.shape[-2]):
                    yield np.moveaxis(block[..., o, :], -1, -3)
                del block

        if input_grad:
            dxq = _scatter_windows(grads(), self._xq.shape, k, self.stride, self.padding,
                                   dy.dtype)
        else:
            dxq = next(grads(), None)  # runs the weight-gradient blocks, which yield nothing
        self.w.add_grad(np.moveaxis(gw.reshape(lead + (f, k, k, c)), -1, -3))
        if dxq is not None and self._ste is not None:
            dxq *= self._ste  # dx is this backward's own array
        return dxq


class BatchNorm(Layer):
    kind = "batchnorm"
    _kept = ("_xhat", "_inv", "_axes", "_batch_stats", "_n")

    def __init__(self, num_features, *, eps=1e-4, momentum=0.1, dtype=np.float32):
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.dtype = dtype
        self.gamma = Param(np.ones(num_features, dtype))
        self.beta = Param(np.zeros(num_features, dtype))
        self.running_mean = np.zeros(num_features, dtype)
        self.running_var = np.ones(num_features, dtype)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def _bshape(self, ndim):
        """[*members, 1, C, 1, ...]: per-feature values against [*members, B, C, ...]."""
        lead = self.gamma.value.shape[:-1]
        return lead + (1, self.num_features) + (1,) * (ndim - len(lead) - 2)

    def forward(self, x, ctx):
        lead = self.gamma.value.ndim - 1  # member axes before the batch axis
        axes = tuple(i for i in range(lead, x.ndim) if i != lead + 1)
        bs = self._bshape(x.ndim)
        n = x.size // self.gamma.value.size  # values per feature
        use_batch = ctx.train or ctx.bn_batch_stats
        if use_batch:
            # the steps of numpy's own mean and var, with one x - mean buffer
            # for both the variance and xhat
            mean = np.add.reduce(x, axis=axes, keepdims=True)
            np.true_divide(mean, np.intp(n), out=mean, casting="unsafe")
            xhat = np.subtract(x, mean)
            buf = np.square(xhat)
            var = np.add.reduce(buf, axis=axes)
            np.true_divide(var, np.intp(n), out=var, casting="unsafe")
            if ctx.train:
                unbiased = var * n / (n - 1) if n > 1 else var
                m = self.momentum
                self.running_mean = ((1 - m) * self.running_mean
                                     + m * mean.reshape(var.shape)).astype(self.dtype, copy=False)
                self.running_var = ((1 - m) * self.running_var
                                    + m * unbiased).astype(self.dtype, copy=False)
        else:
            var, buf = self.running_var, None
            xhat = np.subtract(x, self.running_mean.reshape(bs))
        inv = 1.0 / np.sqrt(var + self.eps)
        # (x - mean) * inv and gamma * xhat + beta in place; a buffer takes x's
        # memory layout, so later reductions sum in the same order
        xhat *= inv.reshape(bs)
        self._xhat, self._inv, self._axes = xhat, inv, axes
        self._batch_stats, self._n = use_batch, n
        y = np.multiply(self.gamma.value.reshape(bs), xhat, out=buf)
        y += self.beta.value.reshape(bs)
        return y

    def backward(self, dy, input_grad=True):
        """As ``Linear.backward``."""
        bs = self._bshape(dy.ndim)
        xhat, inv, axes = self._xhat, self._inv, self._axes
        prod = np.multiply(dy, xhat)
        self.gamma.add_grad(np.add.reduce(prod, axis=axes))
        self.beta.add_grad(np.add.reduce(dy, axis=axes))
        if not input_grad:
            return None
        dxhat = np.multiply(dy, self.gamma.value.reshape(bs))
        if not self._batch_stats:
            dxhat *= inv.reshape(bs)
            return dxhat
        n = self._n
        s1 = np.add.reduce(dxhat, axis=axes).reshape(bs)
        s2 = np.add.reduce(np.multiply(dxhat, xhat, out=prod), axis=axes).reshape(bs)
        # (inv / n) * (n * dxhat - s1 - xhat * s2), in two full-size buffers
        dxhat *= n
        dxhat -= s1
        dxhat -= np.multiply(xhat, s2, out=prod)
        dxhat *= inv.reshape(bs) / n
        return dxhat


class ReLU(Layer):
    kind = "relu"
    _kept = ("_mask",)

    def forward(self, x, ctx):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy):
        return dy * self._mask


class QuantAct(_Quantizer):
    """Standalone k-bit activation quantization with the straight-through gradient."""

    kind = "quantact"

    def __init__(self, bits):
        self.act_bits = _checked_bits("bits", bits, k_bit_only=True)

    def forward(self, x, ctx):
        return self._quantize(x, ctx)

    def backward(self, dy):
        return self._input_grad(dy)


class BinaryAct(QuantAct):
    """Standalone activation binarization with the straight-through gradient."""

    kind = "binact"

    def __init__(self):
        self.act_bits = 1


class _Pool(Layer):
    _kept = ("_in_shape",)

    def __init__(self, kernel, stride=None, pad=0):
        self.kernel = int(kernel)
        self.stride = int(stride) if stride is not None else int(kernel)
        self.padding = int(pad)

    def _out_hw(self, h, w):
        # floor semantics: ragged tail windows are dropped
        ho = (h + 2 * self.padding - self.kernel) // self.stride + 1
        wo = (w + 2 * self.padding - self.kernel) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ShapeError(f"pool kernel {self.kernel} exceeds padded input {h}x{w}")
        return ho, wo

    def out_shape(self, in_shape):
        c, h, w = in_shape
        ho, wo = self._out_hw(h, w)
        return (c, ho, wo)

    def _windows(self, x, pad_value):
        self._in_shape = x.shape  # for the backward scatter
        return bitcore._windows(x, self.kernel, self.stride, self.padding, pad_value)

    def _fold(self, win, op):
        """``op`` folded over the k*k window offsets in order, into a copy of
        the first in the input's layout, not a reduction of a gathered copy."""
        k = self.kernel
        m = win[..., 0, 0].copy(order="K")
        for off in range(1, k * k):
            op(m, win[..., off // k, off % k], out=m)
        return m

    def _scatter(self, grads, dtype):
        return _scatter_windows(grads, self._in_shape, self.kernel, self.stride, self.padding, dtype)


class MaxPool(_Pool):
    kind = "maxpool"
    _kept = _Pool._kept + ("_arg",)

    def forward(self, x, ctx):
        win = self._windows(x, pad_value=-np.inf)
        m = self._fold(win, np.maximum)
        if ctx.keep:
            self._arg = self._argmax(win, m)
        return m

    def _argmax(self, win, m):
        """argmax's choice for each window: the first offset holding its
        maximum ``m``, or its first NaN, found by walking the offsets in
        order with a mask of the windows not yet hit."""
        k, nan = self.kernel, np.isnan(m).any()
        arg = np.zeros_like(m, dtype=np.min_scalar_type(k * k - 1))
        free = np.ones_like(m, dtype=bool)
        for off in range(k * k):
            w = win[..., off // k, off % k]
            hit = w == m
            if nan:
                hit |= np.isnan(w)
            hit &= free
            free ^= hit
            arg += hit * arg.dtype.type(off)
        return arg

    def backward(self, dy):
        return self._scatter((dy * (self._arg == o) for o in range(self.kernel ** 2)), dy.dtype)


class AvgPool(_Pool):
    kind = "avgpool"

    def forward(self, x, ctx):
        # the divisor includes padding, matching the zero-pad convention
        m = self._fold(self._windows(x, pad_value=0.0), np.add)
        m /= self.kernel * self.kernel
        return m

    def backward(self, dy):
        share = dy / (self.kernel * self.kernel)
        return self._scatter((share for _ in range(self.kernel ** 2)), dy.dtype)


def _uniforms(rng, like):
    """float32 uniforms shaped like ``like``, drawn in its memory order: draw
    i lands on memory element i."""
    u = np.empty_like(like, dtype=np.float32)  # ``like``'s layout, dense
    rng.random(dtype=np.float32, out=u.ravel(order="K"))  # a view of u
    return u


class Dropout(Layer):
    kind = "dropout"
    _kept = ("_keep",)

    def __init__(self, p):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = float(p)

    def _scaled(self, x):
        """x * keep * 1 / (1 - p), the scale in x's dtype: the bits of
        x * (keep * scale), from the bool mask instead of a float one."""
        y = x * self._keep
        y *= x.dtype.type(1) / (1.0 - self.p)
        return y

    def forward(self, x, ctx):
        if not ctx.train or self.p == 0.0:
            self._keep = None
            return x
        if ctx.rng is None:
            raise ValueError("dropout in training mode needs an rng for determinism")
        if isinstance(ctx.rng, list):  # one stream per stacked member
            self._keep = np.stack([_uniforms(r, part) >= self.p for r, part in zip(ctx.rng, x)])
        else:
            self._keep = _uniforms(ctx.rng, x) >= self.p
        return self._scaled(x)

    def backward(self, dy):
        return dy if self._keep is None else self._scaled(dy)
