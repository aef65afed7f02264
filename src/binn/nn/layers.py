"""Layers for training weak binary networks.

Binary conv/fc layers keep real-valued shadow weights; a layer with 1-bit
weights multiplies sign(W) by its per-filter scale, the mean |W| of the
shadow weights, computed from them on every forward (XNOR-Net), so no
cached state can go stale. Every precision runs one forward product in
float BLAS; for +/-1 inputs and weights it is the exact integer product
times the scale, equal bit for bit to the packed XNOR kernels, which serve
export and packed reload. Gradients reach the shadow weights straight
through; activation binarization backpropagates with the |x| <= 1
straight-through mask. Conv and pooling read one padded window view
(``bitcore._windows``) and send gradients back through one scatter-add
over the window offsets (``_scatter_windows``).

Memory and time go to full-size activations, so layers avoid copies that
change no value: max pooling folds ``np.maximum`` over the window offsets
instead of reducing a gathered copy of the windows; batchnorm writes each
full-size step of its formulas into a buffer it already holds; conv
rebuilds its patch matrix in backward rather than keeping it from forward
(k*k times the input's size, held until the backward). No float operation
or its order differs from the plain formulas.
"""

from __future__ import annotations

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
    straight-through gradient can be checked against finite differences.
    """

    train: bool = False
    surrogate: bool = False
    bn_batch_stats: bool = False
    rng: np.random.Generator | None = None


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


def ste_backward(upstream_grad: np.ndarray, x_at_forward: np.ndarray) -> np.ndarray:
    """Straight-through gradient: pass upstream where |x| <= 1, else zero."""
    up = np.asarray(upstream_grad)
    x = np.asarray(x_at_forward)
    if up.shape != x.shape:
        raise ShapeError(f"gradient shape {up.shape} != activation shape {x.shape}")
    return up * (np.abs(x) <= 1.0)


def quantize_k_bit(x: np.ndarray, k: int) -> np.ndarray:
    """Uniform k-bit quantization of clip(x, -1, 1), round-half-up; idempotent."""
    if not 2 <= int(k) <= 8:
        raise ValueError(f"k must be in 2..8, got {k}")
    arr = np.asarray(x)
    dtype = arr.dtype if arr.dtype.kind == "f" else np.float32
    levels = (1 << int(k)) - 1
    t = (np.clip(arr, -1.0, 1.0) + 1.0) / 2.0 * levels
    q = np.floor(t + 0.5)
    return (q / levels * 2.0 - 1.0).astype(dtype)


def quantize_activation(x: np.ndarray, bits: int, surrogate: bool) -> np.ndarray:
    """Forward activation precision: 32 bits pass through, the surrogate
    clips to [-1, 1], 1 bit takes the sign, 2..8 bits quantize uniformly."""
    if bits == 32:
        return x
    if surrogate:
        return np.clip(x, -1.0, 1.0)
    if bits == 1:
        return sign_binarize(x)
    return quantize_k_bit(x, bits)


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


class _WeightedLayer(Layer):
    """Shared machinery for fc/conv: precision flags, shadow weights, scales."""

    def __init__(self, weight_bits, act_bits, dtype):
        if weight_bits != 32 and weight_bits != 1 and not 2 <= weight_bits <= 8:
            raise ValueError(f"weight_bits must be 1, 2..8 or 32, got {weight_bits}")
        if act_bits != 32 and act_bits != 1 and not 2 <= act_bits <= 8:
            raise ValueError(f"act_bits must be 1, 2..8 or 32, got {act_bits}")
        self.weight_bits = int(weight_bits)
        self.act_bits = int(act_bits)
        self.dtype = dtype

    def params(self):
        out = {"w": self.w}
        if self.b is not None:
            out["b"] = self.b
        return out

    @property
    def fan_in(self) -> int:
        return int(self.w.value[0].size)

    @property
    def scale(self) -> np.ndarray | None:
        """Per-filter scales of 1-bit weights, from the current shadow weights; else None."""
        return self.refresh() if self.weight_bits == 1 else None

    def refresh(self) -> np.ndarray:
        """Per-filter mean |W| of the shadow weights, in the layer dtype."""
        w2 = self.w.value.reshape(self.w.value.shape[0], -1)
        # the float64 sum and divide of np.mean, without its wrapper
        total = np.add.reduce(np.abs(w2), axis=1, dtype=np.float64)
        return (total / w2.shape[1]).astype(self.dtype)

    @property
    def packed_weights(self) -> bitcore.PackedBitTensor:
        """Sign bits of the shadow weights, packed for export and the XNOR kernels."""
        return bitcore.pack(self.w.value)

    def effective_weight(self, scale) -> np.ndarray:
        """The weights the product uses; 1-bit weights multiply by ``scale``."""
        if self.weight_bits == 32:
            return self.w.value
        if self.weight_bits == 1:
            shape = (-1,) + (1,) * (self.w.value.ndim - 1)
            return sign_binarize(self.w.value) * scale.reshape(shape)
        return quantize_k_bit(self.w.value, self.weight_bits)

    def _product(self, cols, ctx):
        """Input rows [N, fan_in] times the effective weights, plus bias: [N, out].

        Keeps the weight matrix it multiplied by, and the scale, for backward."""
        self._scale = scale = self.scale
        w2 = self.w.value.reshape(self.w.value.shape[0], -1)
        self._signs_only = self.weight_bits == 1 and self.act_bits == 1 and not ctx.surrogate
        if self._signs_only:
            # sums of +/-1 are exact integers in float32 while fan_in < 2**24,
            # so this equals the packed XNOR product times the scale
            self._wmat = sign_binarize(w2)
            y = cols @ self._wmat.T
            y *= scale
        else:
            self._wmat = self.effective_weight(scale).reshape(w2.shape)
            y = cols @ self._wmat.T
        if self.b is not None:
            y += self.b.value
        return y

    def _backward_weight(self) -> np.ndarray:
        """The forward's effective weights as an [out, fan_in] matrix; the
        +/-1 product is scaled here, so eval forwards skip the scaling."""
        if self._signs_only:
            return self._wmat * self._scale.reshape(-1, 1)
        return self._wmat

    @property
    def pad_value(self) -> float:
        # binarized inputs pad with logical -1; float paths use zero padding
        return -1.0 if self.act_bits == 1 else 0.0


class Linear(_WeightedLayer):
    kind = "fc"

    def __init__(
        self,
        in_features,
        out_features,
        *,
        weight_bits=32,
        act_bits=32,
        bias=True,
        rng=None,
        dtype=np.float32,
        init="kaiming",
    ):
        super().__init__(weight_bits, act_bits, dtype)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.w = Param(_init_weights((out_features, in_features), in_features, rng, dtype, init))
        self.b = Param(np.zeros(out_features, dtype)) if bias else None

    def out_shape(self, in_shape):
        return (self.out_features,)

    def forward(self, x, ctx):
        self._orig_shape = x.shape
        xin = x.reshape(x.shape[0], -1)
        xq = quantize_activation(xin, self.act_bits, ctx.surrogate)
        self._xin, self._xq = xin, xq
        return self._product(xq, ctx)

    def backward(self, dy):
        w_eff = self._backward_weight()
        self.w.add_grad(dy.T @ self._xq)
        if self.b is not None:
            self.b.add_grad(dy.sum(axis=0))
        dxq = dy @ w_eff
        dx = dxq if self.act_bits == 32 else ste_backward(dxq, self._xin)
        return dx.reshape(self._orig_shape)


def _scatter_windows(grad_at, in_shape, k, stride, padding, dtype):
    """Scatter-add window gradients back onto the unpadded [B, C, H, W] input;
    ``grad_at(i, j)`` is the [B, C, H', W'] gradient at window offset (i, j)."""
    b, c, h, w = in_shape
    p, s = padding, stride
    dx = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=dtype)
    for i in range(k):
        for j in range(k):
            g = grad_at(i, j)
            dx[:, :, i : i + s * g.shape[2] : s, j : j + s * g.shape[3] : s] += g
    return dx[:, :, p : p + h, p : p + w]


class Conv2d(_WeightedLayer):
    kind = "conv"

    def __init__(
        self,
        in_channels,
        out_channels,
        kernel,
        *,
        stride=1,
        padding=0,
        weight_bits=32,
        act_bits=32,
        bias=True,
        rng=None,
        dtype=np.float32,
        init="kaiming",
    ):
        super().__init__(weight_bits, act_bits, dtype)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel = int(kernel)
        self.stride = int(stride)
        self.padding = int(padding)
        fan_in = in_channels * kernel * kernel
        self.w = Param(
            _init_weights((out_channels, in_channels, kernel, kernel), fan_in, rng, dtype, init)
        )
        self.b = Param(np.zeros(out_channels, dtype)) if bias else None

    def out_shape(self, in_shape):
        c, h, w = in_shape
        ho = bitcore._conv_out_size(h, self.kernel, self.stride, self.padding)
        wo = bitcore._conv_out_size(w, self.kernel, self.stride, self.padding)
        return (self.out_channels, ho, wo)

    def forward(self, x, ctx):
        xq = quantize_activation(x, self.act_bits, ctx.surrogate)
        self._xin, self._xq = x, xq
        cols, ho, wo = bitcore._im2col(xq, self.kernel, self.stride, self.padding, self.pad_value)
        # the [B, F, H', W'] view of the product, not a contiguous copy: batchnorm
        # reduces in memory order, so the layout fixes its rounding
        y = self._product(cols, ctx).reshape(x.shape[0], ho, wo, self.out_channels)
        return y.transpose(0, 3, 1, 2)

    def backward(self, dy):
        b, f, ho, wo = dy.shape
        k = self.kernel
        dy_cols = dy.transpose(0, 2, 3, 1).reshape(b * ho * wo, f)
        # the patch matrix is rebuilt here and freed at once, not kept from forward
        cols = bitcore._im2col(self._xq, k, self.stride, self.padding, self.pad_value)[0]
        self.w.add_grad((dy_cols.T @ cols).reshape(self.w.value.shape))
        del cols
        w_eff = self._backward_weight()
        if self.b is not None:
            self.b.add_grad(dy.sum(axis=(0, 2, 3)))
        # the column gradient as [C, k, k, B, H', W']: each offset's slice is
        # contiguous in H' and W', so the scatter-adds read it in order
        d6 = (w_eff.T @ dy_cols.T).reshape(-1, k, k, b, ho, wo)
        dxq = _scatter_windows(lambda i, j: d6[:, i, j].swapaxes(0, 1), self._xin.shape, k,
                               self.stride, self.padding, dy.dtype)
        return dxq if self.act_bits == 32 else ste_backward(dxq, self._xin)


class BatchNorm(Layer):
    kind = "batchnorm"

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
        return (1, self.num_features) + (1,) * (ndim - 2)

    def forward(self, x, ctx):
        axes = tuple(i for i in range(x.ndim) if i != 1)
        use_batch = ctx.train or ctx.bn_batch_stats
        if use_batch:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, mean=mean)  # np.var's own mean, computed once
            mean = mean.reshape(self.num_features)
            if ctx.train:
                n = x.size // self.num_features
                unbiased = var * n / (n - 1) if n > 1 else var
                m = self.momentum
                self.running_mean = ((1 - m) * self.running_mean + m * mean).astype(self.dtype)
                self.running_var = ((1 - m) * self.running_var + m * unbiased).astype(self.dtype)
        else:
            mean, var = self.running_mean, self.running_var
        bs = self._bshape(x.ndim)
        inv = 1.0 / np.sqrt(var + self.eps)
        # (x - mean) * inv and gamma * xhat + beta in one full-size buffer each;
        # a buffer takes x's memory layout, so later reductions sum in the same order
        xhat = np.subtract(x, mean.reshape(bs))
        xhat *= inv.reshape(bs)
        self._xhat, self._inv, self._axes = xhat, inv, axes
        self._batch_stats = use_batch
        self._n = x.size // self.num_features
        y = np.multiply(self.gamma.value.reshape(bs), xhat)
        y += self.beta.value.reshape(bs)
        return y

    def backward(self, dy):
        bs = self._bshape(dy.ndim)
        xhat, inv, axes = self._xhat, self._inv, self._axes
        prod = np.multiply(dy, xhat)
        self.gamma.add_grad(prod.sum(axis=axes))
        self.beta.add_grad(dy.sum(axis=axes))
        dxhat = np.multiply(dy, self.gamma.value.reshape(bs))
        if not self._batch_stats:
            dxhat *= inv.reshape(bs)
            return dxhat
        n = self._n
        s1 = dxhat.sum(axis=axes).reshape(bs)
        s2 = np.multiply(dxhat, xhat, out=prod).sum(axis=axes).reshape(bs)
        # (inv / n) * (n * dxhat - s1 - xhat * s2), in two full-size buffers
        dxhat *= n
        dxhat -= s1
        dxhat -= np.multiply(xhat, s2, out=prod)
        dxhat *= inv.reshape(bs) / n
        return dxhat


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, ctx):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy):
        return dy * self._mask


class QuantAct(Layer):
    """Standalone k-bit activation quantization with the straight-through gradient."""

    kind = "quantact"

    def __init__(self, bits):
        if not 2 <= int(bits) <= 8:
            raise ValueError(f"quantact bits must be 2..8, got {bits}")
        self.bits = int(bits)

    def forward(self, x, ctx):
        self._xin = x
        return quantize_activation(x, self.bits, ctx.surrogate)

    def backward(self, dy):
        return ste_backward(dy, self._xin)


class BinaryAct(QuantAct):
    """Standalone activation binarization with the straight-through gradient."""

    kind = "binact"

    def __init__(self):
        self.bits = 1


class _Pool(Layer):
    def __init__(self, kernel, stride=None, padding=0):
        self.kernel = int(kernel)
        self.stride = int(stride) if stride is not None else int(kernel)
        self.padding = int(padding)

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

    def _scatter(self, grad_at, dtype):
        return _scatter_windows(grad_at, self._in_shape, self.kernel, self.stride, self.padding, dtype)


class MaxPool(_Pool):
    kind = "maxpool"

    def forward(self, x, ctx):
        win = self._windows(x, pad_value=-np.inf)
        k = self.kernel
        # fold the window offsets instead of reducing a gathered copy of the windows
        m = win[..., 0, 0].copy()
        for off in range(1, k * k):
            np.maximum(m, win[..., off // k, off % k], out=m)
        # argmax's choice: the first offset holding the maximum, or the first NaN
        nan = np.isnan(m).any()
        arg = np.zeros(m.shape, np.min_scalar_type(k * k - 1))
        for off in reversed(range(k * k)):
            w = win[..., off // k, off % k]
            np.copyto(arg, off, where=((w == m) | np.isnan(w)) if nan else w == m)
        self._arg = arg
        return m

    def backward(self, dy):
        k = self.kernel
        return self._scatter(lambda i, j: dy * (self._arg == (i * k + j)), dy.dtype)


class AvgPool(_Pool):
    kind = "avgpool"

    def forward(self, x, ctx):
        win = self._windows(x, pad_value=0.0)
        # divisor includes padding, matching the zero-pad convention
        return win.mean(axis=(-2, -1))

    def backward(self, dy):
        share = dy / (self.kernel * self.kernel)
        return self._scatter(lambda i, j: share, dy.dtype)


class Dropout(Layer):
    kind = "dropout"

    def __init__(self, p):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = float(p)

    def forward(self, x, ctx):
        if not ctx.train or self.p == 0.0:
            self._scaled_mask = None
            return x
        if ctx.rng is None:
            raise ValueError("dropout in training mode needs an rng for determinism")
        # the bool keep mask times 1 / (1 - p) in the input dtype: one operator
        scale = x.dtype.type(1) / (1.0 - self.p)
        self._scaled_mask = (ctx.rng.random(x.shape) >= self.p) * scale
        return x * self._scaled_mask

    def backward(self, dy):
        if self._scaled_mask is None:
            return dy
        return dy * self._scaled_mask

