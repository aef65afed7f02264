import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from binn import bitcore
from binn import nn
from binn.nn import layers
from binn.nn.layers import (AvgPool, BatchNorm, Dropout, ForwardContext, MaxPool,
                            _scatter_windows, channel_last, sign_binarize)


CTX = ForwardContext()
CTX_TRAIN = ForwardContext(train=True, rng=np.random.default_rng(0))


# ----------------------------------------------------------- sign / STE


def test_binarize_forward_examples():
    assert nn.sign_binarize(np.array([0.3, -0.7, 0.0])).tolist() == [1, -1, 1]
    assert (nn.sign_binarize(-np.abs(np.random.default_rng(0).standard_normal(50)) - 0.1) == -1).all()


def test_binarize_matches_bitcore_roundtrip():
    x = np.random.default_rng(1).standard_normal(333).astype(np.float32)
    assert np.array_equal(nn.sign_binarize(x), bitcore.unpack(bitcore.pack(x)))


def test_binarize_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        nn.sign_binarize(np.array([1.0, np.nan]))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_binarize_edge_values():
    tiny = np.finfo(np.float32).smallest_subnormal
    x = np.array([0.0, -0.0, tiny, -tiny, 1.0, -1.0], dtype=np.float32)
    assert nn.sign_binarize(x).tolist() == [1, 1, 1, -1, 1, -1]
    big = np.full(8, 3e38, dtype=np.float32)  # finite, but the float32 sum overflows
    assert np.array_equal(nn.sign_binarize(big), np.ones(8, np.float32))
    assert np.array_equal(nn.sign_binarize(-big), -np.ones(8, np.float32))
    for bad in (np.nan, np.inf, -np.inf):
        for at in (0, 7):
            x = big.copy()
            x[at] = bad
            with pytest.raises(ValueError, match="non-finite"):
                nn.sign_binarize(x)


def _sign_elements(dtype):
    if dtype.kind != "f":
        return None
    fi = np.finfo(dtype)
    edges = [0.0, -0.0, float(fi.smallest_subnormal), -float(fi.smallest_subnormal),
             float(fi.max), -float(fi.max)]
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=fi.bits),
                     st.sampled_from(edges))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_binarize_property(data):
    dtype = np.dtype(data.draw(st.sampled_from(
        ["float16", "float32", "float64", "int8", "int64", "bool"])))
    shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6))
    x = data.draw(hnp.arrays(dtype, shape, elements=_sign_elements(dtype)))
    if dtype.kind == "f" and x.size and data.draw(st.booleans()):
        x.flat[data.draw(st.integers(0, x.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError, match="non-finite"):
            nn.sign_binarize(x)
        return
    out_dtype = dtype if dtype.kind == "f" else np.dtype(np.float32)
    got = nn.sign_binarize(x)
    assert got.dtype == out_dtype and got.shape == x.shape
    assert np.array_equal(got, np.where(x >= 0, 1, -1).astype(out_dtype))


def test_ste_backward_examples():
    lay, ctx = nn.BinaryAct(), nn.ForwardContext()
    lay.forward(np.array([0.5, 2.0, -1.0]), ctx)
    assert lay.backward(np.ones(3)).tolist() == [1.0, 0.0, 1.0]  # boundary |x| = 1 passes
    up = np.random.default_rng(2).standard_normal(10)
    lay.forward(np.zeros(10), ctx)
    assert np.array_equal(lay.backward(up), up)


# ---------------------------------------------------------------- quantize


def test_quantize_2bit_zero_rounds_half_up():
    # levels for k=2 are {-1, -1/3, 1/3, 1}; 0 is equidistant, half-up picks 1/3
    assert nn.quantize_k_bit(np.array([0.0]), 2)[0] == pytest.approx(1 / 3, abs=1e-7)


def test_quantize_levels_fixed_points():
    for k in (2, 3, 8):
        lv = np.arange(2**k) / (2**k - 1) * 2 - 1  # float64: exact fixed points
        assert np.array_equal(nn.quantize_k_bit(lv, k), lv)
        # in float32 the quantizer's own outputs are its fixed points
        q32 = nn.quantize_k_bit(lv.astype(np.float32), k)
        assert np.array_equal(nn.quantize_k_bit(q32, k), q32)


def test_quantize_8bit_error_bound():
    x = np.random.default_rng(3).uniform(-2, 2, 1000)
    q = nn.quantize_k_bit(x, 8)
    assert np.abs(q - np.clip(x, -1, 1)).max() <= 1 / (2**8 - 1) + 1e-12


def test_quantize_k_range():
    for k in (0, 1, 9):
        with pytest.raises(ValueError):
            nn.quantize_k_bit(np.zeros(3), k)


@pytest.mark.parametrize("bits", [0, 9, 16, 1.5, 8.9, "1"])
def test_precisions_outside_the_rule_are_refused(bits):
    for make in (lambda: nn.Linear(2, 2, wbits=bits), lambda: nn.Linear(2, 2, abits=bits),
                 lambda: nn.QuantAct(bits), lambda: nn.quantize_k_bit(np.zeros(3), bits)):
        with pytest.raises(ValueError, match="must be"):
            make()


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 8),
    st.lists(st.floats(-4, 4, allow_nan=False, width=32), min_size=1, max_size=64),
)
def test_quantize_idempotent_bit_exact(k, vals):
    x = np.asarray(vals, dtype=np.float32)
    q1 = nn.quantize_k_bit(x, k)
    q2 = nn.quantize_k_bit(q1, k)
    assert np.array_equal(q1.view(np.uint32), q2.view(np.uint32))


# ------------------------------------------------------ scaled binary layer


def _xnor_forward(lay, x):
    """A 1-bit layer on +/-1 input x through the packed XNOR kernels: the
    exact integer product times the layer's scale, plus its bias."""
    if isinstance(lay, nn.Linear):
        ints = bitcore.binary_gemm(bitcore.pack(lay.w.value), bitcore.pack(x.reshape(len(x), -1)))
        per_out = (-1,)
    else:
        ints = np.stack([bitcore.im2col_binary_conv(bitcore.pack(img), bitcore.pack(lay.w.value),
                                                    lay.stride, lay.padding) for img in x])
        per_out = (-1, 1, 1)
    y = ints.astype(lay.dtype) * lay.scale.reshape(per_out)
    if lay.b is not None:
        y = y + lay.b.value.reshape(per_out)
    return y


def test_scaled_binary_forward_tiny_example():
    rng = np.random.default_rng(0)
    lay = nn.Linear(3, 1, wbits=1, abits=1, bias=False, rng=rng)
    lay.w.value = np.array([[0.5, -1.5, 1.0]], dtype=np.float32)
    assert lay.scale[0] == pytest.approx(1.0)
    out = _xnor_forward(lay, np.ones((1, 3)))
    assert out.tolist() == [[1.0]]


def test_scaled_binary_forward_constant_weights():
    rng = np.random.default_rng(0)
    n, c = 16, 0.37
    lay = nn.Linear(n, 2, wbits=1, abits=1, bias=False, rng=rng)
    lay.w.value = np.full((2, n), c, dtype=np.float32)
    out = _xnor_forward(lay, np.ones((1, n)))
    assert np.allclose(out, c * n, rtol=1e-6)


def test_scaled_binary_matches_dense_oracle():
    rng = np.random.default_rng(4)
    lay = nn.Linear(64, 8, wbits=1, abits=1, bias=True, rng=rng)
    x = nn.sign_binarize(rng.standard_normal((5, 64)).astype(np.float32))
    got = _xnor_forward(lay, x)
    w_eff = nn.sign_binarize(lay.w.value) * lay.scale[:, None]
    want = x @ w_eff.T + lay.b.value
    assert np.abs(got - want).max() <= 1e-5 * max(1.0, np.abs(want).max())


def test_scaled_binary_conv_matches_dense_oracle():
    rng = np.random.default_rng(5)
    lay = nn.Conv2d(3, 4, 3, stride=1, pad=1, wbits=1, abits=1,
                    bias=False, rng=rng)
    x = nn.sign_binarize(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
    got = _xnor_forward(lay, x)
    # dense oracle: pad with -1, cross-correlate a*sign(w)
    w_eff = nn.sign_binarize(lay.w.value) * lay.scale[:, None, None, None]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-1.0)
    want = np.zeros_like(got)
    for b in range(2):
        for f in range(4):
            for i in range(6):
                for j in range(6):
                    want[b, f, i, j] = np.sum(xp[b, :, i : i + 3, j : j + 3] * w_eff[f])
    assert np.allclose(got, want, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("fan_in", [1, 63, 65, 200])
def test_linear_dense_product_equals_packed_kernel(fan_in, bias):
    rng = np.random.default_rng(fan_in)
    lay = nn.Linear(fan_in, 7, wbits=1, abits=1, bias=bias, rng=rng)
    if bias:
        lay.b.value = rng.standard_normal(7).astype(np.float32)
    x = nn.sign_binarize(rng.standard_normal((5, fan_in)).astype(np.float32))
    got = lay.forward(x, CTX)
    assert np.array_equal(got, _xnor_forward(lay, x))


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
@pytest.mark.parametrize("channels", [3, 8])  # fan-in 27 and 72, not multiples of 64
def test_conv_dense_product_equals_packed_kernel(channels, stride, padding, bias):
    rng = np.random.default_rng(channels + 10 * stride + 100 * padding)
    lay = nn.Conv2d(channels, 5, 3, stride=stride, pad=padding, wbits=1,
                    abits=1, bias=bias, rng=rng)
    if bias:
        lay.b.value = rng.standard_normal(5).astype(np.float32)
    x = nn.sign_binarize(rng.standard_normal((2, channels, 7, 7)).astype(np.float32))
    got = lay.forward(x, CTX)
    assert np.array_equal(got, _xnor_forward(lay, x))


def test_scale_invariant_exact_recompute():
    rng = np.random.default_rng(7)
    lay = nn.Conv2d(4, 6, 3, wbits=1, abits=1, rng=rng)
    f = lay.w.value[0].size
    recomputed = np.abs(lay.w.value.reshape(6, -1)).sum(axis=1, dtype=np.float64) / f
    assert np.allclose(lay.scale, recomputed, rtol=1e-6)
    assert bitcore.pack(lay.w.value) == bitcore.pack(nn.sign_binarize(lay.w.value))


@pytest.mark.parametrize("make, x_shape", [
    (lambda rng: nn.Linear(16, 3, wbits=1, abits=1, rng=rng), (5, 16)),
    (lambda rng: nn.Conv2d(3, 4, 3, pad=1, wbits=1, abits=1, rng=rng), (2, 3, 6, 6)),
], ids=["Linear", "Conv2d"])
def test_forward_follows_weights_written_in_place(make, x_shape):
    # the scale is a function of the shadow weights: a write into w.value,
    # with no other call, reaches the next forward
    rng = np.random.default_rng(8)
    lay = make(rng)
    lay.b.value = rng.standard_normal(lay.b.value.shape).astype(np.float32)
    x = rng.standard_normal(x_shape).astype(np.float32)
    lay.forward(x, CTX)
    lay.w.value *= 3.0
    oracle = copy.deepcopy(lay)
    oracle.weight_bits = 32
    alpha = np.abs(lay.w.value.reshape(len(lay.w.value), -1)).mean(axis=1)
    oracle.w.value = nn.sign_binarize(lay.w.value) * alpha.reshape(
        (-1,) + (1,) * (lay.w.value.ndim - 1)).astype(np.float32)
    assert np.allclose(lay.forward(x, CTX), oracle.forward(x, CTX), rtol=1e-5, atol=1e-5)


# ------------------------------------------------------------ batchnorm etc.


def test_batchnorm_eval_is_affine():
    bn = BatchNorm(4)
    bn.running_mean = np.array([1.0, -1.0, 0.0, 2.0], dtype=np.float32)
    bn.running_var = np.array([4.0, 1.0, 0.25, 9.0], dtype=np.float32)
    x = np.random.default_rng(8).standard_normal((10, 4)).astype(np.float32)
    y1 = bn.forward(x, CTX)
    y2 = bn.forward(2 * x - x, CTX)  # same input, affine determinism
    assert np.array_equal(y1, y2)
    # affine: f(ax + b*ones) relation holds per feature
    scale = bn.gamma.value / np.sqrt(bn.running_var + bn.eps)
    shift = bn.beta.value - bn.running_mean * scale
    assert np.allclose(y1, x * scale + shift, atol=1e-6)


def test_batchnorm_train_normalizes_and_tracks():
    bn = BatchNorm(3, momentum=0.1)
    rng = np.random.default_rng(9)
    x = (rng.standard_normal((200, 3)) * [2, 3, 4] + [1, -1, 5]).astype(np.float32)
    y = bn.forward(x, ForwardContext(train=True))
    assert np.allclose(y.mean(axis=0), 0, atol=1e-5)
    assert np.allclose(y.std(axis=0), 1, atol=1e-3)
    assert np.allclose(bn.running_mean, 0.1 * x.mean(axis=0), atol=1e-5)


def test_maxpool_matches_naive():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
    pool = MaxPool(3, 2, 1)
    y = pool.forward(x, CTX)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    for b in (0, 1):
        for c in range(3):
            for i in range(y.shape[2]):
                for j in range(y.shape[3]):
                    assert y[b, c, i, j] == xp[b, c, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3].max()


def _maxpool_oracle(x, k, s, p, dy):
    """Max pooling as a reshape of the windows, max and argmax over the last axis."""
    win = bitcore._windows(x, k, s, p, -np.inf)
    flat = win.reshape(win.shape[:4] + (-1,))
    arg = flat.argmax(axis=-1)
    dx = _scatter_windows((dy * (arg == o) for o in range(k * k)), x.shape, k, s, p, dy.dtype)
    return flat.max(axis=-1), dx


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_maxpool_bits_equal_reshape_argmax_oracle(data):
    dtype = np.dtype(data.draw(st.sampled_from(["float32", "float64"])))
    k = data.draw(st.integers(2, 3))
    s, p = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 1))
    shape = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)),
             data.draw(st.integers(k, 7)), data.draw(st.integers(k, 7)))
    # a few distinct values, so windows tie, plus signed zeros and -inf
    ties = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -np.inf])
    fi = np.finfo(dtype)
    anyf = st.floats(allow_nan=False, allow_infinity=False, width=fi.bits)
    x = data.draw(hnp.arrays(dtype, shape, elements=st.one_of(ties, anyf)))
    if data.draw(st.booleans()):
        x.flat[data.draw(st.integers(0, x.size - 1))] = np.nan
    pool = MaxPool(k, s, p)
    y = pool.forward(x, CTX)
    dy = data.draw(hnp.arrays(dtype, y.shape, elements=st.floats(-4, 4, width=fi.bits)))
    want_y, want_dx = _maxpool_oracle(x, k, s, p, dy)
    # bit-equal up to the sign of a zero maximum: among tied -0.0 and +0.0 the
    # fold keeps the last, while numpy's max reduction picks by its SIMD lane
    # order (the same for float32 windows of 4 and 9 on AVX-512, not for float64
    # windows of 9); adding +0.0 turns -0.0 into +0.0 and keeps every other bit
    assert y.dtype == dtype and (y + 0.0).tobytes() == (want_y + 0.0).tobytes()
    # a window holding a NaN gives a NaN output
    win_nan = np.isnan(bitcore._windows(x, k, s, p, -np.inf)).any(axis=(-2, -1))
    assert np.array_equal(np.isnan(y), win_nan)
    dx = pool.backward(dy)
    assert dx.shape == x.shape and dx.tobytes() == want_dx.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_maxpool_argmax_is_first_max_or_first_nan(data):
    # ties, NaNs and -inf values beside the -inf padding: np.argmax picks the
    # first maximum of each window, or its first NaN; an all -inf window
    # (padding included) picks offset 0
    k, s, p = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 2)), data.draw(st.integers(0, 1))
    shape = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)),
             data.draw(st.integers(k, 6)), data.draw(st.integers(k, 6)))
    values = st.sampled_from([0.0, 1.0, -1.0, 2.0, -np.inf, np.inf, np.nan])
    x = data.draw(hnp.arrays(np.float32, shape, elements=values))
    pool = MaxPool(k, s, p)
    pool.forward(layers.channel_last(x), CTX)
    win = bitcore._windows(x, k, s, p, -np.inf)
    in_shape, arg = pool._saved  # the record: the input shape and the argmax
    assert in_shape == x.shape
    assert np.array_equal(arg, win.reshape(win.shape[:4] + (-1,)).argmax(axis=-1))
    pool.forward(x, ForwardContext(keep=False))
    assert pool._saved is None  # a forward that keeps nothing finds no argmax


def test_avgpool_matches_naive_include_pad():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
    pool = AvgPool(3, 2, 1)
    y = pool.forward(x, CTX)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for c in (0, 1):
        for i in range(y.shape[2]):
            for j in range(y.shape[3]):
                want = xp[0, c, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3].mean()
                assert y[0, c, i, j] == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("pool", [MaxPool, AvgPool], ids=["max", "avg"])
def test_lone_offset_pool_backward_returns_dy(pool, padding):
    # a kernel-1, stride-1 pool's one window offset covers the whole padded
    # input, so dx is dy's unpadded slice, signed zeros too, in a fresh array
    rng = np.random.default_rng(13)
    lay = pool(1, 1, padding)
    x = channel_last(rng.standard_normal((2, 3, 5, 5)).astype(np.float32))
    y = lay.forward(x, CTX)
    dy = channel_last(rng.standard_normal(y.shape).astype(np.float32))
    dy[:, :, ::2, ::3] = -0.0
    dx = lay.backward(dy)
    inner = dy[..., padding : padding + 5, padding : padding + 5]
    assert dx.shape == x.shape and dx.tobytes() == inner.tobytes()
    assert not np.shares_memory(dx, dy)


_CONV_POOL_NET = """name: conv-pool-grad
input: 2x9x9
classes: 3
layer: conv out=4 kernel=3 stride=2 pad=1 wbits={bits} abits={bits} bias=1
layer: maxpool kernel=3 stride=2 pad=1
layer: avgpool kernel=3 stride=2 pad=1
layer: fc out=3 wbits={bits} abits={bits} bias=1
"""


@pytest.mark.parametrize("bits", [32, 1], ids=["DNN", "AB-surrogate"])
def test_conv_and_pool_backward_match_finite_differences(bits):
    # float64; the AB net runs its surrogate (clipped-identity activations,
    # fixed +/-scale weights), which is differentiable in x away from |x| = 1
    cfg = nn.parse_config(_CONV_POOL_NET.format(bits=bits))
    net = nn.Network.from_config(cfg, seed=21, dtype=np.float64)
    rng = np.random.default_rng(21)
    x = rng.uniform(-1.8, 1.8, (2, 2, 9, 9))
    x[np.abs(np.abs(x) - 1.0) < 1e-3] = 0.5
    r = rng.standard_normal((2, 3))  # loss = sum(logits * r)

    def loss():
        return float((net.forward(x, surrogate=True) * r).sum())

    loss()
    net.zero_grad()
    gx = net.backward(r)
    conv = net.layers[0]
    # input gradients cross every scatter; DNN conv weights are checked too
    targets = [(x, gx)] + ([(conv.w.value, conv.w.grad)] if bits == 32 else [])
    h = 1e-6
    for arr, grad in targets:
        fd = np.zeros_like(arr)
        for i in np.ndindex(arr.shape):
            old = arr[i]
            arr[i] = old + h
            up = loss()
            arr[i] = old - h
            fd[i] = (up - loss()) / (2 * h)
            arr[i] = old
        assert np.abs(grad).max() > 1e-3
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def _conv_reference(lay, x, dy):
    """Float64 output, weight gradient and input gradient of ``lay`` on ``x``
    for output gradient ``dy``, from einsums over the windows."""
    k, s, p = lay.kernel, lay.stride, lay.padding
    x64 = x.astype(np.float64)
    xq = sign_binarize(x64) if lay.act_bits == 1 else x64
    w = lay.effective_weight(lay.scale).astype(np.float64)  # [*members, F, C, k, k]
    win = bitcore._windows(xq, k, s, p, lay.pad_value)  # [*members, B, C, H', W', k, k]
    y = np.einsum("...bchwij,...fcij->...bfhw", win, w) + lay.b.value[..., None, :, None, None]
    gw = np.einsum("...bfhw,...bchwij->...fcij", dy, win)
    dwin = np.einsum("...bfhw,...fcij->...bchwij", dy, w)
    *lead, c, h, wd = x.shape
    ho, wo = y.shape[-2:]
    dpad = np.zeros((*lead, c, h + 2 * p, wd + 2 * p))
    for i in range(k):
        for j in range(k):
            dpad[..., i : i + s * ho : s, j : j + s * wo : s] += dwin[..., i, j]
    dx = dpad[..., p : p + h, p : p + wd]
    return y, gw, dx * (np.abs(x64) <= 1) if lay.act_bits == 1 else dx


@pytest.mark.parametrize("members", [None, 2], ids=["net", "stack"])
@pytest.mark.parametrize("kernel,stride,padding", [(5, 1, 2), (3, 2, 1), (1, 1, 0), (1, 1, 1)])
@pytest.mark.parametrize("bits", [1, 32], ids=["AB", "DNN"])
def test_conv_blocks_match_one_unbounded_block(monkeypatch, bits, kernel, stride, padding,
                                               members):
    # budgets of one image per forward block and one window offset per
    # backward block, of one kernel row per backward block, and one no conv
    # fills; +/-1 sums are exact, so the AB output and input gradient are
    # equal bit for bit, and every float sum matches a float64 reference
    lead = () if members is None else (members,)
    rng = np.random.default_rng(30)
    lay = nn.Conv2d(4, 5, kernel, stride=stride, pad=padding, wbits=bits,
                    abits=bits, rng=rng)
    lay.w.value = rng.uniform(-1, 1, lead + lay.w.value.shape).astype(np.float32)
    lay.b.value = rng.standard_normal(lead + (5,)).astype(np.float32)
    x = channel_last(rng.uniform(-1.5, 1.5, lead + (3, 4, 7, 7)).astype(np.float32))
    _, ho, wo = lay.out_shape((4, 7, 7))
    dy = channel_last(rng.standard_normal(lead + (3, 5, ho, wo)).astype(np.float32))
    offset_values = (members or 1) * 3 * ho * wo * 4
    runs = []
    for budget in (1, (kernel + 1) * offset_values, 1 << 40):
        monkeypatch.setattr(layers, "_PATCH_VALUES", budget)
        lay.w.grad = lay.b.grad = None
        y = lay.forward(x, CTX)
        runs.append((y, lay.backward(dy), lay.w.grad))
    y64, gw64, dx64 = _conv_reference(lay, x, dy)
    for y, dx, gw in runs:
        for got, want in ((y, y64), (dx, dx64), (gw, gw64)):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-4)
        if bits == 1:
            assert y.tobytes() == runs[-1][0].tobytes()
            assert dx.tobytes() == runs[-1][1].tobytes()


def test_dropout_train_eval():
    d = Dropout(0.5)
    x = np.ones((4, 100), dtype=np.float32)
    assert np.array_equal(d.forward(x, CTX), x)
    y = d.forward(x, ForwardContext(train=True, rng=np.random.default_rng(12)))
    kept = y[y > 0]
    assert np.allclose(kept, 2.0)  # inverted dropout scaling
    assert 0.3 < (y > 0).mean() < 0.7
    with pytest.raises(ValueError, match="rng"):
        d.forward(x, ForwardContext(train=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [0.5, 0.3, 0.1])
def test_dropout_mask_bits_equal_divided_keep_mask(dtype, p):
    # the keep mask is one float32 uniform per element, kept where it is >= p
    x = np.random.default_rng(14).standard_normal((8, 50)).astype(dtype)
    y = Dropout(p).forward(x, ForwardContext(train=True, rng=np.random.default_rng(15)))
    draws = np.random.default_rng(15).random(x.shape, dtype=np.float32)
    keep = (draws >= p).astype(dtype)
    want = x * (keep / (1.0 - p))
    assert y.dtype == dtype and y.tobytes() == want.tobytes()


@pytest.mark.parametrize("members", [None, 2])
def test_dropout_draw_i_lands_on_memory_element_i(members):
    # a channel-last [*members, B, C, H, W] input is [*members, B, H, W, C] in
    # memory; each member's stream fills its own block in that order
    lead = () if members is None else (members,)
    x = channel_last(np.random.default_rng(3).standard_normal(lead + (3, 5, 4, 6))
                     .astype(np.float32))
    rng = (np.random.default_rng(20) if members is None
           else [np.random.default_rng(20 + m) for m in range(members)])
    d = Dropout(0.4)
    y = d.forward(x, ForwardContext(train=True, rng=rng))
    (mask,) = d._saved  # the record: the bool keep mask
    for m, member in enumerate(mask if members else mask[None]):
        draws = np.random.default_rng(20 + m).random(member.size, dtype=np.float32)
        assert np.array_equal(np.moveaxis(member, -3, -1).reshape(-1), draws >= 0.4)
    for arr in (mask, y):  # the mask and the output keep the input's layout
        assert np.moveaxis(arr, -3, -1).flags.c_contiguous


def test_packed_path_equals_dense_path():
    rng = np.random.default_rng(13)
    lay = nn.Linear(70, 5, wbits=1, abits=1, rng=rng)
    x = rng.standard_normal((6, 70)).astype(np.float32)
    y_packed = lay.forward(x, CTX)
    xq = nn.sign_binarize(x)
    w_eff = lay.effective_weight(lay.scale)
    y_dense = xq @ w_eff.T + lay.b.value
    assert np.allclose(y_packed, y_dense, rtol=1e-5, atol=1e-5)
