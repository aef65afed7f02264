import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import binn
from binn import datio, nn
from binn.errors import NumericalError, ShapeError
from binn.nn import layer, layers, mlp_config, network, nin_config, parse_config, config_to_text
from binn.nn.config import _SCHEMAS, VARIANTS
from binn.nn.network import EVAL_ROWS, eval_logits


def toy_blobs_2class(n=400, seed=0, noise=0.25):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    centers = np.array([[-0.5, -0.5], [0.5, 0.5]])
    x = centers[labels] + rng.normal(0, noise, (n, 2))
    return np.clip(x, -1, 1).astype(np.float32), labels.astype(np.int64)


# -------------------------------------------------------------- forward


def test_zeroed_final_layer_gives_uniform():
    cfg = mlp_config((1, 1, 8), [16], 5, variant="DNN", batchnorm=False)
    net = nn.Network.from_config(cfg, seed=0)
    last = net.layers[-1]
    last.w.value[:] = 0
    last.b.value[:] = 0
    p = nn.softmax(net.forward(np.random.default_rng(0).standard_normal((3, 1, 1, 8))))
    assert np.allclose(p, 0.2, atol=1e-12)


def test_forward_deterministic_row_repeat():
    cfg = mlp_config((1, 8, 8), [32, 32], 4, variant="SB")
    net = nn.Network.from_config(cfg, seed=1)
    x = np.random.default_rng(1).uniform(-1, 1, (1, 1, 8, 8)).astype(np.float32)
    batch = np.repeat(x, 2, axis=0)
    p = nn.softmax(net.forward(batch))
    assert np.array_equal(p[0], p[1])
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)


def test_tiny_fixed_net_matches_dense_oracle():
    cfg = mlp_config((1, 1, 3), [2], 2, variant="DNN", batchnorm=False)
    net = nn.Network.from_config(cfg, seed=0)
    w1 = np.array([[1.0, -1.0, 0.5], [0.0, 2.0, -1.0]], dtype=np.float32)
    b1 = np.array([0.1, -0.2], dtype=np.float32)
    w2 = np.array([[1.0, 1.0], [-1.0, 0.5]], dtype=np.float32)
    b2 = np.zeros(2, dtype=np.float32)
    net.layers[0].w.value = w1
    net.layers[0].b.value = b1
    net.layers[2].w.value = w2
    net.layers[2].b.value = b2
    x = np.array([[[[0.5, -0.5, 1.0]]]], dtype=np.float32)
    h = np.maximum(x.reshape(1, 3) @ w1.T + b1, 0)
    logits = h @ w2.T + b2
    e = np.exp(logits - logits.max())
    want = e / e.sum()
    assert np.allclose(nn.softmax(net.forward(x)), want, atol=1e-6)


def test_shape_mismatch_names_layer_index():
    cfg = mlp_config((1, 8, 8), [16], 4, variant="SB")
    net = nn.Network.from_config(cfg, seed=0)
    with pytest.raises(ShapeError, match="layer 0"):
        net.forward(np.zeros((2, 1, 4, 4), dtype=np.float32))
    # an fc-first net takes any input with the right number of features
    x = np.random.default_rng(0).uniform(-1, 1, (3, 1, 8, 8)).astype(np.float32)
    assert np.array_equal(net.forward(x.reshape(3, 64)), net.forward(x))
    nin = nn.Network.from_config(nin_config(width_scale=0.25), seed=0)
    with pytest.raises(ShapeError, match="layer 0"):
        nin.forward(np.zeros((2, 3, 16, 16), dtype=np.float32))
    zero_stride = parse_config("name: z\ninput: 1x4x4\nclasses: 2\nlayer: maxpool kernel=2 stride=0\n")
    with pytest.raises(ShapeError, match="layer 0"):
        nn.Network.from_config(zero_stride)


# a non-default value for every config key, and the layer attribute it sets
_KEY_VALUES = {"out": 3, "kernel": 3, "stride": 2, "pad": 1, "wbits": 1, "abits": 4, "bias": 0,
               "eps": 0.5, "momentum": 0.25, "bits": 3, "p": 0.375}
_KEY_ATTRS = {"pad": "padding", "wbits": "weight_bits", "abits": "act_bits", "bits": "act_bits"}


@pytest.mark.parametrize("kind", sorted(_SCHEMAS))
def test_every_config_key_reaches_its_layer(kind):
    # each config key is the keyword of its kind's layer class, so no mapping can drift
    spec = layer(kind, **{name: _KEY_VALUES[name] for name, *_ in _SCHEMAS[kind]})
    lay = network._build_layer(spec, (2, 9, 9), np.random.default_rng(0), np.float32, "kaiming")
    assert lay.kind == kind
    out_attr = "out_channels" if kind == "conv" else "out_features"
    for name, value in spec.params:
        if name == "bias":
            assert lay.b is None
        else:
            assert getattr(lay, _KEY_ATTRS.get(name, out_attr if name == "out" else name)) == value


@pytest.mark.parametrize("line, message", [
    ("conv out=2 kernel=1 wbits=16", r"layer 0 \(conv\): wbits must be 1, 2..8 or 32, got 16"),
    ("fc out=2 abits=0", r"layer 0 \(fc\): abits must be 1, 2..8 or 32, got 0"),
    ("quantact bits=1", r"layer 0 \(quantact\): bits must be 2..8, got 1"),
])
def test_bad_width_names_its_config_key(line, message):
    cfg = parse_config(f"name: w\ninput: 1x2x2\nclasses: 2\nlayer: {line}\n")
    with pytest.raises(ShapeError, match=message):
        nn.Network.from_config(cfg)


def test_train_eval_toggle_only_bn_dropout():
    # without batchnorm or dropout, train and eval forwards are identical
    cfg = mlp_config((1, 1, 16), [32], 3, variant="SB", batchnorm=False)
    net = nn.Network.from_config(cfg, seed=3)
    x = np.random.default_rng(3).uniform(-1, 1, (8, 1, 1, 16)).astype(np.float32)
    same = net.forward(x, train=True, rng=np.random.default_rng(0))
    assert np.array_equal(net.forward(x), same)
    # with dropout, train mode differs while eval stays put
    cfg2 = mlp_config((1, 1, 16), [32], 3, variant="SB", batchnorm=False, dropout=0.5)
    net2 = nn.Network.from_config(cfg2, seed=3)
    e1 = net2.forward(x)
    assert np.array_equal(e1, net2.forward(x))
    t1 = net2.forward(x, train=True, rng=np.random.default_rng(0))
    assert not np.array_equal(e1, t1)


# ------------------------------------------------------------- STE checks


def build_ste_test_net(dtype=np.float64, seed=11):
    """Fixed 3-layer net with explicit binarizations for gradient checks."""
    text = """
name: ste-check
input: 1x1x6
classes: 3
layer: binact
layer: fc out=8 wbits=1 abits=32
layer: relu
layer: binact
layer: fc out=8 wbits=32 abits=1
layer: relu
layer: fc out=3 wbits=32 abits=32
"""
    cfg = parse_config(text)
    return nn.Network.from_config(cfg, seed=seed, dtype=dtype)


def surrogate_loss(net, x, y):
    logits = net.forward(x, surrogate=True)
    probs = nn.softmax(logits)
    loss, _ = nn.cross_entropy_grad(probs, y)
    return loss


def test_ste_gradient_matches_finite_differences_of_surrogate():
    net = build_ste_test_net()
    rng = np.random.default_rng(42)
    x = rng.uniform(-1.6, 1.6, (4, 1, 1, 6))
    y = rng.integers(0, 3, 4)
    logits = net.forward(x, surrogate=True)
    probs = nn.softmax(logits)
    loss, dlogits = nn.cross_entropy_grad(probs, y)
    net.zero_grad()
    gx = net.backward(dlogits)
    h = 1e-6
    fd = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        if abs(abs(old) - 1.0) < 10 * h:
            continue  # clip kink, derivative undefined there
        flat[i] = old + h
        lp = surrogate_loss(net, x, y)
        flat[i] = old - h
        lm = surrogate_loss(net, x, y)
        flat[i] = old
        fd.reshape(-1)[i] = (lp - lm) / (2 * h)
    mask = np.abs(np.abs(x) - 1.0) >= 10 * h
    assert np.allclose(gx[mask], fd[mask], atol=1e-4)


def test_ste_gradient_exactly_zero_outside_unit_interval():
    net = build_ste_test_net(dtype=np.float32)
    rng = np.random.default_rng(7)
    x = rng.uniform(-3, 3, (16, 1, 1, 6)).astype(np.float32)
    y = rng.integers(0, 3, 16)
    # walk the real binarized path by hand to see every layer's input and input gradient
    ctx, h, ins = nn.ForwardContext(), x, {}
    for lay in net.layers:
        ins[lay.index], h = h, lay.forward(h, ctx)
    probs = nn.softmax(h)
    _, dlogits = nn.cross_entropy_grad(probs, y)
    net.zero_grad()
    g = dlogits.astype(np.float32)
    grads = {}
    for lay in reversed(net.layers):
        g = grads[lay.index] = lay.backward(g)
    gx = g
    assert np.all(gx[np.abs(x) > 1.0] == 0.0)
    # every binact layer individually blocks gradient where |input| > 1
    for lay in net.layers:
        if lay.kind == "binact":
            assert np.all(grads[lay.index][np.abs(ins[lay.index]) > 1.0] == 0.0)


# ---------------------------------------------------------------- training


def test_zero_learning_rate_keeps_weights_bit_exact():
    cfg = mlp_config((1, 1, 2), [8], 2, variant="SB")
    net = nn.Network.from_config(cfg, seed=5)
    before = [p.value.copy() for p in net.parameters()]
    x, y = toy_blobs_2class(64, seed=5)
    opt = nn.Adam(net.parameters(), lr=0.0)
    nn.backward_and_step(net, x.reshape(-1, 1, 1, 2), y, opt, rng=np.random.default_rng(0))
    for old, p in zip(before, net.parameters()):
        assert np.array_equal(old, p.value)


def test_toy_blobs_binary_mlp_trains_to_95():
    # run-to-convergence oracle; threshold frozen from the first calibration
    x, y = toy_blobs_2class(256, seed=0, noise=0.18)
    xb = x.reshape(-1, 1, 1, 2)
    cfg = mlp_config((1, 1, 2), [32, 32], 2, variant="SB")
    net = nn.Network.from_config(cfg, seed=0)
    opt = nn.Adam(net.parameters(), lr=3e-3)
    rng = np.random.default_rng(0)
    for _ in range(200):
        idx = rng.integers(0, 256, 64)
        nn.backward_and_step(net, xb[idx], y[idx], opt, rng=rng)
    assert nn.accuracy(net, xb, y) >= 0.95


@pytest.mark.parametrize("opt_name", ["adam", "sgd"])
def test_optimizers_stay_finite_10k_steps(opt_name):
    x, y = toy_blobs_2class(64, seed=8)
    xb = x.reshape(-1, 1, 1, 2)
    cfg = mlp_config((1, 1, 2), [8], 2, variant="AB", batchnorm=True)
    net = nn.Network.from_config(cfg, seed=8)
    opt = nn.make_optimizer(opt_name, net.parameters(), lr=0.001)
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        idx = rng.integers(0, 64, 16)
        nn.backward_and_step(net, xb[idx], y[idx], opt, rng=rng)
    for p in net.parameters():
        assert np.isfinite(p.value).all()


@pytest.mark.parametrize("variant", ["DNN", "AB"])
def test_nan_loss_aborts_with_diagnostics(variant):
    cfg = mlp_config((1, 1, 2), [4], 2, variant=variant, batchnorm=False)
    net = nn.Network.from_config(cfg, seed=9)
    # overflow to inf activations: inf logits, or an inf input to a binarization
    net.layers[0].w.value[:] = np.float32(3e38)
    x = np.full((4, 1, 1, 2), 1e5, dtype=np.float32)
    y = np.zeros(4, dtype=np.int64)
    opt = nn.SGD(net.parameters(), lr=0.1)
    with pytest.raises(NumericalError, match="non-finite"):
        nn.backward_and_step(net, x, y, opt, rng=np.random.default_rng(0))


def test_train_network_history():
    x, y = toy_blobs_2class(128, seed=10)
    xb = x.reshape(-1, 1, 1, 2)
    cfg = mlp_config((1, 1, 2), [16], 2, variant="SB")
    net = nn.Network.from_config(cfg, seed=10)
    opt = nn.Adam(net.parameters(), lr=1e-2)
    hist = nn.train_network(net, xb, y, epochs=30, batch_size=32, optimizer=opt,
                            rng=np.random.default_rng(np.random.SeedSequence(3)),
                            eval_images=xb, eval_labels=y)
    assert len(hist.train_loss) == len(hist.test_accuracy)
    assert len(hist.train_loss) == 30


@pytest.mark.parametrize("variant", VARIANTS)
def test_trained_net_checkpoint_reload_gives_identical_logits(variant):
    # layers with 1-bit weights take their scale from the weights, whatever
    # their input precision, so a reload changes nothing
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, (64, 1, 1, 8)).astype(np.float32)
    y = rng.integers(0, 3, 64)
    net = nn.Network.from_config(mlp_config((1, 1, 8), [16, 16], 3, variant=variant), seed=4)
    opt = nn.Adam(net.parameters(), lr=1e-2)
    nn.train_network(net, x, y, epochs=3, batch_size=16, optimizer=opt,
                     rng=np.random.default_rng(np.random.SeedSequence(4)))
    again = datio.load_checkpoint_bytes(datio.checkpoint_bytes(net))
    assert np.array_equal(net.forward(x), again.forward(x))


def test_nin_step_then_eval_forward_memory_is_bounded():
    # NIN-x0.25 AB at batch 16: the train step and the eval forward, which
    # keeps what a backward would read, peak at ~20.1 MB with conv patch
    # matrices built in blocks (~25.6 MB with whole ones, 26.3 MB before
    # activations were carried channel-last with float32 dropout draws).
    # Keeping every layer's input gradient after backward under the eval
    # forward, and max pooling through a gathered copy of its windows, took
    # the peak to ~62 MB.
    cfg = nin_config(variant="AB", width_scale=0.25, classes=4, input_shape=(1, 32, 32))
    net = nn.Network.from_config(cfg, seed=0)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.5, 1.5, (16, 1, 32, 32)).astype(np.float32)
    y = rng.integers(0, 4, 16)
    opt = nn.make_optimizer("adam", net.parameters(), 5e-3)
    tracemalloc.start()
    try:
        nn.backward_and_step(net, x, y, opt, rng=rng)
        net.forward(x)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 22, peak


def test_nin_train_step_memory_holds_one_exact_copy_per_kept_input():
    # NIN-x0.5 AB at batch 32 peaks at ~72.5 MB, in conv 5's forward and
    # conv 14's backward, with conv patch matrices built in blocks, no full
    # column gradient and 1x1 convs whose column gradient is dx (~79.9 MB,
    # in conv 5's backward, when that was added into fresh zeros; ~102 MB
    # with conv 10's whole 39 MB patch matrix and column gradient, ~105 MB
    # with float64 dropout draws and a copied 1x1 patch matrix).
    # Keeping every layer input until the next forward, both the float input
    # and its binarized copy at each binary conv, and a float dropout mask
    # took it to ~150 MB.
    cfg = nin_config(variant="AB", width_scale=0.5, classes=4, input_shape=(1, 32, 32))
    net = nn.Network.from_config(cfg, seed=0)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.5, 1.5, (32, 1, 32, 32)).astype(np.float32)
    y = rng.integers(0, 4, 32)
    opt = nn.make_optimizer("adam", net.parameters(), 1e-3)
    tracemalloc.start()
    try:
        nn.backward_and_step(net, x, y, opt, rng=rng)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 80, peak


def test_nin_predict_memory_keeps_no_layer_input():
    # a 32-row NIN-x0.5 AB predict peaks at ~18.9 MB, in conv 5's forward
    # (its +/-1 input, signed from conv 0's folded product, and its own);
    # signing each conv input at 0 after relu and batchnorm peaked at ~40.9
    # MB, in conv 5's quantize step (its input, its +/-1 copy, |x| and the
    # bool mask), and keeping every layer's input until the forward ended,
    # and conv 10's whole patch matrix, at ~94.7 MB
    cfg = nin_config(variant="AB", width_scale=0.5, classes=4, input_shape=(1, 32, 32))
    net = nn.Network.from_config(cfg, seed=0)
    x = np.random.default_rng(1).uniform(-1.5, 1.5, (32, 1, 32, 32)).astype(np.float32)
    tracemalloc.start()
    try:
        net.predict(x)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 25, peak


def test_one_conv_holds_its_arrays_and_one_patch_block():
    # conv 10 of NIN-x0.5 AB at batch 32, whose whole patch matrix is 39 MB:
    # forward and backward hold the output, the +/-1 input and bool mask
    # kept for backward, the padded input the windows read and the padded
    # input gradient, four weight-sized arrays (sign(W), the backward's
    # scaled weights, dW and its gradient copy) and one _PATCH_VALUES block
    rng = np.random.default_rng(5)
    lay = nn.Conv2d(48, 96, 5, pad=2, wbits=1, abits=1, rng=rng)
    x = layers.channel_last(rng.uniform(-1.5, 1.5, (32, 48, 16, 16)).astype(np.float32))
    dy = layers.channel_last(rng.standard_normal((32, 96, 16, 16)).astype(np.float32))
    tracemalloc.start()
    try:
        y = lay.forward(x, layers.ForwardContext())
        lay.backward(dy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded = 32 * 20 * 20 * 48 * 4  # the padded [32, 48, 20, 20] float32 input
    allowed = (y.nbytes + x.nbytes + x.size + 2 * padded + 4 * lay.w.value.nbytes
               + 4 * layers._PATCH_VALUES)
    assert peak <= allowed, (peak, allowed)


def test_one_by_one_conv_backward_makes_one_input_sized_array():
    # conv 5 of NIN-x0.5 AB at batch 32, a 1x1 whose one window offset covers
    # its whole input: its column gradient dy @ W is dx, so the backward
    # allocates that and weight-sized arrays (sign(W) scaled, dW, its
    # reshaped copy and the gradient's), 12.7 MB; adding the column gradient
    # into fresh zeros took it to 25.3 MB
    rng = np.random.default_rng(5)
    lay = nn.Conv2d(96, 48, 1, wbits=1, abits=1, rng=rng)
    x = layers.channel_last(rng.uniform(-1.5, 1.5, (32, 96, 32, 32)).astype(np.float32))
    dy = layers.channel_last(rng.standard_normal((32, 48, 32, 32)).astype(np.float32))
    lay.forward(x, layers.ForwardContext(train=True))
    tracemalloc.start()
    try:
        dx = lay.backward(dy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dx.shape == x.shape
    allowed = x.nbytes + 8 * lay.w.value.nbytes
    assert peak <= allowed, (peak, allowed)


def _channel_last_by_strides(a):
    """Memory order [*members, B, H, W, C] with C dense; axes of length 1 and
    broadcast (stride 0) axes hold no order."""
    t = np.moveaxis(a, -3, -1)
    strides = [st for n, st in zip(t.shape, t.strides) if n > 1 and st != 0]
    return strides == sorted(strides, reverse=True) and (
        t.shape[-1] == 1 or t.strides[-1] == a.itemsize)


@pytest.mark.parametrize("members", [None, 2])
@pytest.mark.parametrize("variant", ["AB", "DNN"])
def test_nin_step_carries_every_4d_array_channel_last(variant, members):
    # every 4-D layer input, kept array and gradient between layers, so no
    # elementwise pass multiplies operands of mixed layout
    cfg = nin_config(variant=variant, width_scale=0.25, classes=4, input_shape=(3, 32, 32))
    lead = () if members is None else (members,)
    nets = [nn.Network.from_config(cfg, seed=m) for m in range(members or 1)]
    net = nets[0] if members is None else nn.Network.stack(nets)
    gen = np.random.default_rng(5)
    x = gen.uniform(-1.5, 1.5, lead + (4, 3, 32, 32)).astype(np.float32)  # C order
    y = gen.integers(0, 4, lead + (4,))
    rng = gen if members is None else [np.random.default_rng(6 + m) for m in range(members)]
    seen = []

    def watch(lay):
        fwd, bwd = lay.forward, lay.backward

        def forward(x, ctx):
            seen.append((lay.index, lay.kind, "input", x))
            out = fwd(x, ctx)
            for key in ("_xq", "_ste", "_mask", "_keep", "_arg", "_xhat"):
                if isinstance(getattr(lay, key, None), np.ndarray):
                    seen.append((lay.index, lay.kind, key, getattr(lay, key)))
            return out

        def backward(dy, **kw):  # the lowest layer computes no dx in a training step
            seen.append((lay.index, lay.kind, "dy", dy))
            dx = bwd(dy, **kw)
            if dx is not None:
                seen.append((lay.index, lay.kind, "dx", dx))
            return dx

        lay.forward, lay.backward = forward, backward

    for lay in net.layers:
        watch(lay)
    opt = nn.make_optimizer("adam", net.parameters(), 1e-3)
    nn.backward_and_step(net, x, y, opt, rng=rng)
    images = [(i, kind, what, a) for i, kind, what, a in seen if a.ndim == len(lead) + 4]
    assert {kind for _, kind, _, _ in images} == {
        "conv", "batchnorm", "relu", "maxpool", "avgpool", "dropout", "fc"}
    assert {what for _, _, what, _ in images} >= {"input", "dy", "dx", "_xq", "_mask", "_keep",
                                                  "_arg", "_xhat"} | (
        {"_ste"} if variant == "AB" else set())
    bad = [(i, kind, what, a.strides) for i, kind, what, a in images
           if not _channel_last_by_strides(a)]
    assert bad == []


@pytest.mark.parametrize("variant", ["AB", "DNN"])
@pytest.mark.parametrize("kind", ["nin", "mlp"])
def test_backward_without_input_grad_gives_the_same_parameter_grads(kind, variant):
    # a training step stops at the lowest layer with parameters, which
    # computes only its own gradients; every parameter gradient keeps its bits
    cfg = (nin_config(variant=variant, width_scale=0.1, classes=4, input_shape=(1, 32, 32))
           if kind == "nin" else mlp_config((1, 8, 8), [16, 8], 4, variant=variant))
    if kind == "mlp":  # a parameter-free layer below the lowest one with parameters
        cfg = nn.NetworkConfig(name="low", input_shape=cfg.input_shape, classes=4,
                               layers=(layer("binact"),) + cfg.layers)
    net = nn.Network.from_config(cfg, seed=3)
    gen = np.random.default_rng(4)
    x = gen.uniform(-1.5, 1.5, (6,) + cfg.input_shape).astype(np.float32)
    _, dlogits = nn.cross_entropy_grad(nn.softmax(net.forward(x)), gen.integers(0, 4, 6))
    grads = []
    for input_grad in (True, False):
        net.zero_grad()
        net.forward(x)
        dx = net.backward(dlogits.astype(np.float32), input_grad=input_grad)
        assert (dx is None) != input_grad
        grads.append([p.grad.tobytes() for p in net.parameters()])
        assert _kept_arrays(net) == []
    assert grads[0] == grads[1]


def test_eval_of_no_images_is_empty():
    cfg = mlp_config((1, 8, 8), [8], 4, variant="AB")
    nets = [nn.Network.from_config(cfg, seed=m) for m in range(2)]
    none = np.zeros((0, 1, 8, 8), np.float32)
    assert eval_logits(nets[0], none).shape == (0, 4)
    assert eval_logits(nn.Network.stack(nets), none).shape == (2, 0, 4)
    assert nets[0].predict(none).shape == (0,)


# ------------------------------------------------------------------ config


def test_config_roundtrip_and_hash():
    cfg = mlp_config((1, 8, 8), [32, 16], 4, variant="AQB", q=3, dropout=0.5)
    text = config_to_text(cfg)
    again = parse_config(text)
    assert again == cfg
    assert config_to_text(again) == text
    assert nn.config_hash(cfg) == nn.config_hash(again)


def test_variant_precision_assignment():
    for variant, first, mid, last in [
        ("SB", (32, 32), (1, 1), (32, 32)),
        ("AB", (1, 1), (1, 1), (1, 1)),
        ("IB", (1, 32), (1, 1), (1, 1)),
        ("WQB", (2, 1), (2, 1), (2, 1)),
        ("AQB", (1, 2), (1, 2), (1, 2)),
        ("DNN", (32, 32), (32, 32), (32, 32)),
    ]:
        cfg = mlp_config((1, 1, 8), [16, 16], 4, variant=variant, q=2)
        fcs = [l for l in cfg.layers if l.kind == "fc"]
        got = [(dict(l.params)["wbits"], dict(l.params)["abits"]) for l in fcs]
        assert got == [first, mid, last], variant


@pytest.mark.parametrize("variant", VARIANTS)
def test_binarized_inputs_follow_a_batchnorm(variant):
    # relu, and the pools after it, give no negative value: a 1-bit input
    # taken from them with no batchnorm in between is all +1
    for cfg in (mlp_config((1, 8, 8), [16, 16], 4, variant=variant), nin_config(variant=variant)):
        kinds = [spec.kind for spec in cfg.layers]
        weighted = [i for i, kind in enumerate(kinds) if kind in ("conv", "fc")]
        for i in weighted[1:]:
            if dict(cfg.layers[i].params)["abits"] < 32:
                last = max(j for j in range(i) if kinds[j] in ("relu", "maxpool", "avgpool"))
                assert "batchnorm" in kinds[last + 1 : i], (cfg.name, i)


@pytest.mark.parametrize("variant", ["AB", "IB", "WQB"])
def test_nin_binary_logits_depend_on_input(variant):
    net = nn.Network.from_config(nin_config(variant=variant, width_scale=0.25), seed=0)
    x = np.random.default_rng(0).uniform(-1, 1, (16, 3, 32, 32)).astype(np.float32)
    logits = net.forward(x, bn_batch_stats=True)
    assert len(np.unique(logits, axis=0)) == 16


def test_nin_config_instantiates_reduced_scale():
    cfg = nn.nin_config(variant="SB", width_scale=0.25, classes=10)
    net = nn.Network.from_config(cfg, seed=0)
    x = np.random.default_rng(0).uniform(-1, 1, (2, 3, 32, 32)).astype(np.float32)
    p = nn.softmax(net.forward(x))
    assert p.shape == (2, 10)
    assert np.allclose(p.sum(axis=1), 1, atol=1e-6)


def test_bundled_architecture_tables_parse():
    import importlib.resources as res

    for fname, n_weighted in [("nin.cfg", 8)]:
        text = (res.files("binn") / "configs" / fname).read_text()
        cfg = parse_config(text)
        weighted = [l for l in cfg.layers if l.kind in ("conv", "fc")]
        assert len(weighted) == n_weighted, fname


def test_every_bundled_table_builds_at_its_declared_input():
    import importlib.resources as res

    tables = [t for t in (res.files("binn") / "configs").iterdir() if t.name.endswith(".cfg")]
    assert tables
    for table in tables:
        cfg = parse_config(table.read_text())
        net = nn.Network.from_config(cfg, seed=0)
        x = np.zeros((1,) + tuple(cfg.input_shape), np.float32)
        assert net.forward(x).shape == (1, cfg.classes), table.name


def test_nin_config_finds_its_table_from_any_directory(tmp_path):
    src = os.path.dirname(os.path.dirname(binn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "from binn.nn import config_hash, nin_config; print(config_hash(nin_config()))"
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == nn.config_hash(nin_config())


# ------------------------------------------------------------ stacking

# conv -> KIND -> fc on [2, 8, 8] inputs: every layer kind between two weighted layers
STACK_KINDS = {
    "fc-float": nn.layer("fc", out=6),
    "fc-binary": nn.layer("fc", out=6, wbits=1, abits=1),
    "conv-float": nn.layer("conv", out=3, kernel=3, pad=1),
    "conv-binary": nn.layer("conv", out=3, kernel=3, pad=1, wbits=1, abits=1),
    "conv-kbit": nn.layer("conv", out=3, kernel=2, stride=2, wbits=2, abits=2),
    "batchnorm": nn.layer("batchnorm"),
    "relu": nn.layer("relu"),
    "binact": nn.layer("binact"),
    "quantact": nn.layer("quantact", bits=3),
    "maxpool": nn.layer("maxpool", kernel=3, stride=2, pad=1),
    "avgpool": nn.layer("avgpool", kernel=2),
    "dropout": nn.layer("dropout", p=0.4),
}


@pytest.mark.parametrize("opt_name", ["adam", "sgd"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", list(STACK_KINDS))
def test_stacked_members_match_their_nets_bit_for_bit(kind, k, opt_name):
    cfg = nn.NetworkConfig(name="stack", input_shape=(2, 8, 8), classes=3, layers=(
        nn.layer("conv", out=4, kernel=3, pad=1), STACK_KINDS[kind], nn.layer("fc", out=3)))
    nets = [nn.Network.from_config(cfg, seed=10 + i) for i in range(k)]
    gen = np.random.default_rng(k)
    x = gen.uniform(-1.5, 1.5, (k, 5, 2, 8, 8)).astype(np.float32)
    y = gen.integers(0, 3, (k, 5))
    shared = gen.uniform(-1.5, 1.5, (7, 2, 8, 8)).astype(np.float32)

    def step(net, xb, yb, rng):
        opt = nn.make_optimizer(opt_name, net.parameters(), 0.05)
        logits = net.forward(xb, train=True, rng=rng)
        _, dlogits = nn.cross_entropy_grad(nn.softmax(logits), yb)
        net.zero_grad()
        gx = net.backward(dlogits.astype(np.float32))
        opt.step()
        net.clip_binary_shadows()
        return logits, gx, net.forward(shared)

    stack = nn.Network.stack(nets)
    got = step(stack, x, y, [np.random.default_rng(i) for i in range(k)])
    for i, (net, member) in enumerate(zip(nets, stack.unstack())):
        want = step(net, x[i], y[i], np.random.default_rng(i))
        for g, w in zip(got, want):
            assert g[i].tobytes() == w.tobytes()
        assert datio.checkpoint_bytes(member) == datio.checkpoint_bytes(net)


def _kept_arrays(net):
    return [(lay.index, key) for lay in net.layers for key, val in vars(lay).items()
            if key.startswith("_") and isinstance(val, np.ndarray)]


@pytest.mark.parametrize("kind", list(STACK_KINDS))
def test_layers_keep_no_arrays_after_backward_or_predict(kind):
    cfg = nn.NetworkConfig(name="kept", input_shape=(2, 8, 8), classes=3, layers=(
        nn.layer("conv", out=4, kernel=3, pad=1, wbits=1, abits=1), STACK_KINDS[kind],
        nn.layer("fc", out=3, wbits=1, abits=1)))
    net = nn.Network.from_config(cfg, seed=0)
    gen = np.random.default_rng(2)
    x = gen.uniform(-1.5, 1.5, (5, 2, 8, 8)).astype(np.float32)
    opt = nn.make_optimizer("adam", net.parameters(), 0.05)
    nn.backward_and_step(net, x, gen.integers(0, 3, 5), opt, rng=gen)
    assert _kept_arrays(net) == []
    logits = net.forward(x)
    assert _kept_arrays(net)  # an eval forward still keeps what backward reads
    for lay in net.layers:  # the same straight-through mask as a training forward
        if lay.kind in ("binact", "quantact") or getattr(lay, "act_bits", 32) != 32:
            assert lay._ste.dtype == bool and "_xin" not in vars(lay), (lay.index, lay.kind)
    net.predict(x)
    assert _kept_arrays(net) == []
    assert np.array_equal(net.forward(x, keep=False), logits)
    assert _kept_arrays(net) == []


def test_predict_memory_does_not_grow_with_rows():
    # predict runs eval_logits' EVAL_ROWS-row forwards; one forward over all
    # rows kept every layer's input for all of them at once
    net = nn.Network.from_config(mlp_config((1, 8, 8), [256, 256], 4, variant="AB"), seed=0)
    x = np.random.default_rng(0).standard_normal((4 * EVAL_ROWS, 1, 8, 8)).astype(np.float32)

    def peak(rows):
        tracemalloc.start()
        try:
            return net.predict(rows), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, one = peak(x[:EVAL_ROWS])
    labels, four = peak(x)
    assert four <= 1.25 * one, (four, one)
    assert np.array_equal(labels, eval_logits(net, x).argmax(-1))
