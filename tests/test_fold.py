"""A keep-nothing eval forward folds each +/-1 conv's relu/batchnorm/
dropout/maxpool segment up to the next conv into per-channel steps on its
integer sums (an fc folds nothing); its logits must equal the layer
path's (``forward(keep=True)``) bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binn import datio, nn
from binn.errors import NumericalError
from binn.nn import layers, mlp_config, nin_config
from binn.nn.config import VARIANTS
from binn.nn.network import _fold_segments, eval_logits

pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered",
                                        "ignore:overflow encountered")

NETS = {
    # (config, rows every segment folds at, its segments): only conv
    # segments fold, so the MLP runs the layer path at any rows
    "nin": (nin_config(variant="AB", width_scale=0.1, classes=4, input_shape=(1, 32, 32)), 8,
            {0: 5, 5: 10, 10: 14, 19: 22, 22: 25}),
    "mlp": (mlp_config((1, 8, 8), [16, 8], 4, variant="AB", dropout=0.3), 160, {}),
}


def _set_state(net, seed, extreme):
    """Running statistics, gammas and betas from ``seed``: some gammas
    negative, some 0, one all-zero filter (scale 0); ``extreme`` scales a few
    statistics towards float32's limits, where a probe or the layer path
    may overflow."""
    rng = np.random.default_rng(seed)
    for lay in net.layers:
        if lay.kind == "batchnorm":
            shape = lay.gamma.value.shape
            gamma = rng.normal(0.0, 1.5, shape) * (rng.random(shape) > 0.2)
            mean, var = rng.normal(0.0, 2.0, shape), rng.uniform(0.05, 4.0, shape)
            if extreme:  # a few channels each, up to float32's range
                gamma *= 10.0 ** (rng.uniform(-30, 38, shape) * (rng.random(shape) < 0.1))
                mean *= 10.0 ** (rng.uniform(0, 38, shape) * (rng.random(shape) < 0.1))
                var *= 10.0 ** (rng.uniform(-30, 38, shape) * (rng.random(shape) < 0.1))
            lay.gamma.value[...] = gamma
            lay.beta.value[...] = rng.normal(0.0, 1.0, shape)
            lay.running_mean[...] = mean
            lay.running_var[...] = var
        elif lay.kind in ("conv", "fc") and lay.index > 0:
            lay.w.value[rng.integers(len(lay.w.value))] = 0.0
            if lay.b is not None:
                lay.b.value[...] = rng.normal(0.0, 0.5, lay.b.value.shape)


def _net(kind, seed, extreme):
    net = nn.Network.from_config(NETS[kind][0], seed=seed)
    _set_state(net, seed, extreme)
    return net


def _folded_logits(net, x):
    """``eval_logits(net, x)`` and the number of segments it folded."""
    folded, orig = [], layers.Conv2d.sign_steps

    def spy(self, *a):
        out = orig(self, *a)
        folded.append(out is not None)
        return out

    layers.Conv2d.sign_steps = spy
    try:
        return eval_logits(net, x), sum(folded)
    finally:
        layers.Conv2d.sign_steps = orig


def _outcome(run):
    """What ``run()`` ends in: its logits' dtype and bytes, or NumericalError's message."""
    try:
        logits = run()
    except NumericalError as e:
        return str(e)
    return logits.dtype, logits.tobytes()


def _assert_folds_exactly(kind, net, x, every):
    assert net._segments == NETS[kind][2]
    folded = []
    want = _outcome(lambda: net.forward(x))
    got = _outcome(lambda: folded.append(_folded_logits(net, x)) or folded[0][0])
    assert got == want
    if every:  # moderate statistics at full rows: every segment folds
        assert folded[0][1] == len(net._segments)


def test_fold_segments_follow_the_rules():
    nin = nn.Network.from_config(NETS["nin"][0], seed=0)
    assert nin._segments == {0: 5, 5: 10, 10: 14, 19: 22, 22: 25}
    sb = nn.Network.from_config(nin_config(variant="SB", width_scale=0.1, classes=4), seed=0)
    assert sb._segments == {5: 10, 10: 14, 19: 22, 22: 25}  # a 32-bit first conv

    def segments(*mid, head=nn.layer("conv", out=2, kernel=3, pad=1, wbits=1, abits=1),
                 end=nn.layer("conv", out=2, kernel=1, wbits=1, abits=1)):
        pool = [nn.layer("avgpool", kernel=8 if len(mid) < 2 else 4)] if end.kind == "conv" else []
        cfg = nn.NetworkConfig(name="seg", input_shape=(2, 8, 8), classes=2, layers=(
            head, *mid, end, *pool, nn.layer("fc", out=2)))
        return _fold_segments(nn.Network.from_config(cfg, seed=0).layers)

    relu, bn = nn.layer("relu"), nn.layer("batchnorm")
    assert segments(relu, nn.layer("maxpool", kernel=2), bn) == {0: 4}
    assert segments(nn.layer("maxpool", kernel=2), bn) == {0: 3}  # scale >= 0, bias
    assert segments(bn, nn.layer("maxpool", kernel=2)) == {}  # gamma < 0 reverses max
    assert segments(relu, nn.layer("maxpool", kernel=1, stride=2, pad=1)) == {}  # pad-only windows
    assert segments(nn.layer("avgpool", kernel=2), bn) == {}
    assert segments(bn, end=nn.layer("conv", out=2, kernel=1, wbits=1, abits=2)) == {}
    assert segments() == {0: 1}  # a conv head right before its conv tail
    fc = nn.layer("fc", out=8, wbits=1, abits=1)
    assert segments(relu, bn, head=fc, end=fc) == {}  # an fc head
    assert segments(relu, bn, end=fc) == {}  # an fc tail
    for variant in VARIANTS:  # no MLP folds
        mlp = nn.Network.from_config(mlp_config((1, 8, 8), [16, 8], 4, variant=variant), seed=0)
        assert mlp._segments == {}


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(NETS)), seed=st.integers(0, 2**16), extreme=st.booleans(),
       full=st.booleans())
def test_folded_eval_equals_layer_path(kind, seed, extreme, full):
    net = _net(kind, seed, extreme)
    rows = NETS[kind][1] if full else 1 + seed % 4  # few rows fold fewer segments
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, (rows,) + net.config.input_shape)
    _assert_folds_exactly(kind, net, x.astype(np.float32), full and not extreme)


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(sorted(NETS)), seed=st.integers(0, 2**16), extreme=st.booleans(),
       shared=st.booleans())
def test_folded_eval_of_a_stack_equals_layer_path(kind, seed, extreme, shared):
    stack = nn.Network.stack([_net(kind, seed + m, extreme) for m in range(3)])
    rows = NETS[kind][1]
    lead = () if shared else (3,)
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, lead + (rows,) + stack.config.input_shape)
    _assert_folds_exactly(kind, stack, x.astype(np.float32), not extreme)


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(sorted(NETS)), seed=st.integers(0, 2**16))
def test_folded_eval_of_a_packed_reload_equals_layer_path(kind, seed):
    net = datio.load_packed_bytes(datio.packed_export_bytes(_net(kind, seed, False)))
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, (NETS[kind][1],) + net.config.input_shape)
    _assert_folds_exactly(kind, net, x.astype(np.float32), True)


@pytest.mark.parametrize("where, value", [("gamma", np.nan), ("gamma", np.inf), ("gamma", -np.inf),
                                          ("running_var", np.nan), ("running_var", -1.0),
                                          ("running_var", np.inf)])
@pytest.mark.parametrize("kind", sorted(NETS))
def test_non_finite_statistics_end_alike_on_both_paths(kind, where, value):
    # a NaN or infinite gamma or a negative variance raises NumericalError at
    # the next binarization; an infinite variance zeroes xhat and runs
    net = _net(kind, 7, False)
    bn = [lay for lay in net.layers if lay.kind == "batchnorm"][1]
    (bn.gamma.value if where == "gamma" else bn.running_var)[0] = value
    x = np.random.default_rng(7).uniform(-1.5, 1.5, (NETS[kind][1],) + net.config.input_shape)
    x = x.astype(np.float32)
    want = _outcome(lambda: net.forward(x))
    assert _outcome(lambda: _folded_logits(net, x)[0]) == want
    if value != np.inf or where == "gamma":
        assert "non-finite values at the binarization" in want


def test_a_probe_that_overflows_runs_the_layer_path():
    # gamma sized so that the probe's largest value overflows float32 and the
    # data's stays finite: that segment runs the layer path, the next folds
    bconv = nn.layer("conv", out=4, kernel=1, wbits=1, abits=1)
    cfg = nn.NetworkConfig(name="overflow", input_shape=(32, 4, 4), classes=2, layers=(
        bconv, nn.layer("relu"), nn.layer("batchnorm"), bconv, nn.layer("batchnorm"), bconv,
        nn.layer("avgpool", kernel=4), nn.layer("fc", out=2)))
    net = nn.Network.from_config(cfg, seed=3)
    _set_state(net, 3, False)
    assert net._segments == {0: 3, 3: 5}
    conv, bn = net.layers[0], net.layers[2]
    x = np.random.default_rng(103).uniform(-1.5, 1.5, (16, 32, 4, 4)).astype(np.float32)
    w0 = nn.sign_binarize(conv.w.value[0, :, 0, 0])
    top_data = np.einsum("bchw,c->bhw", nn.sign_binarize(x), w0).max()
    top_probe = 32
    assert 0 < top_data < top_probe
    bn.running_mean[0], bn.running_var[0], bn.beta.value[0] = 0.0, 1.0, 0.0
    bias, scale = conv.b.value[0], conv.scale[0]
    top = [(s * scale + bias) / np.sqrt(1.0 + bn.eps) for s in (top_data, top_probe)]
    bn.gamma.value[0] = 3e38 / np.sqrt(top[0] * top[1])
    want = _outcome(lambda: net.forward(x))
    got, folded = _folded_logits(net, x)
    assert (got.dtype, got.tobytes()) == want and folded == 1


@pytest.mark.parametrize("variant, rows, folds", [
    ("AB", 8, (0, 5, 10, 19, 22)), ("SB", 8, (5, 10, 19, 22)),  # SB: a 32-bit first conv
    # at 1 row the row rule leaves the segments whose probe (2F + 1 values
    # per channel) outgrows their output (H * W) on the layer path
    ("AB", 1, (0, 5, 22)), ("SB", 1, (5, 22))])
def test_folded_eval_runs_the_planned_layers(monkeypatch, variant, rows, folds):
    # the fold's plan: a folded segment's head conv runs with raw, its tail
    # conv with steps, and of the layers between only the max pools run
    cfg = nin_config(variant=variant, width_scale=0.1, classes=4, input_shape=(1, 32, 32))
    net = nn.Network.from_config(cfg, seed=3)
    _set_state(net, 3, False)
    calls, probing, sign_steps = [], [], layers.Conv2d.sign_steps

    def probe(self, *a):  # the probe's own layer calls are not the forward's
        probing.append(self.index)
        try:
            return sign_steps(self, *a)
        finally:
            probing.pop()

    def spy(lay, fwd):
        def forward(x, ctx, **kw):
            if not probing:
                calls.append((lay.index, sorted(kw)))
            return fwd(x, ctx, **kw)
        lay.forward = forward

    monkeypatch.setattr(layers.Conv2d, "sign_steps", probe)
    for lay in net.layers:
        spy(lay, lay.forward)
    x = np.random.default_rng(3).uniform(-1.5, 1.5, (rows, 1, 32, 32)).astype(np.float32)
    got = eval_logits(net, x)
    heads = {i: net._segments[i] for i in folds}
    gone = {j for i, end in heads.items() for j in range(i + 1, end)
            if net.layers[j].kind != "maxpool"}
    assert gone and not gone & {i for i, _ in calls}
    assert calls == [(j, ["raw"] * (j in heads) + ["steps"] * (j in heads.values()))
                     for j in range(len(net.layers)) if j not in gone]
    want = net.forward(x)
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
