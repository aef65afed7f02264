"""The optimizers keep their parameters in one contiguous buffer; these tests
hold them to the per-parameter update bit for bit and check which writes
to ``Param.value`` reach the weights they update."""

import numpy as np
import pytest

from binn import datio, nn
from binn.nn import mlp_config
from binn.nn.layers import Param

SHAPES = [(3,), (4, 5), (2, 3, 3, 3), (1,), (7, 2)]


class _RefSGD:
    """Per-parameter SGD, the update before parameters shared one buffer."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)

    def step(self):
        for p in self.params:
            if p.grad is not None:
                p.value -= (self.lr * p.grad).astype(p.value.dtype)


class _RefAdam:
    """Per-parameter Adam, the update before parameters shared one buffer."""

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


def _params(seed):
    rng = np.random.default_rng(seed)
    return [Param(rng.standard_normal(s).astype(np.float32)) for s in SHAPES]


def _grad(rng, shape):
    g = rng.standard_normal(shape).astype(np.float32) * np.float32(10.0 ** rng.integers(-6, 3))
    g.flat[rng.integers(0, g.size)] = rng.choice([0.0, -0.0, 1e-40])  # zeros, a subnormal
    return g


@pytest.mark.parametrize("name,ref_cls,lr", [
    ("adam", _RefAdam, 3e-3), ("sgd", _RefSGD, 0.05), ("adam", _RefAdam, 0.0),
])
def test_flat_optimizer_equals_per_parameter_update(name, ref_cls, lr):
    flat_params, ref_params = _params(0), _params(0)
    flat = nn.make_optimizer(name, flat_params, lr)
    ref = ref_cls(ref_params, lr)
    rng = np.random.default_rng(1)
    for step in range(50):
        for fp, rp in zip(flat_params, ref_params):
            fp.grad = rp.grad = None
            # every 7th step leaves one parameter without a gradient
            if step % 7 == 3 and fp is flat_params[step % len(SHAPES)]:
                continue
            for _ in range(1 + step % 2):  # one or two accumulated contributions
                g = _grad(rng, fp.value.shape)
                fp.add_grad(g)
                rp.add_grad(g)
        flat.step()
        ref.step()
        for fp, rp in zip(flat_params, ref_params):
            assert fp.value.tobytes() == rp.value.tobytes()
    assert all(fp.value.base is flat_params[0].value.base for fp in flat_params)


def _ab_net(seed):
    return nn.Network.from_config(mlp_config((1, 1, 16), [8], 4, variant="AB"), seed=seed)


def _train(net, opt, steps=5):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (32, 1, 1, 16)).astype(np.float32)
    y = rng.integers(0, 4, 32)
    for _ in range(steps):
        nn.backward_and_step(net, x, y, opt, rng=rng)


def test_writes_into_param_values_reach_the_optimizer():
    donor = _ab_net(7)
    # reference: the donor's weights are in place before the optimizer is built
    want = _ab_net(0)
    want.load_state_items(dict(donor.state_items()))
    _train(want, nn.Adam(want.parameters(), lr=1e-2))
    # loaded after the optimizer is built
    loaded = _ab_net(0)
    opt = nn.Adam(loaded.parameters(), lr=1e-2)
    loaded.load_state_items(dict(donor.state_items()))
    _train(loaded, opt)
    assert datio.checkpoint_bytes(loaded) == datio.checkpoint_bytes(want)
    # copied into each value after the optimizer is built
    copied = _ab_net(0)
    opt = nn.Adam(copied.parameters(), lr=1e-2)
    for p, src in zip(copied.parameters(), donor.parameters()):
        np.copyto(p.value, src.value)
    _train(copied, opt)
    assert datio.checkpoint_bytes(copied) == datio.checkpoint_bytes(want)
    # a clone reads the weights the optimizer updated
    assert datio.checkpoint_bytes(copied.clone()) == datio.checkpoint_bytes(want)


def test_rebinding_a_value_detaches_it():
    net = _ab_net(0)
    opt = nn.SGD(net.parameters(), lr=0.1)
    lay = net.layers[0]
    kept = lay.w.value.copy()
    lay.w.value = kept.copy()  # no longer a view of the optimizer's buffer
    bias = lay.b.value.copy()
    _train(net, opt, steps=1)
    assert np.array_equal(lay.w.value, kept)
    assert not np.array_equal(lay.b.value, bias)


def test_mixed_dtypes_refused():
    with pytest.raises(ValueError, match="dtypes"):
        nn.Adam([Param(np.zeros(3, np.float32)), Param(np.zeros(2, np.float64))])


def test_first_gradient_equals_zeros_plus_gradient():
    g = np.array([-0.0, 0.0, 1e-45, -3.5, np.nan], dtype=np.float32)
    p = Param(np.ones(5, np.float32))
    p.add_grad(g)
    want = np.zeros_like(p.value)
    want += g
    assert p.grad.tobytes() == want.tobytes()
    p.add_grad(g)  # accumulates in its own buffer, not in g
    assert g.tobytes() == np.array([-0.0, 0.0, 1e-45, -3.5, np.nan], np.float32).tobytes()
