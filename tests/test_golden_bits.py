"""Golden training bits.

SHA-256 digests of the checkpoint bytes after a few optimizer steps, of the
``metrics.csv`` of a tracked bag-3 and boost-3 ``ensemble train``, and, for
the NIN, of the eval-mode logits and of ``Network.backward``'s input
gradient after a train-mode and an eval-mode forward. A speed-up of the
training step must leave them unchanged; any change to a float operation of
the step, or to its order, changes them.
"""

import hashlib

import numpy as np
import pytest

from binn import datio, nn
from binn.cli import main
from binn.nn import mlp_config, nin_config
from binn.nn.config import VARIANTS

STEPS = 6
LR = {"adam": 5e-3, "sgd": 0.05}

GOLDEN_STEPS = {
    ("mlp", "DNN", "adam"): "c21fd9f94e2b585317e89c1cbae798b0f7c438d00543575089f8ed35c6ef24cf",
    ("mlp", "DNN", "sgd"): "f8b391d387354f52a2ff44e0179b827d3fae74bfdc682ea1854d0ed184eed7af",
    ("mlp", "SB", "adam"): "d7886fb120bbc124d61692f01ed297e864d9541e5cfca2f348e35c5377b8efe6",
    ("mlp", "SB", "sgd"): "21c1b9c168a13559c7fef5c9e6096c785d00e21aab6ad5f0addf66c5372df44e",
    ("mlp", "AB", "adam"): "f8a5f226d9162ba1622ba895023765d455b21bc0411de937f106b1d1785fb22a",
    ("mlp", "AB", "sgd"): "9f5c08b4ac2325edf68bb2c6707cd85f742797c4b4d12a74c2c63263284fc5e6",
    ("mlp", "IB", "adam"): "89157c2822e62a1e0e07f00e6fab77cb8b0110cdaa7f63b2070099e9a5611964",
    ("mlp", "IB", "sgd"): "ff788ec2f072f0b231a0312da5cb023f19d45b0ae51b35cdd595f805688833a7",
    ("mlp", "WQB", "adam"): "1a25672722ed02f451ac1fa877fe41eece3d10748afec6b4bb15b0489e9d13eb",
    ("mlp", "WQB", "sgd"): "ccfeb3fc2295a5adb6d803a69d8c770013a4e6c4aac1f39f01c16b6831c28f75",
    ("mlp", "AQB", "adam"): "ada17a2886c69228669d8f4a325ae2e103be884d153f6fdb87d2d34d63ed3874",
    ("mlp", "AQB", "sgd"): "2f33a4735313128704d43c13ad2ff2898fb960b5c3cc18c5170b78208800d97b",
    ("nin", "AB", "adam"): "cfc3e2e2d665448b0496b4020488e23a7b167d99794909ddad03ba6995a78b10",
    ("nin", "AB", "sgd"): "b8bce534a9f8183878bf2054941f8e342b266b56ce0e5a383e6858843f3486de",
    ("nin", "DNN", "adam"): "6ae6202b90a77170eccba1e2af988d06049d5c1e0e91ee0d6a201a01ff9c4b4c",
    ("nin", "DNN", "sgd"): "eaff7a34a05f8b1f048a512a432d599413906716330b03167dbce83e6703bcde",
}

GOLDEN_NIN = {
    "AB": {
        "eval_logits": "35c30731969c1fffde8c50fb2bd3227a93a825bda3884d72ebcff684c0293910",
        "train_input_grad": "097a3455335fd93b97883e7c7d884c2f1d7bf8dbb7db40e54ad5ad118148d693",
        "eval_input_grad": "d95d3f50a9e1f498d674fac1ceca4572bb2fc2de09ef5aec2cb8846846bdb431",
    },
    "DNN": {
        "eval_logits": "7e32d4a5de40d7ca755cd06b66d3dd3d6f1d270eaf2667e0bfab714911afaabd",
        "train_input_grad": "1482bff27fa8f3a4a154778f20c25fab3231cebbaa2f8a50a4d537f9a9b7269c",
        "eval_input_grad": "0c170c18881a570269fd486ac9567e2fd2d938e14dcf85082347818e041b6cb8",
    },
}

GOLDEN_METRICS = {
    "bag": "12ebbdf2fc46010b75c30e8c4cc82b644d46b46c48a127b030a0d02b17b5a5a9",
    "boost": "456796389499049451defa42141a789d29a621592c9cd5dbe11af3d03724af7b",
}

CASES = [("mlp", v, o) for v in VARIANTS for o in ("adam", "sgd")] + [
    ("nin", v, o) for v in ("AB", "DNN") for o in ("adam", "sgd")
]


def _net_after_steps(arch, variant, opt_name):
    if arch == "mlp":
        cfg = mlp_config((1, 8, 8), [16], 4, variant=variant)
        pool, batch = 96, 32
    else:
        cfg = nin_config(variant=variant, width_scale=0.25, classes=4)
        pool, batch = 16, 8
    net = nn.Network.from_config(cfg, seed=11)
    rng = np.random.default_rng(12)
    x = rng.uniform(-1.5, 1.5, (pool,) + tuple(cfg.input_shape)).astype(np.float32)
    y = rng.integers(0, cfg.classes, pool)
    opt = nn.make_optimizer(opt_name, net.parameters(), LR[opt_name])
    for _ in range(STEPS):
        idx = rng.choice(pool, batch, replace=False)
        nn.backward_and_step(net, x[idx], y[idx], opt, rng=rng)
    return net, x, y, rng


def _sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.mark.parametrize("arch,variant,opt_name", CASES)
def test_checkpoint_bits_after_steps(arch, variant, opt_name):
    net, *_ = _net_after_steps(arch, variant, opt_name)
    got = hashlib.sha256(datio.checkpoint_bytes(net)).hexdigest()
    assert got == GOLDEN_STEPS[(arch, variant, opt_name)]


@pytest.mark.parametrize("variant", ["AB", "DNN"])
def test_nin_forward_and_input_grad_bits(variant):
    net, x, y, rng = _net_after_steps("nin", variant, "adam")
    got = {"eval_logits": _sha(net.forward(x))}
    for mode, train in (("train", True), ("eval", False)):
        probs = nn.softmax(net.forward(x, train=train, rng=rng))
        _, dlogits = nn.cross_entropy_grad(probs, y)
        net.zero_grad()
        gx = net.backward(dlogits.astype(net.dtype))
        assert gx.shape == x.shape and gx.dtype == np.float32
        got[f"{mode}_input_grad"] = _sha(gx)
    assert got == GOLDEN_NIN[variant]


@pytest.mark.parametrize("strategy", ["bag", "boost"])
def test_ensemble_metrics_bits(tmp_path, strategy):
    cfg = tmp_path / "member.cfg"
    cfg.write_text(nn.config_to_text(mlp_config((1, 8, 8), [8], 4, variant="AB")))
    out = tmp_path / strategy
    rc = main(["ensemble", "train", "--config", str(cfg), "--strategy", strategy,
               "--k", "3", "--seed", "5", "--epochs", "6", "--lr", "5e-3",
               "--data", "blobs-img", "--data-n", "800", "--data-classes", "4",
               "--data-noise", "0.08", "--data-seed", "6", "--train-frac", "0.75",
               "--out", str(out)])
    assert rc == 0
    got = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    assert got == GOLDEN_METRICS[strategy]
