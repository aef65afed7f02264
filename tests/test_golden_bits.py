"""Golden training bits.

SHA-256 digests of the checkpoint bytes after a few optimizer steps, of the
``metrics.csv`` of a tracked bag-3 and boost-3 ``ensemble train``, and, for
the NIN, of the eval-mode logits and of ``Network.backward``'s input
gradient after a train-mode and an eval-mode forward. A speed-up of the
training step must leave them unchanged; any change to a float operation of
the step, or to its order, changes them. The config text that
``nin_config`` and ``mlp_config`` emit is pinned the same way.

Three NIN DNN digests assume OpenBLAS's default thread count:
``test_checkpoint_bits_after_steps[nin-DNN-adam]``, ``[nin-DNN-sgd]`` and
``test_nin_forward_and_input_grad_bits[DNN]`` differ under
``OPENBLAS_NUM_THREADS=1``, because a float32 conv GEMM sums in an order
that depends on the thread count. The binary variants' +/-1 products are
exact integers, so their digests hold at any thread count.
"""

import hashlib
import json

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
    ("nin", "AB", "adam"): "30957347c3ca08318cdbdbb5d472848203cd45d3bfeddfb89cf0e6ac1f3fb036",
    ("nin", "AB", "sgd"): "4da03d645104c6af8ee0b45f4ba6db006f0a09e6c9e9b3263aa735b68e19110d",
    ("nin", "DNN", "adam"): "97ae3304b62a3125f1d26e0be6bc29c17837f11002a58150b1080f3babd0dace",
    ("nin", "DNN", "sgd"): "55335ef3f235b50239d16e0f2dc24434bad5490dc0b30b170df0340a7bb55338",
}

GOLDEN_NIN = {
    "AB": {
        "eval_logits": "0c732e63cbbcfe028fe4fa6c772d646fded7a123f617dbe4f31332beefc5128d",
        "train_input_grad": "a87542e99713e29ddcec3ee8a39b8fcb6f41838c6b8b30acbf251d48e537e62b",
        "eval_input_grad": "ecbf4df35e5c3191709f98bf7059cff4c0f904275910311e958e4dedaabde68d",
    },
    "DNN": {
        "eval_logits": "59b602d437756eae59fa3b18cc885ad4c02490ba6465928a4564fb92da5ebf29",
        "train_input_grad": "8039c3d09268c464bf17d2cf4a941f93100d8e9b43e67c79859e6e0389318c5c",
        "eval_input_grad": "61b003cbe54e1ccb46f4e9af29e6e3bb536582a1dd3ecd47bef809c5dc9ef223",
    },
}

GOLDEN_METRICS = {
    "bag": "12ebbdf2fc46010b75c30e8c4cc82b644d46b46c48a127b030a0d02b17b5a5a9",
    "boost": "d5794f1e91dd957fe19da6e3254e5e6d07b3c5b5c5b084911640f4bf039ea379",
}

# sha256 of the manifest's member checkpoint hashes and of metrics.csv of a
# tracked bag-3; the NIN reaches conv, pooling, dropout and float products
GOLDEN_BAG = {
    "mlp-DNN": ("adaa3ab37dbc1c21d674aca4b5107c8d40f2855acbdfedb43bf17adf6712a270",
                "d89db3fb042b0a2eae0f5c25ddac717486142378f049f29652ec08e8f3cd0631"),
    "nin-x0.1": ("1e2b00f90c16a1e29de274f70b2e767013ffc78a97f4a2ed8f396c0daf38a91a",
                 "88b1ee45b57969c3fe131050dbd6e32c0274ec229a0bc562f86891e643a1fc81"),
}

GOLDEN_CONFIG_TEXT = {
    ("nin", "DNN"): "8429820bbb45097b4705f66a981aaac06f8319eb5914742bf0880e000330455b",
    ("mlp", "DNN"): "bd73fe878748078dcb4062194614d92f813f660a5aef96dffc05333d0a746ca8",
    ("nin", "SB"): "b0720b96d2a5126b5d7d0a4a2ff724198d3ae8440ce8bce84b9fcd74c1760a87",
    ("mlp", "SB"): "de09c0fb14e124ae2f22f02025ef8b137506a79862ba32a4d2d3d7ef42519670",
    ("nin", "AB"): "5015aec874ef770eab1f865531173c89ed1a7e06e01f3b36ac4741536e690efb",
    ("mlp", "AB"): "872fcc8c48d4fdc892f139948d2f9c66c6e4dfc0f84fe639d182e8001b7307c3",
    ("nin", "IB"): "bbdcd6b9356e39f50a003d0e86517128e148f30f59b96d1139bf730d6b4447a6",
    ("mlp", "IB"): "d4ec5b8890a4aa3220cc56a45d81ad2f4551c07d07d670a581ea7c1ee445f5af",
    ("nin", "WQB"): "31ff4257cfad514cbbaf8254ade13bb84995c0f0ee53ede24750078ab11e5987",
    ("mlp", "WQB"): "8ae3045288f07073d23301620cf47224adca77287c12b55c260bb72cec980b73",
    ("nin", "AQB"): "ab6cc502ec579ac703e4a80e29f58ef75863d51a2fe738bd7efff82197aa1174",
    ("mlp", "AQB"): "4bc08a53ea0f2bc8fb402405d5a20f3495ca6873fd1a57ec74bf48c9ebba3ecf",
}

# (input_shape, hidden, classes, keywords) of the MLPs the tests and benchmarks build
MLP_SHAPES = [
    ((1, 8, 8), [8], 4, {}),
    ((1, 8, 8), [16], 4, {}),
    ((1, 8, 8), [64, 64], 4, {}),
    ((1, 8, 8), [96, 96, 96], 4, {}),
    ((1, 8, 8), [32, 16], 4, {"q": 3, "dropout": 0.5}),
    ((1, 8, 8), [64], 4, {"batchnorm": False, "bias": False}),
    ((1, 1, 8), [16], 3, {"batchnorm": False}),
]

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


def _ensemble_train(tmp_path, strategy, *flags):
    cfg = tmp_path / "member.cfg"
    cfg.write_text(nn.config_to_text(mlp_config((1, 8, 8), [8], 4, variant="AB")))
    out = tmp_path / strategy
    rc = main(["ensemble", "train", "--config", str(cfg), "--strategy", strategy,
               "--k", "3", "--seed", "5", "--epochs", "6", "--lr", "5e-3",
               "--data", "blobs-img", "--data-n", "800", "--data-classes", "4",
               "--data-noise", "0.08", "--data-seed", "6", "--train-frac", "0.75",
               "--out", str(out), *flags])
    assert rc == 0
    return out / "metrics.csv"


@pytest.mark.parametrize("strategy", ["bag", "boost"])
def test_ensemble_metrics_bits(tmp_path, strategy):
    got = hashlib.sha256(_ensemble_train(tmp_path, strategy).read_bytes()).hexdigest()
    assert got == GOLDEN_METRICS[strategy]


def test_hard_boost_stream_ends_at_the_printed_accuracy(tmp_path, capsys):
    metrics = _ensemble_train(tmp_path, "boost", "--rule", "hard")
    printed = capsys.readouterr().out.split("test_accuracy=")[1].split()[0]
    last = metrics.read_text().splitlines()[-1].split(",")[-1]
    assert f"{float(last):.4f}" == printed


@pytest.mark.parametrize("name", list(GOLDEN_BAG))
def test_bagged_member_and_metrics_bits(tmp_path, name):
    if name == "mlp-DNN":
        cfg = mlp_config((1, 8, 8), [16], 4, variant="DNN")
        # 600 eval rows, which the eval forwards split at 512
        flags = ["--data-n", "2400", "--epochs", "3", "--image-size", "8"]
    else:
        cfg = nin_config(width_scale=0.1, classes=4, input_shape=(1, 32, 32))
        flags = ["--data-n", "96", "--epochs", "2", "--image-size", "32", "--batch-size", "16"]
    path = tmp_path / "member.cfg"
    path.write_text(nn.config_to_text(cfg))
    out = tmp_path / "bag"
    rc = main(["ensemble", "train", "--config", str(path), "--strategy", "bag", "--k", "3",
               "--seed", "4", "--lr", "5e-3", "--data", "blobs-img", "--data-classes", "4",
               "--data-noise", "0.08", "--data-seed", "2", "--train-frac", "0.75",
               "--out", str(out), *flags])
    assert rc == 0
    members = json.loads((out / "manifest.json").read_text())["members"]
    got = (hashlib.sha256(",".join(members).encode()).hexdigest(),
           hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest())
    assert got == GOLDEN_BAG[name]


@pytest.mark.parametrize("arch,variant", list(GOLDEN_CONFIG_TEXT))
def test_config_text_bits(arch, variant):
    if arch == "nin":
        cfgs = [nin_config(variant=variant, width_scale=ws) for ws in (1, 0.5, 0.25, 0.1)]
    else:
        cfgs = [mlp_config(s, h, c, variant=variant, **kw) for s, h, c, kw in MLP_SHAPES]
    text = "".join(nn.config_to_text(cfg) for cfg in cfgs)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CONFIG_TEXT[(arch, variant)]
