"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Training-based criteria
share module-scoped fixtures; everything is seeded, so the measured
numbers are reproducible constants on a given platform.
"""

import math
import time

import numpy as np
import pytest

from binn import analysis, bitcore, datio, ensemble, nn
from binn.cli import main as cli_main

# frozen toy protocol: 8x8 blob images, all-binary
# 64-8-4 MLP members, adam lr 5e-3, K=5 independent
TOY = dict(n=4000, classes=4, noise=0.08, train_n=3000)
MEMBER_CFG = nn.mlp_config((1, 8, 8), [8], 4, variant="AB")
SPEC12 = ensemble.MemberTrainSpec(epochs=12, batch_size=64, lr=5e-3)
SPEC25 = ensemble.MemberTrainSpec(epochs=25, batch_size=64, lr=5e-3)
SEEDS = (0, 1, 2, 3, 4)


def _report(num, msg):
    print(f"\nPASS criterion {num}: {msg}")


def _toy_split(seed):
    ds = datio.make_blob_images(TOY["n"], TOY["classes"], noise=TOY["noise"], seed=seed)
    return datio.split_dataset(ds, TOY["train_n"])


def _acc(model, te):
    if hasattr(model, "members"):
        pred = ensemble.aggregate(model, te.images).labels
    else:
        pred = model.predict(te.images)
    return float((pred == te.labels).mean())


@pytest.fixture(scope="module")
def toy_c6():
    """12-epoch single/bag5/boost5 per seed (criterion 6)."""
    out = {}
    for s in SEEDS:
        tr, te = _toy_split(s)
        net, _ = ensemble.train_member(
            MEMBER_CFG, tr.images, tr.labels,
            u=np.full(len(tr), 1.0 / len(tr)),
            seed_seq=ensemble.member_seed(s, 0), spec=SPEC12,
        )
        bag, _ = ensemble.train_bagging(
            MEMBER_CFG, tr.images, tr.labels, k=5, mode="independent", seed=s, spec=SPEC12
        )
        boost, _ = ensemble.train_boosting(
            MEMBER_CFG, tr.images, tr.labels, k=5, mode="independent", seed=s, spec=SPEC12
        )
        out[s] = dict(single=_acc(net, te), bag=_acc(bag, te), boost=_acc(boost, te))
    return out


@pytest.fixture(scope="module")
def toy_c7c8():
    """25-epoch tracked single + bag5 per seed (criteria 7 and 8)."""
    out = {}
    for s in SEEDS:
        tr, te = _toy_split(s)
        net, hist = ensemble.train_member(
            MEMBER_CFG, tr.images, tr.labels,
            u=np.full(len(tr), 1.0 / len(tr)),
            seed_seq=ensemble.member_seed(s, 0), spec=SPEC25,
            eval_images=te.images, eval_labels=te.labels,
        )
        bag, info = ensemble.train_bagging(
            MEMBER_CFG, tr.images, tr.labels, k=5, mode="independent", seed=s,
            spec=SPEC25, eval_images=te.images, eval_labels=te.labels,
        )
        out[s] = dict(
            net=net, bag=bag, te=te,
            single_stream=hist.test_accuracy,
            ensemble_stream=info["ensemble_accuracy"],
        )
    return out


# --------------------------------------------------------------- criterion 1


def dense_conv_oracle(inp, kern, stride, padding):
    """Vectorized dense +/-1 cross-correlation (pads with -1)."""
    c, h, w = inp.shape
    f, _, k, _ = kern.shape
    xp = np.pad(inp, ((0, 0), (padding, padding), (padding, padding)), constant_values=-1.0)
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # [C, H', W', k, k]
    return np.einsum("cijmn,fcmn->fij", win, kern).astype(np.int64)


def test_c01_kernel_exactness():
    started = time.time()
    rng = np.random.default_rng(100)
    pm = lambda shape: np.where(rng.standard_normal(shape) >= 0, 1.0, -1.0)

    cases = 0
    # exhaustive all-pairs for n <= 12 through the GEMM (entries are xnor_dots)
    for n in range(1, 13):
        pats = (((np.arange(1 << n)[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(np.float64)
        got = bitcore.binary_gemm(bitcore.pack(pats), bitcore.pack(pats))
        want = (pats @ pats.T).astype(np.int64)
        assert np.array_equal(got, want), f"exhaustive n={n}"
        # spot-check the scalar op on a sample of pairs
        idx = rng.integers(0, 1 << n, (64, 2))
        for i, j in idx:
            a = bitcore.pack(pats[i])
            b = bitcore.pack(pats[j])
            assert bitcore.xnor_dot(a, b) == int(want[i, j])
        cases += (1 << n) ** 2

    random_cases = 0
    for _ in range(5000):  # xnor_dot random shapes
        n = int(rng.integers(1, 400))
        a, b = pm(n), pm(n)
        got = bitcore.xnor_dot(bitcore.pack(a), bitcore.pack(b))
        assert got == int(a @ b)
        random_cases += 1
    for _ in range(3000):  # gemm random shapes
        o, bt, n = rng.integers(1, 9), rng.integers(1, 9), int(rng.integers(1, 200))
        wv, xv = pm((o, n)), pm((bt, n))
        got = bitcore.binary_gemm(bitcore.pack(wv), bitcore.pack(xv))
        assert np.array_equal(got, (xv @ wv.T).astype(np.int64))
        random_cases += 1
    for _ in range(2000):  # conv random shapes (integral output sizes only)
        while True:
            cch = int(rng.integers(1, 4))
            f = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 2))
            ho = int(rng.integers(1, 5))
            h = (ho - 1) * stride + k - 2 * padding
            if h >= 1:
                break
        iv = pm((cch, h, h))
        kv = pm((f, cch, k, k))
        got = bitcore.im2col_binary_conv(bitcore.pack(iv), bitcore.pack(kv), stride, padding)
        assert np.array_equal(got, dense_conv_oracle(iv, kv, stride, padding))
        random_cases += 1
    elapsed = time.time() - started
    assert random_cases >= 10_000 - 100
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 1 min"
    _report(1, f"kernels bit-exact on {random_cases} random cases + exhaustive "
               f"pairs n<=12 ({cases} dots) in {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 2


def test_c02_b_table_reproduction():
    started = time.time()
    expected = {1.5: 1.25, 1.0: 1.0, 0.5: 0.59, 0.1: 0.13, 0.01: 0.013, 0.001: 0.0013}
    got = {}
    for sigma, want in expected.items():
        b = analysis.compute_b(sigma)
        got[sigma] = b
        if sigma in (0.01, 0.001):
            assert abs(b - want) / want <= 0.05, (sigma, b)
        else:
            assert abs(b - want) <= 0.01, (sigma, b)
    elapsed = time.time() - started
    assert elapsed < 120
    _report(2, "B values " + ", ".join(f"B({s})={v:.4g}" for s, v in got.items())
            + f" match the reference table ({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 3


def test_c03_theorem1_monte_carlo():
    started = time.time()
    reports = {}
    for sigma in (0.1, 0.5):
        rep = analysis.verify_theorem1(
            256, 1.0, sigma, k_values=(2, 4, 8, 16), trials=100_000, seed=31
        )
        for name, st in rep.regimes.items():
            assert st.rel_err <= 0.05, (sigma, name, st)
        for k, ratio in rep.bagging_ratio.items():
            assert 0.9 <= ratio <= 1.1, (sigma, k, ratio)
        reports[sigma] = rep
    rep = reports[0.1]
    b_over_r = rep.thresholds["b_over_r_sigma_w2"]
    assert 12 <= b_over_r <= 14  # ~13 from the reference values 0.13/0.01
    assert rep.bagged[16].measured < rep.regimes["real"].measured
    assert not rep.bagged[8].measured < rep.regimes["real"].measured
    for r in rep.threshold_checks:
        assert r["agree"], r
    elapsed = time.time() - started
    assert elapsed < 300
    _report(3, f"one-layer variances within 5% of closed forms at sigma 0.1/0.5; "
               f"B/R={b_over_r:.1f}: K=16 beats real, K=8 does not ({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 4


def test_c04_theorem2_bounds():
    started = time.time()
    fractions = {}
    for widths in ((64, 64, 1), (64, 64, 64, 1)):
        rep = analysis.verify_theorem2(widths, 1.0, 1.0, trials=10_000, inner=128, seed=41)
        for name, res in rep.regimes.items():
            assert res["satisfied_fraction"] >= 0.99, (widths, name, res)
            fractions[(len(widths) - 1, name)] = res["satisfied_fraction"]
    elapsed = time.time() - started
    assert elapsed < 180
    worst = min(fractions.values())
    _report(4, f"product bounds hold in >= 99% of 10k trials per regime for "
               f"L=2,3 (worst fraction {worst:.4f}) in {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 5


def test_c05_ste_correctness():
    text = """
name: ste-acceptance
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
    cfg = nn.parse_config(text)

    # exact-zero check on the real binarized forward (float32 path)
    net32 = nn.Network.from_config(cfg, seed=51, dtype=np.float32)
    rng = np.random.default_rng(51)
    x32 = rng.uniform(-3, 3, (32, 1, 1, 6)).astype(np.float32)
    y = rng.integers(0, 3, 32)
    # walk the layers by hand to see every layer's input and input gradient
    ctx, h, ins = nn.ForwardContext(), x32, {}
    for lay in net32.layers:
        ins[lay.index], h = h, lay.forward(h, ctx)
    probs = nn.softmax(h)
    _, dlogits = nn.cross_entropy_grad(probs, y)
    net32.zero_grad()
    g = dlogits.astype(np.float32)
    grads = {}
    for lay in reversed(net32.layers):
        g = grads[lay.index] = lay.backward(g)
    gx = g
    assert np.all(gx[np.abs(x32) > 1.0] == 0.0)
    for lay in net32.layers:
        if lay.kind == "binact":
            assert np.all(grads[lay.index][np.abs(ins[lay.index]) > 1.0] == 0.0)

    # finite differences of the clipped-identity surrogate (float64 path)
    net = nn.Network.from_config(cfg, seed=51, dtype=np.float64)
    x = rng.uniform(-1.8, 1.8, (4, 1, 1, 6))
    y = rng.integers(0, 3, 4)

    def loss_at(xv):
        p = nn.softmax(net.forward(xv, surrogate=True))
        return nn.cross_entropy_grad(p, y)[0]

    probs = nn.softmax(net.forward(x, surrogate=True))
    loss, dlogits = nn.cross_entropy_grad(probs, y)
    net.zero_grad()
    gx = net.backward(dlogits)
    h = 1e-6
    flat = x.reshape(-1)
    checked = 0
    for i in range(flat.size):
        old = flat[i]
        if abs(abs(old) - 1.0) < 10 * h:
            continue  # clip kink
        flat[i] = old + h
        lp = loss_at(x)
        flat[i] = old - h
        lm = loss_at(x)
        flat[i] = old
        fd = (lp - lm) / (2 * h)
        assert abs(gx.reshape(-1)[i] - fd) <= 1e-4, (i, gx.reshape(-1)[i], fd)
        checked += 1
    assert checked >= 20
    _report(5, f"STE gradient exactly 0 where |x|>1 and within 1e-4 of "
               f"finite differences at {checked} coordinates")


# --------------------------------------------------------------- criterion 6


def test_c06_ensemble_direction(toy_c6):
    started = time.time()
    single = float(np.mean([toy_c6[s]["single"] for s in SEEDS]))
    bag = float(np.mean([toy_c6[s]["bag"] for s in SEEDS]))
    boost = float(np.mean([toy_c6[s]["boost"] for s in SEEDS]))
    assert bag > single + 0.02, (bag, single)
    assert boost >= bag - 0.01, (boost, bag)
    _report(6, f"mean test acc over seeds 0..4: single={single:.4f}, "
               f"bagging-5={bag:.4f} (+{(bag - single) * 100:.1f} pts), "
               f"boosting-5={boost:.4f} ({(boost - bag) * 100:+.1f} vs bagging) "
               f"({time.time() - started:.0f}s)")


# --------------------------------------------------------------- criterion 7


def test_c07_stability_direction(toy_c7c8):
    singles, ensembles = [], []
    for s in SEEDS:
        singles.append(analysis.stability_track(toy_c7c8[s]["single_stream"]))
        ensembles.append(analysis.stability_track(toy_c7c8[s]["ensemble_stream"]))
    mean_single = float(np.mean(singles))
    mean_ens = float(np.mean(ensembles))
    assert mean_ens <= 0.5 * mean_single, (mean_ens, mean_single)
    _report(7, f"last-20-epoch accuracy std: single={mean_single:.4f}, "
               f"bagged-5={mean_ens:.4f} (ratio {mean_ens / mean_single:.3f} <= 0.5); "
               f"per-seed single={[round(v, 4) for v in singles]}, "
               f"ensemble={[round(v, 4) for v in ensembles]}")


# --------------------------------------------------------------- criterion 8


def test_c08_robustness_direction(toy_c7c8):
    started = time.time()
    # output-change ordering under the random-network protocol
    x = datio.make_blob_images(256, 4, noise=0.12, seed=7).images
    spec = analysis.PerturbationSpec(sigma2=0.01, trials=16, seed=3)
    est = {}
    for name, variant in [("BNN", "AB"), ("QNN_W1A2", "AQB"), ("DNN", "DNN")]:
        cfg = nn.mlp_config((1, 8, 8), [64, 64], 4, variant=variant, q=2)
        est[name] = analysis.robustness_random(cfg, spec, 24, x)
    sep_bq = (est["BNN"].mean - est["QNN_W1A2"].mean) / math.hypot(
        est["BNN"].stderr, est["QNN_W1A2"].stderr
    )
    sep_qd = (est["QNN_W1A2"].mean - est["DNN"].mean) / math.hypot(
        est["QNN_W1A2"].stderr, est["DNN"].stderr
    )
    assert sep_bq >= 3.0, (est["BNN"], est["QNN_W1A2"])
    assert sep_qd >= 3.0, (est["QNN_W1A2"], est["DNN"])

    # error-change: trained single BNN >= bagged-5, pooled over the five task seeds
    spec2 = analysis.PerturbationSpec(sigma2=0.01, trials=300, seed=0)
    a_mean, b_mean, var_sum = [], [], 0.0
    for s in SEEDS:
        d = toy_c7c8[s]
        a = analysis.robustness_trained(d["net"], d["te"].images, d["te"].labels, spec2)
        b = analysis.robustness_trained(d["bag"], d["te"].images, d["te"].labels, spec2)
        a_mean.append(a.mean)
        b_mean.append(b.mean)
        var_sum += a.stderr**2 + b.stderr**2
    diff = float(np.mean(a_mean) - np.mean(b_mean))
    sep_err = diff / (math.sqrt(var_sum) / len(SEEDS))
    assert sep_err >= 3.0, (a_mean, b_mean)
    elapsed = time.time() - started
    assert elapsed < 300
    _report(8, f"output-change ordering BNN({est['BNN'].mean:.3f}) > QNN-W1A2"
               f"({est['QNN_W1A2'].mean:.3f}) > DNN({est['DNN'].mean:.3f}) at "
               f"{sep_bq:.1f}/{sep_qd:.1f} SE; error-change BNN >= bagged-5 pooled at "
               f"{sep_err:.1f} SE ({elapsed:.0f}s)")


# --------------------------------------------------------------- criterion 9


def test_c09_bootstrap_coverage():
    fractions = []
    for seed in range(20):
        u = np.full(10_000, 1.0 / 10_000)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        idx = ensemble.bagging_sample(10_000, u, rng=rng)
        frac = len(np.unique(idx)) / 10_000
        assert abs(frac - 0.632) <= 0.02, (seed, frac)
        fractions.append(frac)
    mean = float(np.mean(fractions))
    assert abs(mean - 0.632) <= 0.02
    _report(9, f"bootstrap distinct fraction {mean:.4f} (20 seeds, all within "
               f"0.632 +- 0.02; range {min(fractions):.4f}..{max(fractions):.4f})")


# -------------------------------------------------------------- criterion 10


def test_c10_export_size_and_equivalence():
    tr, _ = _toy_split(0)
    cfg = nn.mlp_config((1, 8, 8), [512, 512], 4, variant="AB", batchnorm=False, bias=False)
    net = nn.Network.from_config(cfg, seed=101)
    opt = nn.Adam(net.parameters(), lr=5e-3)
    nn.train_network(net, tr.images, tr.labels, epochs=2, batch_size=64, optimizer=opt,
                     rng=np.random.default_rng(np.random.SeedSequence(101)))
    float_blob = datio.checkpoint_bytes(net)
    packed_blob = datio.packed_export_bytes(net)
    ratio = len(float_blob) / len(packed_blob)
    assert ratio >= 25.0, ratio
    reloaded = datio.load_packed_bytes(packed_blob)
    probe = datio.make_blob_images(1000, 4, noise=0.1, seed=102).images
    assert np.array_equal(net.predict(probe), reloaded.predict(probe))
    _report(10, f"packed export {len(packed_blob)} B vs float checkpoint "
                f"{len(float_blob)} B ({ratio:.1f}x >= 25x); argmax identical "
                f"on 1000 toy inputs")


# -------------------------------------------------------------- criterion 11


def test_c11_cli_determinism(tmp_path):
    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text(nn.config_to_text(nn.mlp_config((1, 8, 8), [16], 4, variant="AB")))
    flags = [
        "ensemble", "train", "--config", str(cfg_path), "--strategy", "bag",
        "--k", "3", "--mode", "indep", "--rule", "soft", "--seed", "7",
        "--epochs", "3", "--data", "blobs-img", "--data-n", "600",
        "--data-classes", "4", "--data-noise", "0.08", "--data-seed", "0",
    ]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(flags + ["--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    compared = []
    for fname in files_a:
        if fname == "run-manifest.json":
            continue  # contains wall-clock fields
        assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname
        compared.append(fname)
    assert "metrics.csv" in compared and "manifest.json" in compared
    assert any(f.startswith("member-") for f in compared)
    _report(11, f"two `ensemble train --seed 7` runs byte-identical across "
                f"{len(compared)} files (checkpoints, manifest, metrics)")
