import argparse
import csv
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import binn
from binn import cli, datio, nn
from binn.cli import main


CFG_TEXT = nn.config_to_text(nn.mlp_config((1, 8, 8), [32], 4, variant="SB"))


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "net.cfg"
    p.write_text(CFG_TEXT)
    return str(p)


def data_flags(n=200, noise=0.08, data_seed=0):
    return [
        "--data", "blobs-img", "--data-n", str(n), "--data-classes", "4",
        "--data-noise", str(noise), "--data-seed", str(data_seed),
    ]


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_train_zero_epochs_emits_untrained_checkpoint(tmp_path, cfg_file):
    out = tmp_path / "run"
    rc = main(["train", "--config", cfg_file, "--seed", "3", "--epochs", "0",
               "--out", str(out)] + data_flags())
    assert rc == 0
    net = datio.load_network(out / "checkpoint.ckpt")
    fresh = nn.Network.from_config(net.config, seed=0)
    assert net.config == fresh.config
    rows = read_csv(out / "metrics.csv")
    assert rows[0] == ["epoch", "train_loss", "test_accuracy"]
    assert len(rows) == 1  # header only
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["seeds"]["seed"] == 3


def test_train_seed_reproducibility(tmp_path, cfg_file):
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        rc = main(["train", "--config", cfg_file, "--seed", "7", "--epochs", "2",
                   "--out", str(out)] + data_flags())
        assert rc == 0
        outs.append(out)
    a, b = outs
    assert (a / "checkpoint.ckpt").read_bytes() == (b / "checkpoint.ckpt").read_bytes()
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_eval_perfect_on_self_labeled_data(tmp_path, cfg_file):
    run = tmp_path / "run"
    rc = main(["train", "--config", cfg_file, "--seed", "0", "--epochs", "1",
               "--out", str(run)] + data_flags())
    assert rc == 0
    # label a dataset with the net's own predictions: accuracy must be 1.0
    net = datio.load_network(run / "checkpoint.ckpt")
    ds = datio.make_blob_images(120, 4, noise=0.08, seed=9)
    labels = net.predict(ds.images)
    img_dir = tmp_path / "self"
    img_dir.mkdir()
    # route through eval by writing an IDX pair
    import struct

    raw = ((ds.images.reshape(120, 8, 8) + 1) / 2 * 255).round().astype(np.uint8)
    (img_dir / "img.idx").write_bytes(
        struct.pack(">HBBIII", 0, 8, 3, 120, 8, 8) + raw.tobytes()
    )
    (img_dir / "lab.idx").write_bytes(
        struct.pack(">HBBI", 0, 8, 1, 120) + bytes(int(v) for v in labels)
    )
    # quantizing to bytes shifts pixels; relabel from the quantized images
    ds_q = datio.load_idx(img_dir / "img.idx", img_dir / "lab.idx", class_count=4)
    labels_q = net.predict(ds_q.images)
    (img_dir / "lab.idx").write_bytes(
        struct.pack(">HBBI", 0, 8, 1, 120) + bytes(int(v) for v in labels_q)
    )
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.ckpt"), "--out", str(out),
               "--data", "idx", "--data-path",
               f"{img_dir / 'img.idx'},{img_dir / 'lab.idx'}",
               "--data-classes", "4", "--train-frac", "0.0"])
    assert rc == 0
    rows = dict(read_csv(out / "eval.csv")[1:])
    assert float(rows["accuracy"]) == 1.0


def test_eval_untrained_near_chance(tmp_path, cfg_file):
    run = tmp_path / "run"
    main(["train", "--config", cfg_file, "--seed", "1", "--epochs", "0",
          "--out", str(run)] + data_flags(n=1200))
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.ckpt"), "--out", str(out)]
              + data_flags(n=1200, data_seed=3))
    assert rc == 0
    rows = dict(read_csv(out / "eval.csv")[1:])
    acc, n = float(rows["accuracy"]), int(rows["n"])
    # binomial 3-sigma band around chance 1/C
    sigma = (0.25 * 0.75 / n) ** 0.5
    assert abs(acc - 0.25) <= 3 * sigma + 0.05
    conf = read_csv(out / "confusion.csv")
    assert conf[0] == ["true_class", "pred_class", "count"]
    assert sum(int(r[2]) for r in conf[1:]) == n


@pytest.mark.parametrize("k", ["1", "3"])
def test_train_equals_bag_member_0(tmp_path, cfg_file, k):
    # binn train --seed S trains member 0 of a bag at seed S, alone or in a
    # lockstep stack: a bootstrap resample drawn from uniform weights
    single = tmp_path / "single"
    main(["train", "--config", cfg_file, "--seed", "7", "--epochs", "2",
          "--out", str(single)] + data_flags())
    ens = tmp_path / "ens"
    rc = main(["ensemble", "train", "--config", cfg_file, "--strategy", "bag",
               "--k", k, "--mode", "indep", "--rule", "soft", "--seed", "7",
               "--epochs", "2", "--out", str(ens)] + data_flags())
    assert rc == 0
    manifest = json.loads((ens / "manifest.json").read_text())
    member = ens / f"member-{manifest['members'][0][:16]}.ckpt"
    assert member.read_bytes() == (single / "checkpoint.ckpt").read_bytes()


def test_ensemble_boost_k3_emits_alphas(tmp_path, cfg_file):
    out = tmp_path / "boost"
    rc = main(["ensemble", "train", "--config", cfg_file, "--strategy", "boost",
               "--k", "3", "--mode", "indep", "--rule", "soft", "--seed", "2",
               "--epochs", "3", "--out", str(out)] + data_flags(n=400))
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["alphas"]) == manifest["k"] <= 3
    assert all(a > 0 for a in manifest["alphas"])
    rows = read_csv(out / "metrics.csv")
    assert rows[0] == ["member", "epoch", "train_loss", "test_accuracy",
                       "ensemble_test_accuracy"]


def test_ensemble_requires_seed(tmp_path, cfg_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "train", "--config", cfg_file, "--strategy", "bag",
              "--k", "1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 1


def test_perturb_zero_sigma_rows_are_zero(tmp_path, cfg_file):
    run = tmp_path / "run"
    main(["train", "--config", cfg_file, "--seed", "0", "--epochs", "1",
          "--out", str(run)] + data_flags())
    out = tmp_path / "pert"
    rc = main(["perturb", "--checkpoint", str(run / "checkpoint.ckpt"),
               "--sigma2", "0.0,0.01", "--trials", "5", "--seed", "1",
               "--out", str(out)] + data_flags(n=120))
    assert rc == 0
    rows = read_csv(out / "perturb.csv")
    assert rows[0] == ["sigma2", "target", "metric", "value", "stderr", "trials"]
    zero_rows = [r for r in rows[1:] if float(r[0]) == 0.0]
    assert zero_rows and all(float(r[3]) == 0.0 for r in zero_rows)
    nz = [r for r in rows[1:] if float(r[0]) > 0 and r[2] == "output_change"]
    assert float(nz[0][3]) > 0


def test_train_reaches_95_on_easy_blobs(tmp_path):
    # run-to-convergence oracle; settings frozen after calibration (hits 1.0)
    cfg = tmp_path / "mlp.cfg"
    cfg.write_text(nn.config_to_text(nn.mlp_config((1, 1, 2), [16], 4, variant="SB")))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--seed", "0", "--epochs", "15",
               "--lr", "0.003", "--out", str(out), "--data", "blobs",
               "--data-n", "800", "--data-classes", "4", "--data-noise", "0.04"])
    assert rc == 0
    rows = read_csv(out / "metrics.csv")
    assert float(rows[-1][2]) >= 0.95


def test_perturb_monotone_on_sigma_grid(tmp_path, cfg_file):
    run = tmp_path / "run"
    main(["train", "--config", cfg_file, "--seed", "4", "--epochs", "2",
          "--out", str(run)] + data_flags(n=400))
    out = tmp_path / "mono"
    rc = main(["perturb", "--checkpoint", str(run / "checkpoint.ckpt"),
               "--sigma2", "0.001,0.01,0.1", "--trials", "30", "--seed", "2",
               "--out", str(out)] + data_flags(n=400))
    assert rc == 0
    rows = read_csv(out / "perturb.csv")[1:]
    oc = {float(r[0]): float(r[3]) for r in rows if r[2] == "output_change"}
    assert oc[0.001] < oc[0.01] < oc[0.1]


def test_analyze_b_table_matches_reference(tmp_path):
    out = tmp_path / "bt"
    rc = main(["analyze", "b-table", "--sigmas", "1.0,0.5,1000", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "b_table.csv")
    assert rows[0] == ["sigma", "b", "r"]
    vals = {float(r[0]): (float(r[1]), float(r[2])) for r in rows[1:]}
    assert vals[1.0][0] == pytest.approx(1.0, abs=1e-3)
    assert vals[1.0][1] == 1.0
    assert vals[0.5][0] == pytest.approx(0.59, abs=0.01)
    assert vals[1000.0][0] == pytest.approx(1.998726760879678, rel=1e-12)


def test_analyze_theorem2_large_sigma_binarized_bounds_hold(tmp_path):
    # at sigma 1000 a sign flips with probability ~1/2, so B is ~2, not ~0
    rc = main(["analyze", "theorem2", "--widths", "8,8,1", "--trials", "200", "--sigma", "1000",
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    rows = {r[0]: r for r in read_csv(tmp_path / "theorem2.csv")[1:]}
    for reg in ("act_bin", "both_bin"):
        assert float(rows[reg][2]) == pytest.approx(2.0 * 8 * 8, rel=1e-3)
        assert rows[reg][6] == "1", rows[reg]


def test_analyze_theorem_commands_quick(tmp_path):
    out1 = tmp_path / "t1"
    rc = main(["analyze", "theorem1", "--fan-in", "32", "--sigma", "0.5",
               "--k-values", "2", "--trials", "12000", "--seed", "0",
               "--out", str(out1)])
    assert rc == 0
    rows = read_csv(out1 / "theorem1.csv")
    assert rows[0][0] == "kind"
    regime_rows = [r for r in rows[1:] if r[0] == "regime"]
    assert len(regime_rows) == 4 and all(r[6] == "1" for r in regime_rows)

    out0 = tmp_path / "t1-zero"  # both_bin measures 0: no bagging ratio to check
    with pytest.warns(UserWarning, match="widening"):
        rc = main(["analyze", "theorem1", "--fan-in", "1", "--k-values", "2,4", "--trials", "2",
                   "--seed", "0", "--out", str(out0)])
    assert rc == 0
    assert [r[6] for r in read_csv(out0 / "theorem1.csv") if r[0].startswith("bagged")] == ["0", "0"]

    out2 = tmp_path / "t2"
    rc = main(["analyze", "theorem2", "--widths", "32,32,1", "--trials", "400",
               "--inner", "64", "--seed", "0", "--out", str(out2)])
    assert rc == 0
    rows = read_csv(out2 / "theorem2.csv")
    assert rows[0] == ["regime", "layers", "bound", "mean_measured",
                       "satisfied_fraction", "satisfied_se", "ok"]


def test_theorem1_few_trials_never_pass_a_full_error(tmp_path):
    # 2 trials widen the tolerance, but only up to 0.5: a 100% error stays ok=0
    out = tmp_path / "t1"
    with pytest.warns(UserWarning, match="widening to 0.500"):
        rc = main(["analyze", "theorem1", "--fan-in", "1", "--trials", "2", "--seed", "0",
                   "--out", str(out)])
    assert rc == 0
    rows = [r for r in read_csv(out / "theorem1.csv")[1:] if r[5]]
    assert any(float(r[5]) >= 1.0 for r in rows)
    assert not [r for r in rows if float(r[5]) >= 1.0 and r[6] == "1"]


def test_export_roundtrip_and_report(tmp_path):
    cfg = nn.mlp_config((1, 8, 8), [64], 4, variant="AB", batchnorm=False, bias=False)
    p = tmp_path / "ab.cfg"
    p.write_text(nn.config_to_text(cfg))
    run = tmp_path / "run"
    main(["train", "--config", str(p), "--seed", "0", "--epochs", "1",
          "--out", str(run)] + data_flags())
    out = tmp_path / "exp"
    rc = main(["export", "--checkpoint", str(run / "checkpoint.ckpt"), "--out", str(out)])
    assert rc == 0
    rows = dict(read_csv(out / "export.csv")[1:])
    assert int(rows["argmax_match"]) == 1
    assert float(rows["ratio"]) > 10
    reloaded = datio.load_network(out / "model.pbin")
    assert reloaded.config == cfg


def test_export_rejects_float_only_net(tmp_path):
    cfg = nn.mlp_config((1, 8, 8), [16], 4, variant="DNN")
    p = tmp_path / "dnn.cfg"
    p.write_text(nn.config_to_text(cfg))
    run = tmp_path / "run"
    main(["train", "--config", str(p), "--seed", "0", "--epochs", "0",
          "--out", str(run)] + data_flags())
    rc = main(["export", "--checkpoint", str(run / "checkpoint.ckpt"),
               "--out", str(tmp_path / "exp")])
    assert rc == 2


def test_exit_codes():
    # usage error -> 1 (unknown flag)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--no-such-flag"])
    assert exc.value.code == 1
    # data error -> 2 (missing config file)
    rc = main(["train", "--config", "/nonexistent.cfg", "--seed", "0",
               "--out", "/tmp/x"] + data_flags())
    assert rc == 2
    # data error -> 2 (missing checkpoint)
    rc = main(["eval", "--checkpoint", "/nonexistent.ckpt", "--out", "/tmp/x"]
              + data_flags())
    assert rc == 2


def test_console_entrypoint_smoke(tmp_path):
    out = _run_cli(["analyze", "b-table", "--sigmas", "1.0", "--seed", "0",
                    "--out", str(tmp_path)])
    assert out.returncode == 0
    assert "1.0" in out.stdout


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing scipy.integrate was most
    # of every CLI process's start-up time and memory
    out = _run_python(["-c", "import sys, binn.cli; "
                             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _run_python(args):
    """A fresh interpreter with this checkout's src on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(binn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_cli(args):
    return _run_python(["-m", "binn.cli", *args])


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """A config, a trained ensemble dir, broken copies of it, and a packed
    export missing its output layer's scale."""
    root = tmp_path_factory.mktemp("paths")
    cfg = root / "net.cfg"
    cfg.write_text(CFG_TEXT)
    ens = root / "ens"
    assert main(["ensemble", "train", "--config", str(cfg), "--strategy", "bag", "--k", "2",
                 "--seed", "0", "--epochs", "1", "--out", str(ens)] + data_flags()) == 0
    manifest = json.loads((ens / "manifest.json").read_text())
    no_member = shutil.copytree(ens, root / "no-member")
    (no_member / f"member-{manifest['members'][1][:16]}.ckpt").unlink()

    def edited(name, **changes):
        d = shutil.copytree(ens, root / name)
        (d / "manifest.json").write_text(json.dumps({**manifest, **changes}))
        return d

    paths = {name: edited(name, **changes) for name, changes in [
        ("members-int", {"members": [1]}),
        ("alphas-text", {"alphas": ["x", "y"]}),
        ("alphas-short", {"alphas": [1.0]}),
        ("alphas-zero", {"alphas": [0, 0]}),
        ("alphas-nan", {"alphas": [float("nan"), 1]}),
        ("rule-median", {"rule": "median"}),
        ("config-int", {"config": 5}),
        ("k-seven", {"k": 7}),
        ("config-hash-zero", {"config_hash": "0" * 64}),
        ("seed-text", {"seed": "x"}),
        ("member-seeds-short", {"member_seeds": manifest["member_seeds"][:1]}),
    ]}
    # a 3-class member swapped into the 4-class bag, under its own content hash
    three = nn.Network.from_config(nn.mlp_config((1, 8, 8), [32], 3, variant="SB"), seed=0)
    blob = datio.checkpoint_bytes(three)
    h = hashlib.sha256(blob).hexdigest()
    paths["member-3-class"] = edited("member-3-class", members=[manifest["members"][0], h])
    (paths["member-3-class"] / f"member-{h[:16]}.ckpt").write_bytes(blob)
    no_alphas = shutil.copytree(ens, root / "no-alphas")
    del manifest["alphas"]
    (no_alphas / "manifest.json").write_text(json.dumps(manifest))
    utf16_manifest = shutil.copytree(ens, root / "utf16-manifest")
    (utf16_manifest / "manifest.json").write_bytes((ens / "manifest.json").read_text().encode("utf-16"))
    utf16_cfg = root / "utf16.cfg"
    utf16_cfg.write_bytes(CFG_TEXT.encode("utf-16"))
    net = nn.Network.from_config(nn.mlp_config((1, 8, 8), [32], 4, variant="AB"), seed=0)
    text, sections = datio._parse_container(datio.packed_export_bytes(net), datio.PACKED_MAGIC)
    sections["layer003.scale"][0] = np.nan
    nan_scale = root / "nan-scale.pbin"
    nan_scale.write_bytes(datio._container_bytes(datio.PACKED_MAGIC, text, list(sections.items())))
    del sections["layer003.scale"]
    no_scale = root / "no-scale.pbin"
    no_scale.write_bytes(datio._container_bytes(datio.PACKED_MAGIC, text, list(sections.items())))
    # dims whose product wraps to 0 in int64: the header alone is the whole file
    wrap_idx = root / "wrap.idx"
    wrap_idx.write_bytes(struct.pack(">HBBIII", 0, 8, 3, 2**31, 2**31, 4))
    for variant in ("AB", "DNN"):  # one NaN weight in a checkpoint
        bad = nn.Network.from_config(nn.mlp_config((1, 8, 8), [32], 4, variant=variant), seed=0)
        bad.layers[0].w.value[0, 0] = np.nan
        paths[f"nan-{variant}"] = root / f"nan-{variant}.ckpt"
        datio.save_checkpoint(bad, paths[f"nan-{variant}"])
    ab_cfg = root / "ab.cfg"
    ab_cfg.write_text(nn.config_to_text(nn.mlp_config((1, 8, 8), [16, 16], 4, variant="AB")))
    paths.update({"cfg": cfg, "ens": ens, "no-member": no_member, "no-alphas": no_alphas,
                  "no-scale": no_scale, "nan-scale": nan_scale, "ab-cfg": ab_cfg, "utf16-manifest": utf16_manifest,
                  "utf16-cfg": utf16_cfg, "wrap-idx": wrap_idx})
    return {f"{{{k}}}": str(v) for k, v in paths.items()}


@pytest.mark.parametrize("argv, code, flag", [
    (["perturb", "--sigma2", "abc", "--checkpoint", "{ens}", "--seed", "0"], 1, "--sigma2"),
    (["analyze", "theorem1", "--k-values", "2,x", "--seed", "0"], 1, "--k-values"),
    (["analyze", "theorem1", "--k-values", "2,2", "--seed", "0"], 1, "--k-values"),
    (["analyze", "theorem2", "--widths", "64,,1", "--seed", "0"], 1, "--widths"),
    (["analyze", "b-table", "--sigmas", "0.5;1", "--seed", "0"], 1, "--sigmas"),
    (["ensemble", "train", "--config", "{cfg}", "--strategy", "bag", "--k", "0",
      "--seed", "0"], 1, "--k"),
    (["eval", "--checkpoint", "{ens}", "--train-frac", "1.0"], 1, "--train-frac"),
    (["train", "--config", "{cfg}", "--seed", "0", "--train-frac", "0"], 1, "--train-frac"),
    (["eval", "--checkpoint", "{no-member}"], 2, "member"),
    (["eval", "--checkpoint", "{no-alphas}"], 2, "alphas"),
    (["train", "--config", "{cfg}", "--seed", "0", "--data-n", "4", "--train-frac", "0.2"], 2,
     "0 training and 4 test"),
    (["analyze", "b-table", "--sigmas", "-1", "--seed", "0"], 1, "--sigmas"),
    (["analyze", "theorem1", "--trials", "0", "--seed", "0"], 1, "--trials"),
    (["analyze", "theorem2", "--widths", "4,1", "--seed", "0"], 1, "--widths"),
    (["eval", "--checkpoint", "{no-scale}"], 2, "layer003.scale"),
    (["perturb", "--sigma2", "0.01,100", "--checkpoint", "{ens}", "--seed", "0"], 1, "--sigma2"),
    (["analyze", "theorem1", "--fan-in", "0", "--seed", "0"], 1, "--fan-in"),
    (["train", "--config", "{cfg}", "--seed", "0", "--batch-size", "0"], 1, "--batch-size"),
    (["train", "--config", "{cfg}", "--seed", "0", "--epochs", "-2"], 1, "--epochs"),
    (["train", "--config", "{cfg}", "--seed", "0", "--lr", "-1"], 1, "--lr"),
    (["train", "--config", "{cfg}", "--seed", "0", "--lr", "nan"], 1, "--lr"),
    (["train", "--config", "{cfg}", "--seed", "0", "--image-size", "-1"], 1, "--image-size"),
    (["train", "--config", "{ab-cfg}", "--seed", "0", "--data-n", "200", "--epochs", "2",
      "--lr", "1e38"], 3, "binarization"),
    (["analyze", "theorem1", "--trials", "1", "--seed", "0"], 1, "--trials"),
    (["analyze", "theorem1", "--fan-in", "1", "--trials", "2", "--seed", "0"], 0,
     "2 trials is small"),
    (["train", "--config", "{cfg}", "--seed", "-1"], 1, "--seed"),
    (["train", "--config", "{cfg}", "--seed", "0", "--data-seed", "-3"], 1, "--data-seed"),
    (["analyze", "theorem2", "--seed", "-1"], 1, "--seed"),
    (["train", "--config", "{utf16-cfg}", "--seed", "0"], 2, "utf-8"),
    (["eval", "--checkpoint", "{utf16-manifest}"], 2, "manifest"),
    (["eval", "--checkpoint", "{members-int}"], 2, "'members'"),
    (["eval", "--checkpoint", "{alphas-text}"], 2, "'alphas'"),
    (["eval", "--checkpoint", "{alphas-short}"], 2, "'alphas'"),
    (["eval", "--checkpoint", "{alphas-zero}"], 2, "'alphas'"),
    (["eval", "--checkpoint", "{alphas-nan}"], 2, "'alphas'"),
    (["eval", "--checkpoint", "{rule-median}"], 2, "'rule'"),
    (["eval", "--checkpoint", "{config-int}"], 2, "'config'"),
    (["eval", "--checkpoint", "{k-seven}"], 2, "'k'"),
    (["eval", "--checkpoint", "{config-hash-zero}"], 2, "'config_hash'"),
    (["eval", "--checkpoint", "{seed-text}"], 2, "'seed'"),
    (["eval", "--checkpoint", "{member-seeds-short}"], 2, "'member_seeds'"),
    (["eval", "--checkpoint", "{member-3-class}"], 2, "config other than the manifest's"),
    (["train", "--config", "{cfg}", "--seed", "0", "--data-classes", "10"], 2,
     "beyond the model's 4 classes"),
    (["eval", "--checkpoint", "{ens}", "--data-classes", "10"], 2, "beyond the model's 4 classes"),
    (["perturb", "--checkpoint", "{ens}", "--seed", "0", "--trials", "2", "--data-classes", "10"],
     2, "beyond the model's 4 classes"),
    (["analyze", "theorem1", "--sigma-w", "1e200", "--seed", "0"], 3, "sigma_w = 1e+200 squares"),
    (["analyze", "theorem1", "--sigma", "1e200", "--seed", "0"], 3, "sigma = 1e+200 squares"),
    (["analyze", "theorem1", "--sigma", "1e-200", "--seed", "0"], 3, "sigma = 1e-200 squares"),
    (["analyze", "theorem2", "--sigma-w", "1e200", "--seed", "0"], 3, "sigma_w = 1e+200 squares"),
    (["analyze", "theorem2", "--sigma", "1e200", "--seed", "0"], 3, "sigma = 1e+200 squares"),
    (["analyze", "theorem2", "--sigma-w", "1e100", "--seed", "0"], 3, "sigma_w = 1e+100"),
    (["eval", "--checkpoint", "{ens}", "--data", "nosuch"], 1, "--data"),
    (["train", "--config", "{cfg}", "--seed", "0", "--data", "idx", "--data-path", "{wrap-idx}"],
     2, "data error"),
    (["train", "--config", "{cfg}", "--seed", "0", "--data-n", "-5"], 1, "--data-n"),
    (["train", "--config", "{cfg}", "--seed", "0", "--data-n", "0"], 1, "--data-n"),
    (["export", "--checkpoint", "{nan-AB}"], 2, "'layer000.w' holds a non-finite value"),
    (["eval", "--checkpoint", "{nan-DNN}"], 2, "'layer000.w' holds a non-finite value"),
    (["perturb", "--checkpoint", "{nan-DNN}", "--seed", "0"], 2,
     "'layer000.w' holds a non-finite value"),
    (["eval", "--checkpoint", "{nan-scale}"], 2, "'layer003.scale' holds a non-finite value"),
], ids=["sigma2-text", "k-values-text", "k-values-repeated", "widths-empty", "sigmas-semicolon", "k-zero",
        "eval-train-frac-1", "train-train-frac-0", "missing-member", "manifest-no-alphas",
        "empty-train-split", "sigmas-negative", "theorem1-trials-0", "widths-two",
        "pbin-missing-section", "sigma2-out-of-range", "fan-in-0", "batch-size-0",
        "epochs-negative", "lr-negative", "lr-nan", "image-size-negative",
        "binary-net-diverges", "theorem1-trials-1", "theorem1-zero-variance",
        "seed-negative", "data-seed-negative", "theorem2-seed-negative", "config-not-utf8",
        "manifest-not-utf8", "manifest-members-int", "manifest-alphas-text",
        "manifest-alphas-short", "manifest-alphas-zero", "manifest-alphas-nan",
        "manifest-rule-median", "manifest-config-int", "manifest-k-seven",
        "manifest-config-hash-zero", "manifest-seed-text", "manifest-member-seeds-short",
        "member-other-config",
        "train-labels-beyond-classes", "eval-labels-beyond-classes",
        "perturb-labels-beyond-classes", "theorem1-sigma-w-overflows",
        "theorem1-sigma-overflows", "theorem1-sigma-square-underflows",
        "theorem2-sigma-w-overflows", "theorem2-sigma-overflows", "theorem2-bound-overflows",
        "data-unknown", "idx-dims-wrap", "data-n-negative", "data-n-0",
        "export-nan-weight", "eval-dnn-nan-weight", "perturb-dnn-nan-weight",
        "eval-pbin-nan-scale"])
def test_malformed_invocations_exit_cleanly(tmp_path, cli_paths, argv, code, flag):
    out = _run_cli([cli_paths.get(a, a) for a in argv] + ["--out", str(tmp_path / "out")])
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr
    assert flag in out.stderr


def _leaf_commands(parser, words=()):
    """The words of every runnable subcommand under ``parser``, and its parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(words, parser)]
    return [leaf for name, p in subs[0].choices.items()
            for leaf in _leaf_commands(p, words + (name,))]


_LEAF_COMMANDS = dict(_leaf_commands(cli.build_parser()))
# a value for each required option, and small work for the options that size it
_REQUIRED = {"--config": "{cfg}", "--checkpoint": "{ckpt}", "--seed": "0", "--strategy": "bag",
             "--k": "1"}
_SMALL = {"--epochs": "1", "--data-n": "64", "--trials": "2", "--fan-in": "4",
          "--widths": "4,4,1", "--inner": "2", "--k-values": "2", "--sigma2": "0.01",
          "--sigmas": "1.0"}


@pytest.mark.parametrize("below", ["", "sub"], ids=["out-is-a-file", "out-below-a-file"])
@pytest.mark.parametrize("words", list(_LEAF_COMMANDS), ids=" ".join)
def test_every_command_exits_2_on_an_out_it_cannot_create(tmp_path, monkeypatch, capsys,
                                                         words, below):
    # the command itself never runs: main creates --out before dispatch
    called = []
    func = _LEAF_COMMANDS[words].get_default("func")
    monkeypatch.setattr(cli, func.__name__,
                        lambda args: called.append(args) or {"seeds": {}, "outputs": []})
    cfg = tmp_path / "ab.cfg"
    cfg.write_text(nn.config_to_text(nn.mlp_config((1, 8, 8), [16], 4, variant="AB")))
    ckpt = tmp_path / "ab.ckpt"
    datio.save_checkpoint(nn.Network.from_config(nn.parse_config(cfg.read_text()), seed=0), ckpt)
    afile = tmp_path / "afile"
    afile.write_text("")
    out = str(afile / below) if below else str(afile)
    argv = list(words)
    for action in _LEAF_COMMANDS[words]._actions:
        flag = action.option_strings[0] if action.option_strings else None
        if action.required and flag != "--out":
            argv += [flag, _REQUIRED[flag].format(cfg=cfg, ckpt=ckpt)]
        elif flag in _SMALL:
            argv += [flag, _SMALL[flag]]
    assert main(argv + ["--out", out]) == 2
    assert out in capsys.readouterr().err
    assert called == []


def test_git_describe_ignores_process_cwd(tmp_path, monkeypatch):
    here = cli._git_describe()
    monkeypatch.chdir(tmp_path)
    cli._git_describe.cache_clear()  # run git again, from the new cwd
    assert cli._git_describe() == here


def test_git_runs_once_per_process(tmp_path, monkeypatch):
    cli._git_describe.cache_clear()
    calls, run = [], subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *a, **kw: calls.append(a) or run(*a, **kw))
    for name in ("a", "b"):
        argv = ["analyze", "b-table", "--sigmas", "1.0", "--seed", "0", "--out", str(tmp_path / name)]
        assert main(argv) == 0
    assert len(calls) == 1
    described = {json.loads((tmp_path / name / "run-manifest.json").read_text())["git_describe"]
                 for name in "ab"}
    assert described == {cli._git_describe()}
