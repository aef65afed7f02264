"""Command-line surface: train, ensemble, eval, perturb, analyze, export.

Every run writes exactly one run-manifest.json next to its outputs; all
metrics land in CSV files with frozen column names (see README). Exit
codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from . import __version__, analysis, datio, ensemble
from .errors import DataError, EnsembleError, NumericalError, ShapeError
from .nn.config import config_hash, parse_config


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _checked(parse, ok, what):
    """argparse type: the value ``parse`` makes of the text, if ``ok`` accepts it."""

    def checked(text):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return checked


_NON_NEGATIVE_INT = _checked(int, lambda k: k >= 0, "an integer >= 0")
_POSITIVE_INT = _checked(int, lambda k: k >= 1, "an integer >= 1")
_SAMPLE_COUNT = _checked(int, lambda k: k >= 2, "an integer >= 2")  # a variance needs two
_POSITIVE_FLOAT = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_SIGMA2_LIST = _checked(lambda t: [float(v) for v in t.split(",")],
                        lambda v: all(s == 0 or 1e-6 <= s <= 10 for s in v),
                        "comma-separated variances, each 0 or in [1e-6, 10]")
_POSITIVE_FLOAT_LIST = _checked(lambda t: [float(v) for v in t.split(",")], lambda v: min(v) > 0,
                                "comma-separated numbers > 0")
_K_VALUES = _checked(lambda t: [int(v) for v in t.split(",")],
                     lambda v: min(v) >= 1 and len(set(v)) == len(v),
                     "distinct comma-separated integers >= 1")
_WIDTHS = _checked(lambda t: [int(v) for v in t.split(",")], lambda v: len(v) >= 3 and min(v) >= 1,
                   "at least 3 comma-separated integers >= 1")


def _git_describe():
    """Version of the source tree this package was imported from."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def _write_manifest(out_dir, argv, started, run):
    """Write run-manifest.json: the invocation plus what the command ran,
    ``run`` being its seeds, its outputs and any further keys."""
    manifest = {
        "command": " ".join(map(str, sys.argv)),
        "argv": [str(a) for a in argv],
        "package_version": __version__,
        "git_describe": _git_describe(),
        "started_unix": started,
        "duration_s": time.time() - started,
        **run,
        "outputs": sorted(str(o) for o in run["outputs"]),
    }
    path = os.path.join(out_dir, "run-manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(out_dir, name, header, rows):
    """Write ``name`` in ``out_dir``, creating the directory; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def _print_table(header, rows):
    cells = [[str(c) for c in r] for r in [header, *rows]]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for i, r in enumerate(cells):
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))


def _load_config(path):
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as e:
        raise DataError(f"cannot read config {path}: {e}") from None


def _load_dataset(args) -> tuple[datio.Dataset, datio.Dataset]:
    kind = args.data
    if kind == "blobs":
        ds = datio.make_toy(datio.ToySpec(
            "gaussian_blobs", args.data_n, args.data_classes,
            noise=args.data_noise, seed=args.data_seed,
        ))
    elif kind == "blobs-img":
        ds = datio.make_blob_images(
            args.data_n, args.data_classes, noise=args.data_noise,
            seed=args.data_seed, size=args.image_size,
        )
    elif kind == "rings":
        ds = datio.make_toy(datio.ToySpec(
            "xor_rings", args.data_n, 2, noise=args.data_noise, seed=args.data_seed,
        ))
    elif kind == "idx":
        paths = args.data_path.split(",") if args.data_path else []
        if not 1 <= len(paths) <= 2:
            raise DataError("--data idx needs --data-path IMAGES[,LABELS]")
        try:
            ds = datio.load_idx(*paths, class_count=args.data_classes)
        except OSError as e:
            raise DataError(str(e)) from None
    elif kind == "cifar10":
        if not args.data_path:
            raise DataError("--data cifar10 needs --data-path FILE")
        try:
            ds = datio.load_cifar10_bin(args.data_path)
        except OSError as e:
            raise DataError(str(e)) from None
    else:
        raise DataError(f"unknown dataset kind {kind!r}")
    # a positive --train-frac asks for training examples; every command tests on the rest
    n_train = int(len(ds) * args.train_frac)
    if n_train == 0 < args.train_frac or n_train == len(ds):
        raise DataError(f"--train-frac {args.train_frac} splits {len(ds)} examples into "
                        f"{n_train} training and {len(ds) - n_train} test examples")
    return datio.split_dataset(ds, n_train)


def _add_data_flags(p, trains=True):
    # the test split is never empty, nor the training split of a command that trains
    if trains:
        frac = _checked(float, lambda f: 0.0 < f < 1.0, "a fraction in (0, 1)")
    else:
        frac = _checked(float, lambda f: 0.0 <= f < 1.0, "a fraction in [0, 1)")
    p.add_argument("--data", default="blobs-img",
                   help="blobs | blobs-img | rings | idx | cifar10")
    p.add_argument("--data-path", default=None, help="file path(s) for idx/cifar10")
    p.add_argument("--data-n", type=int, default=2000)
    p.add_argument("--data-classes", type=_POSITIVE_INT, default=4)
    p.add_argument("--data-noise", type=_checked(float, lambda v: v >= 0, "a number >= 0"),
                   default=0.1)
    p.add_argument("--data-seed", type=_NON_NEGATIVE_INT, default=0)
    p.add_argument("--image-size", type=_POSITIVE_INT, default=8)
    p.add_argument("--train-frac", type=frac, default=0.75)


def _add_train_flags(p):
    p.add_argument("--epochs", type=_NON_NEGATIVE_INT, default=20)
    p.add_argument("--batch-size", type=_POSITIVE_INT, default=64)
    p.add_argument("--optimizer", default="adam", choices=["adam", "sgd"])
    p.add_argument("--lr", type=_POSITIVE_FLOAT, default=1e-3)


def _member_spec(args):
    return ensemble.MemberTrainSpec(
        epochs=args.epochs, batch_size=args.batch_size,
        optimizer=args.optimizer, lr=args.lr,
    )


def _load_model(path):
    if os.path.isdir(path):
        return ensemble.load_ensemble(path)
    return datio.load_network(path)


# ----------------------------------------------------------------- commands


def cmd_train(args):
    cfg = _load_config(args.config)
    train, test = _load_dataset(args)
    net, hist = ensemble.train_member(
        cfg, train.images, train.labels,
        u=np.full(len(train), 1.0 / len(train)),
        seed_seq=ensemble.member_seed(args.seed, 0),
        spec=_member_spec(args),
        eval_images=test.images, eval_labels=test.labels,
    )
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "checkpoint.ckpt")
    datio.save_checkpoint(net, ckpt)
    rows = [
        (e, hist.train_loss[e], hist.test_accuracy[e])
        for e in range(len(hist.train_loss))
    ]
    metrics = _write_csv(args.out, "metrics.csv", ["epoch", "train_loss", "test_accuracy"], rows)
    final = hist.test_accuracy[-1] if hist.test_accuracy else float("nan")
    print(f"trained {cfg.name}: epochs={len(hist.train_loss)} test_accuracy={final:.4f}")
    print(f"checkpoint: {ckpt}")
    return {"seeds": {"seed": args.seed, "data_seed": args.data_seed},
            "outputs": [ckpt, metrics], "config_hash": config_hash(cfg)}


def cmd_ensemble_train(args):
    cfg = _load_config(args.config)
    train, test = _load_dataset(args)
    spec = _member_spec(args)
    mode = {"indep": "independent", "warm": "warm_restart"}[args.mode]
    kw = dict(
        k=args.k, mode=mode, seed=args.seed, spec=spec,
        eval_images=test.images, eval_labels=test.labels,
        track_ensemble_accuracy=True,
    )
    fit = ensemble.train_bagging if args.strategy == "bag" else ensemble.train_boosting
    model, info = fit(cfg, train.images, train.labels, **kw)
    model.rule = args.rule
    ensemble.save_ensemble(model, args.out)
    rows = []
    ens_acc = info["ensemble_accuracy"]
    i = 0
    for mi, hist in enumerate(info["histories"]):
        for e in range(len(hist.train_loss)):
            ens_col = ens_acc[i] if i < len(ens_acc) else ""
            rows.append((mi, e, hist.train_loss[e],
                         hist.test_accuracy[e] if hist.test_accuracy else "", ens_col))
            i += 1
    metrics = _write_csv(
        args.out, "metrics.csv",
        ["member", "epoch", "train_loss", "test_accuracy", "ensemble_test_accuracy"],
        rows,
    )
    ens_test = float((model.predict(test.images, rule=args.rule) == test.labels).mean())
    print(f"{args.strategy} ensemble k={len(model.members)} rule={args.rule} "
          f"test_accuracy={ens_test:.4f}")
    print(f"alphas: {[round(float(a), 4) for a in model.alphas]}")
    return {"seeds": {"seed": args.seed, "data_seed": args.data_seed},
            "outputs": [metrics, os.path.join(args.out, "manifest.json")],
            "config_hash": config_hash(cfg), "alphas": [float(a) for a in model.alphas]}


def cmd_eval(args):
    model = _load_model(args.checkpoint)
    _, test = _load_dataset(args)
    if hasattr(model, "members"):
        pred = model.predict(test.images, rule=args.rule)
    else:
        pred = model.predict(test.images)
    classes = model.config.classes
    acc = float((pred == test.labels).mean())
    epath = _write_csv(args.out, "eval.csv", ["metric", "value"],
                       [("accuracy", acc), ("n", len(test))])
    conf = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(conf, (test.labels, pred), 1)
    rows = [(t, p, int(conf[t, p])) for t in range(classes) for p in range(classes)]
    cpath = _write_csv(args.out, "confusion.csv", ["true_class", "pred_class", "count"], rows)
    print(f"accuracy: {acc:.4f} on {len(test)} examples")
    return {"seeds": {"data_seed": args.data_seed}, "outputs": [epath, cpath]}


def cmd_perturb(args):
    model = _load_model(args.checkpoint)
    _, test = _load_dataset(args)
    rows = []
    for s2 in args.sigma2:
        spec = analysis.PerturbationSpec(
            target=args.target, sigma2=s2, trials=args.trials, seed=args.seed
        )
        oc = analysis.output_change_trained(model, test.images, spec)
        ec = analysis.robustness_trained(model, test.images, test.labels, spec)
        rows.append((s2, args.target, "output_change", oc.mean, oc.stderr, oc.trials))
        rows.append((s2, args.target, "error_change", ec.mean, ec.stderr, ec.trials))
    header = ["sigma2", "target", "metric", "value", "stderr", "trials"]
    path = _write_csv(args.out, "perturb.csv", header, rows)
    _print_table(header, rows)
    return {"seeds": {"seed": args.seed}, "outputs": [path]}


def cmd_analyze_b_table(args):
    rows = [(r["sigma"], r["b"], r["r"]) for r in analysis.b_r_table(args.sigmas)]
    path = _write_csv(args.out, "b_table.csv", ["sigma", "b", "r"], rows)
    _print_table(["sigma", "b", "r"], rows)
    return {"seeds": {"seed": args.seed}, "outputs": [path]}


def cmd_analyze_theorem1(args):
    rep = analysis.verify_theorem1(
        args.fan_in, args.sigma_w, args.sigma,
        k_values=tuple(args.k_values), trials=args.trials, seed=args.seed,
    )
    rows = []
    for name, st in rep.regimes.items():
        rows.append(("regime", name, st.measured, st.stderr,
                     st.predicted, st.rel_err, int(st.rel_err <= rep.rel_tol)))
    for k, st in rep.bagged.items():  # nan ratio: no single-model variance to shrink
        ok = st.rel_err <= rep.rel_tol and math.isfinite(rep.bagging_ratio[k])
        rows.append((f"bagged_k{k}", "both_bin", st.measured, st.stderr,
                     st.predicted, st.rel_err, int(ok)))
    for name, val in rep.thresholds.items():
        rows.append(("threshold", name, val, "", "", "", ""))
    for c in rep.threshold_checks:
        rows.append((f"check_k{c['k']}", c["predicate"], int(c["measured"]), "",
                     int(c["predicted"]), "", int(c["agree"])))
    path = _write_csv(args.out, "theorem1.csv",
                      ["kind", "name", "measured", "stderr", "predicted", "rel_err", "ok"], rows)
    bad = [r for r in rows if r[6] == 0]
    print(f"theorem1: {len(rows)} rows, {len(bad)} outside tolerance -> {path}")
    return {"seeds": {"seed": args.seed}, "outputs": [path]}


def cmd_analyze_theorem2(args):
    widths = tuple(args.widths)
    rep = analysis.verify_theorem2(
        widths, args.sigma_w, args.sigma,
        trials=args.trials, inner=args.inner, seed=args.seed,
    )
    rows = [
        (name, len(widths) - 1, res["bound"], res["mean_measured"],
         res["satisfied_fraction"], res["satisfied_se"], int(res["satisfied_fraction"] >= 0.99))
        for name, res in rep.regimes.items()
    ]
    header = ["regime", "layers", "bound", "mean_measured",
              "satisfied_fraction", "satisfied_se", "ok"]
    path = _write_csv(args.out, "theorem2.csv", header, rows)
    _print_table(header, rows)
    return {"seeds": {"seed": args.seed}, "outputs": [path]}


def cmd_export(args):
    model = _load_model(args.checkpoint)
    if hasattr(model, "members"):
        raise DataError("export works on single-network checkpoints")
    if not model.binary_layers():
        raise DataError("network has no binary layers to pack")
    float_blob = datio.checkpoint_bytes(model)
    packed_blob = datio.packed_export_bytes(model)
    os.makedirs(args.out, exist_ok=True)
    ppath = os.path.join(args.out, "model.pbin")
    with open(ppath, "wb") as fh:
        fh.write(packed_blob)
    reloaded = datio.load_packed_bytes(packed_blob)
    probe = np.random.default_rng(0).uniform(-1, 1, (64,) + tuple(model.config.input_shape)).astype(np.float32)
    match = bool(np.array_equal(model.predict(probe), reloaded.predict(probe)))
    ratio = len(float_blob) / len(packed_blob)
    rpath = _write_csv(args.out, "export.csv", ["metric", "value"], [
        ("float_bytes", len(float_blob)),
        ("packed_bytes", len(packed_blob)),
        ("ratio", ratio),
        ("argmax_match", int(match)),
    ])
    print(f"packed export: {len(packed_blob)} bytes, {ratio:.1f}x smaller, "
          f"argmax match: {match}")
    return {"seeds": {}, "outputs": [ppath, rpath]}


# --------------------------------------------------------------- dispatcher


def build_parser() -> _Parser:
    root = _Parser(prog="binn", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train one weak binary network")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    p.add_argument("--out", required=True)
    _add_data_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    pe = sub.add_parser("ensemble", help="ensemble operations")
    esub = pe.add_subparsers(dest="ensemble_command", required=True, parser_class=_Parser)
    p = esub.add_parser("train", help="train a bagged or boosted ensemble")
    p.add_argument("--config", required=True)
    p.add_argument("--strategy", required=True, choices=["bag", "boost"])
    p.add_argument("--k", type=_POSITIVE_INT, required=True)
    p.add_argument("--mode", default="indep", choices=["indep", "warm"])
    p.add_argument("--rule", default="soft", choices=["hard", "soft"])
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, required=True)
    p.add_argument("--out", required=True)
    _add_data_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_ensemble_train)

    p = sub.add_parser("eval", help="accuracy + confusion matrix")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--rule", default=None, choices=["hard", "soft"])
    p.add_argument("--out", required=True)
    _add_data_flags(p, trains=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("perturb", help="robustness metrics under Gaussian noise")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sigma2", type=_SIGMA2_LIST, default="0.001,0.01,0.1")
    p.add_argument("--trials", type=_POSITIVE_INT, default=100)
    p.add_argument("--target", default="input", choices=["input", "weights"])
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, required=True)
    p.add_argument("--out", required=True)
    _add_data_flags(p, trains=False)
    p.set_defaults(func=cmd_perturb)

    pa = sub.add_parser("analyze", help="variance-theory reports")
    asub = pa.add_subparsers(dest="analyze_command", required=True, parser_class=_Parser)
    p = asub.add_parser("b-table", help="sign-flip variance factor table")
    p.add_argument("--sigmas", type=_POSITIVE_FLOAT_LIST, default="1.5,1.0,0.5,0.1,0.01,0.001")
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_b_table)
    p = asub.add_parser("theorem1", help="one-layer variance Monte Carlo")
    p.add_argument("--fan-in", type=_POSITIVE_INT, default=256)
    p.add_argument("--sigma-w", type=_POSITIVE_FLOAT, default=1.0)
    p.add_argument("--sigma", type=_POSITIVE_FLOAT, default=0.1)
    p.add_argument("--k-values", type=_K_VALUES, default="2,4,8,16")
    p.add_argument("--trials", type=_SAMPLE_COUNT, default=100_000)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_theorem1)
    p = asub.add_parser("theorem2", help="multi-layer bound satisfaction")
    p.add_argument("--widths", type=_WIDTHS, default="64,64,1")
    p.add_argument("--sigma-w", type=_POSITIVE_FLOAT, default=1.0)
    p.add_argument("--sigma", type=_POSITIVE_FLOAT, default=1.0)
    p.add_argument("--trials", type=_POSITIVE_INT, default=10_000)
    p.add_argument("--inner", type=_POSITIVE_INT, default=128)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_theorem2)

    p = sub.add_parser("export", help="packed inference file + size report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return root


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        _write_manifest(args.out, argv, started, args.func(args))
        return 0
    except (DataError, ShapeError) as e:
        sys.stderr.write(f"data error: {e}\n")
        return 2
    except (NumericalError, EnsembleError) as e:
        sys.stderr.write(f"numerical failure: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
