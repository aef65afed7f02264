"""The three seeded workloads of the benchmark.

Each workload has ``setup(seed, tmp)``, which derives every data and
training seed from the workload seed and builds the inputs, and
``round(state, rnd, tmp)``, which runs the timed phases once and checks
their outputs. A run repeats the round, and all rounds of one run compute
the same thing, so their outputs must match byte for byte.

Why these three: ``nin-tiny`` is conv-heavy and spends its time in the
packed XNOR GEMM and the conv/pool layers; ``toy-ensemble`` runs tiny
matrices, so per-call overhead in ``nn``, the ensemble tracker, perturb
clones and CLI I/O dominate; ``variance-mc`` is numpy RNG draws and
batched matmuls in ``analysis``, where kernel and training changes are
predicted to move nothing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import time
from collections import Counter

import numpy as np

from binn import analysis, cli, datio, nn


def derive_seeds(seed: int, tag: int, n: int) -> list[int]:
    ss = np.random.SeedSequence([seed % 2**64, tag])
    return [int(v) for v in ss.generate_state(n) % 2**31]


class Round:
    """What one round did: phase and operation times, work counts, checks
    and digest. Operations are the short timed steps a phase is made of."""

    def __init__(self, tracer, calibration=None):
        self.tracer = tracer
        self.calibration = calibration
        self.phases: dict[str, float] = {}
        self.ops: dict[str, list[float]] = {}
        self.work = Counter()
        self.checks: list[tuple[str, bool]] = []
        self.digest = ""
        self.test_accuracy = None

    @contextlib.contextmanager
    def phase(self, name: str):
        span = self.tracer.begin(f"phase.{name}")
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0
            self.tracer.finish(span)

    @contextlib.contextmanager
    def op(self, name: str):
        if self.calibration is not None:
            self.calibration.sample()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.ops.setdefault(name, []).append(time.perf_counter() - t0)

    def check(self, name: str, ok) -> None:
        self.checks.append((name, bool(ok)))

    def cli(self, op: str, command: str, argv: list[str]) -> int:
        """Run ``binn.cli.main`` in process, printing captured, as operation ``op``."""
        span = self.tracer.begin(f"cli.{command}")
        out, err = io.StringIO(), io.StringIO()
        try:
            with self.op(op), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        finally:
            self.tracer.finish(span)
        self.check(f"binn {' '.join(argv[:2])} exits 0", rc == 0)
        if rc != 0:
            raise RuntimeError(f"binn {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
        return rc


def digest_dir(path: str) -> str:
    """SHA-256 over every file below ``path`` except run manifests."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            if name == "run-manifest.json":
                continue
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class NinTiny:
    """NIN-x0.5 all-binary on 32x32 blob images: train, eval, packed reload."""

    name = "nin-tiny"
    steps, batch, held_out = 4, 32, 64

    def setup(self, seed, tmp):
        data_seed, init_seed, train_seed = derive_seeds(seed, 1, 3)
        cfg = nn.nin_config(variant="AB", width_scale=0.5, classes=4, input_shape=(1, 32, 32))
        n_train = self.steps * self.batch
        ds = datio.make_blob_images(n_train + self.held_out, 4, seed=data_seed, size=32)
        train, held = datio.split_dataset(ds, n_train)
        # net construction belongs to set-up; each round builds its own copy
        nn.Network.from_config(cfg, seed=init_seed)
        return dict(cfg=cfg, train=train, held=held, init_seed=init_seed, train_seed=train_seed)

    def round(self, s, rnd, tmp):
        train, held = s["train"], s["held"]
        with rnd.phase("train"):
            with rnd.op("build"):
                net = nn.Network.from_config(s["cfg"], seed=s["init_seed"])
                opt = nn.make_optimizer("adam", net.parameters(), 1e-3)
                rng = np.random.default_rng(s["train_seed"])
                perm = rng.permutation(len(train))
            # the loop of nn.train_network for one epoch, with each step timed
            for lo in range(0, len(train), self.batch):
                idx = perm[lo:lo + self.batch]
                with rnd.op("train_step"):
                    nn.backward_and_step(net, train.images[idx], train.labels[idx], opt, rng=rng)
        rnd.work["train_examples"] += len(train)
        with rnd.phase("infer"):
            pred = self._predict(rnd, "eval_forward", net, held.images)
            with rnd.op("export_reload"):
                blob = datio.packed_export_bytes(net)
                reloaded = datio.load_packed_bytes(blob)
            pred_packed = self._predict(rnd, "packed_forward", reloaded, held.images)
        rnd.work["infer_examples"] += 2 * len(held)
        rnd.check("packed reload reproduces the float net's argmax",
                  np.array_equal(pred, pred_packed))
        rnd.digest = hashlib.sha256(blob + pred.astype("<i8").tobytes()).hexdigest()

    def _predict(self, rnd, op, net, images):
        out = []
        for lo in range(0, len(images), self.batch):
            with rnd.op(op):
                out.append(net.predict(images[lo:lo + self.batch]))
        return np.concatenate(out)


class ToyEnsemble:
    """The desk-scale protocol through ``binn.cli.main``: bag-5 and boost-5
    of the 64-8-4 AB MLP with tracking, eval of both, perturb of the bag."""

    name = "toy-ensemble"
    k, epochs, n, train_frac, trials, sigma2 = 5, 12, 4000, 0.75, 20, "0.01,0.1"

    def setup(self, seed, tmp):
        data_seed, bag_seed, boost_seed, perturb_seed = derive_seeds(seed, 2, 4)
        cfg = nn.mlp_config((1, 8, 8), [8], 4, variant="AB")
        nn.Network.from_config(cfg, seed=bag_seed)  # the CLI builds the members
        cfg_path = os.path.join(tmp, "member.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(nn.config_to_text(cfg))
        # the same data the CLI regenerates from these flags; only its test
        # labels are used here, to set the chance level
        ds = datio.make_blob_images(self.n, 4, noise=0.08, seed=data_seed)
        _, test = datio.split_dataset(ds, int(self.n * self.train_frac))
        data = ["--data", "blobs-img", "--data-n", str(self.n), "--data-classes", "4",
                "--data-noise", "0.08", "--data-seed", str(data_seed),
                "--train-frac", str(self.train_frac)]
        return dict(cfg_path=cfg_path, data=data, bag_seed=bag_seed, boost_seed=boost_seed,
                    perturb_seed=perturb_seed, n_test=len(test),
                    chance=float(np.bincount(test.labels).max() / len(test)))

    def round(self, s, rnd, tmp):
        data = s["data"]
        out = {name: os.path.join(tmp, name) for name in ("bag", "boost", "eval-bag", "eval-boost",
                                                           "perturb-input", "perturb-weights")}
        train = ["--config", s["cfg_path"], "--k", str(self.k), "--epochs", str(self.epochs),
                 "--lr", "5e-3", *data]
        with rnd.phase("train"):
            for strat in ("bag", "boost"):
                rnd.cli(f"{strat}_train", "ensemble_train",
                        ["ensemble", "train", "--strategy", strat, "--seed", str(s[f"{strat}_seed"]),
                         "--out", out[strat], *train])
        n_train = self.n - s["n_test"]
        rnd.work["train_examples"] += 2 * self.k * self.epochs * n_train
        rnd.work["ensemble_rounds"] += 2 * self.k
        with rnd.phase("infer"):
            for strat in ("bag", "boost"):
                rnd.cli(f"{strat}_eval", "eval", ["eval", "--checkpoint", out[strat], "--out",
                                                  out[f"eval-{strat}"], *data])
        kept = {}
        for strat in ("bag", "boost"):
            with open(os.path.join(out[strat], "manifest.json")) as fh:
                kept[strat] = json.load(fh)["k"]
        rnd.work["ensemble_kept"] += kept["bag"] + kept["boost"]
        rnd.work["infer_examples"] += s["n_test"] * (kept["bag"] + kept["boost"])
        with rnd.phase("perturb"):
            for target in ("input", "weights"):
                rnd.cli(f"perturb_{target}", "perturb",
                        ["perturb", "--checkpoint", out["bag"], "--target", target,
                         "--sigma2", self.sigma2, "--trials", str(self.trials),
                         "--seed", str(s["perturb_seed"]), "--out", out[f"perturb-{target}"],
                         *data])
        n_sigma = len(self.sigma2.split(","))
        # two estimators (output change, error change) per sigma2 and target
        rnd.work["perturb_trials"] += 2 * 2 * n_sigma * self.trials

        acc = {}
        for strat in ("bag", "boost"):
            rows = read_csv(os.path.join(out[f"eval-{strat}"], "eval.csv"))
            acc[strat] = float(next(r["value"] for r in rows if r["metric"] == "accuracy"))
        rnd.test_accuracy = acc["bag"]
        for strat in ("bag", "boost"):
            rnd.check(f"{strat}-5 test accuracy {acc[strat]:.4f} above chance {s['chance']:.4f}",
                      acc[strat] > s["chance"])
        for target in ("input", "weights"):
            rows = read_csv(os.path.join(out[f"perturb-{target}"], "perturb.csv"))
            rnd.check(f"perturb {target}: {2 * n_sigma} finite rows",
                      len(rows) == 2 * n_sigma
                      and all(math.isfinite(float(r["value"])) for r in rows))
        rnd.digest = digest_dir(tmp)


class VarianceMC:
    """Theorem 1/2 Monte Carlo and the B table through the CLI, plus
    random-network robustness of a DNN and an AB MLP."""

    name = "variance-mc"
    t1_trials, t2_trials, rr_samples, rr_trials = 10_000, 1_000, 16, 32

    def setup(self, seed, tmp):
        t1_seed, t2_seed, bt_seed, rr_seed, data_seed = derive_seeds(seed, 3, 5)
        cfgs = {v: nn.mlp_config((1, 8, 8), [64, 64], 4, variant=v) for v in ("DNN", "AB")}
        for cfg in cfgs.values():  # robustness_random builds its own nets
            nn.Network.from_config(cfg, seed=rr_seed)
        inputs = datio.make_blob_images(256, 4, noise=0.12, seed=data_seed).images
        return dict(t1_seed=t1_seed, t2_seed=t2_seed, bt_seed=bt_seed, cfgs=cfgs, inputs=inputs,
                    spec=analysis.PerturbationSpec(sigma2=0.01, trials=self.rr_trials, seed=rr_seed))

    def round(self, s, rnd, tmp):
        t1, t2, bt = (os.path.join(tmp, d) for d in ("theorem1", "theorem2", "b-table"))
        with rnd.phase("mc"):
            rnd.cli("theorem1", "analyze_theorem1",
                    ["analyze", "theorem1", "--fan-in", "256", "--sigma", "0.1",
                     "--k-values", "2,4,8,16", "--trials", str(self.t1_trials),
                     "--seed", str(s["t1_seed"]), "--out", t1])
            rnd.cli("theorem2", "analyze_theorem2",
                    ["analyze", "theorem2", "--widths", "64,64,1", "--trials", str(self.t2_trials),
                     "--seed", str(s["t2_seed"]), "--out", t2])
            rnd.cli("b_table", "analyze_b_table",
                    ["analyze", "b-table", "--seed", str(s["bt_seed"]), "--out", bt])
            est = {}
            for v, cfg in s["cfgs"].items():
                with rnd.op(f"robustness_{v}"):
                    est[v] = analysis.robustness_random(cfg, s["spec"], self.rr_samples, s["inputs"])
        rnd.work["mc_trials"] += self.t1_trials + self.t2_trials + sum(e.trials for e in est.values())

        rows = read_csv(os.path.join(tmp, "theorem2", "theorem2.csv"))
        rnd.check(f"theorem2.csv: all {len(rows)} rows ok=1", rows and all(r["ok"] == "1" for r in rows))
        rows = [r for r in read_csv(os.path.join(tmp, "theorem1", "theorem1.csv")) if r["ok"] != ""]
        rnd.check(f"theorem1.csv: all {len(rows)} rows agree with theory",
                  rows and all(_theorem1_row_ok(r) for r in rows))
        rnd.check("robustness_random: AB output change exceeds DNN's",
                  all(math.isfinite(e.mean) for e in est.values())
                  and est["AB"].mean > est["DNN"].mean)
        h = hashlib.sha256(digest_dir(tmp).encode())
        for v in sorted(est):
            h.update(repr((v, est[v].mean, est[v].stderr, est[v].trials)).encode())
        rnd.digest = h.hexdigest()


def _theorem1_row_ok(row) -> bool:
    """A theorem1.csv row with a non-empty ``ok`` (threshold rows have none).

    The CLI's ``ok`` allows a 5% relative error, sized for its 100,000-trial
    default. At this workload's 10,000 trials one standard error is already
    ~1.5% of the prediction, so about one seed in fifty has a row just over
    5% (seed 210: bagged K=2 at 6.0%). A variance row therefore also passes
    within 5% plus 3 standard errors; predicate rows still need ``ok=1``.
    """
    if row["ok"] == "1":
        return True
    if row["stderr"] == "":
        return False
    return float(row["rel_err"]) <= 0.05 + 3 * float(row["stderr"]) / float(row["predicted"])


WORKLOADS = {w.name: w for w in (NinTiny(), ToyEnsemble(), VarianceMC())}


def run_round(workload, state, tmp, tracer, calibration=None) -> Round:
    """One round in a fresh output directory; its root span is ``round``.
    With a calibration, it is sampled before every operation."""
    out = os.path.join(tmp, "round")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    rnd = Round(tracer, calibration)
    span = tracer.begin("round")
    try:
        workload.round(state, rnd, out)
    finally:
        tracer.finish(span)
    return rnd
