"""Bagging and boosting of weak binary networks.

Members share one NetworkConfig. Bagging and independent-mode members could
train fully in parallel (member RNG streams are isolated by construction);
boosting and warm-restart are sequential by nature. Aggregation is
read-only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import datio
from .errors import DataError, EnsembleError, NumericalError
from .nn.config import NetworkConfig, config_hash, config_to_text, parse_config
from .nn.network import Network, softmax
from .nn.optim import make_optimizer
from .nn.train import TrainHistory, train_network

ALPHA_CAP = math.log(1e6)  # perfect members get a finite vote


@dataclass
class MemberTrainSpec:
    """Per-member training budget; 20 epochs is the desk-scale default."""

    epochs: int = 20
    batch_size: int = 64
    optimizer: str = "adam"
    lr: float = 1e-3


@dataclass
class EnsembleModel:
    members: list
    alphas: np.ndarray
    rule: str  # hard | soft
    strategy: str  # bagging | boosting
    training_mode: str  # independent | warm_restart
    config: NetworkConfig
    seed: int = 0
    member_seeds: list = field(default_factory=list)

    def predict(self, images, rule=None) -> np.ndarray:
        return aggregate(self, images, rule=rule).labels


@dataclass
class AggregateResult:
    member_probs: np.ndarray  # [K, B, C]
    probs: np.ndarray  # [B, C] soft aggregate, rows sum to 1
    labels: np.ndarray  # [B] under the requested rule
    votes: np.ndarray  # [B, C] alpha-weighted argmax votes


def member_seed(seed: int, k: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), int(k)])


def bagging_sample(dataset_size: int, u: np.ndarray, rng) -> np.ndarray:
    """Draw dataset_size indices i.i.d. from categorical(u), with replacement."""
    if dataset_size < 1:
        raise ValueError("dataset_size must be >= 1")
    probs = np.asarray(u, dtype=np.float64)
    total = probs.sum()
    if total <= 0:
        raise ValueError("degenerate sample weights: all zero")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(np.random.SeedSequence(int(rng)))
    return rng.choice(len(probs), size=dataset_size, replace=True, p=probs / total)


def train_member(
    config: NetworkConfig,
    images,
    labels,
    *,
    u: np.ndarray,
    seed_seq,
    spec: MemberTrainSpec,
    eval_images=None,
    eval_labels=None,
    init_from: Network | None = None,
    epoch_callback=None,
) -> tuple[Network, TrainHistory]:
    """Train one weak network under the sampling distribution u.

    Reweighting is on sampling probabilities: a fresh bootstrap multiset of
    M examples is drawn from u.
    """
    init_ss, boot_ss, train_ss = seed_seq.spawn(3)
    if init_from is not None:
        net = init_from.clone()
    else:
        net = Network.from_config(config, seed=np.random.default_rng(init_ss))
    idx = bagging_sample(len(labels), u, np.random.default_rng(boot_ss))
    opt = make_optimizer(spec.optimizer, net.parameters(), spec.lr)
    hist = train_network(
        net,
        images[idx],
        labels[idx],
        epochs=spec.epochs,
        batch_size=spec.batch_size,
        optimizer=opt,
        rng=np.random.default_rng(train_ss),
        eval_images=eval_images,
        eval_labels=eval_labels,
        epoch_callback=epoch_callback,
    )
    return net, hist


def adaboost_round(current_u: np.ndarray, member_predictions, labels, class_count: int):
    """One multiclass-AdaBoost update from a member's training-set predictions.

    Returns (alpha, new_u, err, rejected). err is measured on the full
    training set under the current weights; alpha = ln((1-err)/err) +
    ln(C-1), capped for perfect members. A member is rejected (and the
    weights left untouched) when err >= (C-1)/C, which is exactly
    alpha <= 0: a chance-level member contributes nothing.
    """
    pred = np.asarray(member_predictions)
    if pred.size == 0:
        raise ValueError("empty predictions")
    if pred.ndim == 2:
        pred = pred.argmax(axis=1)
    mis = (pred != np.asarray(labels)).astype(np.float64)
    err = float((current_u * mis).sum())
    if err == 0.0:
        alpha = ALPHA_CAP
    elif err >= 1.0:
        alpha = -math.inf
    else:
        alpha = math.log((1.0 - err) / err) + math.log(class_count - 1)
    # boundary inclusive; tolerance absorbs float accumulation in err
    if err >= (class_count - 1) / class_count - 1e-12:
        return alpha, current_u, err, True
    new = current_u * np.exp(alpha * mis)
    new = new / new.sum()
    if (new < 0).any():
        raise ValueError("negative sample weight")
    if abs(new.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {new.sum()}, not 1")
    return alpha, new, err, False


def _ensemble_epoch_tracker(trained, images, labels, record):
    """Callback factory: test accuracy of completed members + the live one.

    ``trained`` holds the completed members' softmax outputs on ``images``,
    each computed once when its member was kept."""

    def cb(epoch, net, hist):
        probs = softmax(net.forward(images))
        for p in trained:
            probs = probs + p
        acc = float((probs.argmax(axis=1) == labels).mean())
        record.append(acc)

    return cb


def _train_rounds(strategy, config: NetworkConfig, images, labels, *, k: int,
                  mode: str = "independent", seed: int = 0, spec: MemberTrainSpec | None = None,
                  eval_images=None, eval_labels=None, track_ensemble_accuracy: bool = False,
                  ) -> tuple[EnsembleModel, dict]:
    """The member loop shared by bagging and boosting.

    Each round trains one member on a bootstrap drawn from u, retrying once
    from the fallback stream [seed, k, 0xEE7] on NumericalError. Bagging
    then keeps u and gives the member alpha 1; boosting applies
    ``adaboost_round`` and skips a rejected member.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in ("independent", "warm_restart"):
        raise ValueError(f"mode must be independent or warm_restart, got {mode!r}")
    spec = spec or MemberTrainSpec()
    u = np.full(len(labels), 1.0 / len(labels))
    members = []
    alphas = []
    seeds_used = []
    histories = []
    rounds = []
    ensemble_acc = []
    track = track_ensemble_accuracy and eval_images is not None
    member_eval_probs = []
    prev = None
    for ki in range(k):
        cb = None
        if track:
            cb = _ensemble_epoch_tracker(member_eval_probs, eval_images, eval_labels,
                                         ensemble_acc)
        kw = dict(
            config=config, images=images, labels=labels, u=u,
            seed_seq=member_seed(seed, ki), spec=spec,
            eval_images=eval_images, eval_labels=eval_labels,
            init_from=prev if mode == "warm_restart" else None,
            epoch_callback=cb,
        )
        seed_used = [int(seed), ki]
        try:
            net, hist = train_member(**kw)
        except NumericalError:
            seed_used.append(0xEE7)
            kw["seed_seq"] = np.random.SeedSequence(seed_used)
            net, hist = train_member(**kw)
        prev = net
        histories.append(hist)
        alpha = 1.0
        if strategy == "boosting":
            alpha, u, err, rejected = adaboost_round(u, net.predict(images), labels, config.classes)
            rounds.append({"round": ki, "err": err, "alpha": alpha, "rejected": rejected})
            if rejected:
                continue
        members.append(net)
        alphas.append(alpha)
        seeds_used.append(seed_used)
        if track:
            member_eval_probs.append(softmax(net.forward(eval_images)))
    if not members:
        raise EnsembleError(
            f"all {k} boosting members rejected (errors >= chance); rounds: {rounds}"
        )
    model = EnsembleModel(
        members=members,
        alphas=np.asarray(alphas),
        rule="soft",
        strategy=strategy,
        training_mode=mode,
        config=config,
        seed=seed,
        member_seeds=seeds_used,
    )
    return model, {"histories": histories, "rounds": rounds, "ensemble_accuracy": ensemble_acc}


def train_bagging(config: NetworkConfig, images, labels, **kw) -> tuple[EnsembleModel, dict]:
    """K members on independent bootstrap resamples; alpha_k = 1 for all.

    Keywords as ``_train_rounds``: k, mode, seed, spec, eval_images,
    eval_labels, track_ensemble_accuracy.
    """
    return _train_rounds("bagging", config, images, labels, **kw)


def train_boosting(config: NetworkConfig, images, labels, **kw) -> tuple[EnsembleModel, dict]:
    """Sequential SAMME rounds; rejected members are skipped, weights kept.

    Keywords as ``train_bagging``. ``info["rounds"]`` holds each round's
    err, alpha and rejection.
    """
    return _train_rounds("boosting", config, images, labels, **kw)


def aggregate(model: EnsembleModel, images, rule=None) -> AggregateResult:
    """Combine member outputs; ties break deterministically to the lowest class.

    soft: probabilities averaged with renormalized alpha weights;
    hard: alpha-weighted votes on member argmax labels.
    """
    rule = rule or model.rule
    if rule not in ("hard", "soft"):
        raise ValueError(f"rule must be hard or soft, got {rule!r}")
    mp = np.stack([softmax(m.forward(images)) for m in model.members])  # [K, B, C]
    alphas = np.asarray(model.alphas, dtype=np.float64)
    w = alphas / alphas.sum()
    probs = np.tensordot(w, mp, axes=1)
    probs = probs / probs.sum(axis=1, keepdims=True)
    member_labels = mp.argmax(axis=2)  # [K, B]
    votes = np.zeros(probs.shape)
    for ki in range(mp.shape[0]):
        votes[np.arange(votes.shape[0]), member_labels[ki]] += w[ki]
    labels = votes.argmax(axis=1) if rule == "hard" else probs.argmax(axis=1)
    return AggregateResult(member_probs=mp, probs=probs, labels=labels, votes=votes)


# ----------------------------------------------------------- persistence


def save_ensemble(model: EnsembleModel, out_dir) -> dict:
    """Manifest + member checkpoints stored by content hash."""
    os.makedirs(out_dir, exist_ok=True)
    hashes = []
    for m in model.members:
        blob = datio.checkpoint_bytes(m)
        h = hashlib.sha256(blob).hexdigest()
        hashes.append(h)
        with open(os.path.join(out_dir, f"member-{h[:16]}.ckpt"), "wb") as fh:
            fh.write(blob)
    manifest = {
        "format_version": datio.FORMAT_VERSION,
        "strategy": model.strategy,
        "rule": model.rule,
        "mode": model.training_mode,
        "k": len(model.members),
        "seed": model.seed,
        "member_seeds": model.member_seeds,
        "alphas": [float(a) for a in model.alphas],
        "members": hashes,
        "config_hash": config_hash(model.config),
        "config": config_to_text(model.config),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_ensemble(out_dir) -> EnsembleModel:
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read ensemble manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise DataError("ensemble manifest is not a JSON object")
    if manifest.get("format_version") != datio.FORMAT_VERSION:
        raise DataError(f"unsupported ensemble format {manifest.get('format_version')}")
    keys = {"members", "config", "alphas", "rule", "strategy", "mode", "seed", "member_seeds"}
    missing = sorted(keys - set(manifest))
    if missing:
        raise DataError(f"ensemble manifest lacks {missing}")
    members = []
    for h in manifest["members"]:
        fpath = os.path.join(out_dir, f"member-{h[:16]}.ckpt")
        try:
            with open(fpath, "rb") as fh:
                blob = fh.read()
        except OSError as e:
            raise DataError(f"cannot read ensemble member: {e}") from None
        if hashlib.sha256(blob).hexdigest() != h:
            raise DataError(f"member checkpoint {fpath} fails its content hash")
        members.append(datio.load_checkpoint_bytes(blob))
    cfg = parse_config(manifest["config"])
    return EnsembleModel(
        members=members,
        alphas=np.asarray(manifest["alphas"], dtype=np.float64),
        rule=manifest["rule"],
        strategy=manifest["strategy"],
        training_mode=manifest["mode"],
        config=cfg,
        seed=manifest["seed"],
        member_seeds=manifest["member_seeds"],
    )
