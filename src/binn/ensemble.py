"""Bagging and boosting of weak binary networks.

Members share one NetworkConfig. Independent-mode bagged members train in
lockstep as stacked networks (``Network.stack``), as many per stack as
keep its activations within _STACK_BYTES: each keeps its own init,
bootstrap, permutation and dropout streams, and its checkpoint bytes equal
those of training it alone. Boosting and warm restart depend on the
previous member, so each of their rounds trains a stack of one.
Aggregation is read-only.
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
from .nn.network import EVAL_ROWS, Network, eval_logits, softmax
from .nn.optim import make_optimizer
from .nn.train import train_network

ALPHA_CAP = math.log(1e6)  # perfect members get a finite vote
_STACK_BYTES = 64 << 20  # layer inputs one lockstep stack of bagged members may hold


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
    return rng.choice(len(probs), size=dataset_size, replace=True, p=probs / total)


def train_members(config: NetworkConfig, images, labels, *, u: np.ndarray, seed_seqs,
                  spec: MemberTrainSpec, eval_images=None, eval_labels=None,
                  init_from: Network | None = None) -> list:
    """Train one weak network per seed sequence under the sampling
    distribution u, all in lockstep as one stack; returns a (net, history)
    per member. Raises NumericalError if any member's training goes
    non-finite.

    Reweighting is on sampling probabilities: each member draws a fresh
    bootstrap multiset of M examples from u.
    """
    nets, samples, rngs = [], [], []
    for seed_seq in seed_seqs:
        init_ss, boot_ss, train_ss = seed_seq.spawn(3)
        if init_from is not None:
            nets.append(init_from.clone())
        else:
            nets.append(Network.from_config(config, seed=np.random.default_rng(init_ss)))
        samples.append(bagging_sample(len(labels), u, np.random.default_rng(boot_ss)))
        rngs.append(np.random.default_rng(train_ss))
    stack = Network.stack(nets)
    opt = make_optimizer(spec.optimizer, stack.parameters(), spec.lr)
    hists = train_network(stack, images, labels, epochs=spec.epochs, batch_size=spec.batch_size,
                          optimizer=opt, rng=rngs, eval_images=eval_images,
                          eval_labels=eval_labels, sample=np.stack(samples))
    return list(zip(stack.unstack(), hists))


def train_member(config: NetworkConfig, images, labels, *, seed_seq, **kw):
    """``train_members`` for one member: (net, history)."""
    ((net, hist),) = train_members(config, images, labels, seed_seqs=[seed_seq], **kw)
    return net, hist


def _lockstep_groups(net: Network, k: int, rows: int) -> list:
    """Ranges of k members like ``net`` (read for its layers' input shapes and
    dtype) that run as one stack each: as many as keep every layer's input
    for ``rows`` rows within _STACK_BYTES, but at least one. So the budget
    does not bound a large member: a NIN-x0.5 member (3.37 MB of layer inputs
    per row) trains in a stack of one. Its 512-row eval forward keeps nothing,
    and peaks at ~0.65 GB (1.28 MB per row) in conv 5's quantize step, which
    holds its input, its +/-1 copy, the input's |x| and the bool |x| <= 1 mask."""
    row_bytes = sum(math.prod(lay.in_shape) for lay in net.layers) * np.dtype(net.dtype).itemsize
    size = max(1, _STACK_BYTES // (rows * row_bytes))
    return [range(lo, min(k, lo + size)) for lo in range(0, k, size)]


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


def _ensemble_epoch_tracker(kept, labels, record, *, alphas, rule):
    """Callback factory for one round's member-epochs: records the accuracy of
    ``_combine`` over ``kept`` (the kept members' last-epoch softmax outputs)
    and, if ``alphas`` weighs it too, the live member's; None if there are none."""

    def cb(logits):
        probs = kept + [softmax(logits)] if len(alphas) > len(kept) else kept
        record.append(float((_combine(np.stack(probs), alphas, rule).labels == labels).mean())
                      if probs else None)

    return cb


def _train_rounds(strategy, config: NetworkConfig, images, labels, *, k: int,
                  mode: str = "independent", seed: int = 0, spec: MemberTrainSpec | None = None,
                  eval_images=None, eval_labels=None, rule: str = "soft",
                  ) -> tuple[EnsembleModel, dict]:
    """The member loop shared by bagging and boosting.

    Independent bagging trains its members in lockstep stacks of two or
    more up front (``_lockstep_groups``); otherwise each round trains one
    member on a bootstrap drawn from u. A stack that went non-finite leaves
    its members to train alone, which gives each the bits it had in the
    stack; a member that went non-finite alone retrains once, from the
    fallback stream [seed, k, 0xEE7]. Bagging then keeps u and gives the
    member alpha 1; boosting applies ``adaboost_round`` and skips a
    rejected member. Each member-epoch on eval data then records in
    ``info["ensemble_accuracy"]`` the ``rule`` accuracy of the kept members
    plus the live one unless it was rejected (None while no member is kept).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in ("independent", "warm_restart"):
        raise ValueError(f"mode must be independent or warm_restart, got {mode!r}")
    if rule not in ("hard", "soft"):
        raise ValueError(f"rule must be hard or soft, got {rule!r}")
    spec = spec or MemberTrainSpec()
    u = np.full(len(labels), 1.0 / len(labels))
    members = []
    alphas = []
    seeds_used = []
    histories = []
    rounds = []
    ensemble_acc = []
    kept_probs = []  # the kept members' softmax outputs on eval_images
    common = dict(spec=spec, eval_images=eval_images, eval_labels=eval_labels)
    stacked = {}
    if strategy == "bagging" and mode == "independent":
        # rows of one training step or one eval forward, whichever is more
        rows = max(spec.batch_size, min(EVAL_ROWS, 0 if eval_images is None else len(eval_images)))
        groups = _lockstep_groups(Network.from_config(config, init="zeros"), k, rows)
        for group in [g for g in groups if len(g) > 1]:  # a member alone trains below
            try:
                stacked.update(zip(group, train_members(
                    config, images, labels, u=u, **common,
                    seed_seqs=[member_seed(seed, ki) for ki in group])))
            except NumericalError:
                pass  # the group's members train alone below
    prev = None
    for ki in range(k):
        seed_used = [int(seed), ki]
        kw = dict(u=u, init_from=prev if mode == "warm_restart" else None, **common)
        try:
            net, hist = stacked.get(ki) or train_member(
                config, images, labels, seed_seq=member_seed(seed, ki), **kw)
        except NumericalError:
            seed_used.append(0xEE7)
            net, hist = train_member(config, images, labels,
                                     seed_seq=np.random.SeedSequence(seed_used), **kw)
        prev = net
        histories.append(hist)
        alpha, rejected = 1.0, False
        if strategy == "boosting":
            # eval_logits keeps no layer inputs, so a kept member holds its weights alone
            pred = eval_logits(net, images).argmax(axis=-1)
            alpha, u, err, rejected = adaboost_round(u, pred, labels, config.classes)
            rounds.append({"round": ki, "err": err, "alpha": alpha, "rejected": rejected})
        cb = _ensemble_epoch_tracker(kept_probs, eval_labels, ensemble_acc,
                                     alphas=alphas + ([] if rejected else [alpha]), rule=rule)
        for logits in hist.eval_logits:
            cb(logits)
        if rejected:
            continue
        members.append(net)
        alphas.append(alpha)
        seeds_used.append(seed_used)
        if hist.eval_logits:
            kept_probs.append(softmax(hist.eval_logits[-1]))
    if not members:
        raise EnsembleError(
            f"all {k} boosting members rejected (errors >= chance); rounds: {rounds}"
        )
    model = EnsembleModel(
        members=members,
        alphas=np.asarray(alphas),
        rule=rule,
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
    eval_labels, rule.
    """
    return _train_rounds("bagging", config, images, labels, **kw)


def train_boosting(config: NetworkConfig, images, labels, **kw) -> tuple[EnsembleModel, dict]:
    """Sequential SAMME rounds; rejected members are skipped, weights kept.

    Keywords as ``train_bagging``. ``info["rounds"]`` holds each round's
    err, alpha and rejection.
    """
    return _train_rounds("boosting", config, images, labels, **kw)


def member_probs(model: EnsembleModel, images) -> np.ndarray:
    """[K, N, C] softmax outputs of the members, from eval_logits over stacks
    of members sized like lockstep training's (``_lockstep_groups``) for one
    eval chunk, from the first member's shapes: a small ensemble costs one
    forward per eval chunk, not one per member, and keeps no layer inputs;
    every member's values equal its own forward's bit for bit."""
    members, probs = model.members, []
    rows = max(1, min(EVAL_ROWS, len(images)))  # 1: an empty set sizes stacks too
    for group in _lockstep_groups(members[0], len(members), rows):
        net = members[group[0]] if len(group) == 1 else Network.stack(
            [members[i] for i in group])
        logits = eval_logits(net, images)
        probs.append(softmax(logits).reshape((len(group),) + logits.shape[-2:]))
    return np.concatenate(probs)


def _combine(mp: np.ndarray, alphas, rule: str) -> AggregateResult:
    """The ensemble answer from [K, N, C] member softmax outputs; ties break
    deterministically to the lowest class.

    soft: probabilities averaged with renormalized alpha weights;
    hard: alpha-weighted votes on member argmax labels.
    """
    if rule not in ("hard", "soft"):
        raise ValueError(f"rule must be hard or soft, got {rule!r}")
    alphas = np.asarray(alphas, dtype=np.float64)
    w = alphas / alphas.sum()
    probs = np.tensordot(w, mp, axes=1)
    probs = probs / probs.sum(axis=1, keepdims=True)
    member_labels = mp.argmax(axis=2)  # [K, N]
    votes = np.zeros(probs.shape)
    for ki in range(mp.shape[0]):
        votes[np.arange(votes.shape[0]), member_labels[ki]] += w[ki]
    labels = votes.argmax(axis=1) if rule == "hard" else probs.argmax(axis=1)
    return AggregateResult(probs=probs, labels=labels, votes=votes)


def aggregate(model: EnsembleModel, images, rule=None) -> AggregateResult:
    """``_combine`` of the members' outputs on images under rule (default the model's)."""
    return _combine(member_probs(model, images), model.alphas, rule or model.rule)


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
    datio.write_json(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest


def _check_manifest(manifest):
    """Raise DataError naming the first manifest key that holds a malformed value."""
    members = manifest["members"]
    if not (isinstance(members, list) and members and all(
            isinstance(h, str) and len(h) == 64 and not set(h) - set("0123456789abcdef")
            for h in members)):
        raise DataError("ensemble manifest key 'members' must be a non-empty list of "
                        "64-digit hex hashes")
    alphas = manifest["alphas"]
    try:
        ok = (isinstance(alphas, list) and len(alphas) == len(members)
              and not any(isinstance(a, bool) for a in alphas)
              and all(a > 0 for a in alphas) and math.isfinite(math.fsum(alphas)))
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise DataError("ensemble manifest key 'alphas' must hold one finite number > 0 per member")
    for key, allowed in (("rule", ("hard", "soft")), ("strategy", ("bagging", "boosting")),
                         ("mode", ("independent", "warm_restart"))):
        if manifest[key] not in allowed:
            raise DataError(f"ensemble manifest key {key!r} must be one of {allowed}")
    if not isinstance(manifest["config"], str):
        raise DataError("ensemble manifest key 'config' must be a string")


def load_ensemble(out_dir) -> EnsembleModel:
    """Read a ``save_ensemble`` directory. Raises OSError if a file cannot be read,
    DataError if its bytes are rejected, a member's config included."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as e:  # not UTF-8 or not JSON
            raise DataError(f"cannot read ensemble manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise DataError("ensemble manifest is not a JSON object")
    if manifest.get("format_version") != datio.FORMAT_VERSION:
        raise DataError(f"unsupported ensemble format {manifest.get('format_version')}")
    keys = {"members", "config", "alphas", "rule", "strategy", "mode", "seed", "member_seeds"}
    missing = sorted(keys - set(manifest))
    if missing:
        raise DataError(f"ensemble manifest lacks {missing}")
    _check_manifest(manifest)
    cfg = parse_config(manifest["config"])
    members = []
    for h in manifest["members"]:
        fpath = os.path.join(out_dir, f"member-{h[:16]}.ckpt")
        with open(fpath, "rb") as fh:
            blob = fh.read()
        if hashlib.sha256(blob).hexdigest() != h:
            raise DataError(f"member checkpoint {fpath} fails its content hash")
        members.append(datio.load_checkpoint_bytes(blob))
        if members[-1].config != cfg:
            raise DataError(f"member checkpoint {fpath} holds a config other than the manifest's")
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
