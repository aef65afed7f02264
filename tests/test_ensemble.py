import csv
import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binn import datio, ensemble, nn
from binn.cli import main
from binn.nn import train as nn_train
from binn.nn.network import EVAL_ROWS
from binn.errors import DataError, EnsembleError, NumericalError


def blob_task(seed=0, n=600, classes=3, noise=0.12):
    ds = datio.make_toy(datio.ToySpec("gaussian_blobs", n, classes, noise=noise, seed=seed))
    return datio.split_dataset(ds, int(n * 0.75))


SPEC_FAST = ensemble.MemberTrainSpec(epochs=8, batch_size=32, lr=3e-3)


def small_cfg(classes=3, variant="SB"):
    return nn.mlp_config((1, 1, 2), [24], classes, variant=variant)


# ------------------------------------------------------------ bagging_sample


def _seeded(n):
    return np.random.default_rng(np.random.SeedSequence(n))


def test_bagging_sample_one_hot():
    u = np.array([0.0, 1.0, 0.0])
    idx = ensemble.bagging_sample(50, u, rng=_seeded(0))
    assert (idx == 1).all()


def test_bagging_sample_balanced_frequencies():
    idx = ensemble.bagging_sample(100_000, np.array([0.5, 0.5]), rng=_seeded(1))
    freq = (idx == 0).mean()
    assert abs(freq - 0.5) <= 0.01


def test_bagging_sample_bootstrap_coverage_single_seed():
    u = np.full(10_000, 1.0 / 10_000)
    idx = ensemble.bagging_sample(10_000, u, rng=_seeded(2))
    distinct = len(np.unique(idx)) / 10_000
    assert abs(distinct - (1 - 1 / math.e)) <= 0.02


def test_bagging_sample_errors_and_reproducibility():
    with pytest.raises(ValueError, match="degenerate"):
        ensemble.bagging_sample(10, np.zeros(4), rng=_seeded(0))
    with pytest.raises(ValueError):
        ensemble.bagging_sample(0, np.ones(4) / 4, rng=_seeded(0))
    a = ensemble.bagging_sample(100, np.ones(7) / 7, rng=_seeded(42))
    b = ensemble.bagging_sample(100, np.ones(7) / 7, rng=_seeded(42))
    assert np.array_equal(a, b)


# ----------------------------------------------------------- adaboost_round


def test_adaboost_alpha_formula():
    u = np.full(4, 0.25)
    labels = np.array([0, 0, 1, 1])
    # err = 0.5 at C=2: alpha = 0, i.e. a chance member contributes nothing
    alpha, _, err, rejected = ensemble.adaboost_round(u, np.array([0, 1, 1, 0]), labels, 2)
    assert err == pytest.approx(0.5)
    assert alpha == pytest.approx(0.0, abs=1e-12)
    assert rejected  # alpha <= 0 never enters the ensemble
    # err = 0.25 at C=2: alpha = ln 3
    alpha, new_u, err, rejected = ensemble.adaboost_round(u, np.array([0, 0, 1, 0]), labels, 2)
    assert err == pytest.approx(0.25)
    assert alpha == pytest.approx(math.log(3.0), abs=1e-12)
    assert not rejected
    # misclassified example ends up heavier than the correct ones
    assert new_u[3] > new_u[0]
    assert new_u.sum() == pytest.approx(1.0, abs=1e-12)


def test_adaboost_rejects_worse_than_chance():
    m = 100
    u = np.full(m, 1.0 / m)
    labels = np.zeros(m, dtype=np.int64)
    pred = np.ones(m, dtype=np.int64)
    pred[:10] = 0  # err = 0.9 >= 9/10 for C=10
    alpha, u2, err, rejected = ensemble.adaboost_round(u, pred, labels, 10)
    assert err == pytest.approx(0.9)
    assert rejected
    assert u2 is u


def test_adaboost_perfect_member_capped():
    u = np.full(8, 0.125)
    labels = np.arange(8) % 3
    alpha, u2, err, rejected = ensemble.adaboost_round(u, labels.copy(), labels, 3)
    assert err == 0.0
    assert alpha == pytest.approx(math.log(1e6))
    assert not rejected
    assert np.allclose(u2, u)


def test_adaboost_alpha_monotone_decreasing_in_err():
    for c in (2, 5, 10):
        grid = np.linspace(0.01, (c - 1) / c - 0.01, 25)
        alphas = [math.log((1 - e) / e) + math.log(c - 1) for e in grid]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        # same via the op, using weighted errors
        m = 1000
        labels = np.zeros(m, dtype=np.int64)
        vals = []
        for e in (0.1, 0.2, 0.4):
            pred = np.zeros(m, dtype=np.int64)
            pred[: int(m * e)] = 1
            a, _, _, _ = ensemble.adaboost_round(np.full(m, 1.0 / m), pred, labels, c)
            vals.append(a)
        assert vals[0] > vals[1] > vals[2]


def test_adaboost_empty_predictions():
    with pytest.raises(ValueError, match="empty"):
        ensemble.adaboost_round(np.ones(1), np.array([]), np.array([]), 2)


# -------------------------------------------------------------- aggregation


def fixed_model(prob_rows, alphas=None, rule="soft"):
    """Members whose logits are log(p) for every row: one float64 fc with
    zero weights and bias log(p), on one-feature inputs."""
    classes = len(prob_rows[0])
    cfg = nn.NetworkConfig(name="fixed", input_shape=(1,), classes=classes,
                           layers=(nn.layer("fc", out=classes),))
    members = []
    for p in prob_rows:
        net = nn.Network.from_config(cfg, init="zeros", dtype=np.float64)
        net.layers[0].b.value[:] = np.log(np.asarray(p, dtype=np.float64))
        members.append(net)
    a = np.ones(len(members)) if alphas is None else np.asarray(alphas, float)
    return ensemble.EnsembleModel(
        members=members, alphas=a, rule=rule, strategy="bagging",
        training_mode="independent", config=cfg,
    )


X1 = np.zeros((1, 1))


def test_aggregate_all_agree():
    model = fixed_model([[0.7, 0.3], [0.9, 0.1], [0.6, 0.4]])
    res = ensemble.aggregate(model, X1, rule="soft")
    assert res.labels[0] == 0
    assert ensemble.aggregate(model, X1, rule="hard").labels[0] == 0


def test_aggregate_soft_arithmetic():
    model = fixed_model([[0.6, 0.4], [0.1, 0.9]])
    res = ensemble.aggregate(model, X1, rule="soft")
    assert np.allclose(res.probs[0], [0.35, 0.65], atol=1e-9)
    assert res.labels[0] == 1


def test_hard_vs_soft_disagreement_fixture():
    # argmax votes 2-vs-1 for class 0, summed probabilities favor class 1
    rows = [[0.51, 0.49], [0.51, 0.49], [0.01, 0.99]]
    model = fixed_model(rows)
    hard = ensemble.aggregate(model, X1, rule="hard")
    soft = ensemble.aggregate(model, X1, rule="soft")
    assert hard.labels[0] == 0
    # mean probs = [0.3433.., 0.6566..] -> class 1 (hand arithmetic)
    assert np.allclose(soft.probs[0], [1.03 / 3, 1.97 / 3], atol=1e-9)
    assert soft.labels[0] == 1


def test_alpha_scaling_leaves_labels_unchanged():
    rows = [[0.6, 0.4], [0.2, 0.8], [0.45, 0.55]]
    m1 = fixed_model(rows, alphas=[1.0, 2.0, 0.5])
    m2 = fixed_model(rows, alphas=[3.0, 6.0, 1.5])
    x = np.zeros((4, 1))
    for rule in ("hard", "soft"):
        a = ensemble.aggregate(m1, x, rule=rule)
        b = ensemble.aggregate(m2, x, rule=rule)
        assert np.array_equal(a.labels, b.labels)
        assert np.allclose(a.probs, b.probs, atol=1e-12)


def test_member_permutation_invariance():
    rows = [[0.6, 0.4], [0.2, 0.8], [0.45, 0.55]]
    m1 = fixed_model(rows)
    m2 = fixed_model(rows[::-1])
    x = np.zeros((3, 1))
    a = ensemble.aggregate(m1, x, rule="soft")
    b = ensemble.aggregate(m2, x, rule="soft")
    assert np.allclose(a.probs, b.probs, atol=1e-12)
    assert np.array_equal(a.votes, b.votes)


def test_hard_tie_breaks_to_lowest_class():
    model = fixed_model([[0.9, 0.1, 0.0], [0.0, 0.1, 0.9]])
    res = ensemble.aggregate(model, X1, rule="hard")
    assert res.labels[0] == 0  # one vote each for classes 0 and 2


# ----------------------------------------------------------------- training


def test_bagging_k1_identical_to_single_member_train():
    (tr, te) = blob_task(seed=0)
    cfg = small_cfg()
    model, _ = ensemble.train_bagging(
        cfg, tr.images, tr.labels, k=1, mode="independent", seed=7, spec=SPEC_FAST
    )
    net, _ = ensemble.train_member(
        cfg, tr.images, tr.labels, u=np.full(len(tr), 1.0 / len(tr)),
        seed_seq=ensemble.member_seed(7, 0), spec=SPEC_FAST,
    )
    from binn import datio as dio

    assert dio.checkpoint_bytes(model.members[0]) == dio.checkpoint_bytes(net)


def test_warm_restart_members_start_from_predecessor():
    (tr, te) = blob_task(seed=1)
    cfg = small_cfg()
    zero_epochs = ensemble.MemberTrainSpec(epochs=0)
    model, _ = ensemble.train_bagging(
        cfg, tr.images, tr.labels, k=3, mode="warm_restart", seed=1, spec=zero_epochs
    )
    from binn import datio as dio

    b0 = dio.checkpoint_bytes(model.members[0])
    assert dio.checkpoint_bytes(model.members[1]) == b0
    assert dio.checkpoint_bytes(model.members[2]) == b0


def test_warm_restart_copies_no_member_before_its_stack(monkeypatch):
    # the stack of a warm-restarted member copies its predecessor; a clone of
    # that predecessor first made a second copy (two clones at k=3)
    (tr, te) = blob_task(seed=1)
    calls, clone = [], nn.Network.clone
    monkeypatch.setattr(nn.Network, "clone", lambda self: calls.append(self) or clone(self))
    ensemble.train_bagging(small_cfg(), tr.images, tr.labels, k=3, mode="warm_restart", seed=1,
                           spec=ensemble.MemberTrainSpec(epochs=0))
    assert calls == []


def test_bagging_k5_at_least_max_member_minus_eps():
    (tr, te) = blob_task(seed=2)
    cfg = small_cfg(variant="AB")
    model, info = ensemble.train_bagging(
        cfg, tr.images, tr.labels, k=5, mode="independent", seed=2, spec=SPEC_FAST,
        eval_images=te.images, eval_labels=te.labels,
    )
    ens_acc = (model.predict(te.images) == te.labels).mean()
    member_best = max(
        (m.predict(te.images) == te.labels).mean() for m in model.members
    )
    assert ens_acc >= member_best - 0.01


def test_boosting_k1_single_weighted_member_with_alpha():
    (tr, te) = blob_task(seed=3)
    cfg = small_cfg()
    model, info = ensemble.train_boosting(
        cfg, tr.images, tr.labels, k=1, seed=3, spec=SPEC_FAST
    )
    assert len(model.members) == 1
    assert len(model.alphas) == 1 and model.alphas[0] > 0
    assert info["rounds"][0]["err"] < 2 / 3


def test_boosting_grows_weights_of_misclassified():
    (tr, te) = blob_task(seed=4)
    u = np.full(len(tr), 1.0 / len(tr))
    cfg = small_cfg()
    net, _ = ensemble.train_member(
        cfg, tr.images, tr.labels, u=u, seed_seq=ensemble.member_seed(4, 0), spec=SPEC_FAST
    )
    pred = net.predict(tr.images)
    alpha, new_u, err, _ = ensemble.adaboost_round(u, pred, tr.labels, cfg.classes)
    assert 0 < err < 0.5
    mis = pred != tr.labels
    assert new_u[mis].min() > new_u[~mis].max()


def test_boosting_beats_best_single_on_xor():
    # stump-like members on a task none of them solves alone; the boosted
    # aggregate strictly beats the best member (configuration frozen from a
    # calibration run: boosted 0.92 vs best single 0.755)
    ds = datio.make_toy(datio.ToySpec("xor_rings", 800, 2, noise=0.12, seed=5))
    tr, te = datio.split_dataset(ds, 600)
    cfg = nn.mlp_config((1, 1, 2), [3], 2, variant="AB")
    spec = ensemble.MemberTrainSpec(epochs=5, batch_size=32, lr=1e-2)
    model, info = ensemble.train_boosting(
        cfg, tr.images, tr.labels, k=5, seed=3, spec=spec
    )
    boosted = (model.predict(te.images) == te.labels).mean()
    best_single = max((m.predict(te.images) == te.labels).mean() for m in model.members)
    assert best_single < 0.9  # members really are weak
    assert boosted > best_single


def _inject_divergence(monkeypatch, diverges):
    """Make every training of a member whose seed entropy satisfies
    ``diverges`` run two epochs and then raise NumericalError, in a lockstep
    stack or alone, as a real divergence would; count the member trainings
    outside a stack (``train_member`` calls) and return the counts."""
    real_members, real_member = ensemble.train_members, ensemble.train_member
    calls = {"n": 0}

    def flaky(*a, seed_seqs, spec, **kw):
        if not any(diverges(s.entropy) for s in seed_seqs):
            return real_members(*a, seed_seqs=seed_seqs, spec=spec, **kw)
        real_members(*a, seed_seqs=seed_seqs, spec=replace(spec, epochs=min(2, spec.epochs)),
                     **kw)
        raise NumericalError("synthetic divergence")

    def counted(*a, **kw):
        calls["n"] += 1
        return real_member(*a, **kw)

    monkeypatch.setattr(ensemble, "train_members", flaky)
    monkeypatch.setattr(ensemble, "train_member", counted)
    return calls


def test_member_divergence_retries_once_then_fails(monkeypatch):
    (tr, te) = blob_task(seed=12)
    cfg = small_cfg()
    calls = _inject_divergence(monkeypatch, lambda entropy: entropy == [12, 0])
    model, _ = ensemble.train_bagging(
        cfg, tr.images, tr.labels, k=1, seed=12,
        spec=ensemble.MemberTrainSpec(epochs=1, batch_size=32),
    )
    assert calls["n"] == 2 and len(model.members) == 1

    _inject_divergence(monkeypatch, lambda entropy: True)
    with pytest.raises(NumericalError):
        ensemble.train_bagging(
            cfg, tr.images, tr.labels, k=1, seed=12,
            spec=ensemble.MemberTrainSpec(epochs=1, batch_size=32),
        )


@pytest.mark.parametrize("train", [ensemble.train_bagging, ensemble.train_boosting])
def test_retried_member_records_fallback_seed(monkeypatch, tmp_path, train):
    (tr, te) = blob_task(seed=12)
    _inject_divergence(monkeypatch, lambda entropy: entropy == [12, 1])
    model, _ = train(small_cfg(), tr.images, tr.labels, k=2, seed=12, spec=SPEC_FAST)
    want = [[12, 0], [12, 1, 0xEE7]]
    assert model.member_seeds == want
    ensemble.save_ensemble(model, tmp_path)
    with open(tmp_path / "manifest.json") as fh:
        assert json.load(fh)["member_seeds"] == want


def test_retried_member_leaves_no_stale_ensemble_records(monkeypatch):
    (tr, te) = blob_task(seed=12)
    # member 1's first attempt: two epochs, then a divergence
    calls = _inject_divergence(monkeypatch, lambda entropy: entropy == [12, 1])
    _, info = ensemble.train_bagging(
        small_cfg(), tr.images, tr.labels, k=3, seed=12,
        spec=ensemble.MemberTrainSpec(epochs=4, batch_size=32),
        eval_images=te.images, eval_labels=te.labels,
    )
    assert calls["n"] == 4
    epochs = sum(len(h.test_accuracy) for h in info["histories"])
    assert epochs == 12 and len(info["ensemble_accuracy"]) == epochs


def test_member_alone_in_its_stack_trains_once_before_its_fallback(monkeypatch):
    # a stack of one trains as the member alone would, to the same divergence
    (tr, te) = blob_task(seed=12)
    monkeypatch.setattr(ensemble, "_STACK_BYTES", 1)
    _inject_divergence(monkeypatch, lambda entropy: entropy == [12, 1])
    flaky, trained = ensemble.train_members, []

    def recorded(*a, seed_seqs, **kw):
        trained.extend(s.entropy for s in seed_seqs)
        return flaky(*a, seed_seqs=seed_seqs, **kw)

    monkeypatch.setattr(ensemble, "train_members", recorded)
    model, _ = ensemble.train_bagging(small_cfg(), tr.images, tr.labels, k=3, seed=12,
                                      spec=ensemble.MemberTrainSpec(epochs=1, batch_size=32))
    assert [e for e in trained if e[:2] == [12, 1]] == [[12, 1], [12, 1, 0xEE7]]
    assert model.member_seeds == [[12, 0], [12, 1, 0xEE7], [12, 2]]


@pytest.mark.parametrize("variant, at", [
    ("AB", "step"),  # a NaN at a binarization in a training step
    ("DNN", "step"),  # a NaN in the loss
    ("AB", "eval"),  # a NaN that the epoch's eval forward meets first
])
def test_stacked_member_divergence_leaves_the_others_unchanged(monkeypatch, variant, at):
    # member 1's last fc weights turn NaN wherever it trains, in the stack of
    # three or alone: before a step in mid epoch 2, or after epoch 1's last step
    (tr, te) = blob_task(seed=13)
    cfg = nn.mlp_config((1, 1, 2), [16, 16], 3, variant=variant, dropout=0.2)
    spec = ensemble.MemberTrainSpec(epochs=3, batch_size=32)
    kw = dict(k=3, seed=13, spec=spec, eval_images=te.images, eval_labels=te.labels)
    clean, clean_info = ensemble.train_bagging(cfg, tr.images, tr.labels, **kw)
    real_members, real_step = ensemble.train_members, nn_train.backward_and_step
    steps = math.ceil(len(tr) / 32)  # per epoch
    when = steps + 3 if at == "step" else steps
    member = {"at": None, "step": 0}

    def watched(*a, seed_seqs, **k):
        entropies = [s.entropy for s in seed_seqs]
        member.update(at=entropies.index([13, 1]) if [13, 1] in entropies else None, step=0)
        return real_members(*a, seed_seqs=seed_seqs, **k)

    def poisoned(net, *a, **k):
        member["step"] += 1
        hit = member["at"] is not None and member["step"] == when
        if hit and at == "step":
            net.layers[-1].w.value[member["at"], 0, 0] = np.nan
        loss = real_step(net, *a, **k)
        if hit and at == "eval":
            net.layers[-1].w.value[member["at"], 0, 0] = np.nan
        return loss

    monkeypatch.setattr(ensemble, "train_members", watched)
    monkeypatch.setattr(nn_train, "backward_and_step", poisoned)
    model, info = ensemble.train_bagging(cfg, tr.images, tr.labels, **kw)
    assert model.member_seeds == [[13, 0], [13, 1, 0xEE7], [13, 2]]
    for ki in (0, 2):
        assert datio.checkpoint_bytes(model.members[ki]) == datio.checkpoint_bytes(
            clean.members[ki])
        assert info["histories"][ki].train_loss == clean_info["histories"][ki].train_loss
    alone, _ = ensemble.train_member(
        cfg, tr.images, tr.labels, u=np.full(len(tr), 1.0 / len(tr)),
        seed_seq=np.random.SeedSequence([13, 1, 0xEE7]), spec=spec)
    assert datio.checkpoint_bytes(model.members[1]) == datio.checkpoint_bytes(alone)
    assert len(info["ensemble_accuracy"]) == 9


def test_bagging_peak_memory_does_not_grow_with_k():
    # one NIN-x0.1 member's 64-row eval forward alone nears the stack budget,
    # so each member trains in a stack of its own and k adds no activations
    ds = datio.make_blob_images(128, 3, seed=2, size=32)
    cfg = nn.nin_config(variant="AB", width_scale=0.1, classes=3, input_shape=(1, 32, 32))
    peaks = []
    for k in (1, 3):
        tracemalloc.start()
        ensemble.train_bagging(cfg, ds.images[:64], ds.labels[:64], k=k, seed=2,
                               spec=ensemble.MemberTrainSpec(epochs=1, batch_size=32),
                               eval_images=ds.images[64:], eval_labels=ds.labels[64:])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]


def test_boosted_members_keep_no_training_set_activations():
    # eval forwards keep no layer inputs, so AdaBoost's training-set
    # predictions leave a kept member with its weights alone
    cfg = nn.mlp_config((1, 8, 8), [256, 256], 4, variant="AB")
    rng = np.random.default_rng(0)
    retained = []
    for n in (2 * EVAL_ROWS, 6 * EVAL_ROWS):
        x = rng.standard_normal((n, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, n)
        tracemalloc.start()
        model, _ = ensemble.train_boosting(cfg, x, y, k=2, seed=0,
                                           spec=ensemble.MemberTrainSpec(epochs=1, batch_size=256))
        retained.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.stop()
        assert len(model.members) == 2
        weights = sum(arr.nbytes for m in model.members for _, arr in m.state_items())
        assert retained[-1] < weights + (128 << 10), (retained, weights)
        del model
    assert retained[1] < 1.25 * retained[0], retained


def test_ensemble_predict_keeps_no_member_activations():
    # members run eval_logits' 512-row forwards and drop each one's layer
    # inputs; one whole-batch forward per member left ~43 MB behind here
    cfg = nn.mlp_config((1, 8, 8), [256, 256], 4, variant="AB")
    x = np.random.default_rng(0).standard_normal((4 * EVAL_ROWS, 1, 8, 8)).astype(np.float32)
    tracemalloc.start()
    try:
        members = [nn.Network.from_config(cfg, seed=i) for i in range(3)]
        model = ensemble.EnsembleModel(members=members, alphas=np.ones(3), rule="soft",
                                       strategy="bagging", training_mode="independent",
                                       config=cfg)
        model.predict(x)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    weights = sum(arr.nbytes for m in members for _, arr in m.state_items())
    assert retained < weights + (128 << 10), (retained, weights)


def test_member_probs_builds_no_network_but_its_stacks(monkeypatch):
    # stacks are sized from a member in hand; a lone member runs as it is
    model = fixed_model([[0.7, 0.3], [0.9, 0.1], [0.6, 0.4]])
    built = []
    build = nn.Network.from_config.__func__
    monkeypatch.setattr(nn.Network, "from_config",
                        classmethod(lambda cls, *a, **k: built.append(1) or build(cls, *a, **k)))
    ensemble.member_probs(model, X1)
    assert len(built) == 1  # the one stack of three
    model.members = model.members[:1]
    ensemble.member_probs(model, X1)
    assert len(built) == 1


def test_ensemble_of_no_images_is_empty():
    model = fixed_model([[0.7, 0.3], [0.9, 0.1], [0.6, 0.4]])
    none = np.zeros((0, 1))
    assert ensemble.member_probs(model, none).shape == (3, 0, 2)
    for rule in ("soft", "hard"):
        res = ensemble.aggregate(model, none, rule=rule)
        assert res.probs.shape == res.votes.shape == (0, 2) and res.labels.shape == (0,)
    assert model.predict(none).shape == (0,)


def test_all_members_rejected_fails_with_report(monkeypatch):
    (tr, te) = blob_task(seed=6)
    cfg = small_cfg()

    class AlwaysWrong:
        def forward(self, images, keep=True):  # logits whose argmax is class 1 for every row
            return np.tile(np.float32([0.0, 1.0, 0.0]), (len(images), 1))

        def clone(self):
            return self

    def fake_train_member(config, images, labels, **kw):
        return AlwaysWrong(), nn.TrainHistory()

    monkeypatch.setattr(ensemble, "train_member", fake_train_member)
    labels = np.zeros(len(tr), dtype=np.int64)  # err = 1 every round
    with pytest.raises(EnsembleError, match="rejected"):
        ensemble.train_boosting(
            cfg, tr.images, labels, k=2, seed=6,
            spec=ensemble.MemberTrainSpec(epochs=0),
        )


# ------------------------------------------------- ensemble accuracy stream


def _stream_run(train, rule="soft", mode="independent"):
    tr, te = blob_task(seed=3, classes=4, noise=0.3)
    model, info = train(small_cfg(4), tr.images, tr.labels, k=4, seed=3, mode=mode, rule=rule,
                        spec=ensemble.MemberTrainSpec(epochs=3, batch_size=32, lr=3e-3),
                        eval_images=te.images, eval_labels=te.labels)
    ends = np.cumsum([len(h.test_accuracy) for h in info["histories"]]) - 1
    return model, info, te, ends


def _accuracy(model, te, rule, j):
    """aggregate's accuracy over the model's first j members."""
    sub = replace(model, members=model.members[:j], alphas=model.alphas[:j])
    return float((ensemble.aggregate(sub, te.images, rule).labels == te.labels).mean())


@pytest.mark.parametrize("train, rule, mode", [
    (ensemble.train_bagging, "soft", "independent"),
    (ensemble.train_bagging, "hard", "independent"),
    (ensemble.train_boosting, "soft", "independent"),
    (ensemble.train_boosting, "hard", "independent"),
    (ensemble.train_boosting, "soft", "warm_restart"),
])
def test_ensemble_stream_equals_the_model_at_each_kept_round(train, rule, mode):
    model, info, te, ends = _stream_run(train, rule, mode)
    stream = info["ensemble_accuracy"]
    assert model.rule == rule
    assert len(stream) == ends[-1] + 1 == 4 * 3
    kept = [r["round"] for r in info["rounds"] if not r["rejected"]] or range(4)
    assert len(kept) == len(model.members)
    for j, r in enumerate(kept):
        assert stream[ends[r]] == _accuracy(model, te, rule, j + 1)


@pytest.mark.parametrize("reject", [0, 1])
def test_rejected_round_reports_the_ensemble_without_it(monkeypatch, tmp_path, reject):
    real = ensemble.adaboost_round
    calls = []

    def rejecting(u, pred, labels, classes):
        calls.append(None)
        alpha, new_u, err, rejected = real(u, pred, labels, classes)
        return (alpha, u, err, True) if len(calls) - 1 == reject else (alpha, new_u, err, rejected)

    monkeypatch.setattr(ensemble, "adaboost_round", rejecting)
    model, info, te, ends = _stream_run(ensemble.train_boosting)
    stream = info["ensemble_accuracy"]
    assert info["rounds"][reject]["rejected"] and len(model.members) == 3
    rejected_epochs = stream[ends[reject] - 2 : ends[reject] + 1]
    if reject == 0:
        assert rejected_epochs == [None] * 3
        assert stream[ends[1]] == _accuracy(model, te, "soft", 1)
        cfg = tmp_path / "member.cfg"
        cfg.write_text(nn.config_to_text(nn.mlp_config((1, 8, 8), [32], 4, variant="SB")))
        calls.clear()
        assert main(["ensemble", "train", "--config", str(cfg), "--strategy", "boost",
                     "--k", "2", "--seed", "5", "--epochs", "2", "--lr", "5e-3",
                     "--data", "blobs-img", "--data-n", "400", "--data-classes", "4",
                     "--data-noise", "0.08", "--data-seed", "6",
                     "--out", str(tmp_path / "boost")]) == 0
        with open(tmp_path / "boost" / "metrics.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[4] for r in rows[:2]] == ["", ""] and all(r[4] for r in rows[2:])
    else:
        assert rejected_epochs == [stream[ends[0]]] * 3 == [_accuracy(model, te, "soft", 1)] * 3


def test_warm_restart_byte_identical_across_reruns(tmp_path):
    (tr, te) = blob_task(seed=10)
    cfg = small_cfg()
    spec = ensemble.MemberTrainSpec(epochs=2, batch_size=32)
    blobs = []
    for name in ("a", "b"):
        model, _ = ensemble.train_bagging(
            cfg, tr.images, tr.labels, k=3, mode="warm_restart", seed=5, spec=spec
        )
        d = tmp_path / name
        ensemble.save_ensemble(model, d)
        blobs.append(b"".join(sorted(p.read_bytes() for p in d.iterdir())))
    assert blobs[0] == blobs[1]


def test_ensemble_save_load_roundtrip(tmp_path):
    (tr, te) = blob_task(seed=8)
    cfg = small_cfg()
    model, _ = ensemble.train_bagging(
        cfg, tr.images, tr.labels, k=2, seed=8,
        spec=ensemble.MemberTrainSpec(epochs=2, batch_size=32),
    )
    manifest = ensemble.save_ensemble(model, tmp_path / "ens")
    again = ensemble.load_ensemble(tmp_path / "ens")
    assert np.array_equal(model.predict(te.images), again.predict(te.images))
    assert manifest["k"] == 2


@pytest.fixture(scope="module")
def saved_bag2(tmp_path_factory):
    """A saved 3-class bag of two, plus the hash of a 4-class member
    checkpoint stored beside its members."""
    (tr, te) = blob_task(seed=8)
    model, _ = ensemble.train_bagging(
        small_cfg(), tr.images, tr.labels, k=2, seed=8,
        spec=ensemble.MemberTrainSpec(epochs=1, batch_size=32),
    )
    d = tmp_path_factory.mktemp("bag2")
    blob = datio.checkpoint_bytes(nn.Network.from_config(small_cfg(classes=4), seed=0))
    other = hashlib.sha256(blob).hexdigest()
    (d / f"member-{other[:16]}.ckpt").write_bytes(blob)
    return d, ensemble.save_ensemble(model, d), te.images, other


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _valid(key, value):
    """Whether a bag of two of ``small_cfg`` may hold ``value`` under
    ``key``, one of the keys that no member is checked against."""
    def natural(v):
        return type(v) is int and v >= 0

    return {"seed": natural(value), "k": natural(value) and value == 2,
            "config_hash": value == nn.config_hash(small_cfg()),
            "member_seeds": isinstance(value, list) and len(value) == 2 and all(
                isinstance(s, list) and all(map(natural, s)) for s in value)}[key]


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(["format_version", "members", "config", "alphas", "rule",
                            "strategy", "mode", "seed", "member_seeds", "k", "config_hash"]),
       value=_JSON | st.lists(st.floats() | st.integers(), min_size=2, max_size=2)
       | st.sampled_from(["hard", "soft", "bagging", "boosting", "independent", "warm_restart"]),
       swap=st.booleans())
@example(key="seed", value=0, swap=True)
@example(key="seed", value=True, swap=True)
@example(key="k", value=2, swap=True)
@example(key="k", value=7, swap=True)
@example(key="member_seeds", value=[[8, 0], [8, 1, 3815]], swap=True)
@example(key="member_seeds", value=[[8, 0]], swap=True)
@example(key="config_hash", value=nn.config_hash(small_cfg()), swap=True)
@example(key="config_hash", value="0" * 64, swap=False)
def test_load_ensemble_returns_a_model_or_raises_data_error(saved_bag2, key, value, swap):
    # swap: the second member is the 4-class checkpoint, which the manifest's config is not
    d, manifest, images, other = saved_bag2
    members = [manifest["members"][0], other] if swap else manifest["members"]
    (d / "manifest.json").write_text(json.dumps({**manifest, "members": members, key: value}))
    try:
        model = ensemble.load_ensemble(d)
    except DataError as e:
        if key in ("seed", "member_seeds", "k", "config_hash"):
            # a valid value leaves the member error; an invalid one is named
            assert other[:16] in str(e) if swap and _valid(key, value) else repr(key) in str(e)
        return
    assert not swap
    assert np.isfinite(ensemble.aggregate(model, images).probs).all()


def test_k1_all_rules_and_strategies_agree():
    (tr, te) = blob_task(seed=9)
    cfg = small_cfg()
    spec = ensemble.MemberTrainSpec(epochs=3, batch_size=32)
    bag, _ = ensemble.train_bagging(cfg, tr.images, tr.labels, k=1, seed=9, spec=spec)
    single_argmax = bag.members[0].predict(te.images)
    assert np.array_equal(ensemble.aggregate(bag, te.images, rule="hard").labels, single_argmax)
    assert np.array_equal(ensemble.aggregate(bag, te.images, rule="soft").labels, single_argmax)
    boost, _ = ensemble.train_boosting(cfg, tr.images, tr.labels, k=1, seed=9, spec=spec)
    boost_argmax = boost.members[0].predict(te.images)
    for rule in ("hard", "soft"):
        assert np.array_equal(ensemble.aggregate(boost, te.images, rule=rule).labels, boost_argmax)
