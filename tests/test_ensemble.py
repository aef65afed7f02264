import json
import math

import numpy as np
import pytest

from binn import datio, ensemble, nn
from binn.errors import EnsembleError, NumericalError


def blob_task(seed=0, n=600, classes=3, noise=0.12):
    ds = datio.make_toy(datio.ToySpec("gaussian_blobs", n, classes, noise=noise, seed=seed))
    return datio.split_dataset(ds, int(n * 0.75))


SPEC_FAST = ensemble.MemberTrainSpec(epochs=8, batch_size=32, lr=3e-3)


def small_cfg(classes=3, variant="SB"):
    return nn.mlp_config((1, 1, 2), [24], classes, variant=variant)


# ------------------------------------------------------------ bagging_sample


def test_bagging_sample_one_hot():
    u = np.array([0.0, 1.0, 0.0])
    idx = ensemble.bagging_sample(50, u, rng=0)
    assert (idx == 1).all()


def test_bagging_sample_balanced_frequencies():
    idx = ensemble.bagging_sample(100_000, np.array([0.5, 0.5]), rng=1)
    freq = (idx == 0).mean()
    assert abs(freq - 0.5) <= 0.01


def test_bagging_sample_bootstrap_coverage_single_seed():
    u = np.full(10_000, 1.0 / 10_000)
    idx = ensemble.bagging_sample(10_000, u, rng=2)
    distinct = len(np.unique(idx)) / 10_000
    assert abs(distinct - (1 - 1 / math.e)) <= 0.02


def test_bagging_sample_errors_and_reproducibility():
    with pytest.raises(ValueError, match="degenerate"):
        ensemble.bagging_sample(10, np.zeros(4), rng=0)
    with pytest.raises(ValueError):
        ensemble.bagging_sample(0, np.ones(4) / 4, rng=0)
    a = ensemble.bagging_sample(100, np.ones(7) / 7, rng=42)
    b = ensemble.bagging_sample(100, np.ones(7) / 7, rng=42)
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


class _FixedNet:
    """Stub member with fixed logits for aggregation fixtures."""

    def __init__(self, probs):
        self._logits = np.log(np.asarray(probs, dtype=np.float64))

    def forward(self, images):
        return np.tile(self._logits, (len(images), 1))


def fixed_model(prob_rows, alphas=None, rule="soft"):
    members = [_FixedNet(p) for p in prob_rows]
    a = np.ones(len(members)) if alphas is None else np.asarray(alphas, float)
    return ensemble.EnsembleModel(
        members=members, alphas=a, rule=rule, strategy="bagging",
        training_mode="independent", config=None,
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


def test_member_divergence_retries_once_then_fails(monkeypatch):
    (tr, te) = blob_task(seed=12)
    cfg = small_cfg()
    real = ensemble.train_member
    calls = {"n": 0}

    def flaky(*a, **kw):
        calls["n"] += 1
        if calls["n"] == 1:
            raise NumericalError("synthetic divergence")
        return real(*a, **kw)

    monkeypatch.setattr(ensemble, "train_member", flaky)
    model, _ = ensemble.train_bagging(
        cfg, tr.images, tr.labels, k=1, seed=12,
        spec=ensemble.MemberTrainSpec(epochs=1, batch_size=32),
    )
    assert calls["n"] == 2 and len(model.members) == 1

    def always_bad(*a, **kw):
        raise NumericalError("synthetic divergence")

    monkeypatch.setattr(ensemble, "train_member", always_bad)
    with pytest.raises(NumericalError):
        ensemble.train_bagging(
            cfg, tr.images, tr.labels, k=1, seed=12,
            spec=ensemble.MemberTrainSpec(epochs=1, batch_size=32),
        )


@pytest.mark.parametrize("train", [ensemble.train_bagging, ensemble.train_boosting])
def test_retried_member_records_fallback_seed(monkeypatch, tmp_path, train):
    (tr, te) = blob_task(seed=12)
    real = ensemble.train_member
    calls = {"n": 0}

    def flaky(*a, **kw):
        calls["n"] += 1
        if calls["n"] == 2:
            raise NumericalError("synthetic divergence")
        return real(*a, **kw)

    monkeypatch.setattr(ensemble, "train_member", flaky)
    model, _ = train(small_cfg(), tr.images, tr.labels, k=2, seed=12, spec=SPEC_FAST)
    want = [[12, 0], [12, 1, 0xEE7]]
    assert model.member_seeds == want
    ensemble.save_ensemble(model, tmp_path)
    with open(tmp_path / "manifest.json") as fh:
        assert json.load(fh)["member_seeds"] == want


def test_all_members_rejected_fails_with_report(monkeypatch):
    (tr, te) = blob_task(seed=6)
    cfg = small_cfg()

    class AlwaysWrong:
        def predict(self, images):
            return np.full(len(images), 1, dtype=np.int64)

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
