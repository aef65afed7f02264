import math
import tracemalloc

import numpy as np
import pytest

from binn import analysis, nn
from binn.analysis import PerturbationSpec
from binn.errors import NumericalError


def closed_form_b(sigma):
    """Independent oracle: orthant probability of the bivariate normal.

    x and x+dx are jointly normal with correlation 1/sqrt(1+sigma^2); the
    flip probability is arccos(rho)/pi, and B = 4 * Pr(flip). arccos(rho) is
    taken as 2 arcsin(sqrt((1 - rho)/2)) with 1 - rho formed without
    cancellation, so the oracle keeps full precision as rho tends to 1
    (math.acos(rho) is off by 4e-11 relative at sigma = 0.001).
    """
    s = math.sqrt(1.0 + sigma * sigma)
    one_minus_rho = sigma * sigma / (s * (1.0 + s))
    return 8.0 * math.asin(math.sqrt(one_minus_rho / 2.0)) / math.pi


# ------------------------------------------------------------------ B factor


@pytest.mark.parametrize("sigma", [1.5, 1.0, 0.5, 0.1, 0.01, 0.001, 30.0, 1e3, 1e6])
def test_compute_b_matches_closed_form(sigma):
    b = analysis.compute_b(sigma)
    assert b == pytest.approx(closed_form_b(sigma), rel=1e-12)
    # B tends to 2: 2 - B = (4/pi) arctan(1/sigma) lies in (0, 4/(pi sigma))
    assert 0.0 < 2.0 - b < 4.0 / (math.pi * sigma)


def test_compute_b_reference_values():
    # frozen reference rows: (sigma, B) with B at 1.0 exactly 1
    assert analysis.compute_b(1.0) == pytest.approx(1.0, abs=1e-3)
    assert analysis.compute_b(0.5) == pytest.approx(0.59, abs=0.01)
    assert analysis.compute_b(0.1) == pytest.approx(0.13, abs=0.01)


def test_compute_b_monte_carlo_cross_check():
    mc = analysis.monte_carlo_b(0.5, trials=2_000_000, seed=1)
    assert abs(mc.mean - analysis.compute_b(0.5)) <= 4 * mc.stderr


def test_compute_b_monte_carlo_cross_check_large_sigma():
    mc = analysis.monte_carlo_b(1000.0, trials=2_000_000, seed=1)
    assert abs(mc.mean - analysis.compute_b(1000.0)) <= 4 * mc.stderr


def test_compute_b_monotone_on_grid():
    grid = [0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.8, 1.0, 1.2, 1.5]
    vals = [analysis.compute_b(s) for s in grid]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_compute_b_rejects_nonpositive():
    for s in (0.0, -1.0):
        with pytest.raises(ValueError):
            analysis.compute_b(s)


def test_b_r_table_columns():
    rows = analysis.b_r_table([1.0, 0.5])
    assert rows[0]["r"] == 1.0
    assert rows[1]["r"] == 0.25


# ------------------------------------------------------------- theorem 1


def test_theorem1_small_run_matches_closed_forms():
    rep = analysis.verify_theorem1(64, 1.0, 0.5, k_values=(4,), trials=40_000, seed=0)
    for name, st in rep.regimes.items():
        assert st.rel_err <= 0.05, (name, st)
    # closed-form anchor: real regime within 3 standard errors
    real = rep.regimes["real"]
    assert abs(real.measured - real.predicted) <= 3 * real.stderr
    assert 0.9 <= rep.bagging_ratio[4] <= 1.1


def test_theorem1_threshold_bookkeeping():
    rep = analysis.verify_theorem1(32, 1.0, 0.5, k_values=(2,), trials=20_000, seed=1)
    assert rep.thresholds["b_over_r"] == pytest.approx(rep.b / rep.r)
    assert rep.thresholds["inv_sigma_w2"] == 1.0
    assert all("agree" in c for c in rep.threshold_checks)


def test_theorem1_widens_tolerance_with_warning():
    with pytest.warns(UserWarning, match="widening"):
        rep = analysis.verify_theorem1(16, 1.0, 0.5, k_values=(2,), trials=2_000, seed=2)
    assert rep.rel_tol > 0.05


def test_theorem1_rejects_bad_params():
    with pytest.raises(ValueError):
        analysis.verify_theorem1(0, 1.0, 0.5)
    with pytest.raises(ValueError):
        analysis.verify_theorem1(16, -1.0, 0.5)
    with pytest.raises(ValueError, match="trials"):
        analysis.verify_theorem1(16, 1.0, 0.5, trials=1)


@pytest.mark.parametrize("sigma_w, sigma, name", [
    (1e200, 0.1, "sigma_w ="), (1.0, 1e200, "sigma ="), (1.0, 1e-200, "sigma =")])
def test_theorems_refuse_a_sigma_whose_square_is_not_finite_and_positive(
        monkeypatch, sigma_w, sigma, name):
    monkeypatch.setattr(analysis, "_chunks", lambda *a: pytest.fail("drew trials"))
    with pytest.raises(NumericalError, match=name):
        analysis.verify_theorem1(16, sigma_w, sigma)
    with pytest.raises(NumericalError, match=name):
        analysis.verify_theorem2((4, 4, 1), sigma_w, sigma)


def test_theorem1_zero_single_variance_gives_nan_ratio():
    # fan-in 1 at sigma 0.1: both trials' sign flips are 0, so both_bin measures 0
    with pytest.warns(UserWarning, match="widening"):
        rep = analysis.verify_theorem1(1, 1.0, 0.1, k_values=(2, 4), trials=2, seed=0)
    assert rep.regimes["both_bin"].measured == 0.0
    assert all(math.isnan(r) for r in rep.bagging_ratio.values())


def test_theorem1_theorem2_golden_bits():
    # the regime rows and theorem 2 are frozen from the all-at-once
    # implementation; the bagged rows from the raw-bit member draw. The
    # B-derived predictions and bounds come from the closed-form B. Neither
    # trial count is a multiple of the chunk or of any sub-block size.
    rep = analysis.verify_theorem1(100, 0.8, 0.5, k_values=(3, 5), trials=9000, seed=4)
    got = [repr(st) for st in rep.regimes.values()]
    got += [repr(st) for st in rep.bagged.values()] + [repr(r) for r in rep.bagging_ratio.values()]
    assert got == [
        "RegimeStat(measured=16.15732865674885, stderr=0.24375651098433873, "
        "predicted=16.000000000000004)",
        "RegimeStat(measured=38.41454290409176, stderr=0.5987743602509383, "
        "predicted=37.78140611851092)",
        "RegimeStat(measured=24.807554673873693, stderr=0.36580677034521786, predicted=25.0)",
        "RegimeStat(measured=60.298741292242354, stderr=0.8928552752035346, "
        "predicted=59.0334470601733)",
        "RegimeStat(measured=19.855967398298027, stderr=0.3072739797097219, "
        "predicted=19.677815686724433)",
        "RegimeStat(measured=11.744439039399438, stderr=0.1823816516101238, "
        "predicted=11.806689412034661)",
        "0.9878796956340066",
        "0.973854411195678",
    ]
    rep = analysis.verify_theorem2((20, 7, 1), 0.7, 0.3, trials=1500, inner=40, seed=2)
    assert {k: repr(v) for k, v in rep.regimes.items()} == {
        "real": "{'bound': 3.0252599999999994, 'mean_measured': 1.4768286590894353, "
                "'satisfied_fraction': 0.9146666666666666, 'satisfied_se': 0.007213485313658744}",
        "act_bin": "{'bound': 12.473964348476924, 'mean_measured': 2.4979543018310726, "
                   "'satisfied_fraction': 0.9993333333333333, "
                   "'satisfied_se': 0.0006664444073950753}",
        "weight_bin": "{'bound': 12.6, 'mean_measured': 5.8362824452255575, "
                      "'satisfied_fraction': 0.9993333333333333, "
                      "'satisfied_se': 0.0006664444073950753}",
        "both_bin": "{'bound': 51.95320428353572, 'mean_measured': 4.987733333333334, "
                    "'satisfied_fraction': 1.0, 'satisfied_se': 0.0}",
    }


def test_theorem1_bagged_bits_do_not_depend_on_sub_block_size(monkeypatch):
    # fan-in 100 leaves 28 unused bits in each member row's second word;
    # 777 values per block divides no row count, so blocks hold 1-7 rows
    want = analysis.verify_theorem1(100, 1.0, 0.5, k_values=(1, 3, 8), trials=10_000, seed=6)
    monkeypatch.setattr(analysis, "_BLOCK_VALUES", 777)
    got = analysis.verify_theorem1(100, 1.0, 0.5, k_values=(1, 3, 8), trials=10_000, seed=6)
    assert repr(got.bagged) == repr(want.bagged)
    assert repr(got.bagging_ratio) == repr(want.bagging_ratio)


def test_theorem1_rejects_repeated_or_nonpositive_k():
    with pytest.raises(ValueError, match="distinct"):
        analysis.verify_theorem1(64, 1.0, 0.5, k_values=(2, 2), trials=3000)
    with pytest.raises(ValueError, match="distinct"):
        analysis.verify_theorem1(64, 1.0, 0.5, k_values=(0, 2), trials=3000)


def _traced_peak_mb(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_theorem_monte_carlo_memory_is_bounded():
    # one (4096, 16, 256) float64 draw alone is 134 MB; sub-blocks keep the
    # temporaries at a few MB each whatever K is
    with pytest.warns(UserWarning, match="widening"):
        peak = _traced_peak_mb(analysis.verify_theorem1, 256, 1.0, 0.1,
                               k_values=(16,), trials=4096, seed=0)
    assert peak < 100, peak
    peak = _traced_peak_mb(analysis.verify_theorem2, (64, 64, 1), 1.0, 1.0,
                           trials=1000, inner=128, seed=0)
    assert peak < 80, peak


# ------------------------------------------------------------- theorem 2


def test_theorem2_l1_reduces_to_theorem1_equalities():
    # degenerate single layer: measured variance matches theorem-1 closed forms
    rep = analysis.verify_theorem2((64, 1, 1), 1.0, 0.5, trials=800, inner=256, seed=3)
    # the second layer has fan-in 1; bound factors collapse onto layer 1
    b = rep.b
    assert rep.regimes["both_bin"]["bound"] == pytest.approx(b * 64)


def test_theorem2_bounds_hold_quick():
    rep = analysis.verify_theorem2((48, 48, 1), 1.0, 1.0, trials=1_500, inner=128, seed=4)
    for name, res in rep.regimes.items():
        assert res["satisfied_fraction"] >= 0.98, (name, res)
        assert res["mean_measured"] <= res["bound"]


def test_theorem2_three_layers():
    rep = analysis.verify_theorem2((32, 32, 32, 1), 1.0, 1.0, trials=1_000, inner=96, seed=5)
    for name, res in rep.regimes.items():
        assert res["satisfied_fraction"] >= 0.98, (name, res)


def test_theorem2_needs_two_layers():
    with pytest.raises(ValueError):
        analysis.verify_theorem2((8, 1), 1.0, 1.0)


@pytest.mark.parametrize("kw", [{"trials": 0}, {"inner": 0}])
def test_theorem2_rejects_nonpositive_trials_or_inner(kw):
    with pytest.raises(ValueError, match="must be >= 1"):
        analysis.verify_theorem2((8, 4, 1), 1.0, 1.0, **kw)


# ------------------------------------------------------------- robustness


def tiny_cfg(variant="DNN", width=16, classes=3):
    return nn.mlp_config((1, 1, 8), [width], classes, variant=variant, batchnorm=True)


def fixed_inputs(n=32, seed=0):
    return np.random.default_rng(seed).uniform(-1, 1, (n, 1, 1, 8)).astype(np.float32)


def test_robustness_random_zero_sigma_is_zero():
    est = analysis.robustness_random(
        tiny_cfg(), PerturbationSpec(sigma2=0.0, trials=3, seed=0), 2, fixed_inputs()
    )
    assert est.mean == 0.0


def test_robustness_random_monotone_in_sigma():
    x = fixed_inputs(48, 1)
    cfg = tiny_cfg("SB")
    lo = analysis.robustness_random(cfg, PerturbationSpec(sigma2=0.001, trials=8, seed=2), 8, x)
    hi = analysis.robustness_random(cfg, PerturbationSpec(sigma2=0.01, trials=8, seed=2), 8, x)
    assert hi.mean > lo.mean


def test_robustness_random_one_layer_linear_analytic_anchor():
    # single linear neuron, logits output: metric = |w| sigma_w^2 sigma^2
    cfg = nn.NetworkConfig(
        name="lin", input_shape=(1, 1, 16), classes=1,
        layers=(nn.layer("fc", out=1, bias=0),),
    )
    x = np.zeros((1, 1, 1, 16), dtype=np.float32)
    spec = PerturbationSpec(sigma2=0.04, trials=64, seed=3)
    est = analysis.robustness_random(cfg, spec, 48, x, output="logits")
    analytic = 16 * 1.0 * 0.04
    assert abs(est.mean - analytic) <= 3 * max(est.stderr, 1e-12)


def test_robustness_random_batch_order_invariant():
    x = fixed_inputs(16, 4)
    perm = np.random.default_rng(0).permutation(16)
    spec = PerturbationSpec(sigma2=0.01, trials=4, seed=5)
    cfg = nn.mlp_config((1, 1, 8), [16], 3, variant="DNN", batchnorm=False)
    a = analysis.robustness_random(cfg, spec, 3, x)
    b = analysis.robustness_random(cfg, spec, 3, x[perm])
    assert a.mean == b.mean  # exact: pure aggregate
    # with batchnorm the batch statistics are order-invariant reductions up
    # to float associativity only
    a = analysis.robustness_random(tiny_cfg(), spec, 3, x)
    b = analysis.robustness_random(tiny_cfg(), spec, 3, x[perm])
    assert a.mean == pytest.approx(b.mean, rel=1e-5)


def test_robustness_random_weight_target_runs():
    est = analysis.robustness_random(
        tiny_cfg("SB"), PerturbationSpec(target="weights", sigma2=0.01, trials=3, seed=6),
        2, fixed_inputs(8, 6),
    )
    assert est.mean >= 0


def test_perturbation_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(sigma2=1e-9).validate()
    with pytest.raises(ValueError):
        PerturbationSpec(sigma2=11.0).validate()
    with pytest.raises(ValueError):
        PerturbationSpec(trials=0).validate()
    with pytest.raises(ValueError):
        PerturbationSpec(target="bias").validate()
    PerturbationSpec(sigma2=0.0).validate()


def test_robustness_trained_bnn_noisier_than_dnn():
    # direction check on a trained toy task: the all-binary net's error rate
    # moves more under input noise than the float net's. Needs a deep binary
    # stack (shallow ones quantize small perturbations away); pooled over
    # three task seeds. Configuration frozen after calibration.
    from binn import datio, ensemble

    spec_p = PerturbationSpec(sigma2=0.01, trials=150, seed=0)
    b_stats, d_stats = [], []
    for s in (0, 1, 2):
        data = datio.make_blob_images(4000, 4, noise=0.16, seed=s)
        tr, te = datio.split_dataset(data, 3000)
        for variant, lr, sink in (("AB", 5e-3, b_stats), ("DNN", 1e-3, d_stats)):
            cfg = nn.mlp_config((1, 8, 8), [96, 96, 96], 4, variant=variant)
            spec = ensemble.MemberTrainSpec(epochs=20, batch_size=64, lr=lr)
            net, _ = ensemble.train_member(
                cfg, tr.images, tr.labels,
                u=np.full(len(tr), 1.0 / len(tr)),
                seed_seq=ensemble.member_seed(s, 0), spec=spec,
            )
            sink.append(analysis.robustness_trained(net, te.images, te.labels, spec_p))
    diff = np.mean([e.mean for e in b_stats]) - np.mean([e.mean for e in d_stats])
    se = math.sqrt(sum(e.stderr**2 for e in b_stats + d_stats)) / 3
    assert diff >= 0, (b_stats, d_stats)
    assert diff / se >= 3.0


@pytest.mark.parametrize("target", ["input", "weights"])
def test_output_change_one_member_bag_equals_its_member(target):
    from binn import datio, ensemble

    tr, te = datio.split_dataset(datio.make_blob_images(200, 3, noise=0.1, seed=4), 150)
    cfg = nn.mlp_config((1, 8, 8), [16], 3, variant="AB")
    bag, _ = ensemble.train_bagging(cfg, tr.images, tr.labels, k=1, seed=4,
                                    spec=ensemble.MemberTrainSpec(epochs=2, batch_size=32))
    spec = PerturbationSpec(target=target, sigma2=0.01, trials=6, seed=5)
    a = analysis.output_change_trained(bag, te.images, spec)
    b = analysis.output_change_trained(bag.members[0], te.images, spec)
    assert a.mean > 0
    assert (a.mean, a.stderr, a.trials) == (b.mean, b.stderr, b.trials)


def test_robustness_estimator_golden_bits():
    # frozen from the three estimators' own trial loops: a trained 64-8-4 AB
    # network and a 3-member AB bag under input and weight noise, and random
    # DNN/AB MLPs under input noise with softmax and logits outputs
    from binn import datio, ensemble

    tr, te = datio.split_dataset(datio.make_blob_images(300, 4, noise=0.1, seed=8), 240)
    cfg = nn.mlp_config((1, 8, 8), [8], 4, variant="AB")
    mspec = ensemble.MemberTrainSpec(epochs=3, batch_size=32)
    net, _ = ensemble.train_member(cfg, tr.images, tr.labels, u=np.full(len(tr), 1.0 / len(tr)),
                                   seed_seq=ensemble.member_seed(8, 0), spec=mspec)
    bag, _ = ensemble.train_bagging(cfg, tr.images, tr.labels, k=3, seed=8, spec=mspec)
    got = []
    for model in (net, bag):
        for target in ("input", "weights"):
            spec = PerturbationSpec(target=target, sigma2=0.05, trials=5, seed=9)
            got.append(repr(analysis.output_change_trained(model, te.images, spec)))
            got.append(repr(analysis.robustness_trained(model, te.images, te.labels, spec)))
    x = fixed_inputs(24, 3)
    for variant in ("DNN", "AB"):
        cfg = nn.mlp_config((1, 1, 8), [16], 3, variant=variant)
        for output in ("softmax", "logits"):
            spec = PerturbationSpec(sigma2=0.02, trials=4, seed=10)
            got.append(repr(analysis.robustness_random(cfg, spec, 3, x, output=output)))
    est = "MonteCarloEstimate(mean={}, stderr={}, trials={})".format
    assert got == [
        est(0.10708582738645929, 0.008954156424258508, 5),
        est(0.002111111111111113, 0.0012927862531355674, 5),
        est(0.40416937127090025, 0.05545702226294227, 5),
        est(0.013500000000000002, 0.008509526252209168, 5),
        est(0.029317686193429237, 0.0017972892139001592, 5),
        est(0.0008333333333333326, 0.000456435464587637, 5),
        est(0.1095752965864933, 0.0053942304022477575, 5),
        est(0.04683333333333332, 0.011022073811724866, 5),
        est(0.01840735045219927, 0.0029949224724155152, 12),
        est(1.0067228445922074, 0.08574663325829468, 12),
        est(0.23553354107311644, 0.029402334317572245, 12),
        est(19.379772998343864, 3.312157578759829, 12),
    ]


def test_robustness_trained_zero_sigma_and_errors():
    cfg = tiny_cfg("SB")
    net = nn.Network.from_config(cfg, seed=0)
    x = fixed_inputs(24, 7)
    y = np.random.default_rng(7).integers(0, 3, 24)
    est = analysis.robustness_trained(net, x, y, PerturbationSpec(sigma2=0.0, trials=4))
    assert est.mean == 0.0
    with pytest.raises(ValueError, match="empty"):
        analysis.robustness_trained(net, x[:0], y[:0], PerturbationSpec(trials=2))


# ---------------------------------------------------------------- stability


def test_stability_constant_stream_zero_std():
    assert analysis.stability_track([0.9] * 25) == 0.0


def test_stability_alternating_stream_frozen_value():
    stream = [0.8, 0.9] * 10
    std = analysis.stability_track(stream)
    # sample std of ten 0.8s and ten 0.9s: 0.05 * sqrt(20/19)
    assert std == pytest.approx(0.05 * math.sqrt(20 / 19), abs=1e-12)
    assert std == pytest.approx(0.0513, abs=1e-4)


def test_stability_window_and_errors():
    with pytest.raises(ValueError, match="at least 20"):
        analysis.stability_track([0.5] * 19)
    stream = list(np.linspace(0, 1, 50))
    # only the last 10 points count
    assert analysis.stability_track(stream, window=10) == np.std(stream[-10:], ddof=1)


def test_variance_with_se_consistency():
    rng = np.random.default_rng(8)
    x = rng.normal(0, 2.0, 50_000)
    v, se = analysis.variance_with_se(x)
    assert abs(v - 4.0) <= 4 * se
    assert se == pytest.approx(4.0 * math.sqrt(2 / 50_000), rel=0.2)
