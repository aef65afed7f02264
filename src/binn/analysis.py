"""Statistical investigations of binarized networks.

Covers the input-perturbation robustness metrics (expected squared change
of the output distribution for random networks, squared error-rate change
for trained ones), training-oscillation tracking, numerical evaluation of
the sign-flip variance factor B, and Monte-Carlo verification of the
one-layer and multi-layer output-variation bounds.

The theorem checks and ``monte_carlo_b`` draw each chunk of trials from its
own RNG stream, derived from (seed, chunk index); the robustness estimators
derive theirs from the seed and the weight-sample index. A result therefore
depends on the seed and the trial count alone. The theorem checks split a
chunk into row sub-blocks of at most ``_BLOCK_VALUES`` values that consume
the chunk's stream in the same order, so their peak memory does not grow
with the ensemble size K. Theorem 1's bagged members take their ±1 weights
from the raw 64-bit words of the chunk's stream, ceil(fan_in / 64) whole
words per member row, drawn after the chunk's w, x and dx normals (so the
four single-neuron regimes do not depend on K). All estimators report
standard errors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import integrate

from .nn.network import Network, softmax

_CHUNK = 4096
_BLOCK_VALUES = _CHUNK * 64  # float64 values per sub-block temporary (2 MB)
_MAX_WIDENED_TOL = 0.5  # a widened tolerance never passes a 100% error


@dataclass(frozen=True)
class PerturbationSpec:
    """Zero-mean Gaussian perturbation of inputs or weights."""

    target: str = "input"  # input | weights
    sigma2: float = 0.01
    trials: int = 100
    seed: int = 0

    def validate(self) -> None:
        if self.target not in ("input", "weights"):
            raise ValueError(f"target must be input or weights, got {self.target!r}")
        # sigma2 == 0 is the exact no-perturbation case
        if self.sigma2 != 0.0 and not 1e-6 <= self.sigma2 <= 10.0:
            raise ValueError(f"sigma2 {self.sigma2} outside [1e-6, 10]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class MonteCarloEstimate:
    mean: float
    stderr: float
    trials: int


@dataclass
class RegimeStat:
    measured: float
    stderr: float
    predicted: float

    @property
    def rel_err(self) -> float:
        return abs(self.measured - self.predicted) / self.predicted


@dataclass
class VarianceReport:
    fan_in: int
    sigma_w: float
    sigma: float
    b: float
    r: float
    regimes: dict  # name -> RegimeStat for real/act_bin/weight_bin/both_bin
    bagged: dict  # K -> RegimeStat (both-binarized, bagged)
    bagging_ratio: dict  # K -> measured bagged variance * K / single variance
    thresholds: dict  # {"b_over_r", "inv_sigma_w2", "b_over_r_sigma_w2"}
    threshold_checks: list = field(default_factory=list)
    rel_tol: float = 0.05


def _rng(seed, *tags) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def _sign(x):
    """np.where(x >= 0, 1.0, -1.0), NaN -> -1; np.where with scalar branches is ~4x slower."""
    s = (x >= 0).astype(np.float64)
    s *= 2.0
    s -= 1.0
    return s


def _row_blocks(m: int, row_values: int):
    """(lo, hi) bounds of consecutive sub-blocks of ``m`` rows of ``row_values``
    values each, at most ``_BLOCK_VALUES`` values (and at least one row) per block."""
    step = max(1, _BLOCK_VALUES // row_values)
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def variance_with_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample variance and its standard error from the fourth moment."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    m = x.mean()
    v = x.var(ddof=1)
    m4 = ((x - m) ** 4).mean()
    se2 = (m4 - v * v * (n - 3) / (n - 1)) / n
    return float(v), float(math.sqrt(max(se2, 0.0)))


# ------------------------------------------------------------- B constant


def compute_b(sigma: float) -> float:
    """Variance factor of sign(x + dx) - sign(x) for x ~ N(0,1), dx ~ N(0, sigma^2).

    The difference takes values in {-2, 0, +2}; its variance is
    4 * (Pr(+2) + Pr(-2)) = 8 * Pr(+2) by symmetry. Pr(+2) is evaluated by
    2-D adaptive quadrature of the joint density over a truncated domain
    (|x|, |dx| <= 8 max(1, sigma)); absolute error stays well under 0.005.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    t = 8.0 * max(1.0, sigma)
    inv = 1.0 / (math.sqrt(2 * math.pi))
    inv_s = 1.0 / (math.sqrt(2 * math.pi) * sigma)

    def density(dx, x):
        return inv * math.exp(-0.5 * x * x) * inv_s * math.exp(-0.5 * (dx / sigma) ** 2)

    # the integrand only lives where both |x| and dx are O(sigma); shrinking
    # the domain to 50 sigma discards at most a Phi-bar(50) tail, keeping the
    # adaptive sampler on the sharp inner Gaussian for small sigma
    x_lo = -min(t, 50.0 * sigma)
    dx_hi = lambda x: max(min(t, 50.0 * sigma), -x)
    p2, _ = integrate.dblquad(density, x_lo, 0.0, lambda x: -x, dx_hi)
    return 8.0 * p2


def compute_r(sigma: float) -> float:
    return sigma * sigma


def b_r_table(sigmas) -> list[dict]:
    return [{"sigma": s, "b": compute_b(s), "r": compute_r(s)} for s in sigmas]


def monte_carlo_b(sigma: float, trials: int = 10_000_000, seed: int = 0) -> MonteCarloEstimate:
    """Sampling cross-check of compute_b (gamma^2 has values in {0, 4})."""
    total = 0.0
    total_sq = 0.0
    done = 0
    ci = 0
    while done < trials:
        m = min(_CHUNK * 64, trials - done)
        rng = _rng(seed, 0xB0, ci)
        x = rng.standard_normal(m)
        dx = rng.standard_normal(m) * sigma
        g2 = (_sign(x + dx) - _sign(x)) ** 2
        total += g2.sum()
        total_sq += (g2 * g2).sum()
        done += m
        ci += 1
    mean = total / trials
    var = total_sq / trials - mean * mean
    return MonteCarloEstimate(mean=mean, stderr=math.sqrt(max(var, 0) / trials), trials=trials)


# -------------------------------------------------------- one-layer theorem


def verify_theorem1(
    fan_in: int,
    sigma_w: float,
    sigma: float,
    *,
    k_values=(2, 4, 8, 16),
    trials: int = 100_000,
    seed: int = 0,
) -> VarianceReport:
    """Monte-Carlo one-layer, single-neuron simulation of the four regimes.

    Measures output-change variances for the real, activation-binarized,
    weight-binarized and both-binarized cases plus K-member bagging of the
    both-binarized case (members share x and dx within a trial, weights are
    independent). Compares against the closed forms
    |w| sigma_w^2 sigma^2, B |w| sigma_w^2, |w| sigma^2 and B |w|.
    """
    if fan_in < 1 or sigma_w <= 0 or sigma <= 0:
        raise ValueError("fan_in, sigma_w and sigma must be positive")
    if trials < 2:
        raise ValueError(f"trials must be >= 2 to measure a variance, got {trials}")
    if any(k < 1 for k in k_values) or len(set(k_values)) != len(k_values):
        raise ValueError(f"k_values must be distinct integers >= 1, got {k_values}")
    rel_tol = 0.05
    if trials < 10_000:
        widened = max(rel_tol, min(3.0 * math.sqrt(2.0 / trials), _MAX_WIDENED_TOL))
        if widened > rel_tol:
            warnings.warn(
                f"{trials} trials is small for rel_tol={rel_tol}; widening to {widened:.3f} "
                f"(3 sqrt(2/trials), at most {_MAX_WIDENED_TOL})"
            )
            rel_tol = widened

    b = compute_b(sigma)
    r = compute_r(sigma)
    names = ("real", "act_bin", "weight_bin", "both_bin")
    collected = {n: [] for n in names}
    bagged_collected = {k: [] for k in k_values}
    words = -(-fan_in // 64)  # raw 64-bit words per member row

    done = 0
    ci = 0
    while done < trials:
        m = min(_CHUNK, trials - done)
        rng = _rng(seed, 0x71, ci)
        w = rng.normal(0.0, sigma_w, (m, fan_in))
        x = rng.standard_normal((m, fan_in))
        dx = rng.normal(0.0, sigma, (m, fan_in))
        gamma = _sign(x + dx) - _sign(x)
        collected["real"].append((w * dx).sum(axis=1))
        collected["act_bin"].append((w * gamma).sum(axis=1))
        sw = _sign(w)
        collected["weight_bin"].append((sw * dx).sum(axis=1))
        collected["both_bin"].append((sw * gamma).sum(axis=1))
        for k in k_values:
            # sign(N(0, sigma_w^2)) is a fair ±1, so each member row is drawn as
            # whole raw words; sub-block draws continue the stream of one draw, and
            # matmul sums the ±1 x {-2, 0, 2} products exactly, in any order
            member = np.empty((m, k))
            for lo, hi in _row_blocks(m, k * fan_in):
                raw = rng.bit_generator.random_raw((hi - lo) * k * words)
                signs = np.unpackbits(
                    raw.astype("<u8", copy=False).view(np.uint8).reshape(hi - lo, k, words * 8),
                    axis=-1, count=fan_in, bitorder="little",
                ).astype(np.float64)
                signs *= 2.0  # bit 1 is +1, as in bitcore
                signs -= 1.0
                member[lo:hi] = np.matmul(signs, gamma[lo:hi, :, None])[..., 0]
            bagged_collected[k].append(member.mean(axis=1))
        done += m
        ci += 1

    predicted = {
        "real": fan_in * sigma_w**2 * sigma**2,
        "act_bin": b * fan_in * sigma_w**2,
        "weight_bin": fan_in * sigma**2,
        "both_bin": b * fan_in,
    }
    regimes = {}
    for n in names:
        v, se = variance_with_se(np.concatenate(collected[n]))
        regimes[n] = RegimeStat(measured=v, stderr=se, predicted=predicted[n])

    bagged = {}
    ratio = {}
    for k in k_values:
        v, se = variance_with_se(np.concatenate(bagged_collected[k]))
        bagged[k] = RegimeStat(measured=v, stderr=se, predicted=predicted["both_bin"] / k)
        single = regimes["both_bin"].measured
        ratio[k] = v * k / single if single > 0 else math.nan

    thresholds = {
        "b_over_r": b / r,
        "inv_sigma_w2": 1.0 / sigma_w**2,
        "b_over_r_sigma_w2": b / (r * sigma_w**2),
    }
    checks = []
    for k in k_values:
        predicted_better = k > thresholds["b_over_r_sigma_w2"]
        measured_better = bagged[k].measured < regimes["real"].measured
        checks.append(
            {
                "k": k,
                "predicate": "bagged both-binarized beats real",
                "predicted": predicted_better,
                "measured": measured_better,
                "agree": predicted_better == measured_better,
            }
        )
    return VarianceReport(
        fan_in=fan_in,
        sigma_w=sigma_w,
        sigma=sigma,
        b=b,
        r=r,
        regimes=regimes,
        bagged=bagged,
        bagging_ratio=ratio,
        thresholds=thresholds,
        threshold_checks=checks,
        rel_tol=rel_tol,
    )


# ------------------------------------------------------- multi-layer bounds

THEOREM2_REGIMES = ("real", "act_bin", "weight_bin", "both_bin")


def _stack_forward(ws, x, regime):
    """Batched forward of [networks] random linear stacks with weights ``ws``,
    already signed for the weight-binarized regimes; activation between
    layers is ReLU for real/weight regimes and sign for binarized ones."""
    h = x
    last = len(ws) - 1
    for li, w in enumerate(ws):
        if regime in ("act_bin", "both_bin"):
            h = _sign(h)
        h = np.matmul(h, w.transpose(0, 2, 1))
        if li != last and regime in ("real", "weight_bin"):
            h = np.maximum(h, 0.0)
    return h


def theorem2_bound(widths, sigma_w, sigma, b, regime) -> float:
    fans = widths[:-1]
    prod_fan = float(np.prod(fans))
    layers = len(fans)
    if regime == "real":
        return sigma**2 * prod_fan * sigma_w ** (2 * layers)
    if regime == "act_bin":
        return b * prod_fan * sigma_w ** (2 * layers)
    if regime == "weight_bin":
        return sigma**2 * prod_fan
    if regime == "both_bin":
        return b * prod_fan
    raise ValueError(f"unknown regime {regime!r}")


@dataclass
class Theorem2Report:
    widths: tuple
    sigma_w: float
    sigma: float
    b: float
    trials: int
    inner: int
    regimes: dict  # name -> {bound, mean_measured, satisfied_fraction}


def verify_theorem2(
    widths,
    sigma_w: float,
    sigma: float,
    *,
    trials: int = 10_000,
    inner: int = 128,
    seed: int = 0,
) -> Theorem2Report:
    """Check the product bounds on multi-layer output variation.

    A trial draws one random linear stack (widths = [d_in, ..., d_out], no
    batchnorm), estimates its output-change variance from ``inner`` fresh
    (x, dx) pairs, and tests it against the closed-form product bound.
    """
    widths = tuple(int(d) for d in widths)
    if len(widths) < 3:
        raise ValueError("need at least 2 layers (3 widths)")
    b = compute_b(sigma)
    results = {
        reg: {"bound": theorem2_bound(widths, sigma_w, sigma, b, reg), "satisfied": 0, "sum": 0.0}
        for reg in THEOREM2_REGIMES
    }
    done = 0
    ci = 0
    chunk = max(1, _CHUNK // max(1, inner // 8))
    while done < trials:
        m = min(chunk, trials - done)
        rng = _rng(seed, 0x72, ci)
        ws = [
            rng.normal(0.0, sigma_w, (m, widths[li + 1], widths[li]))
            for li in range(len(widths) - 1)
        ]
        signed = [_sign(w) for w in ws]
        x = rng.standard_normal((m, inner, widths[0]))
        v_hat = {reg: np.empty(m) for reg in THEOREM2_REGIMES}  # per-network variance
        # dx is the chunk's last draw, so drawing it per sub-block keeps the stream
        for lo, hi in _row_blocks(m, inner * max(widths)):
            xb = x[lo:hi]
            xd = xb + rng.normal(0.0, sigma, (hi - lo, inner, widths[0]))
            for reg in THEOREM2_REGIMES:
                wb = [w[lo:hi] for w in (signed if reg in ("weight_bin", "both_bin") else ws)]
                d = _stack_forward(wb, xd, reg) - _stack_forward(wb, xb, reg)
                v_hat[reg][lo:hi] = (d * d).mean(axis=(1, 2))
        for reg, res in results.items():  # whole-chunk sums keep the summation order
            res["satisfied"] += int((v_hat[reg] <= res["bound"]).sum())
            res["sum"] += float(v_hat[reg].sum())
        done += m
        ci += 1
    regimes = {}
    for reg, res in results.items():
        frac = res["satisfied"] / trials
        regimes[reg] = {
            "bound": res["bound"],
            "mean_measured": res["sum"] / trials,
            "satisfied_fraction": frac,
            "satisfied_se": math.sqrt(max(frac * (1 - frac), 0.0) / trials),
        }
    return Theorem2Report(
        widths=widths, sigma_w=sigma_w, sigma=sigma, b=b,
        trials=trials, inner=inner, regimes=regimes,
    )


# --------------------------------------------------------------- robustness


def _mean_probs(model, images, **forward_kw) -> np.ndarray:
    """Unweighted mean of the members' softmax outputs; a Network is one member."""
    members = model.members if hasattr(model, "members") else [model]
    return np.stack([softmax(m.forward(images, **forward_kw)) for m in members]).mean(axis=0)


def _estimate(values, trials) -> MonteCarloEstimate:
    """Mean of float64 per-trial values with the standard error of that mean."""
    x = np.asarray(values, dtype=np.float64)
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return MonteCarloEstimate(mean=float(x.mean()), stderr=se, trials=trials)


def _perturbed(model, images, spec: PerturbationSpec, rng, noise_shape):
    """Yield one (model, images) pair per trial of ``spec``: the images plus one
    N(0, sigma2) draw of ``noise_shape``, or the model with every member's weights noised.

    Weight noise is written into one copy of each member, made once, so a
    yielded model is only valid until the next trial is drawn."""
    sigma = math.sqrt(spec.sigma2)
    if spec.target == "input":
        for _ in range(spec.trials):
            yield model, images + rng.normal(0.0, sigma, noise_shape).astype(np.float32)
        return
    members = model.members if hasattr(model, "members") else [model]
    noisy = [m.clone() for m in members]
    noisy_model = replace(model, members=noisy) if hasattr(model, "members") else noisy[0]
    for _ in range(spec.trials):
        for clean, dup in zip(members, noisy):
            _with_weight_noise(dup, clean, rng, sigma)
        yield noisy_model, images


def robustness_random(
    netcfg,
    spec: PerturbationSpec,
    weight_samples: int,
    inputs,
    *,
    output: str = "softmax",
) -> MonteCarloEstimate:
    """Expected squared output-distribution change under input noise,
    averaged over random-normal weight draws (the random-network protocol).

    Inputs are expected normalized to [-1, 1]. Batchnorm layers run on
    batch statistics. Input noise is one draw per trial shared across the
    batch: same expectation, and the estimate is exactly batch-order
    invariant. The standard error is computed across weight-sample means.
    """
    spec.validate()
    if weight_samples < 1:
        raise ValueError("weight_samples must be >= 1")

    def out(net, x):
        if output == "logits":
            return net.forward(x, bn_batch_stats=True).astype(np.float64)
        return _mean_probs(net, x, bn_batch_stats=True)

    per_sample = []
    for s in range(weight_samples):
        net = Network.from_config(netcfg, seed=_rng(spec.seed, 0xE1, s, 0), init="normal")
        p0 = out(net, inputs)
        trials = _perturbed(net, inputs, spec, _rng(spec.seed, 0xE2, s), inputs.shape[1:])
        diffs = [((out(n, x) - p0) ** 2).sum(axis=1).mean() for n, x in trials]
        per_sample.append(float(np.mean(diffs)))
    return _estimate(per_sample, weight_samples * spec.trials)


def _with_weight_noise(noisy: Network, clean: Network, rng, sigma) -> None:
    """Overwrite ``noisy``'s weights (a clone of ``clean``) with ``clean``'s plus
    one N(0, sigma^2) draw cast to the weight dtype, layer by layer."""
    for lay, src in zip(noisy.layers, clean.layers):
        if hasattr(lay, "w"):
            w = src.w.value
            np.add(w, rng.normal(0.0, sigma, w.shape).astype(w.dtype), out=lay.w.value)


def _error_rate(model, images, labels) -> float:
    return float((model.predict(images) != np.asarray(labels)).mean())


def output_change_trained(model, images, spec: PerturbationSpec) -> MonteCarloEstimate:
    """Squared change of a trained model's member-mean softmax under noise
    (the random-network metric at fixed trained weights); input noise is one
    draw per trial shared across the batch."""
    spec.validate()
    if len(images) == 0:
        raise ValueError("empty dataset")
    p0 = _mean_probs(model, images)
    trials = _perturbed(model, images, spec, _rng(spec.seed, 0xE4), images.shape[1:])
    diffs = [((_mean_probs(m, x) - p0) ** 2).sum(axis=1).mean() for m, x in trials]
    return _estimate(diffs, spec.trials)


def robustness_trained(model, images, labels, spec: PerturbationSpec) -> MonteCarloEstimate:
    """Expected squared change of the classification error rate under noise.

    ``model`` is a trained Network or EnsembleModel voting with its own rule
    and alphas. The error rate is the 0/1 error over the evaluation batch
    under per-example input noise; the squared clean-vs-perturbed difference
    is averaged over noise draws.
    """
    spec.validate()
    if len(labels) == 0:
        raise ValueError("empty dataset")
    err0 = _error_rate(model, images, labels)
    trials = _perturbed(model, images, spec, _rng(spec.seed, 0xE3), images.shape)
    diffs = [(_error_rate(m, x, labels) - err0) ** 2 for m, x in trials]
    return _estimate(diffs, spec.trials)


# ---------------------------------------------------------------- stability


def stability_track(accuracies, window: int = 20) -> float:
    """Sample standard deviation of the last ``window`` recorded accuracies."""
    acc = list(accuracies)
    if len(acc) < window:
        raise ValueError(f"need at least {window} recorded points, got {len(acc)}")
    tail = np.asarray(acc[-window:], dtype=np.float64)
    return 0.0 if np.all(tail == tail[0]) else float(tail.std(ddof=1))
