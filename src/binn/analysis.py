"""Statistical investigations of binarized networks.

Covers robustness, measured by one estimator (``_squared_changes``) of the
squared change of a statistic under input or weight noise: a random
network's softmax or logits, a trained model's member-mean softmax, or its
error rate. Also training-oscillation tracking, the sign-flip variance
factor B in closed form, B(sigma) = (4/pi) arctan(sigma), and Monte-Carlo
verification of the one-layer and multi-layer output-variation bounds.

The theorem checks and ``monte_carlo_b`` draw each chunk of trials from its
own RNG stream, derived from (seed, chunk index); the robustness estimators
derive theirs from the seed and the weight-sample index. A result therefore
depends on the seed and the trial count alone. The theorem checks split a
chunk into row sub-blocks of at most ``_BLOCK_VALUES`` values that consume
the chunk's stream in the same order. A chunk keeps only its draws whole
and builds everything derived from them per sub-block, so the peak is one
chunk's draws plus one sub-block's temporaries, whatever the ensemble size
K. Sums of ±1 products run in float32, where they are exact integers (see
``MAX_FAN_IN``). Theorem 1's bagged members take their ±1 weights
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

from . import bitcore
from .ensemble import member_probs
from .errors import NumericalError
from .nn.layers import sign_binarize
from .nn.network import Network, eval_logits, softmax

_CHUNK = 4096
_BLOCK_VALUES = _CHUNK * 64  # float64 values per sub-block temporary (2 MB)
_MAX_WIDENED_TOL = 0.5  # a widened tolerance never passes a 100% error
# float32 holds every integer up to 2^24 exactly. Theorem 1's bagged sums reach
# 2 fan_in and theorem 2's both-binarized sums a layer's fan-in, so these bounds
# keep both exact, and equal to float64 sums bit for bit
MAX_FAN_IN = 1 << 23
MAX_WIDTH = 1 << 24
REGIMES = ("real", "act_bin", "weight_bin", "both_bin")  # of both theorems


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


def _chunks(trials, size, seed, tag):
    """(m, rng) for each chunk of at most ``size`` trials, drawn from stream (seed, tag, index)."""
    for ci, lo in enumerate(range(0, trials, size)):
        yield min(size, trials - lo), _rng(seed, tag, ci)


def _row_blocks(m: int, row_values: int):
    """(lo, hi) bounds of consecutive sub-blocks of ``m`` rows of ``row_values``
    values each, at most ``_BLOCK_VALUES`` values (and at least one row) per block."""
    step = max(1, _BLOCK_VALUES // row_values)
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def _check_squares(**sigmas) -> None:
    """NumericalError naming a sigma whose square overflows or underflows to 0."""
    for name, s in sigmas.items():
        if not 0.0 < s * s < math.inf:
            raise NumericalError(f"{name} = {s:g} squares to {s * s:g}")


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

    The difference takes values in {-2, 0, +2} and has mean 0, so its
    variance is B = 4 Pr(flip), with flip meaning sign(x + dx) != sign(x).
    x and x + dx are jointly normal with correlation rho = 1/sqrt(1 + sigma^2),
    and Sheppard's orthant formula gives Pr(flip) = arccos(rho)/pi =
    arctan(sigma)/pi. So B = (4/pi) arctan(sigma), which tends to 2 as
    sigma grows.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 4.0 / math.pi * math.atan(sigma)


def b_r_table(sigmas) -> list[dict]:
    return [{"sigma": s, "b": compute_b(s), "r": s * s} for s in sigmas]


def monte_carlo_b(sigma: float, trials: int = 10_000_000, seed: int = 0) -> MonteCarloEstimate:
    """Sampling cross-check of compute_b (gamma^2 has values in {0, 4})."""
    total = 0.0
    total_sq = 0.0
    for m, rng in _chunks(trials, _CHUNK * 64, seed, 0xB0):
        x = rng.standard_normal(m)
        dx = rng.standard_normal(m) * sigma
        g2 = (sign_binarize(x + dx) - sign_binarize(x)) ** 2
        total += g2.sum()
        total_sq += (g2 * g2).sum()
    mean = total / trials
    var = total_sq / trials - mean * mean
    return MonteCarloEstimate(mean=mean, stderr=math.sqrt(max(var, 0) / trials), trials=trials)


# -------------------------------------------------------- one-layer theorem


def _theorem1_chunk(m, rng, fan_in, sigma_w, sigma, k_values):
    """Per-trial output changes of one chunk of ``verify_theorem1``: a dict of
    the four regimes' and a dict of each K's bagged mean. The draws w, x, dx
    and the int8 gamma are the only chunk-sized arrays; all else is built per
    row sub-block, and nothing outlives the call."""
    w = rng.normal(0.0, sigma_w, (m, fan_in))
    x = rng.standard_normal((m, fan_in))
    dx = rng.normal(0.0, sigma, (m, fan_in))
    gamma = np.empty((m, fan_in), np.int8)  # sign(x + dx) - sign(x), in {-2, 0, 2}
    sums = {n: np.empty(m) for n in REGIMES}
    for lo, hi in _row_blocks(m, fan_in):  # each row sums in the order a whole-chunk sum does
        wb, db, g = w[lo:hi], dx[lo:hi], gamma[lo:hi]
        np.subtract(sign_binarize(x[lo:hi] + db), sign_binarize(x[lo:hi]), out=g, casting="unsafe")
        sw = sign_binarize(wb)
        sums["real"][lo:hi] = (wb * db).sum(axis=1)
        sums["act_bin"][lo:hi] = (wb * g).sum(axis=1)
        sums["weight_bin"][lo:hi] = (sw * db).sum(axis=1)
        sums["both_bin"][lo:hi] = (sw * g).sum(axis=1)
    gamma_sum = gamma.sum(axis=1, dtype=np.float32)
    words = -(-fan_in // 64)  # raw 64-bit words per member row
    bagged = {}
    for k in k_values:
        # sign(N(0, sigma_w^2)) is a fair ±1, so each member row is drawn as
        # whole raw words; sub-block draws continue the stream of one draw.
        # Bit 1 is +1, as in bitcore, so a member's sum is 2 bits·gamma - Σgamma:
        # integers of magnitude at most 2 fan_in, exact in float32 in any order
        member = np.empty((m, k))
        for lo, hi in _row_blocks(m, k * fan_in):
            raw = rng.bit_generator.random_raw((hi - lo) * k * words)
            bits = bitcore._words_to_bits(raw.reshape(hi - lo, k, words), fan_in)
            dot = np.matmul(bits.astype(np.float32), gamma[lo:hi, :, None].astype(np.float32))
            member[lo:hi] = 2 * dot[..., 0] - gamma_sum[lo:hi, None]
        bagged[k] = member.mean(axis=1)
    return sums, bagged


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
    if fan_in > MAX_FAN_IN:
        raise ValueError(f"fan_in must be <= {MAX_FAN_IN}, got {fan_in}")
    if trials < 2:
        raise ValueError(f"trials must be >= 2 to measure a variance, got {trials}")
    if any(k < 1 for k in k_values) or len(set(k_values)) != len(k_values):
        raise ValueError(f"k_values must be distinct integers >= 1, got {k_values}")
    _check_squares(sigma_w=sigma_w, sigma=sigma)
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
    r = sigma * sigma
    predicted = {
        "real": fan_in * sigma_w**2 * sigma**2,
        "act_bin": b * fan_in * sigma_w**2,
        "weight_bin": fan_in * sigma**2,
        "both_bin": b * fan_in,
    }
    thresholds = {
        "b_over_r": b / r,
        "inv_sigma_w2": 1.0 / sigma_w**2,
        "b_over_r_sigma_w2": b / (r * sigma_w**2),
    }
    collected = {n: [] for n in REGIMES}
    bagged_collected = {k: [] for k in k_values}
    for m, rng in _chunks(trials, _CHUNK, seed, 0x71):
        sums, bagged = _theorem1_chunk(m, rng, fan_in, sigma_w, sigma, k_values)
        for n in REGIMES:
            collected[n].append(sums[n])
        for k in k_values:
            bagged_collected[k].append(bagged[k])

    regimes = {}
    for n in REGIMES:
        v, se = variance_with_se(np.concatenate(collected[n]))
        regimes[n] = RegimeStat(measured=v, stderr=se, predicted=predicted[n])

    bagged = {}
    ratio = {}
    for k in k_values:
        v, se = variance_with_se(np.concatenate(bagged_collected[k]))
        bagged[k] = RegimeStat(measured=v, stderr=se, predicted=predicted["both_bin"] / k)
        single = regimes["both_bin"].measured
        ratio[k] = v * k / single if single > 0 else math.nan

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


def _stack_forward(ws, h, regime):
    """Batched forward of [networks] random linear stacks with weights ``ws``
    of inputs ``h``, both already signed for the regimes that binarize them;
    the activation between layers is ReLU for real/weight regimes and sign
    for binarized ones."""
    for li, w in enumerate(ws):
        if li:
            h = sign_binarize(h) if regime in ("act_bin", "both_bin") else np.maximum(h, 0.0, out=h)
        h = np.matmul(h, w.transpose(0, 2, 1))
    return h


def _theorem2_chunk(m, rng, widths, sigma_w, sigma, inner):
    """Each network's output-change variance, per regime, for one chunk of
    ``verify_theorem2``. The draws ws and x are the only chunk-sized arrays;
    all else is built per row sub-block, and nothing outlives the call."""
    ws = [
        rng.normal(0.0, sigma_w, (m, widths[li + 1], widths[li]))
        for li in range(len(widths) - 1)
    ]
    x = rng.standard_normal((m, inner, widths[0]))
    v_hat = {reg: np.empty(m) for reg in REGIMES}
    for lo, hi in _row_blocks(m, inner * max(widths)):
        for reg, v in _theorem2_block(rng, sigma, [w[lo:hi] for w in ws], x[lo:hi]).items():
            v_hat[reg][lo:hi] = v
    return v_hat


def _theorem2_block(rng, sigma, ws, x):
    """Each regime's output-change variance for a row sub-block of networks
    ``ws`` and clean inputs ``x``. dx is a chunk's last draw, so drawing it
    per sub-block keeps the chunk's stream."""
    noisy = rng.normal(0.0, sigma, x.shape)
    noisy += x
    sw = [sign_binarize(w) for w in ws]
    sx = [sign_binarize(v).astype(np.float32) for v in (x, noisy)]  # ±1 in any precision
    runs = {
        "real": (ws, (x, noisy)),
        "act_bin": (ws, sx),
        "weight_bin": (sw, (x, noisy)),
        # every sum is an integer of magnitude at most a fan-in: exact in float32
        "both_bin": ([s.astype(np.float32) for s in sw], sx),
    }
    v_hat = {}
    for reg, (wb, (h0, h1)) in runs.items():
        d = np.subtract(_stack_forward(wb, h1, reg), _stack_forward(wb, h0, reg), dtype=np.float64)
        v_hat[reg] = (d * d).mean(axis=(1, 2))
    return v_hat


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
    if max(widths) > MAX_WIDTH:
        raise ValueError(f"widths must be <= {MAX_WIDTH}, got {max(widths)}")
    if trials < 1 or inner < 1:
        raise ValueError(f"trials and inner must be >= 1, got {trials} and {inner}")
    _check_squares(sigma_w=sigma_w, sigma=sigma)
    b = compute_b(sigma)
    try:
        bounds = {reg: theorem2_bound(widths, sigma_w, sigma, b, reg) for reg in REGIMES}
    except OverflowError:  # sigma_w ** (2 * layers); _check_squares saw only its square
        raise NumericalError(f"sigma_w = {sigma_w:g} to the power {2 * len(widths) - 2} "
                             f"({len(widths) - 1} layers) overflows") from None
    results = {reg: {"bound": bounds[reg], "satisfied": 0, "sum": 0.0} for reg in REGIMES}
    for m, rng in _chunks(trials, max(1, _CHUNK // max(1, inner // 8)), seed, 0x72):
        v_hat = _theorem2_chunk(m, rng, widths, sigma_w, sigma, inner)
        for reg, res in results.items():  # whole-chunk sums keep the summation order
            res["satisfied"] += int((v_hat[reg] <= res["bound"]).sum())
            res["sum"] += float(v_hat[reg].sum())
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


def _mean_probs(model, images) -> np.ndarray:
    """Unweighted mean of the members' softmax outputs; a Network is one member."""
    if not hasattr(model, "members"):
        return softmax(eval_logits(model, images))
    return member_probs(model, images).mean(axis=0)


def _estimate(values, trials) -> MonteCarloEstimate:
    """Mean of float64 per-trial values with the standard error of that mean."""
    x = np.asarray(values, dtype=np.float64)
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return MonteCarloEstimate(mean=float(x.mean()), stderr=se, trials=trials)


def _squared_changes(stat, model, images, spec: PerturbationSpec, rng, noise_shape) -> list:
    """Each trial's squared change of ``stat(model, images)`` from its clean
    value, summed over a row's classes and averaged over rows.

    A trial adds one N(0, sigma2) draw of ``noise_shape`` to the images, or
    noises every member's weights in one clone per member, made once."""
    s0 = stat(model, images)
    sigma = math.sqrt(spec.sigma2)
    if spec.target == "input":
        def trial():
            return stat(model, images + rng.normal(0.0, sigma, noise_shape).astype(np.float32))
    else:
        members = model.members if hasattr(model, "members") else [model]
        noisy = [m.clone() for m in members]
        noisy_model = replace(model, members=noisy) if hasattr(model, "members") else noisy[0]

        def trial():
            for clean, dup in zip(members, noisy):
                _with_weight_noise(dup, clean, rng, sigma)
            return stat(noisy_model, images)
    return [((trial() - s0) ** 2).sum(axis=1).mean() for _ in range(spec.trials)]


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
        # batch statistics: one forward over the whole batch, not eval_logits' chunks
        logits = net.forward(x, bn_batch_stats=True, keep=False)
        return logits.astype(np.float64) if output == "logits" else softmax(logits)

    per_sample = []
    for s in range(weight_samples):
        net = Network.from_config(netcfg, seed=_rng(spec.seed, 0xE1, s, 0), init="normal")
        diffs = _squared_changes(out, net, inputs, spec, _rng(spec.seed, 0xE2, s), inputs.shape[1:])
        per_sample.append(float(np.mean(diffs)))
    return _estimate(per_sample, weight_samples * spec.trials)


def _with_weight_noise(noisy: Network, clean: Network, rng, sigma) -> None:
    """Overwrite ``noisy``'s weights (a clone of ``clean``) with ``clean``'s plus
    one N(0, sigma^2) draw cast to the weight dtype, layer by layer."""
    for lay, src in zip(noisy.layers, clean.layers):
        if hasattr(lay, "w"):
            w = src.w.value
            np.add(w, rng.normal(0.0, sigma, w.shape).astype(w.dtype), out=lay.w.value)


def output_change_trained(model, images, spec: PerturbationSpec) -> MonteCarloEstimate:
    """Squared change of a trained model's member-mean softmax under noise
    (the random-network metric at fixed trained weights); input noise is one
    draw per trial shared across the batch."""
    spec.validate()
    if len(images) == 0:
        raise ValueError("empty dataset")
    diffs = _squared_changes(_mean_probs, model, images, spec, _rng(spec.seed, 0xE4),
                             images.shape[1:])
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
    labels = np.asarray(labels)

    def error_rate(m, x):  # one row of one class
        return np.array([[(m.predict(x) != labels).mean()]])

    diffs = _squared_changes(error_rate, model, images, spec, _rng(spec.seed, 0xE3), images.shape)
    return _estimate(diffs, spec.trials)


# ---------------------------------------------------------------- stability


def stability_track(accuracies, window: int = 20) -> float:
    """Sample standard deviation of the last ``window`` recorded accuracies."""
    acc = list(accuracies)
    if len(acc) < window:
        raise ValueError(f"need at least {window} recorded points, got {len(acc)}")
    tail = np.asarray(acc[-window:], dtype=np.float64)
    return 0.0 if np.all(tail == tail[0]) else float(tail.std(ddof=1))
