"""Metric definitions: end-to-end metrics of untraced runs, per-layer
metrics of traced runs, and the packed-over-dense GEMM ratio.

``END_TO_END`` and ``PER_LAYER`` list every metric a run prints; their
names and units must match BENCHMARK.json. A per-layer metric in
``ROUND_METRICS`` is the median over traced rounds of its value in one
round; ``RUN_METRICS`` come from the whole traced run instead.
"""

from __future__ import annotations

import statistics
import time

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

KINDS = ("conv", "fc", "batchnorm", "relu", "maxpool", "avgpool", "dropout")
CLI_COMMANDS = ("ensemble_train", "eval", "perturb", "analyze_theorem1", "analyze_theorem2",
                "analyze_b_table")


class RoundTrace:
    """Span summary, counts and the Round of one traced round."""

    def __init__(self, summary, counts, rnd):
        self.summary, self.counts, self.rnd = summary, counts, rnd

    def calls(self, name):
        return self.summary.get(name, {}).get("calls", 0)

    def busy(self, name):
        return self.summary.get(name, {}).get("busy_s", 0.0)

    def self_s(self, name):
        return self.summary.get(name, {}).get("self_s", 0.0)

    def count(self, key):
        return self.counts.get(key, 0)


def _round_metrics():
    m = []

    def add(name, unit, fn):
        m.append((name, unit, fn))

    def span(layer, key="busy_s"):
        get = {"calls": RoundTrace.calls, "busy_s": RoundTrace.busy, "self_s": RoundTrace.self_s}[key]
        add(f"{layer}.{key}", "count" if key == "calls" else "s", lambda t: get(t, layer))

    span("bitcore.gemm", "calls")
    span("bitcore.gemm")
    add("bitcore.gemm.word_ops", "count", lambda t: t.count("bitcore.gemm.word_ops"))
    add("bitcore.gemm.bytes_computed", "bytes", lambda t: t.count("bitcore.gemm.bytes_computed"))
    span("bitcore.pack", "calls")
    span("bitcore.pack")
    add("bitcore.pack.bits", "count", lambda t: t.count("bitcore.pack.bits"))
    span("bitcore.serialize")

    for kind in KINDS:
        add(f"nn.{kind}.fwd_s", "s", lambda t, k=kind: t.self_s(f"nn.{k}.fwd"))
        add(f"nn.{kind}.bwd_s", "s", lambda t, k=kind: t.self_s(f"nn.{k}.bwd"))
        add(f"nn.{kind}.calls", "count", lambda t, k=kind: t.calls(f"nn.{k}.fwd"))
    span("nn.refresh", "calls")
    span("nn.refresh")
    add("nn.optim.step_s", "s", lambda t: t.busy("nn.optim.step"))
    add("nn.loss_s", "s", lambda t: t.busy("nn.loss"))
    add("nn.softmax_s", "s", lambda t: t.busy("nn.softmax"))
    add("nn.binarize_s", "s", lambda t: t.busy("nn.binarize"))
    span("nn.forward", "self_s")
    span("nn.backward", "self_s")
    span("nn.train", "self_s")
    span("nn.clone", "calls")
    span("nn.clone")

    span("ensemble.member", "calls")
    span("ensemble.member")
    add("ensemble.retries", "count",
        lambda t: t.rnd.work["member_attempts"] - t.rnd.work["ensemble_rounds"])
    span("ensemble.tracker", "calls")
    span("ensemble.tracker")
    add("ensemble.tracker.member_forwards", "count",
        lambda t: t.count("ensemble.tracker.member_forwards"))
    span("ensemble.adaboost")
    add("ensemble.accept_ratio", "ratio",
        lambda t: t.rnd.work["ensemble_kept"] / max(1, t.rnd.work["ensemble_rounds"]))
    span("ensemble.aggregate", "calls")
    span("ensemble.aggregate")
    span("ensemble.persist")

    span("analysis.theorem1")
    add("analysis.theorem1.normals_drawn", "count",
        lambda t: t.count("analysis.theorem1.normals_drawn"))
    span("analysis.theorem2")
    add("analysis.theorem2.matmuls", "count", lambda t: t.count("analysis.theorem2.matmuls"))
    span("analysis.compute_b", "calls")
    span("analysis.compute_b")
    span("analysis.robustness_random")
    span("analysis.output_change")
    span("analysis.error_change")
    add("analysis.perturb.forwards", "count", lambda t: t.count("analysis.perturb.forwards"))

    add("datio.make_data.round_s", "s", lambda t: t.busy("datio.make_data"))
    add("datio.checkpoint.bytes", "bytes", lambda t: t.count("datio.checkpoint.bytes"))
    span("datio.checkpoint")
    add("datio.export.bytes", "bytes", lambda t: t.count("datio.export.bytes"))
    span("datio.export")
    span("datio.load_packed")

    for cmd in CLI_COMMANDS:
        span(f"cli.{cmd}", "self_s")

    add("trace.wall_s", "s", lambda t: sum(t.rnd.phases.values()))
    add("trace.uncovered_s", "s",
        lambda t: sum(v["self_s"] for k, v in t.summary.items() if k.startswith("phase.")))
    add("trace.spans", "count", lambda t: sum(v["calls"] for v in t.summary.values()))
    return m


ROUND_METRICS = _round_metrics()

RUN_METRICS = {
    "trace.overhead_s": "s",
    "datio.make_data_s": "s",
    "bitcore.packed_over_dense": "ratio",
    "train_examples_per_s": "examples/s",
    "infer_examples_per_s": "examples/s",
    "perturb_trials_per_s": "trials/s",
    "mc_trials_per_s": "trials/s",
    "test_accuracy": "fraction",
}

PER_LAYER = {**{name: unit for name, unit, _ in ROUND_METRICS}, **RUN_METRICS}

# phase -> (work counter, throughput metric)
THROUGHPUTS = {
    "train": ("train_examples", "train_examples_per_s"),
    "infer": ("infer_examples", "infer_examples_per_s"),
    "perturb": ("perturb_trials", "perturb_trials_per_s"),
    "mc": ("mc_trials", "mc_trials_per_s"),
}


def throughputs(rounds) -> dict:
    """Median over rounds of work done in a phase per second of that phase;
    0 for a phase the workload does not run."""
    out = {}
    for phase, (work, metric) in THROUGHPUTS.items():
        vals = [r.work[work] / r.phases[phase] for r in rounds if r.phases.get(phase)]
        out[metric] = statistics.median(vals) if vals else 0.0
    acc = [r.test_accuracy for r in rounds if r.test_accuracy is not None]
    out["test_accuracy"] = statistics.median(acc) if acc else 0.0
    return out


# A host where the calibration loop takes this long runs at reference speed.
REFERENCE_LOOP_S = 1e-3


class Calibration:
    """How fast the host runs right now, from a fixed loop of interpreter
    work, small BLAS products and RNG draws timed between operations.

    Co-tenants on a shared host slow every process on it for minutes at a
    time: the workloads by 1.1-1.55x, this loop by about 1.3x. Scaling a
    time by ``speed()`` expresses it in reference seconds, which removes
    much of that drift but not all of it.
    """

    def __init__(self):
        import numpy as np

        self._a = np.random.default_rng(0).standard_normal((96, 96)).astype(np.float32)
        self._rng = np.random.default_rng(1)
        self.samples: list[float] = []

    def sample(self, n: int = 3) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            acc = 0
            for i in range(4000):
                acc += i * i
            for _ in range(20):
                self._a @ self._a
            self._rng.standard_normal(20000)
            self.samples.append(time.perf_counter() - t0)

    def speed(self) -> float:
        """Reference seconds per host second."""
        return REFERENCE_LOOP_S / statistics.median(self.samples)


def op_medians(rounds) -> dict:
    """Median sample of each operation over the run's rounds."""
    samples = {}
    for r in rounds:
        for name, times in r.ops.items():
            samples.setdefault(name, []).extend(times)
    return {name: statistics.median(times) for name, times in samples.items()}


def round_time(rounds) -> float:
    """Host seconds of one round, each operation at its median sample: the
    sum over operations of (calls per round) x (median sample)."""
    med = op_medians(rounds)
    return sum(len(times) * med[name] for name, times in rounds[0].ops.items())


def round_metrics(traces) -> dict:
    return {name: statistics.median(fn(t) for t in traces) for name, _, fn in ROUND_METRICS}


def packed_over_dense(shapes, min_time=0.02) -> tuple[float, list]:
    """Time ``bitcore._xnor_gemm_words`` against a float32 matmul of +/-1
    operands at each GEMM shape a traced round issued.

    ``shapes`` maps (rows_a, rows_b, words, bits) to the number of calls.
    Returns packed seconds over dense seconds, both weighted by calls, and
    the per-shape table. Above 1 means the packed kernel is slower.
    """
    import numpy as np
    from binn import bitcore

    rng = np.random.default_rng(0)
    table = []
    packed_total = dense_total = 0.0
    for (ra, rb, words, bits), calls in sorted(shapes.items()):
        a = np.where(rng.random((ra, bits)) < 0.5, -1.0, 1.0).astype(np.float32)
        b = np.where(rng.random((rb, bits)) < 0.5, -1.0, 1.0).astype(np.float32)
        aw = bitcore._pack_rows((a >= 0).astype(np.uint8))
        bw = bitcore._pack_rows((b >= 0).astype(np.uint8))
        tp = _per_call(lambda: bitcore._xnor_gemm_words(aw, bw, bits), min_time)
        td = _per_call(lambda: a @ b.T, min_time)
        packed_total += calls * tp
        dense_total += calls * td
        table.append({"rows": ra, "cols": rb, "words": words, "bits": bits, "calls": calls,
                      "packed_s": tp, "dense_s": td})
    return (packed_total / dense_total if dense_total else 0.0), table


def _per_call(fn, min_time, min_reps=3):
    fn()
    reps = 0
    t0 = time.perf_counter()
    while reps < min_reps or time.perf_counter() - t0 < min_time:
        fn()
        reps += 1
    return (time.perf_counter() - t0) / reps
