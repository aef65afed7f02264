"""binn benchmark: one seeded workload per run, untraced or traced.

    python3 benchmarks/run.py --workload nin-tiny --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` repeats the workload's round for ``--seconds`` and
prints the end-to-end metrics. ``--trace 1`` spends half the time on
untraced rounds and half on rounds traced layer by layer, then prints the
per-layer metrics. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the host block, output digest, phase throughputs, baseline
cross-check and, when traced, the span table and GEMM shape histogram.
Scratch files go to ``.bench_tmp/`` in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5

# ROADMAP baseline (2 cores, Python 3.11.7, numpy 2.4.6), for the cross-check
BASELINE = {
    "nin_ab_x0.5_eval_forward_b32_s": 0.96,
    "toy_member_12_epochs_s": 0.82,
    "bag5_tracked_25_epochs_s": 5.8,
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="directory for report.json (and spans.csv when traced)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_binn():
    """Import the package from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "binn", "__init__.py")):
        sys.exit(f"benchmark: no binn package under {SRC}")
    sys.path.insert(0, SRC)
    import binn

    if not os.path.abspath(binn.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: imported binn from {binn.__file__}, not from {SRC}")


def scratch_dir(prefix):
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=base)


def remove_scratch(path):
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(path))


def setup_probe(args):
    """Child process: time imports plus the workload's set-up from scratch."""
    t0 = time.perf_counter()
    import_binn()
    import workloads

    tmp = scratch_dir("probe-")
    try:
        workloads.WORKLOADS[args.workload].setup(args.seed, tmp)
        host_s = time.perf_counter() - t0
    finally:
        remove_scratch(tmp)
    import metrics

    cal = metrics.Calibration()
    cal.sample(30)
    print(json.dumps({"host_s": host_s, "reference_s": host_s * cal.speed()}))
    return 0


def measure_setup(args):
    """Set-up time of fresh processes: (median reference seconds, probes)."""
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return statistics.median(p["reference_s"] for p in probes), probes


def host_block():
    import ctypes
    import glob

    import numpy as np
    import scipy

    model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        with contextlib.suppress(OSError):
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    fn = getattr(dll, sym)
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    threads = fn()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


class Run:
    """Rounds of one run, with the failure and attempt counts they feed."""

    def __init__(self, workload, state, tmp):
        self.workload, self.state, self.tmp = workload, state, tmp
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: set[str] = set()
        self.member_attempts = Counter()

    def rounds(self, seconds, tracer, traces=None, calibration=None):
        """Repeat the round until the next one would end after ``seconds``."""
        from metrics import RoundTrace
        from spans import count_member_attempts
        from workloads import run_round

        done = []
        t_end = time.perf_counter() + seconds
        while True:
            before = self.member_attempts["member_attempts"]
            lo = len(getattr(tracer, "start", ()))
            counts0 = Counter(getattr(tracer, "counts", {}))
            try:
                with count_member_attempts(self.member_attempts):
                    rnd = run_round(self.workload, self.state, self.tmp, tracer, calibration)
            except Exception:
                self.attempted += 1
                self.failed += 1
                self.errors.append(traceback.format_exc())
                sys.stderr.write(self.errors[-1])
                return done
            rnd.work["member_attempts"] = self.member_attempts["member_attempts"] - before
            self.attempted += len(rnd.checks) + rnd.work["member_attempts"]
            self.failed += sum(not ok for _, ok in rnd.checks)
            # a retried member is a training attempt that failed
            self.failed += max(0, rnd.work["member_attempts"] - rnd.work["ensemble_rounds"])
            self.errors += [name for name, ok in rnd.checks if not ok]
            self.digests.add(rnd.digest)
            if traces is not None:
                counts = Counter(tracer.counts)
                counts.subtract(counts0)
                traces.append(RoundTrace(tracer.summarize(lo, len(tracer.start)), counts, rnd))
            done.append(rnd)
            typical = statistics.median(sum(r.phases.values()) for r in done)
            if time.perf_counter() + typical > t_end:
                return done

    def determinism_check(self):
        """All rounds of a run compute the same thing from the same seeds."""
        self.attempted += 1
        if len(self.digests) > 1:
            self.failed += 1
            self.errors.append(f"rounds wrote different outputs: {sorted(self.digests)}")


def crosscheck(workload, rounds):
    """Untraced host seconds next to the ROADMAP baseline they correspond
    to, each from the operation's median sample in the run."""
    import metrics

    med = metrics.op_medians(rounds)
    out = {}
    if "eval_forward" in med:
        out["nin_ab_x0.5_eval_forward_b32_s"] = med["eval_forward"]
    if "bag_train" in med:
        w = workload
        # the bag command also regenerates data, evaluates the ensemble and
        # writes files; per-epoch eval and tracking are in both numbers
        out["toy_member_12_epochs_s"] = med["bag_train"] / w.k * 12 / w.epochs
        out["bag5_tracked_25_epochs_s"] = med["bag_train"] * 25 / w.epochs
    return {k: {"measured": v, "baseline": BASELINE[k], "measured_over_baseline": v / BASELINE[k]}
            for k, v in out.items()}


def run(args):
    import_binn()
    import metrics
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host_block()}
    tmp = scratch_dir("run-")
    cwd = os.getcwd()
    # CLI manifests run `git describe` in the cwd; keep it inside the scratch
    # directory so a run reads nothing outside its checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = ROOT
    os.chdir(tmp)
    tracer = None
    try:
        if not args.trace:
            report["setup_s"], report["setup_probes"] = measure_setup(args)
        state = workload.setup(args.seed, tmp)
        r = Run(workload, state, tmp)
        cal = metrics.Calibration()
        untraced = r.rounds(args.seconds / 2 if args.trace else args.seconds, spans.NullTracer(),
                            calibration=cal)
        if not untraced:
            return 1
        walls = [sum(x.phases.values()) for x in untraced]
        report.update(rounds=len(untraced), round_wall_s=walls,
                      median_round_wall_s=statistics.median(walls),
                      op_median_s=metrics.op_medians(untraced),
                      round_time_s=metrics.round_time(untraced),
                      calibration_loop_ms=1e3 * statistics.median(cal.samples),
                      speed=cal.speed(),
                      phases_s={p: statistics.median(x.phases[p] for x in untraced)
                                for p in untraced[0].phases},
                      throughputs=metrics.throughputs(untraced),
                      crosscheck=crosscheck(workload, untraced))
        if args.trace:
            tracer = spans.Tracer(f"{workload.name}-{args.seed}-{os.getpid()}")
            traces = []
            with spans.instrument(tracer):
                traced = r.rounds(args.seconds / 2, tracer, traces)
                lo = tracer.begin("setup")
                workload.setup(args.seed, tmp)
                tracer.finish(lo)
            if not traced:
                return 1
            setup_summary = tracer.summarize(lo, len(tracer.start))
            ratio, table = metrics.packed_over_dense(tracer.gemm_shapes)
            values = metrics.round_metrics(traces)
            values.update(metrics.throughputs(untraced))
            values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
            values["datio.make_data_s"] = setup_summary.get("datio.make_data", {}).get("busy_s", 0.0)
            values["bitcore.packed_over_dense"] = ratio
            report.update(
                traced_rounds=len(traced),
                spans=sorted(
                    ({"name": k, **v} for k, v in traces[len(traces) // 2].summary.items()),
                    key=lambda row: -row["self_s"]),
                gemm_shapes=table,
            )
            units = metrics.PER_LAYER
        else:
            values = {
                "setup_s": report["setup_s"],
                "wall_s": metrics.round_time(untraced) * cal.speed(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = metrics.END_TO_END
        r.determinism_check()
        values["ok_frac"] = (r.attempted - r.failed) / r.attempted
        report.update(digest=sorted(r.digests), errors=r.errors)
        result = {
            "correct": r.failed == 0,
            "attempted": r.attempted,
            "failed": r.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
    finally:
        os.chdir(cwd)
        remove_scratch(tmp)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            json.dump({"report": report, "result": result}, fh, indent=2)
        if tracer is not None:
            tracer.write_csv(os.path.join(args.out, "spans.csv"))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
