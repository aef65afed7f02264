"""In-memory spans recorded around calls into binn's layers, from outside.

The traced run wraps public functions and methods of ``binn.bitcore``,
``binn.nn``, ``binn.ensemble``, ``binn.analysis`` and ``binn.datio`` with
span-recording wrappers (``instrument``), and the workloads open spans
around ``binn.cli.main`` calls and around their own phases. The package
sources are not edited: the wrappers are installed by rebinding names and
removed again when the traced section ends.

A span is (name, start, end, parent); spans of one round are contiguous
and the round's root span has parent -1. Self time is a span's duration
minus the time its direct children cover; "busy" time of a name counts
only its outermost spans, so recursion and nested calls of the same layer
are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np


class NullTracer:
    """Tracer used by untraced rounds: records nothing."""

    def begin(self, name):
        return -1

    def finish(self, i):
        pass


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._active: list[int] = []  # open spans per name id
        self.counts = Counter()
        self.gemm_shapes = Counter()

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._active[self.name_id[i]] -= 1

    def active(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self._active[nid] > 0

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-name calls, busy and self seconds of spans [lo, hi) (one round)."""
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64) - lo
        nid = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        outer = np.frombuffer(self.outer, dtype=np.int8)[lo:hi].astype(bool)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        busy = np.bincount(nid, weights=np.where(outer, dur, 0.0), minlength=n)
        selfs = np.bincount(nid, weights=self_t, minlength=n)
        return {
            name: {"calls": int(calls[k]), "busy_s": float(busy[k]), "self_s": float(selfs[k])}
            for k, name in enumerate(self.names)
            if calls[k]
        }

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,span,name,parent,start_s,end_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{self.run_id},{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )


# ------------------------------------------------------------ count hooks
#
# A hook runs after the wrapped call returns and adds what the call did to
# tracer.counts. Counts marked "computed" are derived from array shapes.


def _gemm(tr, a, k, out):
    aw, bw, n = a[0], a[1], a[2]
    ra, w = aw.shape
    rb = bw.shape[0]
    tr.gemm_shapes[(int(ra), int(rb), int(w), int(n))] += 1
    tr.counts["bitcore.gemm.word_ops"] += ra * rb * w
    # operand words read, int64 output written, and the [rows, cols, words]
    # XNOR intermediate written once and read once by the popcount
    tr.counts["bitcore.gemm.bytes_computed"] += 8 * (ra * w + rb * w + ra * rb + 2 * ra * rb * w)


def _pack(tr, a, k, out):
    tr.counts["bitcore.pack.bits"] += np.asarray(a[0]).size


def _network_forward(tr, a, k, out):
    if tr.active("analysis.output_change") or tr.active("analysis.error_change"):
        tr.counts["analysis.perturb.forwards"] += 1


def _theorem1(tr, a, k, out):
    fan_in = a[0]
    ks = k.get("k_values", (2, 4, 8, 16))
    # per trial: w, x and dx, plus k weight vectors for every bagged K
    tr.counts["analysis.theorem1.normals_drawn"] += k.get("trials", 100_000) * fan_in * (3 + sum(ks))


def _theorem2(tr, a, k, out):
    layers = len(out.widths) - 1
    # per trial network: 4 regimes x (x, x + dx) x one product per layer
    tr.counts["analysis.theorem2.matmuls"] += out.trials * 4 * 2 * layers


def _bytes_out(key):
    def hook(tr, a, k, out):
        tr.counts[key] += len(out)

    return hook


def _bytes_in(key):
    def hook(tr, a, k, out):
        tr.counts[key] += len(a[0])

    return hook


def _wrap(tr, fn, name, hook=None):
    @functools.wraps(fn)
    def traced(*a, **k):
        i = tr.begin(name)
        try:
            out = fn(*a, **k)
        finally:
            tr.finish(i)
        if hook is not None:
            hook(tr, a, k, out)
        return out

    return traced


def _wrap_tracker_factory(tr, factory):
    @functools.wraps(factory)
    def traced_factory(trained, *a, **k):
        cb = factory(trained, *a, **k)

        def hook(tr_, a_, k_, out):
            # the live member plus every finished one runs a full forward
            tr_.counts["ensemble.tracker.member_forwards"] += len(trained) + 1

        return _wrap(tr, cb, "ensemble.tracker", hook)

    return traced_factory


def _targets():
    """(owner, attribute, span name, hook); owner is a module or a class."""
    from binn import analysis, bitcore, datio, ensemble
    from binn.nn import layers, network, optim, train

    t = [
        (bitcore, "_xnor_gemm_words", "bitcore.gemm", _gemm),
        (bitcore, "_pack_rows", "bitcore.pack", _pack),
        (bitcore, "pack", "bitcore.pack", _pack),
        (bitcore, "unpack", "bitcore.unpack", None),
        (bitcore, "to_bytes", "bitcore.serialize", None),
        (bitcore, "from_bytes", "bitcore.serialize", None),
        (layers, "sign_binarize", "nn.binarize", None),
        (layers._WeightedLayer, "refresh", "nn.refresh", None),
        (network.Network, "forward", "nn.forward", _network_forward),
        (network.Network, "backward", "nn.backward", None),
        (network.Network, "clone", "nn.clone", None),
        (network.Network, "from_config", "nn.build", None),
        (network, "softmax", "nn.softmax", None),
        (network, "cross_entropy_grad", "nn.loss", None),
        (network, "accuracy", "nn.accuracy", None),
        (optim.Adam, "step", "nn.optim.step", None),
        (optim.SGD, "step", "nn.optim.step", None),
        (train, "backward_and_step", "nn.train_step", None),
        (train, "train_network", "nn.train", None),
        (ensemble, "train_member", "ensemble.member", None),
        (ensemble, "train_bagging", "ensemble.bagging", None),
        (ensemble, "train_boosting", "ensemble.boosting", None),
        (ensemble, "bagging_sample", "ensemble.bootstrap", None),
        (ensemble, "adaboost_round", "ensemble.adaboost", None),
        (ensemble, "aggregate", "ensemble.aggregate", None),
        (ensemble, "save_ensemble", "ensemble.persist", None),
        (ensemble, "load_ensemble", "ensemble.persist", None),
        (analysis, "verify_theorem1", "analysis.theorem1", _theorem1),
        (analysis, "verify_theorem2", "analysis.theorem2", _theorem2),
        (analysis, "compute_b", "analysis.compute_b", None),
        (analysis, "b_r_table", "analysis.b_table", None),
        (analysis, "robustness_random", "analysis.robustness_random", None),
        (analysis, "output_change_trained", "analysis.output_change", None),
        (analysis, "robustness_trained", "analysis.error_change", None),
        (analysis, "_with_weight_noise", "analysis.weight_noise", None),
        (datio, "make_toy", "datio.make_data", None),
        (datio, "make_blob_images", "datio.make_data", None),
        (datio, "checkpoint_bytes", "datio.checkpoint", _bytes_out("datio.checkpoint.bytes")),
        (datio, "load_checkpoint_bytes", "datio.checkpoint", _bytes_in("datio.checkpoint.bytes")),
        (datio, "packed_export_bytes", "datio.export", _bytes_out("datio.export.bytes")),
        (datio, "load_packed_bytes", "datio.load_packed", None),
    ]
    for cls in vars(layers).values():
        if (isinstance(cls, type) and issubclass(cls, layers.Layer)
                and cls is not layers.Layer and "forward" in vars(cls)):
            t.append((cls, "forward", f"nn.{cls.kind}.fwd", None))
            t.append((cls, "backward", f"nn.{cls.kind}.bwd", None))
    return t


@contextlib.contextmanager
def instrument(tr: Tracer):
    """Install span wrappers on binn's layers; restore the originals on exit.

    A module-level function is rebound in every ``binn`` module that holds
    it, because ``from x import f`` copies the reference.
    """
    from binn import ensemble

    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    try:
        for owner, attr, name, hook in _targets():
            if isinstance(owner, type):
                orig = vars(owner)[attr]
                if isinstance(orig, classmethod):
                    rebind(owner, attr, classmethod(_wrap(tr, orig.__func__, name, hook)))
                else:
                    rebind(owner, attr, _wrap(tr, orig, name, hook))
                continue
            orig = getattr(owner, attr)
            traced = _wrap(tr, orig, name, hook)
            for mod in list(sys.modules.values()):
                mname = getattr(mod, "__name__", "")
                if mname != "binn" and not mname.startswith("binn."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        rebind(mod, key, traced)
        rebind(ensemble, "_ensemble_epoch_tracker",
               _wrap_tracker_factory(tr, ensemble._ensemble_epoch_tracker))
        yield tr
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


@contextlib.contextmanager
def count_member_attempts(counts: Counter):
    """Count ``train_member`` calls, so retried members show in any run.

    It costs one extra Python call per member trained, far below timer noise.
    """
    from binn import ensemble

    orig = ensemble.train_member

    @functools.wraps(orig)
    def counted(*a, **k):
        counts["member_attempts"] += 1
        return orig(*a, **k)

    ensemble.train_member = counted
    try:
        yield
    finally:
        ensemble.train_member = orig
