"""The benchmark harness's tracer wraps binn functions by name (``--trace 1``);
this keeps a rename or deletion in binn from silently breaking it."""

import importlib
import os
import sys

import numpy as np

from binn import nn
from binn.nn import layers, mlp_config

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def test_tracer_installs_records_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    spans = importlib.import_module("spans")
    forward, refresh, softmax = nn.Network.forward, layers._WeightedLayer.refresh, nn.softmax
    net = nn.Network.from_config(mlp_config((1, 1, 16), [8], 4, variant="AB"), seed=0)
    x = np.random.default_rng(0).uniform(-1, 1, (5, 1, 1, 16)).astype(np.float32)
    with spans.instrument(spans.Tracer("tier1")) as tr:
        pred = net.clone().predict(x)
    summary = tr.summarize(0, len(tr.start))
    assert summary["nn.clone"]["calls"] == 1
    assert summary["nn.forward"]["calls"] == 1
    assert summary["nn.fc.fwd"]["calls"] == 2
    assert np.array_equal(pred, net.predict(x))
    assert nn.Network.forward is forward
    assert layers._WeightedLayer.refresh is refresh
    assert nn.softmax is softmax


def test_tracer_spans_tracked_ensemble_training(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    spans = importlib.import_module("spans")
    from binn import datio, ensemble
    from binn.nn import train

    def bound():
        """Every name of every binn module, and every wrapped class attribute."""
        names = {(owner, attr): vars(owner)[attr] for owner, attr, *_ in spans._targets()}
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] == "binn":
                names.update({(mod, key): val for key, val in vars(mod).items()})
        return names

    originals = bound()
    ds = datio.make_blob_images(160, 3, seed=1)
    tr, te = datio.split_dataset(ds, 120)
    cfg = mlp_config((1, 8, 8), [8], 3, variant="AB")
    kw = dict(k=2, seed=1, spec=ensemble.MemberTrainSpec(epochs=2, batch_size=32),
              eval_images=te.images, eval_labels=te.labels)
    with spans.instrument(spans.Tracer("tier1")) as tr_:
        _, bag = ensemble.train_bagging(cfg, tr.images, tr.labels, **kw)
        _, boost = ensemble.train_boosting(cfg, tr.images, tr.labels, **kw)
    summary = tr_.summarize(0, len(tr_.start))
    # one lockstep bag of two plus two boosting rounds of one
    assert summary["nn.train"]["calls"] == 3
    assert summary["nn.train_step"]["calls"] == 3 * 2 * 4
    assert summary["ensemble.tracker"]["calls"] == 8
    assert len(bag["ensemble_accuracy"]) == len(boost["ensemble_accuracy"]) == 4
    # the wrapped tracker records the streams an uninstrumented run records
    assert bag["ensemble_accuracy"] == ensemble.train_bagging(
        cfg, tr.images, tr.labels, **kw)[1]["ensemble_accuracy"]
    assert boost["ensemble_accuracy"] == ensemble.train_boosting(
        cfg, tr.images, tr.labels, **kw)[1]["ensemble_accuracy"]
    assert bound() == originals
    assert train.backward_and_step is originals[(train, "backward_and_step")]
