"""The benchmark harness's tracer wraps binn functions by name (``--trace 1``);
this keeps a rename or deletion in binn from silently breaking it."""

import importlib
import os

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
