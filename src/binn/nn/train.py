"""Training loop for a single network or a stack of members in lockstep."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericalError
from .network import Network, cross_entropy_grad, eval_logits, softmax


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    test_accuracy: list = field(default_factory=list)
    eval_logits: list = field(default_factory=list)  # [N, C] per epoch, given an eval set


def backward_and_step(net: Network, batch, labels, optimizer, *, rng=None):
    """One training step: forward, mean cross-entropy, backward, update shadows.

    Updates land on the real-valued shadow weights only, and sub-32-bit
    shadows are then clipped into [-1, 1] (BinaryNet); a layer with 1-bit
    weights derives its scales from them in each forward, which uses the
    exact dense +/-1 product. Returns the loss, one per member for a stack.
    Raises NumericalError on a non-finite loss or on non-finite values at a
    binarization.
    """
    logits = net.forward(batch, train=True, rng=rng)
    probs = softmax(logits)
    loss, dlogits = cross_entropy_grad(probs, labels)
    if not math.isfinite(np.add.reduce(loss)):  # each member's loss is at most ~690
        lg = logits.reshape((-1,) + logits.shape[-2:])[np.argmin(np.isfinite(loss))]
        row = int(np.argmin(np.isfinite(lg).all(axis=1)))
        raise NumericalError(
            f"non-finite loss {loss}; first bad batch row {row}, "
            f"logits range [{np.nanmin(lg)}, {np.nanmax(lg)}]"
        )
    net.zero_grad()
    net.backward(dlogits.astype(net.dtype))
    optimizer.step()
    net.clip_binary_shadows()
    return loss


def train_network(net: Network, images, labels, *, epochs, batch_size, optimizer, rng,
                  eval_images=None, eval_labels=None, sample=None):
    """Mini-batch training for exactly ``epochs`` epochs.

    Each epoch records its mean train loss and, given an eval set, the
    logits of its one eval forward and the test accuracy they give. A stack
    of K members (``net.stack_size``) takes K generators as ``rng`` and a
    [K, n] index array ``sample`` (member k trains on images[sample[k]]) and
    returns K histories. A non-finite step or eval forward raises
    NumericalError, whichever member caused it.
    """
    rngs = rng if isinstance(rng, list) else [rng]
    sample = np.arange(len(labels))[None] if sample is None else np.asarray(sample)
    n = sample.shape[-1]
    hists = [TrainHistory() for _ in rngs]
    lead = () if net.stack_size is None else (net.stack_size,)
    for _ in range(epochs):
        rows = np.stack([s[r.permutation(n)] for s, r in zip(sample, rngs)])
        total = np.zeros(len(rngs))
        batches = 0
        for lo in range(0, n, batch_size):
            idx = rows[:, lo : lo + batch_size].reshape(lead + (-1,))
            total += backward_and_step(net, images[idx], labels[idx], optimizer,
                                       rng=rngs if lead else rngs[0])
            batches += 1
        for hist, loss in zip(hists, total):
            hist.train_loss.append(float(loss / max(1, batches)))
        if eval_images is not None:
            logits = eval_logits(net, eval_images).reshape(len(rngs), len(eval_labels), -1)
            for hist, lg in zip(hists, logits):
                hist.eval_logits.append(lg)
                hits = np.count_nonzero(lg.argmax(axis=-1) == eval_labels)
                hist.test_accuracy.append(hits / len(eval_labels))
    return hists if lead else hists[0]
