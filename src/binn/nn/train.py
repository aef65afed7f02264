"""Training loop for a single network."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericalError
from .network import Network, accuracy, cross_entropy_grad, softmax


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    test_accuracy: list = field(default_factory=list)


def backward_and_step(net: Network, batch, labels, optimizer, *, rng=None) -> float:
    """One training step: forward, mean cross-entropy, backward, update shadows.

    Updates land on the real-valued shadow weights only, and sub-32-bit
    shadows are then clipped into [-1, 1] (BinaryNet); a layer with 1-bit
    weights derives its scales from them in each forward, which uses the
    exact dense +/-1 product. Raises NumericalError on a non-finite loss or
    on non-finite values at a binarization.
    """
    logits = net.forward(batch, train=True, rng=rng)
    probs = softmax(logits)
    loss, dlogits = cross_entropy_grad(probs, labels)
    if not np.isfinite(loss):
        bad = int(np.argmin(np.isfinite(logits).all(axis=1)))
        raise NumericalError(
            f"non-finite loss {loss}; first bad batch row {bad}, "
            f"logits range [{np.nanmin(logits)}, {np.nanmax(logits)}]"
        )
    net.zero_grad()
    net.backward(dlogits.astype(net.dtype))
    optimizer.step()
    net.clip_binary_shadows()
    return loss


def train_network(
    net: Network,
    images,
    labels,
    *,
    epochs,
    batch_size,
    optimizer,
    rng,
    eval_images=None,
    eval_labels=None,
    epoch_callback=None,
) -> TrainHistory:
    """Mini-batch training for exactly ``epochs`` epochs.

    Each epoch records its mean train loss and, given an eval set, its test
    accuracy; ``epoch_callback(epoch, net, history)`` then runs.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(np.random.SeedSequence(int(rng)))
    n = len(labels)
    history = TrainHistory()
    for epoch in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        batches = 0
        for lo in range(0, n, batch_size):
            idx = perm[lo : lo + batch_size]
            total += backward_and_step(net, images[idx], labels[idx], optimizer, rng=rng)
            batches += 1
        history.train_loss.append(total / max(1, batches))
        if eval_images is not None:
            history.test_accuracy.append(accuracy(net, eval_images, eval_labels))
        if epoch_callback is not None:
            epoch_callback(epoch, net, history)
    return history
