"""Training loop: Adam at lr 1e-2, seeded shuffling, ELBO for Flipout nets.

A single generator seeded from (seed, stream tag) drives both the batch
permutations and any stochastic layers, so a rerun with the same seed is
bit-identical in serial mode.  Variational networks optimize cross
entropy plus KL weighted by 1/batches-per-epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, uq
from .arch import Network
from .nncore.layers import (softmax_cross_entropy,
                            softmax_cross_entropy_backward)
from .nncore.optim import Adam

LEARNING_RATE = 0.01
_STREAM_TAG = 0x7E41


class EmptyTrainingSet(Exception):
    pass


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_wf1: float
    kl: float | None = None  # populated for variational nets only


def _batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    # trailing singleton batches are dropped: batch norm needs a statistic
    order = rng.permutation(n)
    out = [order[i:i + batch_size] for i in range(0, n, batch_size)]
    return [idx for idx in out if idx.size >= 2]


def evaluate(net: Network, x: np.ndarray,
             y: np.ndarray) -> tuple[float, float]:
    """Inference-mode mean CE loss and weighted F1."""
    if len(x) == 0:
        raise EmptyTrainingSet("cannot evaluate on an empty set")
    losses, preds = [], []
    step = metrics.EVAL_BATCH
    for i in range(0, len(x), step):
        xb, yb = x[i:i + step], y[i:i + step]
        loss, probs = softmax_cross_entropy(net.forward(xb, mode="infer"), yb)
        losses.append(loss * len(xb))
        preds.append(np.argmax(probs, axis=1))
    res = metrics.f1_and_accuracy(np.concatenate(preds), y)
    return float(np.sum(losses) / len(x)), float(res.f1_weighted)


def train_network(net: Network, x_train, y_train, x_val, y_val,
                  epochs: int, seed: int, *,
                  dtype=None) -> list[EpochStats]:
    """Optimize in place; returns per-epoch stats (train/val loss, wF1)."""
    if len(x_train) < 2:
        raise EmptyTrainingSet("need at least 2 training windows")
    if dtype is not None:
        net.astype(dtype)
        x_train = x_train.astype(dtype)
        x_val = x_val.astype(dtype)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_TAG)))
    opt = Adam(net.params(), lr=LEARNING_RATE)
    flip = [l for l in net.layers if isinstance(l, uq.FlipoutDense)]

    history = []
    for epoch in range(epochs):
        batches = _batches(len(x_train), net.config.batch_size, rng)
        kl_weight = 1.0 / len(batches)
        total, seen, kl_val = 0.0, 0, 0.0
        for idx in batches:
            xb, yb = x_train[idx], y_train[idx]
            opt.zero_grad()
            loss, probs = softmax_cross_entropy(
                net.forward(xb, mode="train", rng=rng), yb)
            net.backward(softmax_cross_entropy_backward(probs, yb))
            if flip:
                kl_val = sum(layer.kl() for layer in flip)
                loss = uq.elbo_loss(loss, kl_val, kl_weight)
                for layer in flip:
                    layer.accumulate_kl_grads(kl_weight)
            opt.step()
            total += loss * len(xb)
            seen += len(xb)
        val_loss, val_wf1 = evaluate(net, x_val, y_val)
        history.append(EpochStats(epoch, total / seen, val_loss, val_wf1,
                                  kl_val if flip else None))
    return history


def write_training_log(history: list[EpochStats], path) -> None:
    kl_col = bool(history) and history[0].kl is not None
    header = "epoch,train_loss,val_loss,val_wF1" + (",kl" if kl_col else "")
    lines = [header]
    for h in history:
        row = (f"{h.epoch},{h.train_loss!r},{h.val_loss!r},{h.val_wf1!r}")
        if kl_col:
            row += f",{h.kl!r}"
        lines.append(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
