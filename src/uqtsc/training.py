"""Training loop: Adam at lr 1e-2, seeded shuffling, ELBO for Flipout nets.

A generator seeded from (seed, stream tag) draws the batch permutations.
Each mini-batch is cut into CHUNKS chunks of consecutive windows, sizes
differing by at most one, and the chunks run the forward and backward
pass data-parallel on lanes (`lanes.run_steps`), each on its own replica
of the network (`Network.replica`): its own layer caches and gradients,
the parameter values shared.  A network with an LSTM runs its chunks on
one lane, one after the other, with the same bytes.  The chunks meet
only where the batch as a whole decides:
  * train-mode batch norm statistics and dgamma, dbeta, summed over the
    chunks in chunk order (`BatchNorm1D.forward_steps`);
  * a DropConnect layer's weight mask, drawn once per batch from the
    permutations' generator;
  * the loss, the mean over the batch, and the gradients, summed over
    the chunks in chunk order before the one Adam step.
Dropout and Flipout draw from per-chunk streams, the children of
`rng.spawn(n_chunks)` per batch, which leaves the permutations as they
are.  The whole call holds OpenBLAS to one thread, validation included,
and the chunks depend on the batch alone, so a rerun with the same seed
gives the same bytes on any core count and any `--workers`.  Variational
networks optimize cross entropy plus KL weighted by 1/batches-per-epoch.
Training stops after the first epoch whose training loss is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics, uq
from .arch import Network
from .nncore import blas, lanes
from .nncore.layers import (LSTM, softmax_cross_entropy,
                            softmax_cross_entropy_backward, softmax_nll)
from .nncore.optim import Adam

LEARNING_RATE = 0.01
_STREAM_TAG = 0x7E41
# chunks per train batch, whatever its size: on two cores, two chunks
# ran the benchmark's trials faster than four or than chunks of at most 8
# or 16 windows, whose odd counts leave one lane idle (see CHANGES.md)
CHUNKS = 2


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


def _chunks(idx: np.ndarray) -> list[np.ndarray]:
    """A batch's window indices as CHUNKS runs (fewer for a batch of fewer
    windows), longest first, whose sizes differ by at most one."""
    return np.array_split(idx, min(CHUNKS, len(idx)))


def evaluate(net: Network, x: np.ndarray,
             y: np.ndarray) -> tuple[float, float]:
    """Inference-mode mean CE loss and weighted F1.

    The windows run in calls of EVAL_BATCH, dealt to lanes at one
    OpenBLAS thread inside `net.frozen()`; the result does not depend on
    the lane count."""
    if len(x) == 0:
        raise EmptyTrainingSet("cannot evaluate on an empty set")
    step = metrics.EVAL_BATCH
    starts = range(0, len(x), step)
    losses, preds = [0.0] * len(starts), [None] * len(starts)

    def run(c):
        xb, yb = x[starts[c]:starts[c] + step], y[starts[c]:starts[c] + step]
        loss, probs = softmax_cross_entropy(net.forward(xb, mode="infer"), yb)
        losses[c] = loss * len(xb)
        preds[c] = np.argmax(probs, axis=1)

    with blas.one_thread() as pinned, net.frozen():
        lanes.deal(run, len(starts), pinned)
    res = metrics.f1_and_accuracy(np.concatenate(preds), y)
    return float(np.sum(losses) / len(x)), float(res.f1_weighted)


def _chunk_step(net: Network, x, y, rows: np.ndarray, batch: int, rng):
    """One chunk's share of a train step, as a generator of its layers'
    requests: forward on windows x[rows], then backward of the batch's
    mean loss, batch windows long; returns the chunk's per-window NLL."""
    yb = y[rows]
    logits = yield from net.forward_steps(x[rows], rng)
    nll, probs = softmax_nll(logits, yb)
    yield from net.backward_steps(
        softmax_cross_entropy_backward(probs, yb, batch))
    return nll


def _batch_step(replicas: list[Network], params, x, y, idx, rng,
                parallel: bool) -> float:
    """Forward and backward of windows x[idx] as chunks on lanes, chunk c
    on replicas[c]; set each of params' gradients (the trainable ones, in
    network order) to the chunks' sum, in chunk order, and zero the
    replicas'.  Returns the batch's mean loss."""
    parts = _chunks(idx)
    steps = [_chunk_step(r, x, y, rows, len(idx), stream)
             for r, rows, stream in zip(replicas, parts,
                                        rng.spawn(len(parts)))]
    loss = float(np.concatenate(lanes.run_steps(steps, rng, parallel)).mean())
    chunk_params = [[q for q in r.params() if q.trainable]
                    for r in replicas[:len(parts)]]
    for p, *parts_of_p in zip(params, *chunk_params):
        p.grad = lanes.ordered_sum([q.grad for q in parts_of_p])
        for q in parts_of_p:
            q.zero_grad()
    return loss


def train_network(net: Network, x_train, y_train, x_val, y_val,
                  epochs: int, seed: int, *,
                  dtype=None) -> list[EpochStats]:
    """Optimize in place; returns per-epoch stats (train/val loss, wF1).

    Stops after the first epoch whose training loss is not finite, so the
    history may hold fewer than `epochs` entries."""
    if len(x_train) < 2:
        raise EmptyTrainingSet("need at least 2 training windows")
    if dtype is not None:
        net.astype(dtype)
        x_train = x_train.astype(dtype)
        x_val = x_val.astype(dtype)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_TAG)))
    opt = Adam(net.params(), lr=LEARNING_RATE)
    flip = [l for l in net.layers if isinstance(l, uq.FlipoutDense)]
    replicas = [net.replica() for _ in range(CHUNKS)]
    # an LSTM's time loop is thousands of small operations that each drop
    # and retake the GIL: at batch 16 and 32, two chunks of it on two
    # lanes ran 1.4-2.2x slower than one chunk after the other (CHANGES.md)
    loops = any(isinstance(layer, LSTM) for layer in net.layers)

    history = []
    with blas.one_thread() as pinned:
        for epoch in range(epochs):
            batches = _batches(len(x_train), net.config.batch_size, rng)
            kl_weight = 1.0 / len(batches)
            total, seen, kl_val = 0.0, 0, 0.0
            for idx in batches:
                loss = _batch_step(replicas, opt.params, x_train, y_train,
                                   idx, rng, pinned and not loops)
                if flip:
                    kl_val = sum(layer.kl() for layer in flip)
                    loss = uq.elbo_loss(loss, kl_val, kl_weight)
                    for layer in flip:
                        layer.accumulate_kl_grads(kl_weight)
                opt.step()
                total += loss * len(idx)
                seen += len(idx)
            val_loss, val_wf1 = evaluate(net, x_val, y_val)
            history.append(EpochStats(epoch, total / seen, val_loss,
                                      val_wf1, kl_val if flip else None))
            if not math.isfinite(history[-1].train_loss):
                break
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
