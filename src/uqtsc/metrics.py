"""Predictive posterior, entropy, calibration, F1, and the selection gate.

The posterior over classes is the mean of M stochastic forward passes;
entropy is computed on that mean distribution (natural log).  The layers
before a network's first stochastic one are deterministic in mc_infer
mode, so pass 0 holds their output and passes 1..M-1 start from it.
Most networks run pass-outer and hold a chunk's prefix only where it
takes no more bytes than the chunk.  A conv network whose stochastic
layers are all MC dropout, and whose prefix (conv1) is larger than its
input and costly to rerun, runs chunk-outer instead: each 16-window
sub-chunk holds its prefix for all M passes, and each mask is drawn at
its offset in the pass-outer rng stream by PCG64 jump-ahead.  It does so
only where the BLAS rounds every row of each of its matrix products at
the sub-chunk's row count as at the chunk's, so the samples are those of
M plain passes.  Flipout draws do not take a fixed count of rng steps
and DropConnect masks are per pass, so neither can be placed by offset.
ECE bins by max-probability confidence into K equal-width
right-inclusive bins.  Candidate selection requires both per-class F1
scores at or above 0.9 and mean entropy at or below 0.1, boundaries
inclusive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arch import Network
from .nncore.layers import (
    BatchNorm1D,
    Conv1D,
    Dense,
    GlobalAvgPool1D,
    MaxPool1D,
    ReLU,
)
from .uq import MCDropout

F1_THRESHOLD = 0.9
ENTROPY_THRESHOLD = 0.1
DEFAULT_M = 10
DEFAULT_BINS = 10
# windows per inference forward call (here and in training.evaluate);
# keeps the conv window-view buffer small on wide configs
EVAL_BATCH = 64
# windows per sub-chunk of a chunk-outer posterior, counted from the
# chunk's start so that sub-chunk rows keep their place in the GEMM
# kernels' row blocking
SUB_CHUNK = 16
# multiplies a sub-chunk's prefix must take to pay for the extra suffix
# calls of sub-chunks: a 1-block CNN on 32-step windows (2e5) ran 1.6x
# slower chunk-outer, the posterior benchmark's CNN (2e7) 1.3x faster
PREFIX_MULTIPLIES_MIN = 1e6

OUTCOMES = ("TP", "TN", "FP", "FN")


class NotNormalized(Exception):
    pass


class EmptyInput(Exception):
    pass


class MalformedReport(Exception):
    pass


@dataclass
class PredictiveDistribution:
    """M sampled class-probability vectors per input and their mean."""

    samples: np.ndarray  # [M, N, C]
    mean_probs: np.ndarray  # [N, C]
    predicted_class: np.ndarray  # [N]

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "PredictiveDistribution":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 3:
            raise ValueError("samples must be [M, N, C]")
        sums = samples.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise NotNormalized("every sample must sum to 1 within 1e-9")
        mean = samples.mean(axis=0)
        return cls(samples=samples, mean_probs=mean,
                   predicted_class=mean.argmax(axis=1))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def predictive_posterior(net: Network, x: np.ndarray, m: int = DEFAULT_M,
                         rng: np.random.Generator | None = None
                         ) -> PredictiveDistribution:
    """Mean over m stochastic forward passes (mode mc_infer).

    The samples, and the state the rng is left in, equal those of m
    plain `net.forward` loops over chunks of EVAL_BATCH windows, pass j
    over every chunk before pass j+1.  The layers before
    `net.first_stochastic` run once per window where they can:

    - Under a PCG64 rng, a network that `_chunk_outer_fits` runs
      chunk-outer: for each SUB_CHUNK windows, pass 0 runs the whole
      network and holds the prefix output, and passes 1..m-1 start from
      it.  Each dropout mask is drawn at the offset where the plain loop
      drew those rows (`_JumpRng`).
    - Any other network runs pass-outer.  Pass 0 holds a chunk's prefix
      output when that takes no more bytes than the chunk, so a Flipout
      head reuses its whole trunk; passes 1..m-1 rerun the prefix where
      none is held.  Flipout draws are not a fixed count of rng steps
      and DropConnect masks are per pass, not per window, so neither can
      be placed by offset.

    Softmax runs on float64 logits, so float32 networks yield rows that
    sum to 1 within 1e-9.
    """
    if m < 1:
        raise ValueError("need at least one posterior sample")
    if rng is None:
        rng = np.random.default_rng(0)
    samples = np.empty((m, x.shape[0], 2))
    if (isinstance(rng.bit_generator, np.random.PCG64)
            and _chunk_outer_fits(net, x.shape[0], x.dtype)):
        _chunk_outer(net, x, rng, samples)
    else:
        _pass_outer(net, x, rng, samples)
    return PredictiveDistribution.from_samples(samples)


def _chunk_outer_fits(net: Network, n: int, dtype) -> bool:
    """Whether an n-window posterior of net on dtype windows gains by
    running chunk-outer, and keeps every sample of the plain loop.

    - Its stochastic layers are all MCDropouts, and layers precede them.
    - Its prefix output is larger than its input, so the pass-outer loop
      would rerun the prefix in every pass.
    - Its prefix takes PREFIX_MULTIPLIES_MIN multiplies per sub-chunk.
    - It has no LSTM (`_products`): an LSTM steps through time once per
      call, and a 1-block CNN-LSTM of 200 steps ran 1.3x slower.
    - The BLAS keeps every row of each of its products at every chunk's
      sub-chunks (`_rows_kept`).
    """
    start = net.first_stochastic
    walked = _products(net, dtype)
    if (walked is None or not 0 < start < len(net.layers)
            or not all(isinstance(layer, MCDropout) for layer in net.layers
                       if layer.stochastic)):
        return False
    products, sizes = walked
    if sizes[start] <= sizes[0] or SUB_CHUNK * sum(
            r * k * n_out for i, r, k, n_out, _ in products
            if i < start) < PREFIX_MULTIPLIES_MIN:
        return False
    return all(_rows_kept(r, k, n_out, b, dt)
               for b in {min(n, EVAL_BATCH), n % EVAL_BATCH or EVAL_BATCH}
               for _, r, k, n_out, dt in products)


def _products(net: Network, dtype):
    """(layer index, rows per window, K, N, dtype) of each [rows, K] @
    [K, N] product in an mc_infer pass on dtype windows, and the
    elements per window each layer takes in.

    None for a network with a layer of any other kind than those below,
    such as an LSTM, a Flipout head or a residual block.
    """
    length, width = net.window_length, net.n_channels
    products, sizes = [], []
    for i, layer in enumerate(net.layers):
        sizes.append(length * width)
        if isinstance(layer, Conv1D):  # "same" padding keeps the length
            products.append((i, length, layer.kernel * layer.n_in,
                             layer.filters, np.dtype(dtype).name))
            width = layer.filters
        elif isinstance(layer, Dense):
            products.append((i, length, layer.n_in, layer.n_out,
                             np.result_type(dtype, layer.w.value).name))
            width = layer.n_out
        elif isinstance(layer, MaxPool1D):
            length //= layer.pool
        elif isinstance(layer, GlobalAvgPool1D):
            length = 1
        elif not isinstance(layer, (MCDropout, BatchNorm1D, ReLU)):
            return None
    return products, sizes


@functools.lru_cache(maxsize=None)
def _rows_kept(rows: int, k: int, n: int, b: int, dtype: str) -> bool:
    """Whether the BLAS rounds every row of a [b*rows, k] @ [k, n]
    product as in the products of b windows' sub-chunks.

    It need not: OpenBLAS 0.3.31 chooses its kernel (a small-matrix one
    up to M*N*K = 1e6 on AVX-512 builds) and its split over threads by
    the row count, and with 2 threads rows of a conv3 at 4 rows per
    window moved by 1 ulp.  The operands are filled in place and each
    sub-chunk is compared as it is made, so this holds no more than the
    chunk's product, its operands and one sub-chunk's product: less than
    the conv forward that makes such a product.
    """
    a = np.arange(b * rows * k, dtype=dtype).reshape(b * rows, k)
    w = np.arange(k * n, dtype=dtype).reshape(k, n) + 0.5
    np.sin(a, out=a)
    np.sin(w, out=w)
    whole = a @ w
    return all((a[rel * rows:stop * rows] @ w).tobytes()
               == whole[rel * rows:stop * rows].tobytes()
               for rel, stop in _sub_chunks(b))


def _pass_outer(net, x, rng, samples):
    n, start = x.shape[0], net.first_stochastic
    held: list[np.ndarray | None] = []  # per chunk, filled by pass 0

    def hold(h):  # called inside pass 0 of the current chunk
        if h.nbytes <= chunk.nbytes:
            held[-1] = h

    for j in range(len(samples)):
        for c, lo in enumerate(range(0, n, EVAL_BATCH)):
            chunk = x[lo:lo + EVAL_BATCH]
            if j == 0:
                held.append(None)  # no prefix to hold when start is 0
                logits = net.forward(chunk, mode="mc_infer", rng=rng,
                                     hold=hold if start else None)
            elif held[c] is None:
                logits = net.forward(chunk, mode="mc_infer", rng=rng)
            else:
                logits = net.forward(held[c], mode="mc_infer", rng=rng,
                                     start=start)
            samples[j, lo:lo + chunk.shape[0]] = _softmax(
                logits.astype(np.float64, copy=False))


def _chunk_outer(net, x, rng, samples):
    n, start, m = x.shape[0], net.first_stochastic, len(samples)
    entry = rng.bit_generator.state
    jump = _JumpRng(entry)
    held = None

    def hold(h):  # called inside pass 0 of the current sub-chunk
        nonlocal held
        held = h

    for lo in range(0, n, EVAL_BATCH):
        chunk = x[lo:lo + EVAL_BATCH]
        for rel, stop in _sub_chunks(chunk.shape[0]):
            sub = chunk[rel:stop]
            rows = slice(lo + rel, lo + stop)
            for j in range(m):
                jump.place(j * n + lo, chunk.shape[0], rel)
                if j == 0:
                    logits = net.forward(sub, mode="mc_infer", rng=jump,
                                         hold=hold)
                else:
                    logits = net.forward(held, mode="mc_infer", rng=jump,
                                         start=start)
                samples[j, rows] = _softmax(
                    logits.astype(np.float64, copy=False))
            held = None  # free it before the next sub-chunk's prefix runs
    _advance(rng.bit_generator, entry, m * n * sum(jump.per_window))


def _sub_chunks(b: int) -> list[tuple[int, int]]:
    """(start, stop) rows of a b-window chunk's sub-chunks.

    SUB_CHUNK windows each from the chunk's start, except that a lone
    last window joins the sub-chunk before it: numpy computes a one-row
    matrix product with gemv, not gemm, which can round differently from
    that row of the chunk's product.
    """
    cuts = list(range(0, b, SUB_CHUNK))
    if len(cuts) > 1 and b - cuts[-1] == 1:
        cuts.pop()
    return list(zip(cuts, cuts[1:] + [b]))


def _advance(bit_generator, state: dict, draws: int):
    """Set a PCG64 to `state` moved on by `draws` doubles.

    `rng.random` takes one 64-bit output per double, so this is where
    `draws` doubles drawn from `state` leave it.  `advance` drops a
    buffered 32-bit half, which double draws never touch, so it is put
    back.
    """
    bit_generator.state = state
    bit_generator.advance(draws)
    if state["has_uint32"]:
        moved = bit_generator.state
        moved["has_uint32"], moved["uinteger"] = 1, state["uinteger"]
        bit_generator.state = moved


class _JumpRng:
    """The rng a chunk-outer posterior hands its MCDropout layers.

    The pass-outer loop draws, in pass j, the chunk at window lo at
    stream offset (j*n + lo) * D, where D is the draws per window of all
    dropout layers; within the chunk, layer k's [rows, ...] mask follows
    the masks of layers 0..k-1, in row order.  `random(shape)` of the k-th
    layer to draw in a forward returns mask rows rel..rel+shape[0] of
    that chunk's mask, from a PCG64 jumped to their offset.
    """

    def __init__(self, entry: dict):
        self._entry = entry  # the caller's rng state before any draw
        self._gen = np.random.Generator(np.random.PCG64(0))
        # draws per window of each dropout layer that draws, in call
        # order; the first forward (pass 0, window 0) records them, and
        # its draws start at offset 0 whatever D turns out to be
        self.per_window: list[int] = []

    def place(self, windows_before: int, chunk_rows: int, rel: int):
        """Aim the next forward at rows rel.. of a chunk of chunk_rows
        windows that windows_before windows precede in the plain stream."""
        self._windows_before, self._chunk_rows, self._rel = \
            windows_before, chunk_rows, rel
        self._k = 0

    def random(self, shape) -> np.ndarray:
        k, d = self._k, math.prod(shape[1:])
        if k == len(self.per_window):
            self.per_window.append(d)
        offset = (self._windows_before * sum(self.per_window)
                  + self._chunk_rows * sum(self.per_window[:k])
                  + self._rel * d)
        self._k += 1
        _advance(self._gen.bit_generator, self._entry, offset)
        return self._gen.random(shape)


def predictive_entropy(probs: np.ndarray) -> float | np.ndarray:
    """Shannon entropy (natural log) with the 0*log0 := 0 convention.

    Accepts a single distribution [C] or a batch [N, C].
    """
    p = np.asarray(probs, dtype=np.float64)
    single = p.ndim == 1
    if single:
        p = p[None]
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-6):
        raise NotNormalized("probabilities must sum to 1 within 1e-6")
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    h = -terms.sum(axis=1)
    return float(h[0]) if single else h


@dataclass
class BinRow:
    index: int
    count: int
    e_i: float  # mean confidence in the bin
    o_i: float  # empirical accuracy in the bin


def _bin_index(conf: np.ndarray, k: int) -> np.ndarray:
    """Right-inclusive equal-width bins over [0,1]; 0 lands in bin 0."""
    idx = np.ceil(conf * k).astype(int) - 1
    return np.clip(idx, 0, k - 1)


def calibration_table(mean_probs: np.ndarray, labels: np.ndarray,
                      k: int = DEFAULT_BINS) -> list[BinRow]:
    mean_probs = np.asarray(mean_probs, dtype=np.float64)
    labels = np.asarray(labels)
    if mean_probs.size == 0:
        raise EmptyInput("no samples to calibrate")
    if k < 1:
        raise ValueError("need at least one bin")
    conf = mean_probs.max(axis=1)
    hit = (mean_probs.argmax(axis=1) == labels).astype(np.float64)
    idx = _bin_index(conf, k)
    rows = []
    for i in range(k):
        mask = idx == i
        c = int(mask.sum())
        if c == 0:
            rows.append(BinRow(i, 0, 0.0, 0.0))
        else:
            rows.append(BinRow(i, c, float(conf[mask].mean()),
                               float(hit[mask].mean())))
    return rows


def _ece_from_bins(rows: list[BinRow]) -> float:
    n = sum(r.count for r in rows)
    return float(sum((r.count / n) * abs(r.o_i - r.e_i) for r in rows
                     if r.count))


def ece(mean_probs: np.ndarray, labels: np.ndarray,
        k: int = DEFAULT_BINS) -> float:
    """Expected calibration error: sum of P(i) * |o_i - e_i| over bins."""
    return _ece_from_bins(calibration_table(mean_probs, labels, k))


@dataclass
class F1Result:
    f1_cl0: float
    f1_cl1: float
    f1_weighted: float
    accuracy: float
    degenerate_classes: tuple[int, ...] = ()


def f1_and_accuracy(predictions: np.ndarray, labels: np.ndarray) -> F1Result:
    """Per-class one-vs-rest F1, support-weighted F1, and accuracy.

    A class with zero predicted and zero actual positives gets F1 = 0 and
    is listed in degenerate_classes.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.size == 0:
        raise EmptyInput("no predictions to score")
    n = labels.shape[0]
    f1s, degenerate = [], []
    for cls in (0, 1):
        tp = int(np.sum((predictions == cls) & (labels == cls)))
        fp = int(np.sum((predictions == cls) & (labels != cls)))
        fn = int(np.sum((predictions != cls) & (labels == cls)))
        if tp + fp + fn == 0:
            f1s.append(0.0)
            degenerate.append(cls)
        elif tp == 0:
            f1s.append(0.0)
        else:
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            f1s.append(2.0 * precision * recall / (precision + recall))
    support = [float(np.sum(labels == cls)) / n for cls in (0, 1)]
    weighted = support[0] * f1s[0] + support[1] * f1s[1]
    acc = float(np.mean(predictions == labels))
    return F1Result(f1s[0], f1s[1], weighted, acc, tuple(degenerate))


def classify_outcomes(predictions: np.ndarray, labels: np.ndarray) -> list[str]:
    """Per-sample confusion tags with class 1 as the positive class."""
    out = []
    for p, y in zip(predictions, labels):
        if y == 1:
            out.append("TP" if p == 1 else "FN")
        else:
            out.append("FP" if p == 1 else "TN")
    return out


@dataclass
class EvalReport:
    """Per-sample posterior summaries plus aggregates and the bin table."""

    mean_probs: np.ndarray  # [N, 2]
    entropy: np.ndarray  # [N]
    labels: np.ndarray  # [N]
    preds: np.ndarray  # [N]
    outcomes: list[str]
    accuracy: float
    f1_cl0: float
    f1_cl1: float
    f1_weighted: float
    mean_entropy: float
    ece: float
    bins: list[BinRow] = field(default_factory=list)
    tag: str = ""
    meta: dict = field(default_factory=dict)  # free-form provenance strings

    def __len__(self):
        return self.labels.shape[0]


def build_report(dist: PredictiveDistribution, labels: np.ndarray,
                 k: int = DEFAULT_BINS, tag: str = "",
                 meta: dict | None = None) -> EvalReport:
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != dist.mean_probs.shape[0]:
        raise ValueError("labels do not match distribution size")
    if len(labels) == 0:
        raise EmptyInput("empty evaluation set")
    ent = predictive_entropy(dist.mean_probs)
    preds = dist.predicted_class
    f1 = f1_and_accuracy(preds, labels)
    bins = calibration_table(dist.mean_probs, labels, k)
    return EvalReport(
        mean_probs=dist.mean_probs, entropy=np.atleast_1d(ent),
        labels=labels, preds=preds,
        outcomes=classify_outcomes(preds, labels),
        accuracy=f1.accuracy, f1_cl0=f1.f1_cl0, f1_cl1=f1.f1_cl1,
        f1_weighted=f1.f1_weighted, mean_entropy=float(np.mean(ent)),
        ece=_ece_from_bins(bins), bins=bins, tag=tag, meta=dict(meta or {}))


def select_candidates(reports: list[EvalReport]) -> dict[str, list[EvalReport]]:
    """Partition reports by the selection gate (boundaries select)."""
    out: dict[str, list[EvalReport]] = {"select": [], "reject": []}
    for rep in reports:
        ok = (rep.f1_cl0 >= F1_THRESHOLD and rep.f1_cl1 >= F1_THRESHOLD
              and rep.mean_entropy <= ENTROPY_THRESHOLD)
        out["select" if ok else "reject"].append(rep)
    return out


def entropy_by_outcome(report: EvalReport) -> dict[str, np.ndarray]:
    """Per-sample entropies grouped TP/TN/FP/FN (absent groups empty)."""
    groups = {}
    tags = np.array(report.outcomes)
    for key in OUTCOMES:
        groups[key] = report.entropy[tags == key]
    return groups


# ---------------------------------------------------------------------------
# report CSV I/O

_AGG_KEYS = ("accuracy", "f1_cl0", "f1_cl1", "f1_weighted", "mean_entropy",
             "ece")


def write_report_csv(report: EvalReport, path: str | Path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample_id,p0,p1,entropy,label,pred,outcome\n")
        for i in range(len(report)):
            fh.write(f"{i},{float(report.mean_probs[i, 0])!r},"
                     f"{float(report.mean_probs[i, 1])!r},"
                     f"{float(report.entropy[i])!r},"
                     f"{int(report.labels[i])},{int(report.preds[i])},"
                     f"{report.outcomes[i]}\n")
        for key in _AGG_KEYS:
            fh.write(f"#agg,{key},{float(getattr(report, key))!r}\n")
        for row in report.bins:
            fh.write(f"#bin,{row.index},{row.count},{float(row.e_i)!r},"
                     f"{float(row.o_i)!r}\n")
        for key in sorted(report.meta):
            fh.write(f"#meta,{key},{report.meta[key]}\n")


def read_report_csv(path: str | Path) -> EvalReport:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "sample_id,p0,p1,entropy,label,pred,outcome":
        raise MalformedReport(f"{path}: bad or missing header")
    probs, ent, labels, preds, outcomes = [], [], [], [], []
    aggs: dict[str, float] = {}
    meta: dict[str, str] = {}
    bins: list[BinRow] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("#agg,"):
            _, key, val = line.split(",")
            aggs[key] = float(val)
        elif line.startswith("#bin,"):
            _, i, count, e_i, o_i = line.split(",")
            bins.append(BinRow(int(i), int(count), float(e_i), float(o_i)))
        elif line.startswith("#meta,"):
            _, key, val = line.split(",", 2)
            meta[key] = val
        else:
            parts = line.split(",")
            if len(parts) != 7:
                raise MalformedReport(f"{path}: bad row {line!r}")
            probs.append((float(parts[1]), float(parts[2])))
            ent.append(float(parts[3]))
            labels.append(int(parts[4]))
            preds.append(int(parts[5]))
            if parts[6] not in OUTCOMES:
                raise MalformedReport(f"{path}: bad outcome {parts[6]!r}")
            outcomes.append(parts[6])
    missing = set(_AGG_KEYS) - set(aggs)
    if missing:
        raise MalformedReport(f"{path}: missing aggregates {sorted(missing)}")
    if not probs:
        raise MalformedReport(f"{path}: no sample rows")
    return EvalReport(
        mean_probs=np.array(probs), entropy=np.array(ent),
        labels=np.array(labels, dtype=np.int64),
        preds=np.array(preds, dtype=np.int64), outcomes=outcomes,
        accuracy=aggs["accuracy"], f1_cl0=aggs["f1_cl0"],
        f1_cl1=aggs["f1_cl1"], f1_weighted=aggs["f1_weighted"],
        mean_entropy=aggs["mean_entropy"], ece=aggs["ece"], bins=bins,
        tag=Path(path).stem, meta=meta)
