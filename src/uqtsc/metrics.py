"""Predictive posterior, entropy, calibration, F1, and the selection gate.

The posterior over classes is the mean of M stochastic forward passes;
entropy is computed on that mean distribution (natural log).  The
windows are cut into chunks, and chunk c takes all M passes from its own
child stream, the c-th of `rng.spawn(n_chunks)`, so chunks are
independent: they are dealt round-robin to one lane per usable core and
run at once, with OpenBLAS held to one thread so that every product runs
in its lane's thread and the bytes do not depend on the lane count.  The
layers before a network's first stochastic one are deterministic in
mc_infer mode, so they run once per chunk and all M passes start from
their output, and the whole call runs inside `Network.frozen()`, so
each layer derives its inference constants once per call.  ECE bins by
max-probability confidence into K equal-width right-inclusive bins.
Candidate selection requires both per-class F1 scores at or above 0.9
and mean entropy at or below 0.1, boundaries inclusive.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arch import Network
from .nncore import blas
from .nncore.layers import LSTM, softmax

F1_THRESHOLD = 0.9
ENTROPY_THRESHOLD = 0.1
DEFAULT_M = 10
DEFAULT_BINS = 10
# windows per infer-mode forward call in training.evaluate, which keeps
# the conv window-view buffer small on wide configs
EVAL_BATCH = 64
# windows per posterior chunk of a network without an LSTM, which holds
# its prefix output for all passes: the posterior benchmark CNN's conv1
# output is 10.7x its input, and two lanes of 8 windows keep that under
# the peak of a 64-window pass
CHUNK = 8
# windows per posterior chunk of a network with an LSTM, which steps
# through time in Python once per call, so smaller calls cost more than
# they save
LSTM_CHUNK = 32

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


def predictive_posterior(net: Network, x: np.ndarray, m: int = DEFAULT_M,
                         rng: np.random.Generator | None = None
                         ) -> PredictiveDistribution:
    """Mean over m stochastic forward passes (mode mc_infer).

    The windows are cut into chunks (LSTM_CHUNK for a network with an
    LSTM, CHUNK for any other), and chunk c draws from the c-th child of
    `rng.spawn(n_chunks)`, so its samples are those of m plain
    `net.forward(chunk, mode="mc_infer", rng=child)` calls.  rng itself
    draws nothing; only its count of spawned children moves.  One
    `stop=net.first_stochastic` call per chunk runs the layers before
    the first stochastic one, which draw nothing, and the m passes start
    from its output; with a stochastic first layer every pass runs the
    whole network.

    The whole call holds OpenBLAS to one thread (`blas.one_thread`), and
    the chunks are dealt round-robin to one lane per usable core, at
    most one per chunk: lane 0 runs in the calling thread, the others on
    a pool joined before the call returns, and an exception in any lane
    is raised here.  Where no OpenBLAS is found, one lane runs them all.
    The samples are the same bytes for any lane count.  The lanes run
    inside `net.frozen()`, so each layer derives its inference constants
    (a plain conv's weight matrix, a batch norm's tiled rows and gamma
    sign, Flipout's sigmas) and the network its inference plan once per
    call, not once per pass; nothing stays held after the call.

    Softmax runs on float64 logits, so float32 networks yield rows that
    sum to 1 within 1e-9.
    """
    if m < 1:
        raise ValueError("need at least one posterior sample")
    if rng is None:
        rng = np.random.default_rng(0)
    n, first = x.shape[0], net.first_stochastic
    step = (LSTM_CHUNK if any(isinstance(layer, LSTM) for layer in net.layers)
            else CHUNK)
    starts = range(0, n, step)
    streams = rng.spawn(len(starts))
    samples = np.empty((m, n, 2))

    def run_chunk(c):
        lo, child = starts[c], streams[c]
        h = x[lo:lo + step]
        rows = slice(lo, lo + h.shape[0])
        if first:
            h = net.forward(h, mode="mc_infer", rng=child, stop=first)
        for j in range(m):
            logits = net.forward(h, mode="mc_infer", rng=child, start=first)
            samples[j, rows] = softmax(logits.astype(np.float64, copy=False))

    with blas.one_thread() as pinned, net.frozen():
        lanes = min(_usable_cores(), len(starts)) if pinned else 1
        _deal(run_chunk, len(starts), lanes)
    return PredictiveDistribution.from_samples(samples)


def _usable_cores() -> int:
    """CPUs this process may run on (Linux, where OpenBLAS is found)."""
    return len(os.sched_getaffinity(0))


def _deal(work, n_items: int, lanes: int) -> None:
    """Run work(i) for every i < n_items, dealt round-robin to `lanes`
    lanes: lane 0 in this thread, the others on a pool joined before this
    returns.  A lane's exception is raised here, and the other lanes stop
    before their next item."""
    if lanes <= 1:
        for i in range(n_items):
            work(i)
        return
    failed = threading.Event()

    def lane(k):
        try:
            for i in range(k, n_items, lanes):
                if failed.is_set():
                    return
                work(i)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(lanes - 1) as pool:
        helpers = [pool.submit(lane, k) for k in range(1, lanes)]
        lane(0)
        for future in helpers:
            future.result()


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
