"""Sensor-log ingestion, windowing, splits, and synthetic rover logs.

Turns raw 100 Hz proprioceptive recordings (6 IMU channels, optionally 12
joint channels) into fixed-length labeled windows: trim idle stretches,
split at whole-log granularity, cut windows by sliding or decimation, and
z-score per channel with train-split statistics.  A seeded synthetic
generator with class-conditioned spectral signatures stands in for field
recordings: class 0 (rock) carries strong high-frequency accelerometer
content, class 1 (sand) is smooth and low-frequency.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

IMU_CHANNELS = ("acc_x", "acc_y", "acc_z", "gyr_x", "gyr_y", "gyr_z")
JOINT_CHANNELS = tuple(
    f"w{i}_{q}" for i in range(4) for q in ("speed", "accel", "effort")
)
STD_FLOOR = 1e-12
SYNTH_RATE_HZ = 100.0


class DataError(Exception):
    """Base class for data-pipeline failures."""


class MissingColumn(DataError):
    pass


class RaggedRow(DataError):
    # the constructor arguments are the args, so a pickle round trip
    # rebuilds the same error; the message is made on demand
    def __init__(self, line: int):
        super().__init__(line)
        self.line = line

    def __str__(self):
        return f"row at line {self.line} has the wrong number of fields"


class NonNumericValue(DataError):
    def __init__(self, line: int, column: str, detail: str = "not numeric"):
        super().__init__(line, column, detail)
        self.line = line
        self.column = column

    def __str__(self):
        line, column, detail = self.args
        return f"line {line}, column {column!r}: {detail}"


class EmptyLog(DataError):
    pass


class AllIdle(DataError):
    pass


class TooShort(DataError):
    pass


class TooFewLogs(DataError):
    pass


class EmptyDataset(DataError):
    pass


class MissingGroup(DataError):
    pass


class InvalidSpec(DataError):
    pass


# ---------------------------------------------------------------------------
# core containers


@dataclass
class TimeSeriesLog:
    """One contiguous multichannel recording with per-timestep labels."""

    log_id: str
    sample_rate_hz: float
    channel_names: tuple[str, ...]
    channel_groups: tuple[str, ...]  # "imu" or "joint", parallel to names
    values: np.ndarray  # [channels, length]
    labels: np.ndarray  # [length], values in {0, 1}

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.values.ndim != 2:
            raise DataError("values must be a [channels, length] matrix")
        if self.values.shape[0] != len(self.channel_names):
            raise DataError("channel count does not match channel names")
        if len(self.channel_groups) != len(self.channel_names):
            raise DataError("channel groups do not match channel names")
        if self.values.shape[1] != self.labels.shape[0] or self.length < 1:
            raise DataError("channels and labels must share a length >= 1")
        n_imu = self.channel_groups.count("imu")
        n_joint = self.channel_groups.count("joint")
        if n_imu not in (0, 6):
            raise DataError(f"imu group must have 6 channels when present, got {n_imu}")
        if n_joint not in (0, 12):
            raise DataError(f"joint group must have 12 channels when present, got {n_joint}")
        if n_imu + n_joint == 0:
            raise DataError("log must carry at least one channel group")
        bad = set(np.unique(self.labels)) - {0, 1}
        if bad:
            raise DataError(f"labels must be 0 or 1, found {sorted(bad)}")
        if self.sample_rate_hz <= 0:
            raise DataError("sample rate must be positive")

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass
class SequenceDataset:
    """Fixed-length labeled windows plus their provenance."""

    windows: np.ndarray  # [n, channels, window_length]
    labels: np.ndarray  # [n]
    source_log_ids: tuple[str, ...]  # per window
    start_indices: np.ndarray  # [n], start in the source log
    window_length: int
    channel_names: tuple[str, ...]
    channel_groups: tuple[str, ...]
    generation: str  # "sliding(w=..,s=..)" or "subsample(f=..,target=..)"
    split_tag: str = "unsplit"

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.start_indices = np.asarray(self.start_indices, dtype=np.int64)
        if self.windows.ndim != 3:
            raise DataError("windows must be [n, channels, window_length]")
        n = self.windows.shape[0]
        if not (len(self.source_log_ids) == n == self.labels.shape[0]
                == self.start_indices.shape[0]):
            raise DataError("per-window metadata lengths disagree")
        if n and self.windows.shape[2] != self.window_length:
            raise DataError("window length mismatch")

    def __len__(self) -> int:
        return self.windows.shape[0]

    @property
    def n_channels(self) -> int:
        return self.windows.shape[1]


@dataclass
class ChannelStats:
    """Per-channel mean and (floored) standard deviation from a train split."""

    channel_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class ClassSignature:
    """Per-class spectral fingerprint for the synthetic generator."""

    osc_freqs_hz: tuple[float, ...]
    osc_amp: float
    ar_coeff: float
    noise_std: float
    wheel_speed: float
    wheel_effort: float


DEFAULT_SIGNATURES = {
    # rock: uneven ground, broadband vibration well above 10 Hz
    0: ClassSignature(osc_freqs_hz=(16.0, 23.0, 31.0), osc_amp=1.2,
                      ar_coeff=0.3, noise_std=0.5,
                      wheel_speed=0.45, wheel_effort=2.5),
    # sand: smooth, compliant, energy concentrated at low frequency
    1: ClassSignature(osc_freqs_hz=(1.2, 2.6), osc_amp=1.0,
                      ar_coeff=0.97, noise_std=0.15,
                      wheel_speed=0.25, wheel_effort=4.0),
}


@dataclass
class SynthSpec:
    """Recipe for one synthetic log: seed and segment layout."""

    log_id: str
    seed: int
    duration_s: float
    class_segments: tuple[tuple[int, float], ...]  # (class id, seconds)

    def validate(self):
        if self.duration_s <= 0:
            raise InvalidSpec("duration must be positive")
        if not self.class_segments:
            raise InvalidSpec("at least one class segment required")
        total = 0.0
        for cls, dur in self.class_segments:
            if cls not in (0, 1):
                raise InvalidSpec(f"segment class must be 0 or 1, got {cls}")
            if dur <= 0:
                raise InvalidSpec("segment durations must be positive")
            total += dur
        if abs(total - self.duration_s) > 1e-6:
            raise InvalidSpec(
                f"segments sum to {total} s but duration is {self.duration_s} s")


# ---------------------------------------------------------------------------
# CSV I/O


def _expected_headers(with_joints: bool) -> list[str]:
    cols = ["t", *IMU_CHANNELS]
    if with_joints:
        cols += list(JOINT_CHANNELS)
    cols.append("label")
    return cols


def load_log(path: str | Path) -> TimeSeriesLog:
    """Parse a sensor-log CSV into a TimeSeriesLog.

    The header must be exactly `t,<6 imu>[,<12 joint>],label`; rows must be
    numeric and rectangular, labels in {0, 1}, time strictly increasing.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    rows = csv.reader(lines)
    first = next(rows, None)
    if first is None:
        raise EmptyLog(f"{path} is empty")
    header = [h.strip() for h in first]
    for schema in (_expected_headers(True), _expected_headers(False)):
        if header == schema:
            break
    else:
        missing = [c for c in _expected_headers(False) if c not in header]
        if missing:
            raise MissingColumn(f"{path}: missing column(s) {missing}")
        joint_present = [c for c in JOINT_CHANNELS if c in header]
        if joint_present and len(joint_present) != len(JOINT_CHANNELS):
            absent = sorted(set(JOINT_CHANNELS) - set(joint_present))
            raise MissingColumn(f"{path}: incomplete joint group, missing {absent}")
        raise MissingColumn(f"{path}: header does not match the log schema")

    body = lines[rows.line_num:]
    if not body:
        raise EmptyLog(f"{path} has a header but no data rows")

    # One vectorised parse of the common case.  loadtxt skips blank lines
    # and rejects quoted cells and `1_0`, so any file it does not map line
    # for line onto rows of ncol floats goes through the per-cell csv parse,
    # which names the offending line and column.
    ncol = len(header)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an all-blank body warns
            data = np.loadtxt(body, delimiter=",", comments=None,
                              dtype=np.float64, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape != (len(body), ncol):
        data = _parse_rows(rows, header)

    t = data[:, 0]
    if np.any(np.diff(t) <= 0):
        raise DataError(f"{path}: time column must be strictly increasing")
    raw_labels = data[:, -1]
    if not np.all(np.isin(raw_labels, (0.0, 1.0))):
        bad_at = int(np.flatnonzero(~np.isin(raw_labels, (0.0, 1.0)))[0])
        raise NonNumericValue(bad_at + 2, "label", "label must be 0 or 1")

    names = tuple(header[1:-1])
    groups = tuple("imu" if n in IMU_CHANNELS else "joint" for n in names)
    rate = (len(t) - 1) / (t[-1] - t[0]) if len(t) > 1 else 100.0
    return TimeSeriesLog(
        log_id=path.stem,
        sample_rate_hz=float(rate),
        channel_names=names,
        channel_groups=groups,
        values=data[:, 1:-1].T.copy(),
        labels=raw_labels.astype(np.int64),
    )


def _parse_rows(rows, header: list[str]) -> np.ndarray:
    """Parse csv rows cell by cell with float(), naming the first bad cell."""
    body = list(rows)
    ncol = len(header)
    data = np.empty((len(body), ncol), dtype=np.float64)
    for r, row in enumerate(body):
        line = r + 2  # 1-based, after the header
        if len(row) != ncol:
            raise RaggedRow(line)
        for c, cell in enumerate(row):
            try:
                data[r, c] = float(cell)
            except ValueError:
                raise NonNumericValue(line, header[c]) from None
    return data


def write_log_csv(log: TimeSeriesLog, path: str | Path):
    """Write a log in the canonical CSV schema (deterministic bytes).

    Every value is written as its repr, the shortest text that parses back
    to the same float.
    """
    dt = 1.0 / log.sample_rate_hz
    out = [",".join(["t", *log.channel_names, "label"]) + "\n"]
    for i, (vals, label) in enumerate(zip(log.values.T.tolist(),
                                          log.labels.tolist())):
        out.append(f"{round(i * dt, 9)!r},{','.join(map(repr, vals))},"
                   f"{label}\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(out))


def read_manifest(path: str | Path) -> list[Path]:
    """Read a dataset manifest: one log path per line, `#` comments allowed."""
    path = Path(path)
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        p = Path(line)
        out.append(p if p.is_absolute() else path.parent / p)
    return out


def write_manifest(paths: list[Path], path: str | Path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# synthetic sensor logs\n")
        for p in paths:
            fh.write(f"{p.name}\n")


# ---------------------------------------------------------------------------
# trimming, windowing, splitting


def activity_signal(log: TimeSeriesLog) -> np.ndarray:
    """Motion proxy per timestep: mean |wheel speed|, else gyro magnitude."""
    speed_idx = [i for i, n in enumerate(log.channel_names) if n.endswith("_speed")]
    if speed_idx:
        return np.mean(np.abs(log.values[speed_idx]), axis=0)
    gyr_idx = [i for i, n in enumerate(log.channel_names) if n.startswith("gyr_")]
    return np.sqrt(np.sum(log.values[gyr_idx] ** 2, axis=0))


def trim_idle(log: TimeSeriesLog, speed_threshold: float,
              min_gap_s: float) -> TimeSeriesLog:
    """Drop contiguous sub-threshold stretches lasting at least min_gap_s.

    Shorter lulls are kept; the surviving segments are concatenated in
    order with labels still aligned.  Raises AllIdle when nothing survives.
    """
    act = activity_signal(log)
    min_run = int(math.ceil(min_gap_s * log.sample_rate_hz))
    # starts and ends of the sub-threshold runs, alternating
    edges = np.flatnonzero(np.diff(act < speed_threshold, prepend=False,
                                   append=False))
    keep = np.ones(log.length, dtype=bool)
    for i, j in zip(edges[::2], edges[1::2]):
        if j - i >= min_run:
            keep[i:j] = False
    if not keep.any():
        raise AllIdle(f"log {log.log_id}: no activity above {speed_threshold}")
    if keep.all():
        return log
    return replace(log, values=log.values[:, keep], labels=log.labels[keep])


def _cut(log: TimeSeriesLog, starts: np.ndarray, step: int, length: int,
         generation: str) -> SequenceDataset:
    """Windows of `length` samples `step` apart from each start.

    A window's label is the majority vote over the original span
    [start, start + step*(length-1) + 1) it covers; exact ties are
    discarded.
    """
    span = step * (length - 1) + 1
    cum = np.concatenate(([0], np.cumsum(log.labels)))
    ones = cum[starts + span] - cum[starts]
    kept = 2 * ones != span
    starts = starts[kept]
    idx = starts[:, None, None] + step * np.arange(length)
    channels = np.arange(log.values.shape[0])[:, None]
    return SequenceDataset(
        # gathered in [n, channels, length] C order, the order fit_stats sums
        windows=log.values[channels, idx],
        labels=(2 * ones[kept] > span).astype(np.int64),
        source_log_ids=(log.log_id,) * len(starts),
        start_indices=starts,
        window_length=length,
        channel_names=log.channel_names,
        channel_groups=log.channel_groups,
        generation=generation,
    )


def slide_windows(log: TimeSeriesLog, w: int, s: int) -> SequenceDataset:
    """Cut overlapping windows of width w every s steps.

    Yields floor((L - w) / s) + 1 windows when L >= w (fewer if tie-labeled
    windows are discarded), none otherwise.
    """
    if w < 1 or s < 1:
        raise ValueError("window and step must be >= 1")
    return _cut(log, np.arange(0, log.length - w + 1, s), 1, w,
                f"sliding(w={w},s={s})")


def subsample(log: TimeSeriesLog, f: int, target_length: int) -> SequenceDataset:
    """Decimate into f phase-shifted streams and cut non-overlapping windows.

    Phase k keeps original indices k, k+f, k+2f, ...; each stream is cut
    into consecutive windows of target_length samples.  A window's label is
    the majority vote over the full original span it covers.
    """
    if f < 2:
        raise ValueError("subsampling factor must be >= 2")
    if target_length < 1:
        raise ValueError("target_length must be >= 1")
    # phase-major; window j of phase k starts at k + j*f*target_length
    stride = f * target_length
    starts = (np.arange(f)[:, None]
              + stride * np.arange(-(-log.length // stride))).ravel()
    starts = starts[starts < log.length - f * (target_length - 1)]
    ds = _cut(log, starts, f, target_length,
              f"subsample(f={f},target={target_length})")
    if not len(ds):
        raise TooShort(
            f"log {log.log_id}: no decimated stream reaches {target_length} "
            f"samples at factor {f}")
    return ds


def split_logs(logs: list[TimeSeriesLog], test_fraction: float,
               val_fraction: float, seed: int) -> tuple[set[str], set[str], set[str]]:
    """Assign whole logs to train/val/test, balancing timestep counts.

    Logs are shuffled by seed, then accumulated into the test set until its
    timestep total reaches test_fraction of the grand total; the validation
    set is filled the same way from what remains using val_fraction of the
    remaining timesteps.  Every split ends up non-empty.
    """
    if len(logs) < 3:
        raise TooFewLogs(f"need at least 3 logs to split, got {len(logs)}")
    if not (0 < test_fraction < 1) or not (0 < val_fraction < 1):
        raise ValueError("fractions must lie in (0, 1)")
    ids = [lg.log_id for lg in logs]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate log ids")
    lengths = {lg.log_id: lg.length for lg in logs}
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = [ids[i] for i in rng.permutation(len(ids))]

    total = sum(lengths.values())
    test, acc = set(), 0
    for lid in order:
        if acc >= test_fraction * total or len(order) - len(test) <= 2:
            break
        test.add(lid)
        acc += lengths[lid]

    rest = [lid for lid in order if lid not in test]
    rest_total = sum(lengths[lid] for lid in rest)
    val, acc = set(), 0
    for lid in rest:
        if acc >= val_fraction * rest_total or len(rest) - len(val) <= 1:
            break
        val.add(lid)
        acc += lengths[lid]

    train = set(rest) - val
    return train, val, test


def fit_stats(train: SequenceDataset) -> ChannelStats:
    """Per-channel mean/std over every train window (std floored at 1)."""
    if len(train) == 0:
        raise EmptyDataset("cannot fit statistics on an empty dataset")
    mean = train.windows.mean(axis=(0, 2))
    std = train.windows.std(axis=(0, 2))
    std = np.where(std < STD_FLOOR, 1.0, std)
    return ChannelStats(channel_names=train.channel_names, mean=mean, std=std)


def standardize(ds: SequenceDataset, stats: ChannelStats) -> SequenceDataset:
    if ds.channel_names != stats.channel_names:
        raise DataError("stats were fit on different channels")
    z = (ds.windows - stats.mean[None, :, None]) / stats.std[None, :, None]
    return replace(ds, windows=z)


def select_channels(log: TimeSeriesLog, mode: str) -> TimeSeriesLog:
    """Restrict to one input configuration: imu (6), joints (12), fused (18)."""
    if mode not in ("imu", "joints", "fused"):
        raise ValueError(f"unknown channel mode {mode!r}")
    groups = log.channel_groups
    imu_idx = [i for i, g in enumerate(groups) if g == "imu"]
    joint_idx = [i for i, g in enumerate(groups) if g == "joint"]
    if mode == "imu":
        idx = imu_idx
    elif mode == "joints":
        if not joint_idx:
            raise MissingGroup("log has no joint channels")
        idx = joint_idx
    else:
        if not joint_idx:
            raise MissingGroup("fused mode needs joint channels")
        idx = imu_idx + joint_idx
    return replace(log, channel_groups=tuple(groups[i] for i in idx),
                   channel_names=tuple(log.channel_names[i] for i in idx),
                   values=log.values[idx])


# ---------------------------------------------------------------------------
# synthetic generation


def _ar1(rng: np.random.Generator, n: int, coeff: float, noise_std: float) -> np.ndarray:
    eps = rng.normal(0.0, noise_std, size=n)
    out = []
    state = 0.0
    for e in eps.tolist():  # Python floats: the same IEEE ops, less overhead
        state = coeff * state + e
        out.append(state)
    return np.array(out)


def _segment_bounds(spec: SynthSpec) -> list[tuple[int, int, int]]:
    """(class, start, stop) sample ranges for each segment."""
    rate = SYNTH_RATE_HZ
    n_total = int(round(spec.duration_s * rate))
    bounds, cum = [], 0.0
    start = 0
    for k, (cls, dur) in enumerate(spec.class_segments):
        cum += dur
        stop = n_total if k == len(spec.class_segments) - 1 else int(round(cum * rate))
        bounds.append((cls, start, stop))
        start = stop
    return bounds


def synth_generate(spec: SynthSpec) -> TimeSeriesLog:
    """Produce a deterministic synthetic log from a SynthSpec.

    Each segment mixes class-specific oscillators, an AR(1) roughness
    process, and white sensor noise; wheel channels get class-dependent
    speed and effort levels so idle detection has a real signal to use.
    """
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    rate = SYNTH_RATE_HZ
    bounds = _segment_bounds(spec)
    n = bounds[-1][2]

    labels = np.empty(n, dtype=np.int64)
    names = (*IMU_CHANNELS, *JOINT_CHANNELS)
    values = np.zeros((len(names), n))

    for cls, start, stop in bounds:
        sig = DEFAULT_SIGNATURES[cls]
        m = stop - start
        t = np.arange(m) / rate
        labels[start:stop] = cls

        # inertial channels: oscillators + AR roughness + sensor noise
        for ch in range(6):
            scale = 1.0 if ch < 3 else 0.5  # gyro axes run quieter
            x = np.zeros(m)
            for f_hz in sig.osc_freqs_hz:
                amp = sig.osc_amp * scale * rng.uniform(0.6, 1.0)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                x += amp * np.sin(2.0 * math.pi * f_hz * t + phase)
            x += _ar1(rng, m, sig.ar_coeff, sig.noise_std * scale)
            x += rng.normal(0.0, 0.03, size=m)
            values[ch, start:stop] = x
        values[2, start:stop] += 9.81  # gravity on acc_z

        # joint channels per wheel: speed, accel, effort
        for w in range(4):
            base = sig.wheel_speed * rng.uniform(0.9, 1.1)
            wander = _ar1(rng, m, 0.995, 0.004)
            slip_f = 12.0 if cls == 0 else 1.5
            slip = 0.06 * np.sin(2.0 * math.pi * slip_f * t + rng.uniform(0, 2 * math.pi))
            speed = base + wander + slip + rng.normal(0.0, 0.01, size=m)
            accel = np.gradient(speed) * rate
            rough = _ar1(rng, m, sig.ar_coeff, 0.2)
            effort = sig.wheel_effort * rng.uniform(0.9, 1.1) + rough \
                + rng.normal(0.0, 0.05, size=m)
            col = 6 + 3 * w
            values[col, start:stop] = speed
            values[col + 1, start:stop] = accel
            values[col + 2, start:stop] = effort

    return TimeSeriesLog(
        log_id=spec.log_id,
        sample_rate_hz=rate,
        channel_names=names,
        channel_groups=tuple(["imu"] * 6 + ["joint"] * 12),
        values=values,
        labels=labels,
    )


def default_synth_suite(n_logs: int = 20, seed: int = 7, duration_s: float = 30.0,
                        class_balance: float = 0.5) -> list[SynthSpec]:
    """Build the stock generation recipe: n_logs mixed-class logs.

    Every log alternates classes across 2-4 segments so each one contains
    at least one terrain transition.  class_balance tilts segment durations
    toward class 1 (0.5 keeps both classes at equal expected share).
    """
    if n_logs < 1 or duration_s <= 0:
        raise InvalidSpec("need at least one log with positive duration")
    if not (0.0 < class_balance < 1.0):
        raise InvalidSpec("class_balance must lie in (0, 1)")
    specs = []
    for k in range(n_logs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        n_seg = int(rng.integers(2, 5))
        first = int(k % 2)
        weights = rng.uniform(0.7, 1.3, size=n_seg)
        for j in range(n_seg):
            cls = (first + j) % 2
            weights[j] *= class_balance if cls == 1 else (1.0 - class_balance)
        durs = duration_s * weights / weights.sum()
        segs = tuple(((first + j) % 2, float(round(durs[j], 6))) for j in range(n_seg))
        # absorb rounding drift into the last segment
        drift = duration_s - sum(d for _, d in segs)
        segs = segs[:-1] + ((segs[-1][0], segs[-1][1] + drift),)
        specs.append(SynthSpec(
            log_id=f"synthlog{k:03d}",
            seed=int(rng.integers(0, 2**31)),
            duration_s=duration_s,
            class_segments=segs,
        ))
    return specs


# ---------------------------------------------------------------------------
# dataset persistence (plain .npy plus text sidecars; deterministic bytes)


def save_dataset(ds: SequenceDataset, out_dir: str | Path, name: str):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / f"{name}_windows.npy", ds.windows)
    np.save(out / f"{name}_labels.npy", ds.labels)
    with open(out / f"{name}_sources.csv", "w", encoding="utf-8") as fh:
        fh.write("sample_id,source_log_id,start_index\n")
        for i, (sid, st) in enumerate(zip(ds.source_log_ids, ds.start_indices)):
            fh.write(f"{i},{sid},{int(st)}\n")
    with open(out / f"{name}_info.txt", "w", encoding="utf-8") as fh:
        fh.write(f"window_length = {ds.window_length}\n")
        fh.write(f"generation = {ds.generation}\n")
        fh.write(f"split_tag = {ds.split_tag}\n")
        fh.write(f"channel_names = {','.join(ds.channel_names)}\n")
        fh.write(f"channel_groups = {','.join(ds.channel_groups)}\n")


def load_dataset(in_dir: str | Path, name: str) -> SequenceDataset:
    src = Path(in_dir)
    windows = np.load(src / f"{name}_windows.npy")
    labels = np.load(src / f"{name}_labels.npy")
    info = {}
    for line in (src / f"{name}_info.txt").read_text(encoding="utf-8").splitlines():
        key, _, val = line.partition(" = ")
        info[key] = val
    sources, starts = [], []
    rows = (src / f"{name}_sources.csv").read_text(encoding="utf-8").splitlines()[1:]
    for row in rows:
        _, sid, st = row.split(",")
        sources.append(sid)
        starts.append(int(st))
    return SequenceDataset(
        windows=windows,
        labels=labels,
        source_log_ids=tuple(sources),
        start_indices=np.array(starts, dtype=np.int64),
        window_length=int(info["window_length"]),
        channel_names=tuple(info["channel_names"].split(",")),
        channel_groups=tuple(info["channel_groups"].split(",")),
        generation=info["generation"],
        split_tag=info["split_tag"],
    )


def save_stats(stats: ChannelStats, path: str | Path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("channel,mean,std\n")
        for name, m, s in zip(stats.channel_names, stats.mean, stats.std):
            fh.write(f"{name},{float(m)!r},{float(s)!r}\n")
