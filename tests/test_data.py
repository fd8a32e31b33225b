"""Data pipeline tests: ingestion, trimming, windowing, splits, synthesis."""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uqtsc import data

from conftest import make_log


# ---------------------------------------------------------------------------
# load_log / write_log_csv


def test_load_log_roundtrip_imu_only(tmp_path):
    log = make_log([0, 1, 1], seed=1)
    path = tmp_path / "tiny.csv"
    data.write_log_csv(log, path)
    back = data.load_log(path)
    assert back.length == 3
    assert back.channel_groups.count("imu") == 6
    assert np.array_equal(back.values, log.values)
    assert np.array_equal(back.labels, log.labels)


def test_load_log_roundtrip_fused(tmp_path, small_log):
    path = tmp_path / "full.csv"
    data.write_log_csv(small_log, path)
    back = data.load_log(path)
    assert back.channel_names == small_log.channel_names
    assert len(back.channel_names) == 18
    assert np.array_equal(back.values, small_log.values)
    assert np.array_equal(back.labels, small_log.labels)


def test_write_log_csv_exact_text(tmp_path):
    """The log format is the shortest round-trip text (repr) of each value."""
    rows = [
        [-0.0, 1e-05, 1e16, 0.1 + 0.2, 5e-324, 9.81],
        [1.0, -2.5, 0.001, 1e22, -1e-300, 100.0],
        [0.1, 2.0 ** 0.5, -123456.789, 1e-07, 7.0, -0.0],
        [float("inf"), 12345678901234567.0, 1.5e-10, -1.0, 0.5, 3.0],
    ]
    log = data.TimeSeriesLog(
        log_id="pin", sample_rate_hz=3.0, channel_names=data.IMU_CHANNELS,
        channel_groups=("imu",) * 6, values=np.array(rows).T,
        labels=np.array([0, 1, 1, 0]))
    path = tmp_path / "pin.csv"
    data.write_log_csv(log, path)
    assert path.read_bytes() == (
        b"t,acc_x,acc_y,acc_z,gyr_x,gyr_y,gyr_z,label\n"
        b"0.0,-0.0,1e-05,1e+16,0.30000000000000004,5e-324,9.81,0\n"
        b"0.333333333,1.0,-2.5,0.001,1e+22,-1e-300,100.0,1\n"
        b"0.666666667,0.1,1.4142135623730951,-123456.789,1e-07,7.0,-0.0,1\n"
        b"1.0,inf,1.2345678901234568e+16,1.5e-10,-1.0,0.5,3.0,0\n")
    back = data.load_log(path)
    assert back.values.tobytes() == log.values.tobytes()


def test_load_log_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t," + ",".join(data.IMU_CHANNELS) + ",label\n")
    with pytest.raises(data.EmptyLog):
        data.load_log(path)


def test_load_log_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("t," + ",".join(data.IMU_CHANNELS) + "\n0,1,1,1,1,1,1\n")
    with pytest.raises(data.MissingColumn):
        data.load_log(path)


def test_load_log_ragged_row(tmp_path):
    header = "t," + ",".join(data.IMU_CHANNELS) + ",label"
    rows = [header, "0.00,1,1,1,1,1,1,0", "0.01,1,1,1,1", "0.02,1,1,1,1,1,1,0"]
    path = tmp_path / "ragged.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(data.RaggedRow) as exc:
        data.load_log(path)
    assert exc.value.line == 3


def test_load_log_non_numeric(tmp_path):
    header = "t," + ",".join(data.IMU_CHANNELS) + ",label"
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n0.00,1,oops,1,1,1,1,0\n")
    with pytest.raises(data.NonNumericValue) as exc:
        data.load_log(path)
    assert exc.value.line == 2
    assert exc.value.column == "acc_y"


def _reference_parse(path):
    """Per-cell csv + float() parse of a log body, errors included."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = [h.strip() for h in rows[0]]
    body = rows[1:]
    out = np.empty((len(body), len(header)))
    for r, row in enumerate(body):
        line = r + 2
        if len(row) != len(header):
            raise data.RaggedRow(line)
        for c, cell in enumerate(row):
            try:
                out[r, c] = float(cell)
            except ValueError:
                raise data.NonNumericValue(line, header[c]) from None
    return out


_CELL_FORMS = (repr, "{:.3e}".format, "{:g}".format, " {!r} ".format)
_DEFECTS = ("none", "blank_line", "short_row", "long_row", "quoted",
            "underscore", "non_numeric", "trailing_comma", "trailing_commas")


@st.composite
def _log_texts(draw):
    """A log CSV with at most one defect, and one line-end convention."""
    n = draw(st.integers(2, 6))
    cells = []
    for i in range(n):
        vals = draw(st.lists(st.floats(width=64), min_size=6, max_size=6))
        forms = draw(st.lists(st.sampled_from(_CELL_FORMS),
                              min_size=6, max_size=6))
        label = draw(st.sampled_from(("0", "1", "1.0", "0e0")))
        cells.append([repr(round(i * 0.01, 9)),
                      *(f(v) for f, v in zip(forms, vals)), label])
    defect = draw(st.sampled_from(_DEFECTS))
    r = draw(st.integers(0, n - 1))
    c = draw(st.integers(1, 6))  # a channel cell, so the later checks hold
    if defect == "short_row":
        cells[r] = cells[r][:-1]
    elif defect == "long_row":
        cells[r] = cells[r] + ["0.5"]
    elif defect == "quoted":
        cells[r][c] = f'"{cells[r][c]}"'
    elif defect == "underscore":
        cells[r][c] = "1_0"
    elif defect == "non_numeric":
        cells[r][c] = "oops"
    elif defect == "trailing_comma":
        cells[r] = cells[r] + [""]
    elif defect == "trailing_commas":
        cells = [row + [""] for row in cells]
    lines = [",".join(row) for row in cells]
    if defect == "blank_line":
        lines.insert(max(r, 1), "")
    header = "t," + ",".join(data.IMU_CHANNELS) + ",label"
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return newline.join([header, *lines]) + newline


@given(text=_log_texts())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_log_matches_reference_parser(tmp_path, text):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = _reference_parse(path)
    except (data.RaggedRow, data.NonNumericValue) as exc:
        with pytest.raises(type(exc)) as got:
            data.load_log(path)
        assert got.value.line == exc.line
        assert getattr(got.value, "column", None) == getattr(exc, "column", None)
        return
    back = data.load_log(path)
    assert back.values.tobytes() == expected[:, 1:-1].T.tobytes()
    assert back.labels.tobytes() == expected[:, -1].astype(np.int64).tobytes()


def test_manifest_roundtrip(tmp_path):
    log = make_log([0, 0, 1, 1], seed=2)
    p = tmp_path / "a.csv"
    data.write_log_csv(log, p)
    data.write_manifest([p], tmp_path / "manifest.txt")
    paths = data.read_manifest(tmp_path / "manifest.txt")
    assert paths == [tmp_path / "a.csv"]


# ---------------------------------------------------------------------------
# trim_idle


def _brute_trim_mask(activity, threshold, min_run):
    """Independent scan: drop maximal below-threshold runs of length >= min_run."""
    n = len(activity)
    keep = np.ones(n, dtype=bool)
    run = []
    for i in range(n + 1):
        if i < n and activity[i] < threshold:
            run.append(i)
        else:
            if len(run) >= min_run:
                keep[run] = False
            run = []
    return keep


def _gyro_log(gyro_x, seed=0):
    """imu-only log whose activity signal equals |gyro_x| exactly."""
    n = len(gyro_x)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(6, n))
    values[3] = gyro_x
    values[4] = 0.0
    values[5] = 0.0
    return data.TimeSeriesLog(
        log_id="gyr", sample_rate_hz=100.0,
        channel_names=data.IMU_CHANNELS, channel_groups=("imu",) * 6,
        values=values, labels=np.zeros(n, dtype=np.int64),
    )


def test_trim_idle_hand_trace():
    gyro = np.ones(1000)
    gyro[400:600] = 0.0
    log = _gyro_log(gyro)
    trimmed = data.trim_idle(log, speed_threshold=0.5, min_gap_s=1.0)
    assert trimmed.length == 800
    expect = _brute_trim_mask(np.abs(gyro), 0.5, 100)
    np.testing.assert_allclose(trimmed.values, log.values[:, expect])
    np.testing.assert_array_equal(trimmed.labels, log.labels[expect])


def test_trim_idle_short_gap_kept():
    gyro = np.ones(500)
    gyro[100:150] = 0.0  # 0.5 s < min_gap 1 s
    log = _gyro_log(gyro)
    trimmed = data.trim_idle(log, speed_threshold=0.5, min_gap_s=1.0)
    assert trimmed.length == 500


def test_trim_idle_all_idle():
    log = _gyro_log(np.zeros(300))
    with pytest.raises(data.AllIdle):
        data.trim_idle(log, speed_threshold=0.5, min_gap_s=1.0)


def test_trim_idle_uses_wheel_speed(small_log):
    # default synth logs drive nonstop, so nothing should be trimmed
    trimmed = data.trim_idle(small_log, speed_threshold=0.05, min_gap_s=1.0)
    assert trimmed.length == small_log.length


@given(st.lists(st.booleans(), min_size=1, max_size=400),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_trim_idle_matches_brute_force(active, min_run):
    gyro = np.where(active, 1.0, 0.0)
    log = _gyro_log(gyro)
    expect = _brute_trim_mask(np.abs(gyro), 0.5, min_run)
    min_gap_s = min_run / log.sample_rate_hz
    if not expect.any():
        with pytest.raises(data.AllIdle):
            data.trim_idle(log, 0.5, min_gap_s)
    else:
        trimmed = data.trim_idle(log, 0.5, min_gap_s)
        np.testing.assert_allclose(trimmed.values, log.values[:, expect])


# ---------------------------------------------------------------------------
# slide_windows


@pytest.mark.parametrize("L,w,s,expect", [
    (1000, 400, 100, 7),
    (100, 100, 25, 1),
    (99, 100, 25, 0),
])
def test_window_count_formula(L, w, s, expect):
    log = make_log(np.zeros(L, dtype=int))
    ds = data.slide_windows(log, w, s)
    assert len(ds) == expect


def test_window_starts_and_values(small_log):
    ds = data.slide_windows(small_log, 100, 25)
    assert len(ds) > 0
    for i in range(len(ds)):
        start = int(ds.start_indices[i])
        assert start % 25 == 0
        np.testing.assert_array_equal(
            ds.windows[i], small_log.values[:, start:start + 100])


def test_window_majority_labels():
    labels = np.array([0] * 70 + [1] * 30)
    log = make_log(labels)
    ds = data.slide_windows(log, 100, 25)
    assert list(ds.labels) == [0]


def test_window_tie_discarded():
    labels = np.array([0] * 50 + [1] * 50)
    log = make_log(labels)
    ds = data.slide_windows(log, 100, 100)
    assert len(ds) == 0


@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=300))
@settings(max_examples=80, deadline=None)
def test_window_count_vs_brute_force(L, w, s):
    log = make_log(np.zeros(L, dtype=int), n_channels=6, seed=9)
    ds = data.slide_windows(log, w, s)
    brute = [a for a in range(0, L + 1) if a % s == 0 and a + w <= L]
    assert len(ds) == len(brute)
    if L >= w:
        assert len(ds) == (L - w) // s + 1


# ---------------------------------------------------------------------------
# subsample


def test_subsample_one_window_per_phase():
    log = make_log(np.zeros(1000, dtype=int))
    ds = data.subsample(log, f=8, target_length=125)
    assert len(ds) == 8
    assert ds.window_length == 125


def test_subsample_too_short():
    log = make_log(np.zeros(1000, dtype=int))
    with pytest.raises(data.TooShort):
        data.subsample(log, f=32, target_length=125)


def test_subsample_counting_oracle():
    L, f, target = 2000, 16, 100
    log = make_log(np.zeros(L, dtype=int))
    ds = data.subsample(log, f=f, target_length=target)
    expect = sum(len(range(p, L, f)) // target for p in range(f))
    assert expect == 16
    assert len(ds) == expect


def test_subsample_values_are_decimated(small_log):
    f, target = 8, 50
    ds = data.subsample(small_log, f=f, target_length=target)
    for i in range(len(ds)):
        start = int(ds.start_indices[i])
        sel = np.arange(start, start + f * target, f)
        np.testing.assert_array_equal(ds.windows[i], small_log.values[:, sel])


def test_subsample_phase_partition():
    L, f = 997, 8
    phases = [np.arange(p, L, f) for p in range(f)]
    allidx = np.concatenate(phases)
    assert len(allidx) == L
    assert len(np.unique(allidx)) == L


def test_subsample_span_majority_label():
    # span 0..792 at f=8,target=100 covers 793 steps; first 600 are class 1
    labels = np.array([1] * 600 + [0] * 400)
    log = make_log(labels)
    ds = data.subsample(log, f=8, target_length=100)
    assert len(ds) == 8
    assert set(ds.labels) == {1}


def _loop_cut(log, starts, step, length):
    """Per-window reference for both cutters: vote over the original span
    (exact ties discard the window), then gather every step-th sample."""
    wins, labs, kept = [], [], []
    for a in starts:
        end = a + step * (length - 1) + 1
        ones = int(log.labels[a:end].sum())
        if 2 * ones == end - a:
            continue
        wins.append(log.values[:, a:end:step])
        labs.append(int(2 * ones > end - a))
        kept.append(a)
    return np.array(wins).reshape(len(wins), 6, length), labs, kept


def _loop_subsample_starts(L, f, target):
    starts = []
    for phase in range(f):
        idx = np.arange(phase, L, f)
        starts += [int(idx[j * target]) for j in range(len(idx) // target)]
    return starts


@given(st.lists(st.integers(0, 1), min_size=1, max_size=120),
       st.integers(1, 30), st.integers(1, 9), st.integers(2, 5),
       st.integers(1, 20))
@settings(max_examples=80, deadline=None)
def test_cutters_equal_window_loop(labels, w, s, f, target):
    """Byte-equal windows (C order, so fit_stats sums the same), labels
    and starts, ties included, in window and subsample mode."""
    log = make_log(labels, seed=3)
    cases = [(lambda: data.slide_windows(log, w, s),
              range(0, log.length - w + 1, s), 1, w),
             (lambda: data.subsample(log, f, target),
              _loop_subsample_starts(log.length, f, target), f, target)]
    for cut, starts, step, length in cases:
        wins, labs, kept = _loop_cut(log, starts, step, length)
        if step > 1 and not kept:
            with pytest.raises(data.TooShort):
                cut()
            continue
        ds = cut()
        assert ds.windows.flags.c_contiguous
        assert ds.windows.shape == wins.shape
        assert ds.windows.tobytes() == wins.tobytes()
        assert ds.labels.tolist() == labs
        assert ds.start_indices.tolist() == kept
        assert ds.source_log_ids == (log.log_id,) * len(kept)


# ---------------------------------------------------------------------------
# split_logs


def test_split_sizes_greedy_oracle():
    logs = [make_log(np.zeros(100, dtype=int), seed=i) for i in range(10)]
    for i, lg in enumerate(logs):
        lg.log_id = f"log{i}"
    train, val, test = data.split_logs(logs, test_fraction=0.3,
                                       val_fraction=0.2, seed=11)
    assert (len(train), len(val), len(test)) == (5, 2, 3)


def test_split_disjoint_and_covering(synth_logs):
    train, val, test = data.split_logs(synth_logs, 0.3, 0.2, seed=5)
    ids = {lg.log_id for lg in synth_logs}
    assert train | val | test == ids
    assert not (train & val or train & test or val & test)
    assert train and val and test


def test_split_deterministic(synth_logs):
    a = data.split_logs(synth_logs, 0.3, 0.2, seed=123)
    b = data.split_logs(synth_logs, 0.3, 0.2, seed=123)
    assert a == b


def test_split_too_few_logs():
    logs = [make_log(np.zeros(10, dtype=int), seed=i) for i in range(2)]
    logs[0].log_id, logs[1].log_id = "a", "b"
    with pytest.raises(data.TooFewLogs):
        data.split_logs(logs, 0.3, 0.2, seed=0)


@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=999))
@settings(max_examples=40, deadline=None)
def test_split_properties(n_logs, seed):
    logs = []
    rng = np.random.default_rng(seed)
    for i in range(n_logs):
        lg = make_log(np.zeros(int(rng.integers(50, 500)), dtype=int), seed=i)
        lg.log_id = f"g{i}"
        logs.append(lg)
    train, val, test = data.split_logs(logs, 0.3, 0.2, seed=seed)
    assert train and val and test
    assert train | val | test == {lg.log_id for lg in logs}
    assert len(train) + len(val) + len(test) == n_logs


# ---------------------------------------------------------------------------
# standardization


def _ds_from_values(values):
    """Single-window dataset wrapping a [C, L] matrix."""
    c = values.shape[0]
    names = tuple(f"ch{i}" for i in range(c))
    return data.SequenceDataset(
        windows=values[None], labels=np.array([0]),
        source_log_ids=("x",), start_indices=np.array([0]),
        window_length=values.shape[1], channel_names=names,
        channel_groups=("imu",) * c, generation="sliding(w=3,s=1)",
    )


def test_stats_hand_case():
    ds = _ds_from_values(np.array([[1.0, 2.0, 3.0]]))
    stats = data.fit_stats(ds)
    assert stats.mean[0] == pytest.approx(2.0)
    assert stats.std[0] == pytest.approx(0.8164965809, abs=1e-9)


def test_constant_channel_floored():
    ds = _ds_from_values(np.full((2, 5), 7.0))
    stats = data.fit_stats(ds)
    np.testing.assert_allclose(stats.std, 1.0)
    z = data.standardize(ds, stats)
    np.testing.assert_allclose(z.windows, 0.0)


def test_standardized_train_is_centered(synth_logs):
    ds = data.slide_windows(synth_logs[0], 100, 25)
    stats = data.fit_stats(ds)
    z = data.standardize(ds, stats)
    assert np.all(np.abs(z.windows.mean(axis=(0, 2))) < 1e-9)
    assert np.all(np.abs(z.windows.std(axis=(0, 2)) - 1.0) < 1e-6)


def test_standardize_idempotent(synth_logs):
    ds = data.slide_windows(synth_logs[1], 100, 25)
    z1 = data.standardize(ds, data.fit_stats(ds))
    z2 = data.standardize(z1, data.fit_stats(z1))
    np.testing.assert_allclose(z1.windows, z2.windows, atol=1e-6)


def test_standardize_channel_mismatch(synth_logs):
    ds = data.slide_windows(synth_logs[0], 100, 25)
    stats = data.fit_stats(data.select_channels(ds, "imu"))
    with pytest.raises(data.DataError):
        data.standardize(ds, stats)


def test_empty_dataset_rejected():
    log = make_log(np.zeros(10, dtype=int))
    empty = data.slide_windows(log, 100, 25)
    with pytest.raises(data.EmptyDataset):
        data.fit_stats(empty)


# ---------------------------------------------------------------------------
# channel selection


def test_select_channels_counts(small_log):
    assert len(data.select_channels(small_log, "imu").channel_names) == 6
    assert len(data.select_channels(small_log, "joints").channel_names) == 12
    fused = data.select_channels(small_log, "fused")
    assert len(fused.channel_names) == 18
    assert fused.channel_names[:6] == data.IMU_CHANNELS
    assert fused.channel_names[6:] == data.JOINT_CHANNELS


def test_select_channels_missing_group():
    log = make_log([0, 1, 1])
    with pytest.raises(data.MissingGroup):
        data.select_channels(log, "joints")


def test_select_channels_on_dataset(small_log):
    ds = data.slide_windows(small_log, 100, 100)
    imu = data.select_channels(ds, "imu")
    assert imu.n_channels == 6
    np.testing.assert_array_equal(imu.windows, ds.windows[:, :6, :])


# ---------------------------------------------------------------------------
# synthetic generation


def test_synth_deterministic():
    spec = data.SynthSpec(log_id="d", seed=99, duration_s=5.0,
                          class_segments=((0, 2.5), (1, 2.5)))
    a, b = data.synth_generate(spec), data.synth_generate(spec)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels, b.labels)


def test_synth_duration_arithmetic():
    spec = data.SynthSpec(log_id="d", seed=1, duration_s=120.0,
                          class_segments=((0, 60.0), (1, 60.0)))
    log = data.synth_generate(spec)
    assert log.length == 12000


def test_synth_labels_align_with_segments():
    spec = data.SynthSpec(log_id="d", seed=2, duration_s=4.0,
                          class_segments=((1, 1.0), (0, 3.0)))
    log = data.synth_generate(spec)
    assert set(log.labels[:100]) == {1}
    assert set(log.labels[100:]) == {0}


def band_power(series: np.ndarray, sample_rate_hz: float, f_min_hz: float) -> float:
    """Mean spectral power above f_min_hz (rFFT periodogram)."""
    x = series - series.mean()
    spec = np.abs(np.fft.rfft(x)) ** 2 / len(x)
    freqs = np.fft.rfftfreq(len(x), d=1.0 / sample_rate_hz)
    mask = freqs > f_min_hz
    return float(spec[mask].mean()) if mask.any() else 0.0


def test_synth_band_power_separation():
    """Rock segments carry >= 2x the >10 Hz accelerometer power of sand."""
    spec = data.SynthSpec(log_id="d", seed=5, duration_s=20.0,
                          class_segments=((0, 10.0), (1, 10.0)))
    log = data.synth_generate(spec)
    ratios = []
    for ch in range(3):  # accelerometer axes
        p0 = band_power(log.values[ch, :1000], 100.0, 10.0)
        p1 = band_power(log.values[ch, 1000:], 100.0, 10.0)
        ratios.append(p0 / p1)
    assert min(ratios) >= 2.0


@pytest.mark.parametrize("kwargs", [
    dict(duration_s=5.0, class_segments=((0, 2.0), (1, 2.0))),   # sums to 4
    dict(duration_s=4.0, class_segments=((2, 4.0),)),            # bad class
    dict(duration_s=4.0, class_segments=()),                     # no segments
    dict(duration_s=-1.0, class_segments=((0, -1.0),)),          # negative
])
def test_synth_invalid_specs(kwargs):
    spec = data.SynthSpec(log_id="bad", seed=0, **kwargs)
    with pytest.raises(data.InvalidSpec):
        data.synth_generate(spec)


def test_synth_same_signatures_rejected():
    sig = data.DEFAULT_SIGNATURES[0]
    spec = data.SynthSpec(log_id="bad", seed=0, duration_s=2.0,
                          class_segments=((0, 1.0), (1, 1.0)),
                          signatures={0: sig, 1: sig})
    with pytest.raises(data.InvalidSpec):
        data.synth_generate(spec)


def test_default_suite_shape():
    specs = data.default_synth_suite(n_logs=4, seed=1, duration_s=12.0)
    assert len(specs) == 4
    for spec in specs:
        spec.validate()
        assert 2 <= len(spec.class_segments) <= 4
        classes = {c for c, _ in spec.class_segments}
        assert classes == {0, 1}


def test_default_suite_balance_is_roughly_even():
    specs = data.default_synth_suite(n_logs=12, seed=2, duration_s=30.0)
    share1 = sum(d for s in specs for c, d in s.class_segments if c == 1)
    total = sum(s.duration_s for s in specs)
    assert 0.35 < share1 / total < 0.65


# ---------------------------------------------------------------------------
# persistence


def test_dataset_roundtrip(tmp_path, small_log):
    ds = data.slide_windows(small_log, 100, 25)
    ds.split_tag = "train"
    data.save_dataset(ds, tmp_path, "train")
    back = data.load_dataset(tmp_path, "train")
    np.testing.assert_array_equal(back.windows, ds.windows)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.source_log_ids == ds.source_log_ids
    assert back.generation == ds.generation
    assert back.split_tag == "train"


def test_stats_roundtrip(tmp_path, small_log):
    ds = data.slide_windows(small_log, 100, 25)
    stats = data.fit_stats(ds)
    data.save_stats(stats, tmp_path / "stats.csv")
    lines = (tmp_path / "stats.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "channel,mean,std"
    rows = [line.split(",") for line in lines[1:]]
    assert tuple(r[0] for r in rows) == stats.channel_names
    np.testing.assert_array_equal([float(r[1]) for r in rows], stats.mean)
    np.testing.assert_array_equal([float(r[2]) for r in rows], stats.std)
