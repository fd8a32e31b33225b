"""Command pipeline on a miniature synthetic corpus."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from uqtsc import arch, cli, data, hpo, metrics, training

GEN_ARGS = ["--n-logs", "6", "--seed", "11", "--duration-s", "6.0"]
MODEL_CONFIG = """\
family = cnn
uq = mc_dropout
cnn_blocks = 1
f1 = 16
k1 = 4
max_pool = 2
batch_size = 16
dropout_rate = 0.1
"""


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="session")
def mini(tmp_path_factory):
    """generate -> prepare once; commands under test reuse the artifacts."""
    root = tmp_path_factory.mktemp("mini")
    logs = root / "logs"
    prep = root / "prep"
    assert run("generate", *GEN_ARGS, "--out", logs) == 0
    assert run("prepare", "--manifest", logs / "manifest.txt",
               "--window", "64x32", "--channels", "imu",
               "--seed", "5", "--out", prep) == 0
    cfg = root / "model.txt"
    cfg.write_text(MODEL_CONFIG)
    trained = root / "trained"
    assert run("train", "--data", prep, "--config", cfg, "--epochs", "4",
               "--seed", "3", "--float32", "--out", trained) == 0
    evald = root / "evald"
    assert run("evaluate", "--checkpoint", trained / "checkpoint.txt",
               "--data", prep, "--samples", "10", "--seed", "2",
               "--out", evald) == 0
    return root


# ---------------------------------------------------------------------------
# generate


def test_generate_manifest_roundtrip(mini):
    manifest = mini / "logs" / "manifest.txt"
    paths = data.read_manifest(manifest)
    assert len(paths) == 6
    for p in paths:
        log = data.load_log(p)
        assert log.length == 600
        assert set(np.unique(log.labels)) <= {0, 1}


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("generate", *GEN_ARGS, "--out", a) == 0
    assert run("generate", *GEN_ARGS, "--out", b) == 0
    for name in ["manifest.txt"] + [f"synthlog{k:03d}.csv" for k in range(6)]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_spec_file_and_zero_duration(tmp_path):
    spec = tmp_path / "gen.txt"
    spec.write_text("n_logs = 3\nseed = 4\nduration_s = 5.0\n")
    assert run("generate", "--spec", spec, "--out", tmp_path / "ok") == 0
    assert len(data.read_manifest(tmp_path / "ok" / "manifest.txt")) == 3

    spec.write_text("duration_s = 0.0\n")
    assert run("generate", "--spec", spec, "--out", tmp_path / "bad") == 1

    spec.write_text("volume = 11\n")
    assert run("generate", "--spec", spec, "--out", tmp_path / "bad2") == 1


# ---------------------------------------------------------------------------
# prepare


def _brute_window_count(log, w, s):
    count = 0
    for start in range(0, log.length - w + 1, s):
        seg = log.labels[start:start + w]
        if np.sum(seg == 1) != np.sum(seg == 0):
            count += 1
    return count


def test_prepare_counts_match_formula(mini):
    lines = (mini / "prep" / "summary.txt").read_text().splitlines()[1:]
    totals = sum(int(ln.split(",")[2]) for ln in lines)
    expect = 0
    for p in data.read_manifest(mini / "logs" / "manifest.txt"):
        log = data.select_channels(data.load_log(p), "imu")
        expect += _brute_window_count(log, 64, 32)
    assert totals == expect


def test_prepare_splits_disjoint_sources(mini):
    seen = {}
    for split in ("train", "val", "test"):
        ds = data.load_dataset(mini / "prep", split)
        for sid in set(ds.source_log_ids):
            assert seen.setdefault(sid, split) == split


def test_prepare_imu_mode_channels(mini):
    ds = data.load_dataset(mini / "prep", "train")
    assert ds.n_channels == 6
    assert set(ds.channel_groups) == {"imu"}


def test_prepare_requires_one_windowing_mode(mini, tmp_path):
    manifest = mini / "logs" / "manifest.txt"
    assert run("prepare", "--manifest", manifest,
               "--out", tmp_path / "x") == 1
    assert run("prepare", "--manifest", manifest, "--window", "64x32",
               "--subsample", "4", "--out", tmp_path / "y") == 1


# ---------------------------------------------------------------------------
# train


def test_train_outputs(mini):
    out = mini / "trained"
    lines = (out / "training_log.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_wF1"
    assert len(lines) == 5
    assert (out / "checkpoint.txt").exists()
    assert (out / "run_config.txt").exists()


def test_train_deterministic(mini, tmp_path):
    logs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert run("train", "--data", mini / "prep",
                   "--config", mini / "model.txt", "--epochs", "2",
                   "--seed", "9", "--out", out) == 0
        logs.append((out / "training_log.csv").read_bytes())
    assert logs[0] == logs[1]


def test_train_flipout_kl_column(mini, tmp_path):
    cfg = tmp_path / "flip.txt"
    cfg.write_text(MODEL_CONFIG.replace("uq = mc_dropout", "uq = flipout"))
    out = tmp_path / "flip"
    assert run("train", "--data", mini / "prep", "--config", cfg,
               "--epochs", "2", "--float32", "--out", out) == 0
    header = (out / "training_log.csv").read_text().splitlines()[0]
    assert header == "epoch,train_loss,val_loss,val_wF1,kl"


def test_train_rejects_bad_config(mini, tmp_path):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("family = cnn\nwarp = 9\n")
    assert run("train", "--data", mini / "prep", "--config", cfg,
               "--epochs", "1", "--out", tmp_path / "o") == 1
    cfg.write_text("family = cnn\ncnn_blocks = 7\n")
    assert run("train", "--data", mini / "prep", "--config", cfg,
               "--epochs", "1", "--out", tmp_path / "o2") == 1
    cfg.write_text("uq = none\ncnn_blocks = 2\n")   # family is required
    assert run("train", "--data", mini / "prep", "--config", cfg,
               "--epochs", "1", "--out", tmp_path / "o3") == 1


# ---------------------------------------------------------------------------
# search


def test_search_trial_rows_match_schedule(mini, tmp_path):
    out = tmp_path / "srch"
    assert run("search", "--data", mini / "prep", "--family", "cnn",
               "--iterations", "2", "--min-budget", "2", "--max-budget", "4",
               "--eta", "2", "--seed", "1", "--out", out) == 0
    rows = (out / "trials.csv").read_text().splitlines()[1:]
    # (2,4,eta 2): bracket s=1 is 2@2 -> 1@4, bracket s=0 is 2@4; x2 cycles
    assert len(rows) == 2 * 5
    assert (out / "incumbent.txt").exists()


def test_search_rerun_identical_csv(mini, tmp_path):
    outs = []
    for sub in ("s1", "s2"):
        out = tmp_path / sub
        assert run("search", "--data", mini / "prep", "--iterations", "1",
                   "--min-budget", "2", "--max-budget", "4", "--eta", "2",
                   "--seed", "6", "--out", out) == 0
        outs.append((out / "trials.csv").read_bytes())
    assert outs[0] == outs[1]


def test_objective_tie_keeps_lower_seed(monkeypatch):
    """Tied full-budget losses finishing in reverse seed order (as threads
    may) keep the lower-seed net, the same trial hpo.incumbent_of reports."""
    nets = {}

    def tied_train(net, *args, seed, **kwargs):
        nets[seed] = net
        return [training.EpochStats(0, 0.5, 0.25, 0.9)]

    monkeypatch.setattr(training, "train_network", tied_train)
    ds = SimpleNamespace(windows=np.zeros((4, 6, 16)), labels=np.zeros(4),
                         n_channels=6, window_length=16)
    objective = cli._TrainObjective(ds, ds, max_budget=4, dtype=None)
    cfg = arch.ModelConfig(family="cnn")
    recs = [objective(cfg, 4, seed) for seed in (12, 11)]
    assert objective.best_net is nets[11]
    trials = [replace(r, trial_id=r.seed - 10) for r in recs]
    assert hpo.incumbent_of(trials, 4).seed == 11


def test_search_empty_data_dir_clean_error(tmp_path, capsys):
    out = tmp_path / "never"
    assert run("search", "--data", tmp_path / "nope", "--out", out) == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_report_schema(mini):
    rep = metrics.read_report_csv(mini / "evald" / "report.csv")
    test_ds = data.load_dataset(mini / "prep", "test")
    assert len(rep) == len(test_ds)
    assert rep.meta["uq"] == "mc_dropout"
    assert rep.meta["split"] == "test"


def test_evaluate_aggregates_recompute_from_rows(mini):
    # replay the footer from the per-sample rows, like an external script
    lines = (mini / "evald" / "report.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    aggs = {ln.split(",")[1]: float(ln.split(",")[2])
            for ln in lines[1:] if ln.startswith("#agg,")}
    preds = np.array([int(r[5]) for r in rows])
    labels = np.array([int(r[4]) for r in rows])
    ent = np.array([float(r[3]) for r in rows])
    assert aggs["accuracy"] == pytest.approx(np.mean(preds == labels), abs=1e-9)
    assert aggs["mean_entropy"] == pytest.approx(ent.mean(), abs=1e-9)
    from uqtsc.metrics import f1_and_accuracy
    f1 = f1_and_accuracy(preds, labels)
    assert aggs["f1_weighted"] == pytest.approx(f1.f1_weighted, abs=1e-9)


def test_evaluate_uq_off_entropy_single_pass(mini, tmp_path):
    cfg = tmp_path / "plain.txt"
    cfg.write_text(MODEL_CONFIG.replace("uq = mc_dropout", "uq = none"))
    trained = tmp_path / "plain_train"
    assert run("train", "--data", mini / "prep", "--config", cfg,
               "--epochs", "2", "--out", trained) == 0
    reps = []
    for m, sub in (("10", "m10"), ("1", "m1")):
        out = tmp_path / sub
        assert run("evaluate", "--checkpoint", trained / "checkpoint.txt",
                   "--data", mini / "prep", "--samples", m,
                   "--out", out) == 0
        reps.append(metrics.read_report_csv(out / "report.csv"))
    # averaging M identical rows can wobble the last ulp of the mean
    np.testing.assert_allclose(reps[0].entropy, reps[1].entropy, atol=1e-12)
    np.testing.assert_allclose(reps[0].mean_probs, reps[1].mean_probs,
                               atol=1e-12)


def test_evaluate_channel_mismatch(mini, tmp_path, capsys):
    fused = tmp_path / "fused"
    assert run("prepare", "--manifest", mini / "logs" / "manifest.txt",
               "--window", "64x32", "--channels", "fused",
               "--seed", "5", "--out", fused) == 0
    assert run("evaluate", "--checkpoint",
               mini / "trained" / "checkpoint.txt", "--data", fused,
               "--out", tmp_path / "no") == 1
    assert "6 ch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# select


def _handmade_report(path, f1_cl0, f1_cl1, mean_entropy, ece):
    n = 4
    rep = metrics.EvalReport(
        mean_probs=np.full((n, 2), 0.5), entropy=np.full(n, mean_entropy),
        labels=np.zeros(n, dtype=int), preds=np.zeros(n, dtype=int),
        outcomes=["TN"] * n, accuracy=1.0, f1_cl0=f1_cl0, f1_cl1=f1_cl1,
        f1_weighted=(f1_cl0 + f1_cl1) / 2, mean_entropy=mean_entropy,
        ece=ece, meta={"uq": "mc_dropout", "family": "cnn_lstm"})
    metrics.write_report_csv(rep, path)


def test_select_passing_report(mini, tmp_path):
    rp = tmp_path / "row24.csv"
    _handmade_report(rp, 0.9942, 0.9814, 0.0142, 0.0532)
    out = tmp_path / "sel"
    assert run("select", rp, "--out", out) == 0
    lines = (out / "selection.csv").read_text().splitlines()
    assert lines[1].startswith("select,mc_dropout,cnn_lstm,0.0142,0.0532,")


def test_select_sorts_by_entropy(mini, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _handmade_report(a, 0.95, 0.95, 0.3, 0.05)
    _handmade_report(b, 0.85, 0.95, 0.02, 0.05)
    out = tmp_path / "sel2"
    assert run("select", a, b, "--out", out) == 0
    lines = (out / "selection.csv").read_text().splitlines()
    assert lines[1].startswith("reject,") and "0.02" in lines[1]
    assert lines[2].startswith("reject,") and "0.3" in lines[2]


def test_select_malformed_report(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("sample_id,p0,p1,entropy,label,pred,outcome\n"
                   "0,0.9,0.1,0.3,0,0,TN\n")
    assert run("select", bad, "--out", tmp_path / "sel3") == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report


def test_report_files_and_determinism(mini, tmp_path):
    rep_csv = mini / "evald" / "report.csv"
    outs = []
    for sub in ("p1", "p2"):
        out = tmp_path / sub
        assert run("report", rep_csv, "--out", out) == 0
        blobs = {}
        for name in ("reliability.svg", "ece_by_uq.svg", "entropy_by_uq.svg",
                     "entropy_outcomes.svg", "summary.csv"):
            assert (out / name).exists()
            blobs[name] = (out / name).read_bytes()
        outs.append(blobs)
    assert outs[0] == outs[1]


def test_report_scatter_point_count(mini, tmp_path):
    out = tmp_path / "plots"
    assert run("report", mini / "evald" / "report.csv", "--out", out) == 0
    svg = (out / "entropy_outcomes.svg").read_text()
    n = len(data.load_dataset(mini / "prep", "test"))
    assert svg.count("<circle") == n


# ---------------------------------------------------------------------------
# rerun


def test_rerun_prepare_byte_identical(mini, tmp_path):
    out = tmp_path / "prep2"
    assert run("rerun", mini / "prep" / "run_config.txt", "--out", out) == 0
    for name in ("train_windows.npy", "test_labels.npy", "summary.txt",
                 "stats.csv"):
        assert (out / name).read_bytes() == (mini / "prep" / name).read_bytes()


def test_rerun_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "rc.txt"
    cfg.write_text("command = generate\nvolume = 11\nout = x\n")
    assert run("rerun", cfg) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_rerun_rejects_unknown_command(tmp_path):
    cfg = tmp_path / "rc.txt"
    cfg.write_text("command = destroy\nout = x\n")
    assert run("rerun", cfg) == 1
