"""Command pipeline on a miniature synthetic corpus."""

import hashlib
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


# SHA-256 of every file `generate --n-logs 2 --duration-s 6 --seed 3` writes
# except run_config.txt: the log format and the generator's stream, pinned.
GENERATE_SHA256 = {
    "manifest.txt":
        "fce8c35e946b8fe4e9a85718c62fd8a60e8db8d79be6ace7e69d0258c80619d8",
    "synthlog000.csv":
        "e31aa1b3d355524dae01d37805ea8f2fb4cfd2e3aa31371587fb2ef94714ac43",
    "synthlog001.csv":
        "4d93e216f66bf5fb10c59b1b45cd0e4f37552edddaf58e4b8a0828b47ce45c42",
}


def test_generate_bytes_pinned(tmp_path):
    out = tmp_path / "g"
    assert run("generate", "--n-logs", "2", "--duration-s", "6",
               "--seed", "3", "--out", out) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir() if p.name != cli.RUN_CONFIG_NAME}
    assert got == GENERATE_SHA256


# SHA-256 of every file `prepare` writes, except run_config.txt, from the
# four logs of `generate --n-logs 4 --duration-s 6 --seed 3`, with idle
# stretches trimmed and tie-labeled windows discarded in both modes: the
# window cutters, the split, the statistics and the dataset format, pinned.
PREPARE_ARGS = {
    "window": ["--window", "48x6", "--channels", "fused"],
    "subsample": ["--subsample", "5", "--target-length", "20",
                  "--channels", "imu"],
}
PREPARE_SHA256 = {
    "window": {
        "stats.csv":
            "b53b15dd048fa3c8dc1427472a7c5594c89dfab6e7466dab783fc4f49d8be648",
        "summary.txt":
            "bb26e49606144102aa7c87b1015bc40f6717bfdc6c16677eef7ecc25111fc40a",
        "test_info.txt":
            "3227c1123a50e06f2e14fdeb0611a45f93842c22691038442c24183d3df3e09c",
        "test_labels.npy":
            "33705251a4c387113177048c247f684e26385251dcd756c53ac4955f3e8ab3a9",
        "test_sources.csv":
            "5050f84e78069012e28cb19cac03798884109b672c5536785e86e17d3cb1c7bd",
        "test_windows.npy":
            "c2addf808ca4897d0dd52fa7d1830c961455429f8b868ec7ba9294b30a515a9b",
        "train_info.txt":
            "5fb42f4f7765cb427c7b9d5bc1a79be3251c7354e3a675562822a101359d8d56",
        "train_labels.npy":
            "72599ff40e630678dbe5c062176c6964df0b102fdf06af6673e4766c5a9ddadc",
        "train_sources.csv":
            "ae242ae4cd0110d24e7fe61184de6091ac5910af9c345b6b14d8190ec662a960",
        "train_windows.npy":
            "fd3f0ae45ca0699d78c536a21937efe88fbab915e87b0c7bc2f583e646d08f85",
        "val_info.txt":
            "df497dd40346b36893b8b8c4fca1b17b6b45fa40f4cc4a863cc5018781ea645b",
        "val_labels.npy":
            "af1593a04b211163c9d137a62a80da8ee40665aa828a862ddd32a5cb31eec628",
        "val_sources.csv":
            "7114d13179a7c05538d3e456cdd7beda964fdfc30bb9c21434385cf5548061d7",
        "val_windows.npy":
            "a65749efd880a9e18f9d1174eba29c3fdfd32abf67d3f2bb167256a7d8022992",
    },
    "subsample": {
        "stats.csv":
            "a64b7f9c0e7c625a6f72d0df3bc72ef0eac3936d9ecd8170954a788dc031421d",
        "summary.txt":
            "30c0dc9550a895426475ad09293d62e6d77c2810a203dc1172931f41aa02a629",
        "test_info.txt":
            "b98b89e272ee1506a5f5158b690c3d331b70e47de4e052480ae745b278d7db14",
        "test_labels.npy":
            "359b8a68caf76304010857f0cdcb406dbe74a87cc68748f15765e525be168085",
        "test_sources.csv":
            "6fd8f679df3474a062d2c8daeb7c647d40ebb797f4327b59b4246482d07e372f",
        "test_windows.npy":
            "e66ca7da8fe0f2eec24ab3af876e6ada828b3d11dbe3ba50327bea30e25181c0",
        "train_info.txt":
            "dc444b0ada3a00b16203995719f5277ccfa4e4162ca55ce12944652202da2a52",
        "train_labels.npy":
            "e74e39e6c94373c93eb0e57d99839f49c92546ac50905d205fb3927edad83e00",
        "train_sources.csv":
            "c228a1633d30f25ccd758b56cadca620b06a9c1be46f7e9ee566c1b473eac3e8",
        "train_windows.npy":
            "0909758dee5a5ce604c8747e905b66d804a4c8e468d301f2196e8cd6f959b4c3",
        "val_info.txt":
            "52a75bae9e2ac60455800c503d38669b0ef1add997208a05c2fd01ed481bb517",
        "val_labels.npy":
            "9c52e82735a979f32d670280252addafd7f121b6a13bae688141892948d65834",
        "val_sources.csv":
            "01caa218fc27010963979679a56be8025f6328847489fb5701f60b8521f95b38",
        "val_windows.npy":
            "d8d2f66bb334e5899eb53b23c107991e3d2c6c65be41a7e8068a39dd06ec3cb9",
    },
}


@pytest.mark.parametrize("mode", PREPARE_ARGS)
def test_prepare_bytes_pinned(tmp_path, mode):
    logs, out = tmp_path / "g", tmp_path / "p"
    assert run("generate", "--n-logs", "4", "--duration-s", "6",
               "--seed", "3", "--out", logs) == 0
    assert run("prepare", "--manifest", logs / "manifest.txt",
               *PREPARE_ARGS[mode], "--speed-threshold", "0.3",
               "--seed", "2", "--out", out) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir()) if p.name != cli.RUN_CONFIG_NAME}
    assert got == PREPARE_SHA256[mode]


def test_generate_spec_file_and_zero_duration(tmp_path):
    # generation takes flags only; a spec file is a usage error
    spec = tmp_path / "gen.txt"
    spec.write_text("n_logs = 3\nseed = 4\nduration_s = 5.0\n")
    with pytest.raises(SystemExit) as exc:
        run("generate", "--spec", spec, "--out", tmp_path / "spec")
    assert exc.value.code == 2
    assert not (tmp_path / "spec").exists()

    assert run("generate", "--duration-s", "0", "--out", tmp_path / "bad") == 1


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


def test_prepare_target_length_needs_subsample(mini, tmp_path, capsys):
    manifest = mini / "logs" / "manifest.txt"
    assert run("prepare", "--manifest", manifest, "--window", "100x50",
               "--target-length", "50", "--out", tmp_path / "x") == 1
    assert "--target-length needs --subsample" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def test_search_workers_match_serial(tmp_path):
    """Threaded searches save the trials and incumbent of a serial one."""
    logs, prep = tmp_path / "logs", tmp_path / "prep"
    assert run("generate", "--n-logs", "4", "--seed", "11", "--duration-s",
               "6.0", "--out", logs) == 0
    assert run("prepare", "--manifest", logs / "manifest.txt", "--window",
               "64x32", "--channels", "imu", "--out", prep) == 0
    saved = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert run("search", "--data", prep, "--uq", "mc_dropout",
                   "--iterations", "2", "--min-budget", "1", "--max-budget",
                   "3", "--eta", "3", "--workers", workers, "--seed", "4",
                   "--out", out) == 0
        saved.append([(out / name).read_bytes()
                      for name in ("trials.csv", "incumbent.txt")])
    assert saved[1] == saved[0] and saved[2] == saved[0]


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
    # a search gives trial t the seed seed_base + t: here seed_base 10
    trials = [hpo._evaluate(objective, cfg, 4, seed, seed - 10, 0, 0)
              for seed in (12, 11)]
    assert [(t.val_loss, t.val_wf1) for t in trials] == [(0.25, 0.9)] * 2
    assert objective.best_net is nets[11]
    assert hpo.incumbent_of(trials, 4).trial_id == 1


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


# The exact run_config.txt of each command variant.  Arguments are split on
# spaces; {mini} stands for the shared fixture root and {tmp} for the test's
# own directory, which is also the working directory, so relative paths
# show which values are resolved and which are written as given.
RUN_CONFIG_CASES = {
    "generate_flags": (
        "generate --n-logs 2 --seed 11 --duration-s 6.0 --class-balance 0.25"
        " --out {tmp}/out/",
        "command = generate\n"
        "n_logs = 2\n"
        "seed = 11\n"
        "duration_s = 6.0\n"
        "class_balance = 0.25\n"
        "out = {tmp}/out\n"),
    "generate_defaults": (
        "generate --out out",
        "command = generate\n"
        "n_logs = 20\n"
        "seed = 7\n"
        "duration_s = 30.0\n"
        "class_balance = 0.5\n"
        "out = out\n"),
    "prepare_window": (
        "prepare --manifest {mini}/logs/manifest.txt --window 64x32"
        " --channels imu --seed 5 --out out",
        "command = prepare\n"
        "manifest = {mini}/logs/manifest.txt\n"
        "window = 64x32\n"
        "channels = imu\n"
        "test_fraction = 0.3\n"
        "val_fraction = 0.2\n"
        "speed_threshold = 0.05\n"
        "min_gap = 1.0\n"
        "seed = 5\n"
        "out = out\n"),
    "prepare_subsample": (
        "prepare --manifest {mini}/logs/manifest.txt --subsample 4"
        " --target-length 32 --out out",
        "command = prepare\n"
        "manifest = {mini}/logs/manifest.txt\n"
        "subsample = 4\n"
        "target_length = 32\n"
        "channels = fused\n"
        "test_fraction = 0.3\n"
        "val_fraction = 0.2\n"
        "speed_threshold = 0.05\n"
        "min_gap = 1.0\n"
        "seed = 0\n"
        "out = out\n"),
    "prepare_subsample_default_target": (
        "prepare --manifest {mini}/logs/manifest.txt --subsample 4 --out out",
        "command = prepare\n"
        "manifest = {mini}/logs/manifest.txt\n"
        "subsample = 4\n"
        "target_length = 125\n"
        "channels = fused\n"
        "test_fraction = 0.3\n"
        "val_fraction = 0.2\n"
        "speed_threshold = 0.05\n"
        "min_gap = 1.0\n"
        "seed = 0\n"
        "out = out\n"),
    "prepare_window_gap": (
        "prepare --manifest {mini}/logs/manifest.txt --window 100x50"
        " --test-fraction 0.25 --min-gap 0.5 --out out",
        "command = prepare\n"
        "manifest = {mini}/logs/manifest.txt\n"
        "window = 100x50\n"
        "channels = fused\n"
        "test_fraction = 0.25\n"
        "val_fraction = 0.2\n"
        "speed_threshold = 0.05\n"
        "min_gap = 0.5\n"
        "seed = 0\n"
        "out = out\n"),
    "train_float32": (
        "train --data {mini}/prep --config {mini}/model.txt --epochs 1"
        " --seed 3 --float32 --out out",
        "command = train\n"
        "data = {mini}/prep\n"
        "config = {mini}/model.txt\n"
        "epochs = 1\n"
        "seed = 3\n"
        "float32 = true\n"
        "out = out\n"),
    "train_float64": (
        "train --data {mini}/prep --config {mini}/model.txt --epochs 1"
        " --out out",
        "command = train\n"
        "data = {mini}/prep\n"
        "config = {mini}/model.txt\n"
        "epochs = 1\n"
        "seed = 0\n"
        "float32 = false\n"
        "out = out\n"),
    "search": (
        "search --data {mini}/prep --iterations 1 --min-budget 1"
        " --max-budget 2 --eta 2 --no-float32 --random-fraction 0.5"
        " --seed 1 --out out",
        "command = search\n"
        "data = {mini}/prep\n"
        "family = cnn\n"
        "uq = none\n"
        "iterations = 1\n"
        "min_budget = 1\n"
        "max_budget = 2\n"
        "eta = 2\n"
        "random_fraction = 0.5\n"
        "workers = 1\n"
        "seed = 1\n"
        "float32 = false\n"
        "out = out\n"),
    "evaluate": (
        "evaluate --checkpoint {mini}/trained/checkpoint.txt --data"
        " {mini}/prep --split val --samples 2 --bins 5 --seed 2 --out out",
        "command = evaluate\n"
        "checkpoint = {mini}/trained/checkpoint.txt\n"
        "data = {mini}/prep\n"
        "split = val\n"
        "samples = 2\n"
        "bins = 5\n"
        "seed = 2\n"
        "out = out\n"),
    "select": (
        "select a.csv b.csv --out out",
        "command = select\n"
        "reports = {tmp}/a.csv,{tmp}/b.csv\n"
        "out = out\n"),
    "report": (
        "report {mini}/evald/report.csv --out out",
        "command = report\n"
        "reports = {mini}/evald/report.csv\n"
        "out = out\n"),
}


@pytest.mark.parametrize("case", RUN_CONFIG_CASES)
def test_run_config_bytes(case, mini, tmp_path, monkeypatch):
    argv, expected = RUN_CONFIG_CASES[case]
    monkeypatch.chdir(tmp_path)
    _handmade_report(tmp_path / "a.csv", 0.95, 0.95, 0.3, 0.05)
    _handmade_report(tmp_path / "b.csv", 0.85, 0.95, 0.02, 0.05)
    assert run(*argv.format(mini=mini, tmp=tmp_path).split()) == 0
    text = (tmp_path / "out" / cli.RUN_CONFIG_NAME).read_text()
    for root, name in ((mini, "{mini}"), (tmp_path, "{tmp}")):
        text = text.replace(str(root.resolve()), name)
    assert text == expected


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
