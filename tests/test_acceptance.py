"""Acceptance gate: ten end-of-build checks, one printed verdict line each.

Run with plain `pytest`; the verdict lines bypass capture so they show up
in any log.  Checks 7 and 8 share one full pipeline run (generate ->
prepare -> search -> evaluate -> select -> report, as
scripts/run_benchmark.py defines it) that takes many minutes, so
conftest.py runs them after every other test of the suite; everything
else is seconds.
"""

import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from conftest import flipout_grad_check, load_file
from uqtsc import cli, data, hpo, metrics, uq
from uqtsc.metrics import read_report_csv
from uqtsc.nncore import GRAD_CHECKED_KINDS, grad_check
from uqtsc.nncore.layers import Dense


def _verdict(capsys, num, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\ncriterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}{tail}")


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_c01_gradient_suite(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        for spec in GRAD_CHECKED_KINDS:
            worst = max(worst, grad_check(spec, seed=seed))
        worst = max(worst, flipout_grad_check(seed=seed))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 60.0
    _verdict(capsys, 1, "gradient suite", ok,
             f"max rel err {worst:.2e}, {elapsed:.1f} s, 20 seeds x "
             f"{len(GRAD_CHECKED_KINDS) + 1} layer kinds")
    assert worst < 1e-5
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. metric oracles


def _probs_from_conf(confs, preds):
    out = np.empty((len(confs), 2))
    for i, (c, p) in enumerate(zip(confs, preds)):
        out[i, p] = c
        out[i, 1 - p] = 1.0 - c
    return out


def test_c02_metric_oracles(capsys):
    ent = metrics.predictive_entropy(np.array([0.5, 0.5]))
    ent_ok = abs(ent - math.log(2.0)) <= 1e-12

    probs = _probs_from_conf([0.9, 0.9, 0.6, 0.6], [0, 0, 0, 0])
    labels = np.array([0, 0, 1, 0])
    ece4 = metrics.ece(probs, labels, k=4)
    ece4_ok = abs(ece4 - 0.1) <= 1e-12

    f1 = metrics.f1_and_accuracy(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]))
    f1_ok = (abs(f1.f1_cl0 - 0.6667) < 1e-4 and abs(f1.f1_cl1 - 0.8) < 1e-4
             and abs(f1.f1_weighted - 0.7333) < 1e-4
             and abs(f1.accuracy - 0.75) < 1e-4)

    rng = np.random.default_rng(2)
    conf = rng.uniform(0.5, 1.0, size=64)
    preds = rng.integers(0, 2, size=64)
    labs = rng.integers(0, 2, size=64)
    ece1 = metrics.ece(_probs_from_conf(conf, preds), labs, k=1)
    ece1_ok = ece1 == abs(float(np.mean(preds == labs)) - float(conf.mean()))

    ok = ent_ok and ece4_ok and f1_ok and ece1_ok
    _verdict(capsys, 2, "metric oracles", ok,
             f"entropy dev {abs(ent - math.log(2.0)):.1e}, K=4 ECE {ece4!r}, "
             f"K=1 exact {ece1_ok}")
    assert ent_ok and ece4_ok and f1_ok and ece1_ok


# ---------------------------------------------------------------------------
# 3. UQ degeneracy and unbiasedness


def test_c03_uq_degeneracy(capsys):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(64, 6))
    base = Dense(6, 4, rng)
    y_det = base.forward(x, mode="infer")

    drop0 = uq.MCDropout(0.0)
    d0_ok = np.allclose(drop0.forward(x, mode="mc_infer",
                                      rng=np.random.default_rng(0)),
                        x, atol=1e-12, rtol=0.0)

    dc0 = uq.DropConnectDense(base, 0.0)
    dc0_ok = np.allclose(dc0.forward(x, mode="mc_infer",
                                     rng=np.random.default_rng(0)),
                         y_det, atol=1e-12, rtol=0.0)

    fo = uq.FlipoutDense(Dense(6, 4, np.random.default_rng(4)))
    fo.rho_w.value = np.full_like(fo.rho_w.value, -1e9)  # softplus -> 0
    fo.rho_b.value = np.full_like(fo.rho_b.value, -1e9)
    mu_net = Dense(6, 4, np.random.default_rng(99))
    mu_net.w.value = fo.mu_w.value.copy()
    mu_net.b.value = fo.mu_b.value.copy()
    fo_ok = np.allclose(fo.forward(x, mode="mc_infer",
                                   rng=np.random.default_rng(0)),
                        mu_net.forward(x, mode="infer"), atol=1e-12, rtol=0.0)

    # masked-pass unbiasedness: the batch axis doubles as the draw axis for
    # per-activation masks; DropConnect masks weights so it loops draws
    n = 100_000
    xv = np.array([0.8, -1.2, 0.5, 2.0, -0.7, 1.1])
    drop = uq.MCDropout(0.3)
    draws = drop.forward(np.tile(xv, (n, 1)), mode="mc_infer",
                         rng=np.random.default_rng(5))
    drop_dev = float(np.max(np.abs(draws.mean(axis=0) - xv) / np.abs(xv)))

    dc = uq.DropConnectDense(base, 0.3)
    rng_dc = np.random.default_rng(6)
    acc = np.zeros(4)
    for _ in range(n):
        acc += dc.forward(xv[None, :], mode="mc_infer", rng=rng_dc)[0]
    y_ref = base.forward(xv[None, :], mode="infer")[0]
    dc_dev = float(np.max(np.abs(acc / n - y_ref) / np.abs(y_ref)))

    unbiased_ok = drop_dev < 0.01 and dc_dev < 0.01
    ok = d0_ok and dc0_ok and fo_ok and unbiased_ok
    _verdict(capsys, 3, "uq degeneracy", ok,
             f"rate-0/sigma-0 exact, mean dev dropout {drop_dev:.4f} "
             f"dropconnect {dc_dev:.4f} over 1e5 draws")
    assert d0_ok and dc0_ok and fo_ok
    assert drop_dev < 0.01
    assert dc_dev < 0.01


# ---------------------------------------------------------------------------
# 4. selection gate


def _report_stub(f1_cl0, f1_cl1, mean_entropy, ece_val=0.05):
    n = 4
    return metrics.EvalReport(
        mean_probs=np.full((n, 2), 0.5), entropy=np.full(n, mean_entropy),
        labels=np.zeros(n, dtype=int), preds=np.zeros(n, dtype=int),
        outcomes=["TN"] * n, accuracy=1.0, f1_cl0=f1_cl0, f1_cl1=f1_cl1,
        f1_weighted=(f1_cl0 + f1_cl1) / 2, mean_entropy=mean_entropy,
        ece=ece_val)


def test_c04_selection_gate(capsys):
    row24 = _report_stub(0.9942, 0.9814, 0.0142, ece_val=0.0532)
    boundary = _report_stub(0.9, 0.9, 0.1)
    part = metrics.select_candidates([row24, boundary])
    ok = part["select"] == [row24, boundary] and not part["reject"]
    _verdict(capsys, 4, "selection gate", ok,
             "row-24 aggregates and exact 0.9/0.1 boundaries both select")
    assert part["select"] == [row24, boundary]
    assert part["reject"] == []


# ---------------------------------------------------------------------------
# 5. scheduler accounting


def test_c05_scheduler_accounting(capsys):
    sched = hpo.hyperband_schedule(16, 50, 3)
    rungs = tuple(tuple(b.rungs) for b in sched.brackets)
    structure_ok = rungs == (((16, 3), (50, 1)), ((50, 2),))
    total = 20 * sched.total_epochs
    total_ok = total == 3960
    ok = structure_ok and total_ok
    _verdict(capsys, 5, "scheduler accounting", ok,
             f"brackets {rungs}, 20 iterations = {total} epochs")
    assert structure_ok
    assert total_ok


# ---------------------------------------------------------------------------
# 6. BOHB vs random at equal budget


TOY = hpo.ConfigSpace("fcn", (hpo.ParamSpec("dropout_rate"),))


def _toy_objective(config, budget_epochs, seed):
    loss = (config.dropout_rate - 0.3) ** 2
    return loss, 1.0 - loss


def test_c06_bohb_beats_random(capsys):
    t0 = time.perf_counter()
    budget = 20 * hpo.hyperband_schedule(16, 50, 3).total_epochs
    wins = 0
    for seed in range(50):
        _, ib = hpo.run_bohb(_toy_objective, TOY, iterations=20,
                             rng=np.random.default_rng((seed, 0xB0)),
                             seed_base=seed * 10_000)
        _, ir = hpo.run_random_search(_toy_objective, TOY, budget, 50,
                                      np.random.default_rng((seed, 0xAA)),
                                      seed_base=seed * 10_000)
        wins += ib.val_loss <= ir.val_loss
    elapsed = time.perf_counter() - t0
    ok = wins >= 35 and elapsed < 120.0
    _verdict(capsys, 6, "bohb vs random", ok,
             f"{wins}/50 paired seeds, {elapsed:.1f} s")
    assert wins >= 35
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 7 + 8 share one full pipeline run


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    script = load_file("scripts/run_benchmark.py")
    t0 = time.perf_counter()
    for argv in script.stages(script.parse_args(["--out", str(root)])):
        assert cli.main(argv) == 0, f"stage {argv[0]} failed"
    elapsed = time.perf_counter() - t0
    report = read_report_csv(root / "eval" / "report.csv")
    return SimpleNamespace(root=root, elapsed=elapsed, report=report)


def test_c07_benchmark(bench, capsys):
    rep = bench.report
    ok = (rep.f1_weighted >= 0.95 and rep.ece <= 0.1
          and bench.elapsed < 1800.0)
    _verdict(capsys, 7, "end-to-end benchmark", ok,
             f"wF1 {rep.f1_weighted:.4f}, ECE {rep.ece:.4f}, "
             f"n={len(rep)}, {bench.elapsed:.0f} s")
    assert rep.f1_weighted >= 0.95
    assert rep.ece <= 0.1
    assert bench.elapsed < 1800.0


def test_c08_entropy_vs_correctness(bench, capsys):
    rep = bench.report
    err = np.array([o in ("FP", "FN") for o in rep.outcomes])
    n_err = int(err.sum())
    detail = f"{n_err} genuine errors"
    if 0 < n_err:
        raw_p = stats.mannwhitneyu(rep.entropy[err], rep.entropy[~err],
                                   alternative="greater").pvalue
        detail += f", raw p {raw_p:.2e}"
    if n_err >= 5:
        p = raw_p
        means_ok = rep.entropy[err].mean() > rep.entropy[~err].mean()
    else:
        # Too few errors for the rank-sum: flip 5% of test labels and
        # re-check.  A single flip draw makes the verdict a lottery, so
        # aggregate 200 independent injections and judge the median; the
        # flipped samples carry typical entropy, which dilutes the signal
        # -- the printed raw p is the undiluted one.
        n_flip = max(1, round(0.05 * len(rep)))
        ps, gaps = [], []
        for ss in np.random.SeedSequence(0xACC).spawn(200):
            rng = np.random.default_rng(ss)
            labels = rep.labels.copy()
            labels[rng.choice(len(rep), size=n_flip, replace=False)] ^= 1
            err = rep.preds != labels
            ps.append(stats.mannwhitneyu(rep.entropy[err], rep.entropy[~err],
                                         alternative="greater").pvalue)
            gaps.append(rep.entropy[err].mean() - rep.entropy[~err].mean())
        p = float(np.median(ps))
        means_ok = float(np.median(gaps)) > 0.0
        detail += (f", {n_flip}-label-flip re-check median p {p:.4f}"
                   f" ({np.mean(np.array(ps) < 0.05):.0%} of draws < 0.05)")
    ok = means_ok and p < 0.05
    _verdict(capsys, 8, "entropy vs correctness", ok, detail)
    assert means_ok
    assert p < 0.05


# ---------------------------------------------------------------------------
# 9. windowing formula fuzz


def _make_log(length):
    names = tuple(f"c{i}" for i in range(6))
    return data.TimeSeriesLog(
        log_id=f"fuzz{length}", sample_rate_hz=100.0, channel_names=names,
        channel_groups=("imu",) * 6, values=np.zeros((6, length)),
        labels=np.zeros(length, dtype=int))


def test_c09_windowing_fuzz(capsys):
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(10_000):
        length = int(rng.integers(1, 300))
        w = int(rng.integers(1, 80))
        s = int(rng.integers(1, 2 * w + 1))
        brute = [t for t in range(length + 1)
                 if t % s == 0 and t + w <= length]
        ds = data.slide_windows(_make_log(length), w, s)
        assert list(ds.start_indices) == brute, (length, w, s)
        expect_n = (length - w) // s + 1 if length >= w else 0
        assert len(ds) == expect_n == len(brute), (length, w, s)
        checked += 1
    _verdict(capsys, 9, "windowing fuzz", True,
             f"{checked} random (L,w,s) cases match brute force")
    assert checked == 10_000


# ---------------------------------------------------------------------------
# 10. byte-identical reruns for every command


_MINI_CONFIG = """\
family = cnn
uq = mc_dropout
cnn_blocks = 1
f1 = 16
f2 = 16
f3 = 16
k1 = 4
k2 = 4
k3 = 4
max_pool = 2
lstm_layers = 1
u1 = 8
u2 = 8
u3 = 8
batch_size = 16
dropout_rate = 0.1
"""


def _tree(root: Path):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def _diff_dirs(orig: Path, dup: Path):
    """File-level diffs; run_config.txt is compared modulo its out path."""
    if _tree(orig) != _tree(dup):
        return ["<file lists differ>"]
    diffs = []
    for rel in _tree(orig):
        a = (orig / rel).read_bytes()
        b = (dup / rel).read_bytes()
        if rel.name == cli.RUN_CONFIG_NAME:
            strip = lambda raw: [ln for ln in raw.decode().splitlines()
                                 if not ln.startswith("out ")]
            if strip(a) != strip(b):
                diffs.append(str(rel))
        elif a != b:
            diffs.append(str(rel))
    return diffs


def test_c10_rerun_determinism(capsys, tmp_path):
    root = tmp_path
    stages = {
        "generate": ["generate", "--n-logs", "4", "--duration-s", "6.0",
                     "--seed", "11", "--out", str(root / "raw")],
        "prepare": ["prepare", "--manifest", str(root / "raw" / "manifest.txt"),
                    "--window", "64x32", "--channels", "imu", "--seed", "5",
                    "--out", str(root / "data")],
        "train": ["train", "--data", str(root / "data"), "--config",
                  str(root / "mini.cfg"), "--epochs", "2", "--seed", "3",
                  "--float32", "--out", str(root / "train")],
        "search": ["search", "--data", str(root / "data"), "--family", "cnn",
                   "--uq", "none", "--iterations", "1", "--min-budget", "2",
                   "--max-budget", "4", "--eta", "2", "--seed", "1",
                   "--out", str(root / "search")],
        "evaluate": ["evaluate", "--checkpoint",
                     str(root / "train" / "checkpoint.txt"),
                     "--data", str(root / "data"), "--split", "test",
                     "--samples", "5", "--seed", "2",
                     "--out", str(root / "eval")],
        "select": ["select", str(root / "eval" / "report.csv"),
                   "--out", str(root / "sel")],
        "report": ["report", str(root / "eval" / "report.csv"),
                   "--out", str(root / "plots")],
    }
    (root / "mini.cfg").write_text(_MINI_CONFIG)
    out_dirs = {"generate": "raw", "prepare": "data", "train": "train",
                "search": "search", "evaluate": "eval", "select": "sel",
                "report": "plots"}
    for name, argv in stages.items():
        assert cli.main(argv) == 0, f"{name} failed"
    bad = {}
    for name, sub in out_dirs.items():
        orig = root / sub
        dup = root / f"{sub}_rerun"
        rc = cli.main(["rerun", str(orig / cli.RUN_CONFIG_NAME),
                       "--out", str(dup)])
        assert rc == 0, f"rerun {name} failed"
        diffs = _diff_dirs(orig, dup)
        if diffs:
            bad[name] = diffs
    ok = not bad
    _verdict(capsys, 10, "rerun determinism", ok,
             "all 7 command outputs byte-identical via rerun" if ok
             else f"diffs: {bad}")
    assert not bad
