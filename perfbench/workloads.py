"""The benchmark workloads, their sizes and their correctness checks.

Every workload runs in three steps:
  * `setup()` makes the inputs of the timed phase: the c07-shaped dataset
    (`generate` with the workload seed, then `prepare --window 400x100
    --channels imu`) and, for posterior_eval, two trained checkpoints;
  * `run_rep()` is one timed repetition, made only of public CLI stages
    and library calls, each waited for before the next starts;
  * `inspect()` runs after the clock stops: it checks the outputs, hashes
    the deterministic artifacts and counts the work done.

The workload seed only changes the synthetic sensor data.  Everything
else -- model configs, search seed, split seed, posterior seeds -- is part
of the workload, so every seed trains and samples the same architectures
and the run-to-run spread stays small.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Scale:
    gen_args: tuple  # extra `generate` flags for the set-up dataset
    window: str
    search_args: tuple
    mcd_config: dict
    flip_config: dict
    train_epochs: int
    samples: int
    prep_logs: int
    prep_duration_s: float
    prep_window: str
    target_length: int
    floors: bool  # quality floors only mean something at full size


# Search: one Hyperband iteration, eta 2, budgets 1 -> 2 epochs: bracket
# s=1 trains 2 configs for 1 epoch and promotes one to 2 epochs, bracket
# s=0 trains 2 configs for 2 epochs (5 trials, 8 epochs).  The search seed
# is fixed, so every workload seed trains the same four proposals; the two
# competing for promotion cost within 25% of each other, so which one the
# data promotes moves the search time by about 1%.
_SEARCH = ("--iterations", "1", "--min-budget", "1", "--max-budget", "2",
           "--eta", "2", "--seed", "1")

FULL = Scale(
    gen_args=(),
    window="400x100",
    search_args=_SEARCH,
    mcd_config=dict(family="cnn", uq="mc_dropout", cnn_blocks=2, f1=64,
                    f2=64, k1=8, k2=8, max_pool=4, batch_size=32,
                    dropout_rate=0.25),
    flip_config=dict(family="cnn_lstm", uq="flipout", cnn_blocks=2, f1=32,
                     f2=32, k1=8, k2=8, max_pool=8, lstm_layers=1, u1=32,
                     batch_size=32, dropout_rate=0.0),
    train_epochs=3,
    samples=10,
    prep_logs=32,
    prep_duration_s=20.0,
    prep_window="400x100",
    target_length=125,
    floors=True,
)

# c10-sized: every stage and check runs, in seconds
TINY = Scale(
    gen_args=("--n-logs", "4", "--duration-s", "6.0"),
    window="64x32",
    search_args=_SEARCH,
    mcd_config=dict(family="cnn", uq="mc_dropout", cnn_blocks=1, f1=16,
                    k1=4, max_pool=2, batch_size=16, dropout_rate=0.1),
    flip_config=dict(family="cnn_lstm", uq="flipout", cnn_blocks=1, f1=16,
                     k1=4, max_pool=2, lstm_layers=1, u1=8, batch_size=16,
                     dropout_rate=0.0),
    train_epochs=1,
    samples=3,
    prep_logs=4,
    prep_duration_s=6.0,
    prep_window="64x32",
    target_length=32,
    floors=False,
)

SCALES = {"full": FULL, "tiny": TINY}

# Quality floors, met with margin at every seed tried on the parent
# commit.  They are checked, not compared between commits: a legitimate
# numerics change (say, real float32) moves them by seed noise.
INCUMBENT_VAL_WF1_MIN = 0.80
TEST_WF1_MIN = 0.85
TEST_ECE_MAX = 0.15
ONLINE_AGREEMENT_MIN = 0.90  # online vs batch argmax, same checkpoint

SPLITS = ("train", "val", "test")


class Ledger:
    """Operations attempted and failed, and the problems behind failures.

    Operations are CLI stage invocations, search trials and online
    posterior calls; a failed correctness check counts as one failed
    operation.
    """

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def stage(self, *argv) -> bool:
        self.attempted += 1
        argv = [str(a) for a in argv]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = "exception"
        return self.check(rc == 0, f"stage {argv[0]} exited with {rc}")

    def check(self, ok, what: str) -> bool:
        if not ok:
            self.failed += 1
            self.problems.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)


@dataclass
class Rep:
    """What one timed repetition did, measured after the clock stopped."""

    wall_s: float
    items: int  # units of work: train windows, posterior passes, log rows
    busy_s: float  # the time those items took
    digest: dict
    latencies_ms: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_dir(root: Path, names=None) -> dict:
    """Hashes of the deterministic files under root (run_config.txt,
    which records the output path, is left out)."""
    files = sorted(p for p in root.rglob("*") if p.is_file()
                   and p.name != "run_config.txt")
    return {str(p.relative_to(root.parent)): sha256(p) for p in files
            if names is None or p.name in names}


def _rmtree(*paths: Path):
    for p in paths:
        shutil.rmtree(p, ignore_errors=True)


class Workload:
    name = ""
    item_name = ""  # end-to-end name of items / busy_s

    def __init__(self, uqtsc: dict, scale: Scale, seed: int, work: Path,
                 ledger: Ledger):
        self.u = uqtsc
        self.scale = scale
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.raw = work / "raw"
        self.data = work / "data"

    # -- set-up ---------------------------------------------------------------

    def clean_setup(self):
        _rmtree(self.raw, self.data)

    def setup(self):
        st = self.ledger.stage
        st("generate", *self.scale.gen_args, "--seed", self.seed,
           "--out", self.raw)
        st("prepare", "--manifest", self.raw / "manifest.txt",
           "--window", self.scale.window, "--channels", "imu",
           "--out", self.data)

    def setup_digest(self) -> dict:
        return {**digest_dir(self.raw), **digest_dir(self.data)}

    # -- timed repetitions ------------------------------------------------------

    def clean_rep(self):
        raise NotImplementedError

    def run_rep(self) -> dict:
        """One timed repetition; returns timings taken inside it."""
        raise NotImplementedError

    def inspect(self, wall_s: float, timings: dict) -> Rep:
        raise NotImplementedError


class SearchWorkload(Workload):
    name = "search_cnn_mcd"
    item_name = "train_windows_per_s"

    def __init__(self, *args):
        super().__init__(*args)
        self.out = self.work / "search"

    def clean_rep(self):
        _rmtree(self.out)

    def run_rep(self) -> dict:
        self.ledger.stage("search", "--data", self.data, "--family", "cnn",
                          "--uq", "mc_dropout", *self.scale.search_args,
                          "--workers", "1", "--out", self.out)
        return {}

    def _schedule(self):
        args = dict(zip(self.scale.search_args[::2],
                        self.scale.search_args[1::2]))
        sched = self.u["hpo"].hyperband_schedule(
            int(args["--min-budget"]), int(args["--max-budget"]),
            int(args["--eta"]))
        per_iter = sum(n for b in sched.brackets for _, n in b.rungs)
        return int(args["--iterations"]) * per_iter, sched.max_budget

    def inspect(self, wall_s: float, timings: dict) -> Rep:
        hpo, check = self.u["hpo"], self.ledger.check
        expected, max_budget = self._schedule()
        trials_csv = self.out / "trials.csv"
        trials = hpo.read_trials_csv(trials_csv) if trials_csv.is_file() \
            else []
        self.ledger.attempted += len(trials)
        check(len(trials) == expected,
              f"search ran {len(trials)} trials, schedule has {expected}")
        for t in trials:
            check(t.status == "ok", f"trial {t.trial_id} failed")
        check((self.out / "incumbent.txt").is_file(),
              "search wrote no incumbent.txt")
        n_train = len(np.load(self.data / "train_labels.npy"))
        items = sum(t.budget_epochs for t in trials) * n_train
        inc = hpo.incumbent_of(trials, max_budget)
        quality = {"incumbent_val_wF1": inc.val_wf1 if inc else 0.0}
        if self.scale.floors:
            check(quality["incumbent_val_wF1"] >= INCUMBENT_VAL_WF1_MIN,
                  f"incumbent val wF1 {quality['incumbent_val_wF1']:.4f} < "
                  f"{INCUMBENT_VAL_WF1_MIN}")
        return Rep(wall_s, items, wall_s,
                   digest_dir(self.out, {"trials.csv", "incumbent.txt"}),
                   quality=quality)


class PosteriorWorkload(Workload):
    name = "posterior_eval"
    item_name = "posterior_passes_per_s"
    MODELS = ("mcd", "flip")

    def __init__(self, *args):
        super().__init__(*args)
        self.ckpt = {m: self.work / f"ckpt_{m}" for m in self.MODELS}
        self.evals = {m: self.work / f"eval_{m}" for m in self.MODELS}
        self.sel = self.work / "select"
        self.plots = self.work / "plots"
        self.online: dict = {}

    def clean_setup(self):
        super().clean_setup()
        _rmtree(*self.ckpt.values())

    def setup(self):
        super().setup()
        configs = {"mcd": self.scale.mcd_config,
                   "flip": self.scale.flip_config}
        for m in self.MODELS:
            cfg = self.work / f"{m}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n"
                                   for k, v in configs[m].items()))
            self.ledger.stage("train", "--data", self.data, "--config", cfg,
                              "--epochs", self.scale.train_epochs,
                              "--seed", "0", "--out", self.ckpt[m])

    def setup_digest(self) -> dict:
        out = super().setup_digest()
        for m in self.MODELS:
            out.update(digest_dir(self.ckpt[m]))
        return out

    def clean_rep(self):
        _rmtree(*self.evals.values(), self.sel, self.plots)
        self.online = {}

    def run_rep(self) -> dict:
        st, u, m_samples = self.ledger.stage, self.u, self.scale.samples
        eval_s = 0.0
        for m in self.MODELS:
            t0 = perf_counter()
            st("evaluate", "--checkpoint", self.ckpt[m] / "checkpoint.txt",
               "--data", self.data, "--split", "test",
               "--samples", m_samples, "--seed", "0", "--out", self.evals[m])
            eval_s += perf_counter() - t0
        reports = [self.evals[m] / "report.csv" for m in self.MODELS]
        st("select", *reports, "--out", self.sel)
        st("report", *reports, "--out", self.plots)

        # online: one request scores one test window under both checkpoints
        nets = {m: u["arch"].load_network(self.ckpt[m] / "checkpoint.txt")[0]
                for m in self.MODELS}
        x = u["data"].load_dataset(self.data, "test").windows
        rngs = {m: np.random.default_rng(i)
                for i, m in enumerate(self.MODELS)}
        probs = {m: np.empty((len(x), 2)) for m in self.MODELS}
        latencies = []
        for i in range(len(x)):
            t0 = perf_counter()
            for m in self.MODELS:
                dist = u["metrics"].predictive_posterior(
                    nets[m], x[i:i + 1], m=m_samples, rng=rngs[m])
                probs[m][i] = dist.mean_probs[0]
            latencies.append((perf_counter() - t0) * 1e3)
        self.online = probs
        return {"eval_s": eval_s, "latencies_ms": latencies}

    def inspect(self, wall_s: float, timings: dict) -> Rep:
        u, check = self.u, self.ledger.check
        labels = np.load(self.data / "test_labels.npy")
        n = len(labels)
        self.ledger.attempted += len(self.MODELS) * n
        quality, digest = {}, {}
        for m in self.MODELS:
            path = self.evals[m] / "report.csv"
            if not check(path.is_file(), f"{m}: no report.csv"):
                continue
            rep = u["metrics"].read_report_csv(path)
            check(len(rep) == n, f"{m}: report has {len(rep)} rows, "
                                 f"test split has {n} windows")
            check(np.all(np.abs(rep.mean_probs.sum(axis=1) - 1.0) <= 1e-9),
                  f"{m}: a report posterior does not sum to 1")
            check(np.array_equal(rep.labels, labels),
                  f"{m}: report labels differ from the test split")
            quality[f"{m}_test_wF1"] = rep.f1_weighted
            quality[f"{m}_test_ECE"] = rep.ece
            if self.scale.floors:
                check(rep.f1_weighted >= TEST_WF1_MIN,
                      f"{m}: test wF1 {rep.f1_weighted:.4f} < {TEST_WF1_MIN}")
                check(rep.ece <= TEST_ECE_MAX,
                      f"{m}: test ECE {rep.ece:.4f} > {TEST_ECE_MAX}")
            online = self.online.get(m)
            if check(online is not None and len(online) == n,
                     f"{m}: online posterior missing"):
                check(np.all(np.abs(online.sum(axis=1) - 1.0) <= 1e-9),
                      f"{m}: an online posterior does not sum to 1")
                agree = float(np.mean(online.argmax(axis=1) == rep.preds))
                quality[f"{m}_online_agreement"] = agree
                if self.scale.floors:
                    check(agree >= ONLINE_AGREEMENT_MIN,
                          f"{m}: online and batch predictions agree on "
                          f"{agree:.3f} < {ONLINE_AGREEMENT_MIN} of windows")
                digest[f"online_{m}"] = hashlib.sha256(
                    online.tobytes()).hexdigest()
            digest.update(digest_dir(self.evals[m]))
        sel = self.sel / "selection.csv"
        if check(sel.is_file(), "select wrote no selection.csv"):
            rows = sel.read_text(encoding="utf-8").splitlines()[1:]
            check(len(rows) == len(self.MODELS),
                  f"selection.csv has {len(rows)} rows")
        for name in ("reliability.svg", "ece_by_uq.svg", "entropy_by_uq.svg",
                     "entropy_outcomes.svg", "summary.csv"):
            check((self.plots / name).is_file(), f"report wrote no {name}")
        digest.update(digest_dir(self.sel))
        digest.update(digest_dir(self.plots))
        items = len(self.MODELS) * n * self.scale.samples
        return Rep(wall_s, items, timings.get("eval_s", wall_s), digest,
                   latencies_ms=timings.get("latencies_ms", []),
                   quality=quality)


class DataPrepWorkload(Workload):
    """Set-up is the c07-sized data prep, which also warms the stages."""

    name = "data_prep"
    item_name = "log_rows_per_s"

    def __init__(self, *args):
        super().__init__(*args)
        self.big_raw = self.work / "big_raw"
        self.win = self.work / "big_window"
        self.sub = self.work / "big_subsample"

    def clean_rep(self):
        _rmtree(self.big_raw, self.win, self.sub)

    def run_rep(self) -> dict:
        st, s = self.ledger.stage, self.scale
        st("generate", "--n-logs", s.prep_logs,
           "--duration-s", s.prep_duration_s, "--seed", self.seed,
           "--out", self.big_raw)
        manifest = self.big_raw / "manifest.txt"
        st("prepare", "--manifest", manifest, "--window", s.prep_window,
           "--channels", "fused", "--out", self.win)
        st("prepare", "--manifest", manifest, "--subsample", "4",
           "--target-length", s.target_length, "--channels", "fused",
           "--out", self.sub)
        return {}

    def _check_dataset(self, root: Path, length: int):
        data, check = self.u["data"], self.ledger.check
        summary = root / "summary.txt"
        if not check(summary.is_file(), f"{root.name}: no summary.txt"):
            return
        rows = summary.read_text(encoding="utf-8").splitlines()[1:]
        counts = {r.split(",")[0]: int(r.split(",")[2]) for r in rows}
        for split in SPLITS:
            ds = data.load_dataset(root, split)
            check(ds.windows.shape == (counts.get(split), 18, length),
                  f"{root.name}/{split}: windows {ds.windows.shape}, "
                  f"summary says {counts.get(split)} x 18 x {length}")
            check(set(np.unique(ds.labels)) <= {0, 1},
                  f"{root.name}/{split}: labels outside {{0, 1}}")
            if split == "train":
                mean = ds.windows.mean(axis=(0, 2))
                std = ds.windows.std(axis=(0, 2))
                check(np.all(np.abs(mean) < 1e-6)
                      and np.all(np.abs(std - 1.0) < 1e-6),
                      f"{root.name}: train split is not standardized")

    def inspect(self, wall_s: float, timings: dict) -> Rep:
        s, check = self.scale, self.ledger.check
        logs = sorted(self.big_raw.glob("*.csv"))
        check(len(logs) == s.prep_logs,
              f"generate wrote {len(logs)} logs, asked for {s.prep_logs}")
        per_log = round(s.prep_duration_s * 100)
        rows = 0
        for p in logs:
            with open(p, "rb") as fh:
                n = sum(1 for _ in fh) - 1
            check(n == per_log, f"{p.name}: {n} rows, expected {per_log}")
            rows += n
        self._check_dataset(self.win, int(s.prep_window.split("x")[0]))
        self._check_dataset(self.sub, s.target_length)
        digest = {**digest_dir(self.big_raw), **digest_dir(self.win),
                  **digest_dir(self.sub)}
        # rows written by generate plus rows parsed by each prepare
        return Rep(wall_s, 3 * rows, wall_s, digest)


WORKLOADS = {w.name: w for w in (SearchWorkload, PosteriorWorkload,
                                 DataPrepWorkload)}

