"""Operator commands: generate, prepare, train, search, evaluate, select,
report, plus rerun-from-config.

Every command resolves its settings, runs, and writes the resolved
key-value RunConfig next to its outputs; `uqtsc rerun <run_config.txt>`
replays any of them.  All randomness stems from a single --seed fanned
out through tagged seed sequences, so serial reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import arch, data, hpo, metrics, svgplot, training
from .nncore import lanes
from .nncore.checkpoint import CheckpointError

RUN_CONFIG_NAME = "run_config.txt"

_PATH_KEYS = ("manifest", "data", "config", "checkpoint", "reports")

_COMMAND_KEYS = {
    "generate": ("n_logs", "seed", "duration_s", "class_balance", "out"),
    "prepare": ("manifest", "window", "subsample", "target_length",
                "channels", "test_fraction", "val_fraction",
                "speed_threshold", "min_gap", "seed", "out"),
    "train": ("data", "config", "epochs", "seed", "float32", "out"),
    "search": ("data", "family", "uq", "iterations", "min_budget",
               "max_budget", "eta", "random_fraction", "workers", "seed",
               "float32", "out"),
    "evaluate": ("checkpoint", "data", "split", "samples", "bins", "seed",
                 "out"),
    "select": ("reports", "out"),
    "report": ("reports", "out"),
}


class CheckpointMismatch(Exception):
    pass


class BadRunConfig(Exception):
    pass


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# key-value plumbing


def _read_kv(path) -> dict:
    out = {}
    for ln in Path(path).read_text(encoding="utf-8").splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, sep, val = ln.partition("=")
        if not sep:
            raise ValueError(f"{path}: expected 'key = value', got {ln!r}")
        out[key.strip()] = val.strip()
    return out


def _write_run_config(out_dir: Path, args):
    """Record every option of args.command that is set (not None).

    Input paths are resolved, so a rerun finds them from any directory;
    `out` is written as given.
    """
    lines = [f"command = {args.command}"]
    for key in _COMMAND_KEYS[args.command]:
        val = out_dir if key == "out" else getattr(args, key)
        if val is None:
            continue
        if key in _PATH_KEYS:
            paths = val if isinstance(val, list) else [val]
            val = ",".join(str(Path(p).resolve()) for p in paths)
        elif key == "window":
            val = f"{val[0]}x{val[1]}"
        elif isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{key} = {val}")
    (out_dir / RUN_CONFIG_NAME).write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")


def _read_run_config(path):
    settings = _read_kv(path)
    if next(iter(settings), None) != "command":
        raise BadRunConfig(f"{path}: first key must be 'command'")
    command = settings.pop("command")
    if command not in _COMMAND_KEYS:
        raise BadRunConfig(f"{path}: unknown command {command!r}")
    unknown = set(settings) - set(_COMMAND_KEYS[command])
    if unknown:
        raise BadRunConfig(f"{path}: unknown keys {sorted(unknown)}")
    return command, settings


def _settings_to_argv(command: str, settings: dict) -> list[str]:
    argv = [command]
    for key in _COMMAND_KEYS[command]:
        if key not in settings:
            continue
        val = settings[key]
        flag = key.replace("_", "-")
        if key == "reports":
            argv.extend(val.split(","))
        elif val == "true":
            argv.append(f"--{flag}")
        elif val == "false":
            argv.append(f"--no-{flag}")
        else:
            argv.extend([f"--{flag}", val])
    return argv


def _rng_for(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# generate


def _write_synth_log(spec: data.SynthSpec, path: Path):
    data.write_log_csv(data.synth_generate(spec), path)


def cmd_generate(args):
    """Write one CSV per log of the suite, then the manifest in suite order.

    Each log is seeded by its own SynthSpec, so its bytes do not depend on
    which process writes it.  The logs are written by one forked worker
    process per usable core (`lanes.usable_cores`), at most one per
    log; with one worker, or where the fork start method is missing, they
    are written here.  A worker's exception reaches the caller as the same
    class with the same message, and the first failing log in suite order
    is the one raised, as in a serial loop; logs not yet handed to a
    worker are then skipped.  Every worker is joined before this returns
    or raises.  Workers run only the generator's elementwise numpy and
    the CSV writer: no BLAS call and no thread, so forking a parent that
    holds BLAS threads is safe.
    """
    suite = data.default_synth_suite(
        n_logs=args.n_logs, seed=args.seed, duration_s=args.duration_s,
        class_balance=args.class_balance)
    out = _out_dir(args)
    paths = [out / f"{spec.log_id}.csv" for spec in suite]
    workers = min(lanes.usable_cores(), len(suite))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")) \
                as pool:
            list(pool.map(_write_synth_log, suite, paths))
    else:
        for spec, p in zip(suite, paths):
            _write_synth_log(spec, p)
    data.write_manifest(paths, out / "manifest.txt")
    _write_run_config(out, args)
    print(f"generate: {len(paths)} logs -> {out}")


# ---------------------------------------------------------------------------
# prepare


def _concat(parts, split_tag: str):
    parts = [p for p in parts if len(p)]
    if not parts:
        raise data.EmptyDataset(f"{split_tag} split produced no windows")
    first = parts[0]
    return data.SequenceDataset(
        windows=np.concatenate([p.windows for p in parts]),
        labels=np.concatenate([p.labels for p in parts]),
        source_log_ids=tuple(s for p in parts for s in p.source_log_ids),
        start_indices=np.concatenate([p.start_indices for p in parts]),
        window_length=first.window_length,
        channel_names=first.channel_names,
        channel_groups=first.channel_groups,
        generation=first.generation,
        split_tag=split_tag)


def cmd_prepare(args):
    if (args.window is None) == (args.subsample is None):
        raise CliError("exactly one of --window or --subsample is required")
    if args.subsample is None and args.target_length is not None:
        raise CliError("--target-length needs --subsample")
    if args.subsample is not None and args.target_length is None:
        args.target_length = 125
    paths = data.read_manifest(args.manifest)
    if not paths:
        raise data.EmptyDataset(f"{args.manifest}: manifest lists no logs")
    logs = [data.load_log(p) for p in paths]
    logs = [data.trim_idle(lg, args.speed_threshold, args.min_gap)
            for lg in logs]
    logs = [data.select_channels(lg, args.channels) for lg in logs]
    split_ids = dict(zip(
        ("train", "val", "test"),
        data.split_logs(logs, args.test_fraction, args.val_fraction,
                        args.seed)))
    by_id = {lg.log_id: lg for lg in logs}

    def cut(lg):
        if args.window is not None:
            return data.slide_windows(lg, *args.window)
        return data.subsample(lg, args.subsample, args.target_length)

    datasets = {name: _concat([cut(by_id[i]) for i in sorted(ids)], name)
                for name, ids in split_ids.items()}
    stats = data.fit_stats(datasets["train"])

    out = _out_dir(args)
    summary = ["split,logs,windows,class0_fraction,class1_fraction"]
    for name in ("train", "val", "test"):
        ds = data.standardize(datasets[name], stats)
        data.save_dataset(ds, out, name)
        frac1 = float(np.mean(ds.labels == 1))
        summary.append(f"{name},{len(split_ids[name])},{len(ds)},"
                       f"{1.0 - frac1!r},{frac1!r}")
    data.save_stats(stats, out / "stats.csv")
    (out / "summary.txt").write_text("\n".join(summary) + "\n",
                                     encoding="utf-8")
    _write_run_config(out, args)
    counts = {n: len(datasets[n]) for n in datasets}
    print(f"prepare: windows {counts} -> {out}")


# ---------------------------------------------------------------------------
# train


def cmd_train(args):
    cfg = arch.ModelConfig.from_pairs(_read_kv(args.config))
    cfg.validate()
    train_ds = data.load_dataset(args.data, "train")
    val_ds = data.load_dataset(args.data, "val")
    net = arch.build_network(cfg, train_ds.n_channels, train_ds.window_length,
                             seed=args.seed)
    hist = training.train_network(
        net, train_ds.windows, train_ds.labels, val_ds.windows, val_ds.labels,
        epochs=args.epochs, seed=args.seed,
        dtype=np.float32 if args.float32 else None)
    out = _out_dir(args)
    training.write_training_log(hist, out / "training_log.csv")
    arch.save_network(net, out / "checkpoint.txt")
    _write_run_config(out, args)
    last = hist[-1]
    print(f"train: {len(hist)} epochs, final val_loss {last.val_loss:.4f} "
          f"val_wF1 {last.val_wf1:.4f} -> {out}")


# ---------------------------------------------------------------------------
# search


class _TrainObjective:
    """Train-then-validate objective returning (val_loss, val_wF1); keeps
    the best full-budget network.

    Ties on val_loss go to the lower seed.  Seeds are seed_base plus the
    trial id, so this matches hpo.incumbent_of under any worker count.
    """

    def __init__(self, train_ds, val_ds, max_budget: int, dtype):
        self.xt, self.yt = train_ds.windows, train_ds.labels
        self.xv, self.yv = val_ds.windows, val_ds.labels
        self.channels = train_ds.n_channels
        self.window = train_ds.window_length
        self.max_budget = max_budget
        self.dtype = dtype
        self.best_key = None
        self.best_net = None
        self._lock = threading.Lock()

    def __call__(self, cfg, budget, seed):
        net = arch.build_network(cfg, self.channels, self.window, seed=seed)
        hist = training.train_network(
            net, self.xt, self.yt, self.xv, self.yv, epochs=budget,
            seed=seed, dtype=self.dtype)
        last = hist[-1]
        # a training run that stopped at a non-finite loss fails its trial
        val_loss = float(last.val_loss) if math.isfinite(last.train_loss) \
            else math.inf
        if budget == self.max_budget and math.isfinite(val_loss):
            with self._lock:
                key = (val_loss, seed)
                if self.best_key is None or key < self.best_key:
                    self.best_key, self.best_net = key, net
        return val_loss, float(last.val_wf1)


def cmd_search(args):
    train_ds = data.load_dataset(args.data, "train")
    val_ds = data.load_dataset(args.data, "val")
    space = hpo.model_space(args.family, args.uq)
    objective = _TrainObjective(train_ds, val_ds, args.max_budget,
                                np.float32 if args.float32 else None)
    rng = _rng_for(args.seed, 0x5EA7)
    pool = ThreadPoolExecutor(args.workers) if args.workers > 1 else None
    try:
        trials, incumbent = hpo.run_bohb(
            objective, space, iterations=args.iterations, rng=rng,
            min_budget=args.min_budget, max_budget=args.max_budget,
            eta=args.eta, random_fraction=args.random_fraction,
            seed_base=args.seed, map_fn=pool.map if pool else None)
    finally:
        if pool:
            pool.shutdown()
    out = _out_dir(args)
    hpo.write_trials_csv(trials, out / "trials.csv")
    _write_run_config(out, args)
    if incumbent is None or objective.best_net is None:
        raise CliError("search produced no successful full-budget trial; "
                       "see trials.csv")
    arch.save_network(objective.best_net, out / "incumbent.txt")
    print(f"search: {len(trials)} trials, incumbent val_loss "
          f"{incumbent.val_loss:.4f} val_wF1 {incumbent.val_wf1:.4f} "
          f"({incumbent.config.to_kv_line()}) -> {out}")


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args):
    net, _ = arch.load_network(args.checkpoint)
    ds = data.load_dataset(args.data, args.split)
    if (ds.n_channels, ds.window_length) != (net.n_channels,
                                             net.window_length):
        raise CheckpointMismatch(
            f"model expects [{net.n_channels} ch, {net.window_length}], "
            f"dataset has [{ds.n_channels} ch, {ds.window_length}]")
    rng = _rng_for(args.seed, 0xE7A1)
    dist = metrics.predictive_posterior(net, ds.windows, m=args.samples,
                                        rng=rng)
    report = metrics.build_report(
        dist, ds.labels, k=args.bins, tag=Path(args.out).name,
        meta={"family": net.config.family, "uq": net.config.uq,
              "config": net.config.to_kv_line(), "split": args.split,
              "samples": str(args.samples)})
    out = _out_dir(args)
    metrics.write_report_csv(report, out / "report.csv")
    _write_run_config(out, args)
    print(f"evaluate: n={len(report)} wF1 {report.f1_weighted:.4f} "
          f"ECE {report.ece:.4f} entropy {report.mean_entropy:.4f} -> {out}")


# ---------------------------------------------------------------------------
# select / report


def _report_label(rep) -> str:
    fam = rep.meta.get("family", "")
    uqm = rep.meta.get("uq", "")
    return f"{fam}/{uqm}" if fam and uqm else rep.tag


def cmd_select(args):
    reports = [metrics.read_report_csv(p) for p in args.reports]
    selected = {id(r) for r in metrics.select_candidates(reports)["select"]}
    rows = sorted(reports, key=lambda r: (r.mean_entropy, r.tag))
    lines = ["decision,uq,family,mean_entropy,ece,f1_cl0,f1_cl1,"
             "f1_weighted,accuracy,config"]
    for r in rows:
        decision = "select" if id(r) in selected else "reject"
        cfg = r.meta.get("config", "").replace(",", ";")
        lines.append(
            f"{decision},{r.meta.get('uq', 'unknown')},"
            f"{r.meta.get('family', 'unknown')},{r.mean_entropy!r},"
            f"{r.ece!r},{r.f1_cl0!r},{r.f1_cl1!r},{r.f1_weighted!r},"
            f"{r.accuracy!r},{cfg}")
    out = _out_dir(args)
    (out / "selection.csv").write_text("\n".join(lines) + "\n",
                                       encoding="utf-8")
    _write_run_config(out, args)
    print(f"select: {len(selected)}/{len(reports)} selected -> {out}")


def cmd_report(args):
    reports = [metrics.read_report_csv(p) for p in args.reports]
    labels = [_report_label(r) for r in reports]
    out = _out_dir(args)
    (out / "reliability.svg").write_text(
        svgplot.reliability_diagram(
            [(lab, r.bins) for lab, r in zip(labels, reports)]),
        encoding="utf-8")
    (out / "ece_by_uq.svg").write_text(
        svgplot.bar_chart(labels, [r.ece for r in reports],
                          "ECE by UQ method", "ECE"), encoding="utf-8")
    (out / "entropy_by_uq.svg").write_text(
        svgplot.bar_chart(labels, [r.mean_entropy for r in reports],
                          "Mean predictive entropy by UQ method",
                          "mean entropy"), encoding="utf-8")
    merged = {tag: np.concatenate(
        [metrics.entropy_by_outcome(r)[tag] for r in reports])
        for tag in svgplot.OUTCOME_ORDER}
    (out / "entropy_outcomes.svg").write_text(
        svgplot.outcome_scatter(merged, "Entropy by prediction outcome"),
        encoding="utf-8")
    lines = ["report,uq,family,n_samples,ece,mean_entropy,f1_cl0,f1_cl1,"
             "f1_weighted,accuracy"]
    for lab, r in zip(labels, reports):
        lines.append(f"{lab},{r.meta.get('uq', 'unknown')},"
                     f"{r.meta.get('family', 'unknown')},{len(r)},"
                     f"{r.ece!r},{r.mean_entropy!r},{r.f1_cl0!r},"
                     f"{r.f1_cl1!r},{r.f1_weighted!r},{r.accuracy!r}")
    (out / "summary.csv").write_text("\n".join(lines) + "\n",
                                     encoding="utf-8")
    _write_run_config(out, args)
    print(f"report: 4 SVGs + summary for {len(reports)} reports -> {out}")


# ---------------------------------------------------------------------------
# rerun


def cmd_rerun(args):
    command, settings = _read_run_config(args.config)
    if args.out is not None:
        settings["out"] = args.out
    ns = build_parser().parse_args(_settings_to_argv(command, settings))
    ns.func(ns)


# ---------------------------------------------------------------------------
# argument parsing


def _parse_window(text: str) -> tuple[int, int]:
    try:
        w, _, s = text.partition("x")
        return int(w), int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must look like 400x100, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="uqtsc",
        description="Uncertainty-aware terrain classification pipeline on "
                    "synthetic proprioceptive time series.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write synthetic sensor logs")
    g.add_argument("--n-logs", type=int, default=20, dest="n_logs")
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--duration-s", type=float, default=30.0,
                   dest="duration_s")
    g.add_argument("--class-balance", type=float, default=0.5,
                   dest="class_balance")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    pr = sub.add_parser("prepare", help="trim, split, window, standardize")
    pr.add_argument("--manifest", required=True)
    pr.add_argument("--window", type=_parse_window,
                    help="sliding window as WxS, e.g. 400x100")
    pr.add_argument("--subsample", type=int,
                    help="decimation factor (alternative to --window)")
    pr.add_argument("--target-length", type=int, dest="target_length",
                    help="samples per decimated window (default 125; "
                         "needs --subsample)")
    pr.add_argument("--channels", choices=("imu", "joints", "fused"),
                    default="fused")
    pr.add_argument("--test-fraction", type=float, default=0.3,
                    dest="test_fraction")
    pr.add_argument("--val-fraction", type=float, default=0.2,
                    dest="val_fraction")
    pr.add_argument("--speed-threshold", type=float, default=0.05,
                    dest="speed_threshold")
    pr.add_argument("--min-gap", type=float, default=1.0, dest="min_gap")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_prepare)

    tr = sub.add_parser("train", help="train one model config")
    tr.add_argument("--data", required=True)
    tr.add_argument("--config", required=True,
                    help="model config file (key = value)")
    tr.add_argument("--epochs", type=int, required=True)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--float32", action=argparse.BooleanOptionalAction,
                    default=False)
    tr.add_argument("--out", required=True)
    tr.set_defaults(func=cmd_train)

    se = sub.add_parser("search", help="BOHB over one architecture family")
    se.add_argument("--data", required=True)
    se.add_argument("--family", choices=arch.FAMILIES, default="cnn")
    se.add_argument("--uq", choices=arch.UQ_METHODS, default="none")
    se.add_argument("--iterations", type=int, default=20)
    se.add_argument("--min-budget", type=int, default=hpo.MIN_BUDGET)
    se.add_argument("--max-budget", type=int, default=hpo.MAX_BUDGET)
    se.add_argument("--eta", type=int, default=hpo.ETA)
    se.add_argument("--random-fraction", type=float,
                    default=hpo.RANDOM_FRACTION, dest="random_fraction")
    se.add_argument("--workers", type=int, default=1)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--float32", action=argparse.BooleanOptionalAction,
                    default=True)
    se.add_argument("--out", required=True)
    se.set_defaults(func=cmd_search)

    ev = sub.add_parser("evaluate", help="posterior metrics on a split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=("train", "val", "test"),
                    default="test")
    ev.add_argument("--samples", type=int, default=10)
    ev.add_argument("--bins", type=int, default=10)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_evaluate)

    sl = sub.add_parser("select", help="apply the selection gate")
    sl.add_argument("reports", nargs="+")
    sl.add_argument("--out", required=True)
    sl.set_defaults(func=cmd_select)

    rp = sub.add_parser("report", help="SVG plots + summary CSV")
    rp.add_argument("reports", nargs="+")
    rp.add_argument("--out", required=True)
    rp.set_defaults(func=cmd_report)

    rr = sub.add_parser("rerun", help="replay a written run config")
    rr.add_argument("config")
    rr.add_argument("--out", default=None)
    rr.set_defaults(func=cmd_rerun)

    return p


_CLI_ERRORS = (data.DataError, arch.InvalidConfig, arch.ShapeCollapse,
               hpo.InvalidBudgets, hpo.InsufficientData,
               hpo.MalformedTrialLog, metrics.MalformedReport,
               metrics.NotNormalized, metrics.EmptyInput,
               training.EmptyTrainingSet, CheckpointError,
               CheckpointMismatch, BadRunConfig, CliError, OSError,
               ValueError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _CLI_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
