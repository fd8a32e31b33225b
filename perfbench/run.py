"""uqtsc benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload search_cnn_mcd --seed 3 \
        --seconds 12 --trace 0

Run from the root of a checkout.  The program is imported from `src/`
of that checkout and driven in this process, closed loop: each CLI stage
or library call is waited for before the next one starts (`--workers 1`;
numpy's BLAS keeps its default thread count, recorded below).

--trace 0  sets up several times (median is `setup_s`), then repeats the
           timed phase until --seconds have passed (at least twice) and
           reports the fastest repetition: `wall_s` is its wall time and
           `work_per_s` its work per second.
--trace 1  sets up once, runs the timed phase untraced, traced, untraced,
           and reports the per-layer metrics of the set-up plus the traced
           repetition; `trace.overhead_s` is the traced wall time minus the
           faster untraced one.

Every run checks the outputs and that each repetition wrote
byte-identical deterministic artifacts.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it, `record: {...}`, holds the machine, the workload-specific
metrics under their own names, quality numbers and problems found.
"""

from __future__ import annotations

import argparse
from contextlib import nullcontext
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_REPS = 2
MAX_REPS = 25
MODULES = ("cli", "data", "hpo", "training", "arch", "metrics", "svgplot",
           "uq", "nncore.layers", "nncore.optim", "nncore.checkpoint",
           "nncore.gradcheck")

import layertrace  # noqa: E402  (this file's directory is on sys.path)
import workloads  # noqa: E402


def import_program() -> dict:
    """Import uqtsc from this checkout's src/, never from anywhere else."""
    if not (SRC / "uqtsc" / "__init__.py").is_file():
        sys.exit(f"error: no uqtsc package under {SRC}; run the benchmark "
                 "from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"uqtsc.{name}")
            for name in MODULES}
    found = Path(mods["cli"].__file__).resolve().parent
    if found != SRC / "uqtsc":
        sys.exit(f"error: imported uqtsc from {found}, expected {SRC}")
    return mods


def blas_threads() -> int | None:
    """OpenBLAS thread count, asked of the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def machine_record(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(),
            "machine": platform.machine(), "seed": seed}


def run_timed(wl, ledger, seconds: float) -> tuple[dict, dict]:
    setup_s, setup_digests = [], []
    for _ in range(SETUP_REPEATS):
        wl.clean_setup()
        t0 = perf_counter()
        wl.setup()
        setup_s.append(perf_counter() - t0)
        setup_digests.append(wl.setup_digest())
    ledger.check(all(d == setup_digests[0] for d in setup_digests),
                 "set-up artifacts differ between set-up repetitions")

    reps = []
    start = perf_counter()
    while len(reps) < MIN_REPS or (perf_counter() - start < seconds
                                   and len(reps) < MAX_REPS):
        wl.clean_rep()
        t0 = perf_counter()
        timings = wl.run_rep()
        reps.append(wl.inspect(perf_counter() - t0, timings))
    ledger.check(all(r.digest == reps[0].digest for r in reps),
                 "timed repetitions wrote different deterministic artifacts")

    # Interference from other tenants and the first repetition after set-up
    # only ever slow a repetition down, so the fastest repetition is the
    # steadiest estimate of its cost (measured: the spread of the minimum
    # over runs was half that of the median).
    rates = [r.items / r.busy_s for r in reps]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (min(r.wall_s for r in reps), "s"),
        "work_per_s": (max(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    named = {wl.item_name: (metrics["work_per_s"][0], "1/s")}
    latencies = [v for r in reps for v in r.latencies_ms]
    if latencies:
        q = statistics.quantiles(latencies, n=10)
        named["window_latency_ms_p50"] = (statistics.median(latencies), "ms")
        named["window_latency_ms_p90"] = (q[8], "ms")
        named["window_latency_samples"] = (len(latencies), "count")
    record = {"reps": len(reps), "setup_repeats": SETUP_REPEATS,
              "setup_s_all": setup_s,
              "wall_s_all": [r.wall_s for r in reps],
              "work_per_s_all": rates,
              "named": named, "quality": reps[-1].quality}
    return metrics, record


def run_traced(wl, ledger, mods) -> tuple[dict, dict]:
    tracer = layertrace.Tracer(mods)
    wl.clean_setup()
    with tracer.installed():
        wl.setup()

    # the untraced repetitions bracket the traced one, so the first
    # repetition's warm-up does not pass for negative overhead
    walls, digests = {False: [], True: []}, []
    for traced in (False, True, False):
        wl.clean_rep()
        with tracer.installed() if traced else nullcontext():
            t0 = perf_counter()
            timings = wl.run_rep()
            wall = perf_counter() - t0
        rep = wl.inspect(wall, timings)
        walls[traced].append(wall)
        digests.append(rep.digest)
    ledger.check(all(d == digests[0] for d in digests),
                 "traced and untraced repetitions wrote different artifacts")
    untraced = min(walls[False])
    values = tracer.metrics(overhead_s=walls[True][0] - untraced)
    metrics = {k: (v, layertrace.unit_of(k)) for k, v in values.items()}
    f32_out, f32_calls = tracer.f32_base()
    record = {"untraced_wall_s": walls[False], "traced_wall_s": walls[True],
              "f32_base": {"float32_outputs": f32_out,
                           "layer_forward_calls": f32_calls},
              "exact_counts": {k: values[k] for k in layertrace.EXACT},
              "quality": rep.quality}
    return metrics, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the timed phase repeats (untraced runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SCALES),
                    default="full", help="tiny: c10-sized smoke run")
    ap.add_argument("--workdir", type=Path, default=ROOT / ".bench_work",
                    help="scratch space, emptied after the run")
    args = ap.parse_args(argv)

    mods = import_program()
    seed = args.seed % 2**32  # generate needs a non-negative seed
    work = args.workdir / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = workloads.Ledger(mods["cli"])
    wl = workloads.WORKLOADS[args.workload](
        mods, workloads.SCALES[args.scale], seed, work, ledger)
    try:
        if args.trace:
            metrics, record = run_traced(wl, ledger, mods)
        else:
            metrics, record = run_timed(wl, ledger, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(args.workdir.iterdir()):
            args.workdir.rmdir()

    correct = ledger.failed == 0
    record.update(workload=args.workload, scale=args.scale,
                  trace=args.trace, machine=machine_record(args.seed),
                  op_failure_ratio=ledger.failed / max(ledger.attempted, 1),
                  op_base={"attempted": ledger.attempted,
                           "failed": ledger.failed},
                  problems=ledger.problems)
    for name, (value, unit) in {**metrics, **record.get("named", {})}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"op_failure_ratio = {record['op_failure_ratio']:.6g} "
          f"({ledger.failed} failed / {ledger.attempted} operations)")
    print("record: " + json.dumps(record, default=float))
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
