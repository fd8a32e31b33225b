"""End-to-end synthetic benchmark: generate -> prepare -> search -> evaluate.

Runs the whole pipeline through the CLI entry points so every stage writes
its run_config.txt and can be replayed with `uqtsc rerun`.  Prints per-stage
wall time and the incumbent's held-out metrics.  `stages` is the one
definition of the pipeline; the acceptance tests run it with the defaults.

Usage:
    python scripts/run_benchmark.py --out /tmp/bench [--iterations 4]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from uqtsc import cli
from uqtsc.metrics import read_report_csv


def stage(argv: list[str]) -> float:
    t0 = time.perf_counter()
    rc = cli.main(argv)
    dt = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"stage {argv[0]} failed (exit {rc})")
    print(f"  {argv[0]:<9} {dt:7.1f} s")
    return dt


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="benchmark output root")
    ap.add_argument("--iterations", type=int, default=4)
    ap.add_argument("--family", default="cnn")
    ap.add_argument("--uq", default="mc_dropout")
    ap.add_argument("--window", default="400x100")
    ap.add_argument("--channels", default="imu")
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args(argv)


def stages(args: argparse.Namespace) -> list[list[str]]:
    """The `uqtsc` argv of every pipeline stage, in the order they run."""
    root = Path(args.out)
    seed = str(args.seed)
    report = str(root / "eval" / "report.csv")
    return [
        ["generate", "--out", str(root / "raw")],
        ["prepare", "--manifest", str(root / "raw" / "manifest.txt"),
         "--window", args.window, "--channels", args.channels,
         "--seed", seed, "--out", str(root / "data")],
        ["search", "--data", str(root / "data"),
         "--family", args.family, "--uq", args.uq,
         "--iterations", str(args.iterations), "--seed", seed,
         "--out", str(root / "search")],
        ["evaluate", "--checkpoint", str(root / "search" / "incumbent.txt"),
         "--data", str(root / "data"), "--split", "test",
         "--samples", str(args.samples), "--seed", seed,
         "--out", str(root / "eval")],
        ["select", report, "--out", str(root / "select")],
        ["report", report, "--out", str(root / "plots")],
    ]


def main() -> None:
    args = parse_args()
    root = Path(args.out)
    total = sum(stage(argv) for argv in stages(args))

    rep = read_report_csv(root / "eval" / "report.csv")
    print(f"total {total:.1f} s")
    print(f"incumbent on test: wF1={rep.f1_weighted:.4f} "
          f"ECE={rep.ece:.4f} mean entropy={rep.mean_entropy:.4f} "
          f"accuracy={rep.accuracy:.4f} (n={len(rep)})")
    decision = (root / "select" / "selection.csv").read_text().splitlines()[1]
    print(f"selection gate: {decision.split(',')[0]}")


if __name__ == "__main__":
    main()
