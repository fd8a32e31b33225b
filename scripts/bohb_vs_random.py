"""Paired-seed comparison of BOHB against plain random search.

Both optimizers get the same total epoch budget on an analytic 1-D toy
objective (no training involved), so a run takes seconds.  Prints the
per-seed incumbents and the fraction of seeds where BOHB's incumbent loss
is <= random search's.

Usage:
    python scripts/bohb_vs_random.py [--pairs 50] [--iterations 20]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from uqtsc import hpo


TOY = hpo.ConfigSpace("fcn", (hpo.ParamSpec("dropout_rate"),))


def toy_objective(config, budget_epochs, seed):
    """(val_loss, val_wF1) of a 1-D bowl with its minimum at 0.3."""
    loss = (config.dropout_rate - 0.3) ** 2
    return loss, 1.0 - loss


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=50)
    ap.add_argument("--iterations", type=int, default=20)
    ap.add_argument("--min-budget", type=int, default=hpo.MIN_BUDGET)
    ap.add_argument("--max-budget", type=int, default=hpo.MAX_BUDGET)
    ap.add_argument("--eta", type=int, default=hpo.ETA)
    args = ap.parse_args()

    schedule = hpo.hyperband_schedule(args.min_budget, args.max_budget,
                                      args.eta)
    budget = args.iterations * schedule.total_epochs
    print(f"{schedule.total_epochs} epochs/iteration, "
          f"{budget} total epochs per optimizer")

    wins = 0
    for seed in range(args.pairs):
        rng_b = np.random.default_rng((seed, 0xB0))
        rng_r = np.random.default_rng((seed, 0xAA))
        _, ib = hpo.run_bohb(toy_objective, TOY, iterations=args.iterations,
                             rng=rng_b, min_budget=args.min_budget,
                             max_budget=args.max_budget, eta=args.eta,
                             seed_base=seed * 10_000)
        _, ir = hpo.run_random_search(toy_objective, TOY, budget,
                                      args.max_budget, rng_r,
                                      seed_base=seed * 10_000)
        wins += ib.val_loss <= ir.val_loss
        print(f"seed {seed:3d}  bohb {ib.val_loss:.3e}  "
              f"random {ir.val_loss:.3e}  {'<=' if ib.val_loss <= ir.val_loss else '>'}")

    print(f"bohb wins or ties {wins}/{args.pairs} "
          f"({100.0 * wins / args.pairs:.0f}%)")


if __name__ == "__main__":
    main()
