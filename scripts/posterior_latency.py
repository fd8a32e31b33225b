"""Time the predictive posterior of untrained networks, per UQ method.

MC dropout and DropConnect run on the posterior benchmark's CNN (2 blocks
of 64 filters, kernel 8, pool 4), Flipout on its CNN-LSTM (2 blocks of
32 filters, kernel 8, pool 8, 32 LSTM units).  Each sees the same seeded
random windows of 6 channels.  For every method the script prints the
best-of-N wall time of one posterior request per window, of one call
over all windows, and a SHA-256 prefix of both runs' samples, so two
commits can be compared for speed and for bytes.

Usage:
    python scripts/posterior_latency.py [--windows 162] [--length 400]
        [--samples 10] [--repeats 3]
"""

import argparse
import hashlib
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from uqtsc import arch, metrics

CNN = dict(family="cnn", cnn_blocks=2, f1=64, f2=64, k1=8, k2=8,
           max_pool=4, dropout_rate=0.25)
CNN_LSTM = dict(family="cnn_lstm", cnn_blocks=2, f1=32, f2=32, k1=8, k2=8,
                max_pool=8, lstm_layers=1, u1=32)
NETS = {"mc_dropout": CNN, "dropconnect": CNN, "flipout": CNN_LSTM}
CHANNELS = 6


def _best(run, repeats):
    """(least wall seconds over repeats runs, samples of the last run)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        samples = run()
        best = min(best, perf_counter() - t0)
    return best, samples


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--windows", type=int, default=162)
    ap.add_argument("--length", type=int, default=400)
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    x = np.random.default_rng(0).normal(
        size=(args.windows, CHANNELS, args.length))
    m = args.samples
    print(f"{args.windows} windows of {CHANNELS} x {args.length}, M = {m}, "
          f"best of {args.repeats}")
    for method, fields in NETS.items():
        cfg = arch.ModelConfig(uq=method, **fields)
        net = arch.build_network(cfg, CHANNELS, args.length, seed=0)

        def one_window_requests():
            rng = np.random.default_rng(1)
            return np.concatenate([
                metrics.predictive_posterior(net, x[i:i + 1], m=m,
                                             rng=rng).samples
                for i in range(len(x))], axis=1)

        def one_call():
            return metrics.predictive_posterior(
                net, x, m=m, rng=np.random.default_rng(1)).samples

        loop_s, loop = _best(one_window_requests, args.repeats)
        call_s, call = _best(one_call, args.repeats)
        digest = hashlib.sha256(loop.tobytes() + call.tobytes()).hexdigest()
        print(f"{method:<12} {len(x)} one-window requests {loop_s:.3f} s  "
              f"one {len(x)}-window call {call_s:.3f} s  "
              f"samples {digest[:16]}")


if __name__ == "__main__":
    main()
