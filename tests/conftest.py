import importlib.util
from pathlib import Path

import numpy as np
import pytest

from uqtsc import arch, data, uq
from uqtsc.nncore import BatchNorm1D, Dense
from uqtsc.nncore.gradcheck import layer_grad_error


def pytest_collection_modifyitems(items):
    """Run the tests that share the end-to-end pipeline fixture last.

    That one pipeline run (scripts/run_benchmark.py's stages) takes
    minutes and every other test takes seconds, so a run that is cut short
    still reports every fast test.  The sort is stable: the order within
    each group is the collection order.
    """
    items.sort(key=lambda item: "bench" in getattr(item, "fixturenames", ()))


def load_file(relpath: str):
    """Import a repository file that is not part of the package, such as
    a script or the benchmark's tracer, as a module."""
    path = Path(__file__).resolve().parents[1] / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def leaf_layers(layers):
    """Every layer in layers, with residual blocks opened into their main
    path and shortcut."""
    out = []
    for layer in layers:
        if isinstance(layer, arch.ResidualBlock):
            out += leaf_layers(layer.main + layer.shortcut)
        else:
            out.append(layer)
    return out


def flipout_grad_check(eps: float = 1e-5, seed: int = 0) -> float:
    """Finite-difference check of FlipoutDense under fixed noise.

    Covers the input and all four posterior parameters (mu/rho for weight
    and bias); returns the max relative error.  layer_grad_error draws
    the same noise on every forward pass.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xF11b0)))
    layer = uq.FlipoutDense(Dense(3, 2, rng))
    layer.rho_w.value = rng.normal(-2.5, 0.3, size=layer.rho_w.value.shape)
    layer.rho_b.value = rng.normal(-2.5, 0.3, size=layer.rho_b.value.shape)
    x = rng.normal(size=(2, 3))
    return layer_grad_error(layer, x, rng, eps)


def perturbed_net(family, method, dtype=np.float64, seed=2):
    """A 2-block, pool-2 net whose batch norms look trained: 5 of 16
    gammas negative (a fresh net's are all 1, which never min-pools),
    running means shifted, betas and running variances moved."""
    cfg = arch.ModelConfig(family=family, uq=method, cnn_blocks=2, f1=16,
                           f2=16, k1=4, k2=4, max_pool=2, u1=8,
                           dropout_rate=0.25)
    net = arch.build_network(cfg, 6, 32, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for layer in net.layers:
        if isinstance(layer, BatchNorm1D):
            c = layer.n_ch
            sign = np.where(rng.permutation(c) < round(0.3 * c), -1.0, 1.0)
            layer.gamma.value = sign * rng.uniform(0.5, 1.5, c)
            layer.beta.value = rng.normal(0.0, 0.3, c)
            layer.running_mean.value = rng.normal(0.0, 0.5, c)
            layer.running_var.value = rng.uniform(0.5, 2.0, c)
    return net.astype(dtype)


@pytest.fixture(scope="session")
def small_log():
    """A short deterministic synthetic log with one class transition."""
    spec = data.SynthSpec(
        log_id="fixture0", seed=42, duration_s=8.0,
        class_segments=((0, 4.0), (1, 4.0)),
    )
    return data.synth_generate(spec)


@pytest.fixture(scope="session")
def synth_logs():
    """Six short mixed-class logs for split/pipeline tests."""
    specs = data.default_synth_suite(n_logs=6, seed=3, duration_s=10.0)
    return [data.synth_generate(s) for s in specs]


def make_log(labels, n_channels=6, seed=0, rate=100.0):
    """Tiny labeled log with random channel content (imu-only)."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_channels, len(labels)))
    return data.TimeSeriesLog(
        log_id=f"made{seed}", sample_rate_hz=rate,
        channel_names=data.IMU_CHANNELS,
        channel_groups=("imu",) * 6,
        values=values, labels=labels,
    )
