import importlib.util
from pathlib import Path

import numpy as np
import pytest

from uqtsc import data


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
