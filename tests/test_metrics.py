"""Posterior, entropy, ECE, F1, and the selection gate against oracles."""

import hashlib
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import leaf_layers, perturbed_net
from uqtsc import arch, metrics, training, uq
from uqtsc.nncore import (LSTM, BatchNorm1D, Conv1D, Dense,
                          ShapeMismatch, blas, lanes)
from uqtsc.nncore.layers import softmax


# ---------------------------------------------------------------------------
# predictive posterior


def _tiny_net(uq_method="none", seed=0):
    cfg = arch.ModelConfig(family="cnn", uq=uq_method, cnn_blocks=1,
                           f1=16, k1=5, max_pool=2, dropout_rate=0.3)
    return arch.build_network(cfg, 6, 32, seed=seed)


def test_posterior_deterministic_net_identical_samples():
    net = _tiny_net()
    x = np.random.default_rng(0).normal(size=(4, 6, 32))
    dist = metrics.predictive_posterior(net, x, m=10,
                                        rng=np.random.default_rng(1))
    for j in range(1, 10):
        np.testing.assert_array_equal(dist.samples[j], dist.samples[0])
    single = metrics.predictive_posterior(net, x, m=1,
                                          rng=np.random.default_rng(2))
    np.testing.assert_allclose(dist.mean_probs, single.mean_probs, atol=1e-12)


def test_posterior_m1_mean_is_lone_sample():
    net = _tiny_net("mc_dropout")
    x = np.random.default_rng(3).normal(size=(2, 6, 32))
    dist = metrics.predictive_posterior(net, x, m=1,
                                        rng=np.random.default_rng(4))
    np.testing.assert_array_equal(dist.mean_probs, dist.samples[0])


def test_posterior_hand_mean():
    samples = np.array([[[0.8, 0.2]], [[0.6, 0.4]]])
    dist = metrics.PredictiveDistribution.from_samples(samples)
    np.testing.assert_allclose(dist.mean_probs, [[0.7, 0.3]])
    assert dist.predicted_class[0] == 0


def test_posterior_sample_order_invariant():
    rng = np.random.default_rng(5)
    raw = rng.dirichlet((1.0, 1.0), size=(10, 7))  # [M=10, N=7, 2]
    a = metrics.PredictiveDistribution.from_samples(raw)
    b = metrics.PredictiveDistribution.from_samples(raw[::-1])
    np.testing.assert_allclose(a.mean_probs, b.mean_probs, atol=1e-15)


def test_posterior_stochastic_for_uq_net():
    net = _tiny_net("mc_dropout")
    x = np.random.default_rng(6).normal(size=(4, 6, 32))
    dist = metrics.predictive_posterior(net, x, m=5,
                                        rng=np.random.default_rng(7))
    assert not np.array_equal(dist.samples[0], dist.samples[1])


def _family_net(family, method, dtype=np.float64):
    cfg = arch.ModelConfig(family=family, uq=method, cnn_blocks=2, f1=16,
                           f2=16, k1=4, k2=4, max_pool=2, u1=8,
                           dropout_rate=0.25)
    return arch.build_network(cfg, 6, 32, seed=2).astype(dtype)


def _tiles(n, m, step):
    """(first pass, passes) of every tile of a chunk's m passes in an
    n-window call with step-window chunks: q = step // min(n, step)
    passes per tile, balanced over ceil(m / q) tiles."""
    n_tiles = -(-m // (step // min(n, step)))
    per_tile = -(-m // n_tiles)
    return [(j, min(per_tile, m - j)) for j in range(0, m, per_tile)]


def _plain_samples(net, x, m, rng):
    """The reference, one chunk after another: 32 windows per chunk for a
    network with an LSTM, 8 otherwise, and chunk c takes the c-th child
    of rng.spawn.  A chunk's m passes are cut into tiles (`_tiles`), and
    tile t draws from the t-th child of its chunk's stream: the layers
    before the first stochastic one run on the chunk, and the rest on
    that output stacked once per pass of the tile.  Each tile runs the
    layers one by one (`arch._run`), not the inference plan that
    `net.forward` takes, and reruns the prefix.  Its products run on one
    OpenBLAS thread, as the posterior's do."""
    samples = np.empty((m, len(x), 2))
    step = 32 if any(isinstance(layer, LSTM) for layer in net.layers) else 8
    starts = range(0, len(x), step)
    first = net.first_stochastic
    tiles = _tiles(len(x), m, step)
    with blas.one_thread():
        for lo, child in zip(starts, rng.spawn(len(starts))):
            chunk = x[lo:lo + step].transpose(0, 2, 1)
            for (j, passes), tile in zip(tiles, child.spawn(len(tiles))):
                h = arch._run(net.layers[:first], chunk, "mc_infer", None)
                logits = arch._run(net.layers[first:],
                                   np.concatenate([h] * passes), "mc_infer",
                                   tile, passes)
                samples[j:j + passes, lo:lo + len(chunk)] = softmax(
                    logits.astype(np.float64)).reshape(passes, -1, 2)
    return samples


def _next_draws_agree(rng_a, rng_b):
    """The next 32-bit draw (buffered or not), the next double and the
    next spawned child agree."""
    for draw in (lambda r: r.integers(2 ** 32, dtype=np.uint32),
                 lambda r: r.random(),
                 lambda r: r.spawn(1)[0].random()):
        assert draw(rng_a) == draw(rng_b)


@pytest.mark.parametrize("method", arch.UQ_METHODS)
@pytest.mark.parametrize("family", arch.FAMILIES)
def test_posterior_prefix_reuse_equals_plain_loop(family, method):
    """150 windows are 19 chunks of 8 (5 of 32 with an LSTM), the last
    one ragged."""
    net = _family_net(family, method)
    x = np.random.default_rng(20).normal(size=(150, 6, 32))
    rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
    dist = metrics.predictive_posterior(net, x, m=3, rng=rng_a)
    expect = _plain_samples(net, x, 3, rng_b)
    assert dist.samples.tobytes() == expect.tobytes()
    _next_draws_agree(rng_a, rng_b)


@pytest.mark.parametrize("method", arch.UQ_METHODS)
@pytest.mark.parametrize("family", arch.FAMILIES)
def test_posterior_checks_every_chunk(family, method, monkeypatch):
    """Two lanes: row 145 sits in the ragged last chunk, of 8 or 32, which
    lane 0 runs; row 125 in chunk 15 of 8 or chunk 3 of 32, which lane 1
    runs."""
    monkeypatch.setattr(lanes, "usable_cores", lambda: 2)
    net = _family_net(family, method)
    for row in (145, 125):
        x = np.random.default_rng(22).normal(size=(150, 6, 32))
        x[row, 3, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            metrics.predictive_posterior(net, x, m=3)
    with pytest.raises(ShapeMismatch):
        metrics.predictive_posterior(net, x[:, :, :31], m=3)


@pytest.mark.parametrize("family, method", [
    pytest.param(f, m, id=m if f == "cnn" else f"{f}-{m}")
    for f in arch.FAMILIES for m in arch.UQ_METHODS])
def test_posterior_float32_net_normalized(family, method):
    """Softmax runs on float64 logits, so float32 rows sum to 1 in 1e-9."""
    net = _family_net(family, method, np.float32)
    x = np.random.default_rng(23).normal(size=(150, 6, 32)).astype(np.float32)
    dist = metrics.predictive_posterior(net, x, m=3,
                                        rng=np.random.default_rng(24))
    expect = _plain_samples(net, x, 3, np.random.default_rng(24))
    assert dist.samples.tobytes() == expect.tobytes()


def _mt19937(seed):
    return np.random.Generator(np.random.MT19937(seed))


def _pcg64_holding_uint32(seed):
    """A PCG64 generator with a buffered 32-bit half in its state."""
    rng = np.random.default_rng(seed)
    rng.integers(2 ** 32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _three_block_mcd_cnn():
    """Dropout after conv blocks 1 and 2 only; block 3 has none."""
    cfg = arch.ModelConfig(family="cnn", uq="mc_dropout", cnn_blocks=3,
                           f1=16, f2=24, f3=20, k1=4, k2=5, k3=6,
                           max_pool=2, dropout_rate=0.25)
    return arch.build_network(cfg, 6, 32, seed=3)


def _wide_conv1_cnn(cnn_blocks=2):
    """An MC-dropout CNN on 32-step windows whose conv1 (9.8e4
    multiplies per window) is held for all passes."""
    cfg = arch.ModelConfig(family="cnn", uq="mc_dropout",
                           cnn_blocks=cnn_blocks, f1=32, f2=32, f3=32,
                           k1=16, k2=16, k3=16, max_pool=2,
                           dropout_rate=0.25)
    return arch.build_network(cfg, 6, 32, seed=3)


def _rows_moved_cnn():
    """Its conv3 takes 4 rows per window, so its products are small
    enough that a BLAS may pick their kernel, and so round their rows,
    by the row count of the call."""
    cfg = arch.ModelConfig(family="cnn", uq="mc_dropout", cnn_blocks=3,
                           f1=108, f2=102, f3=127, k1=8, k2=12, k3=9,
                           max_pool=4, dropout_rate=0.3)
    return arch.build_network(cfg, 6, 64, seed=1)


@pytest.mark.parametrize("net_of, n, m, rng_of", [
    *[(_wide_conv1_cnn, n, 3, np.random.default_rng)
      for n in (1, 7, 8, 9, 15, 16, 17, 64, 65)],
    (_wide_conv1_cnn, 65, 1, np.random.default_rng),
    (_three_block_mcd_cnn, 150, 3, np.random.default_rng),
    (lambda: _wide_conv1_cnn(3), 140, 3, np.random.default_rng),
    (lambda: _family_net("cnn_lstm", "mc_dropout"), 81, 2,
     np.random.default_rng),
    (_wide_conv1_cnn, 150, 3, _mt19937),
    (_wide_conv1_cnn, 70, 2, _pcg64_holding_uint32),
    (_wide_conv1_cnn, 150, 2, np.random.default_rng),
    (_rows_moved_cnn, 30, 2, np.random.default_rng),
], ids=["n1", "n7", "n8", "n9", "n15", "n16", "n17", "n64", "n65", "m1",
        "three_blocks", "three_blocks_chunk_outer", "cnn_lstm", "mt19937",
        "pcg64_uint32", "ragged_6_window_sub_chunk", "rows_moved_by_blas"])
def test_posterior_edge_cases_equal_plain_loop(net_of, n, m, rng_of):
    """Byte-equal samples, and the rng left where the plain loop leaves it."""
    net = net_of()
    length = net.window_length
    x = np.random.default_rng(26).normal(size=(n, 6, length))
    rng_a, rng_b = rng_of(27), rng_of(27)
    dist = metrics.predictive_posterior(net, x, m=m, rng=rng_a)
    expect = _plain_samples(net, x, m, rng_b)
    assert dist.samples.tobytes() == expect.tobytes()
    _next_draws_agree(rng_a, rng_b)


def _spy(net, probe):
    """The set of probe() values seen at every net.forward call, in any
    thread."""
    forward, seen = net.forward, set()

    def spy(*args, **kwargs):
        seen.add(probe())
        return forward(*args, **kwargs)

    net.forward = spy
    return seen


@pytest.mark.parametrize("family, method", [
    ("cnn", "mc_dropout"), ("cnn", "dropconnect"), ("cnn_lstm", "flipout")])
def test_posterior_bytes_do_not_depend_on_lanes(family, method, monkeypatch):
    """150 windows are 19 chunks of 8 or 5 of 32; 1, 2 and 3 lanes give
    the same bytes.  Lane 0 runs in the calling thread; with OpenBLAS
    loaded, the other lanes run on a pool, which may reuse a thread whose
    lane is done."""
    net = _family_net(family, method)
    x = np.random.default_rng(28).normal(size=(150, 6, 32))
    threads = _spy(net, threading.get_ident)
    runs = []
    for n_lanes in (1, 2, 3):
        monkeypatch.setattr(lanes, "usable_cores", lambda: n_lanes)
        threads.clear()
        runs.append(metrics.predictive_posterior(
            net, x, m=3, rng=np.random.default_rng(29)).samples.tobytes())
        assert threading.get_ident() in threads
        if n_lanes > 1 and blas._openblas():
            assert 1 < len(threads) <= n_lanes
        else:
            assert len(threads) == 1
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("n", (1, 3, 7))
@pytest.mark.parametrize("family, method", [
    ("cnn", "mc_dropout"), ("cnn", "dropconnect"), ("cnn_lstm", "flipout"),
    ("resnet", "mc_dropout")])
def test_small_posterior_bytes_do_not_depend_on_lanes(family, method, n,
                                                      monkeypatch):
    """Fewer windows than a chunk, M = 10: one chunk whose passes are cut
    into tiles of several stacked passes, dealt to 1, 2 and 3 lanes; every
    lane count gives the reference bytes."""
    net = _family_net(family, method)
    x = np.random.default_rng(50).normal(size=(n, 6, 32))
    expect = _plain_samples(net, x, 10, np.random.default_rng(51)).tobytes()
    for n_lanes in (1, 2, 3):
        monkeypatch.setattr(lanes, "usable_cores", lambda: n_lanes)
        dist = metrics.predictive_posterior(net, x, m=10,
                                            rng=np.random.default_rng(51))
        assert dist.samples.tobytes() == expect


def _stacked_layer(kind):
    rng = np.random.default_rng(52)
    if kind == "dropconnect_conv":
        return uq.DropConnectConv1D(Conv1D(6, 5, 3, rng), 0.3), (4, 9, 6)
    if kind == "dropconnect_dense":
        return uq.DropConnectDense(Dense(6, 5, rng), 0.3), (4, 6)
    return uq.FlipoutDense(Dense(6, 5, rng)), (4, 6)


def _replayed_flipout(layer, h, passes, rng):
    """Every row block of a Flipout tile of `passes` stacked copies of h,
    in closed form from the tile's draws replayed from rng: the signs r
    and s over all stacked rows, then every block's weight noise, then
    every block's bias noise."""
    rows, n_in, n_out = passes * len(h), layer.n_in, layer.n_out
    r = np.split(2.0 * rng.integers(0, 2, size=(rows, n_in)) - 1, passes)
    s = np.split(2.0 * rng.integers(0, 2, size=(rows, n_out)) - 1, passes)
    e_w = rng.normal(size=(passes, n_in, n_out))
    e_b = rng.normal(size=(passes, n_out))
    sig_w = np.log1p(np.exp(layer.rho_w.value))
    sig_b = np.log1p(np.exp(layer.rho_b.value))
    return [h @ layer.mu_w.value + ((h * r[i]) @ (sig_w * e_w[i])) * s[i]
            + layer.mu_b.value + sig_b * e_b[i] for i in range(passes)]


@pytest.mark.parametrize("passes", (2, 5))
@pytest.mark.parametrize("kind", ("dropconnect_conv", "dropconnect_dense",
                                  "flipout"))
def test_stacked_weight_noise_tile_equals_single_passes(kind, passes):
    """A weight-noise layer on `passes` stacked copies of its rows gives
    each block its own weight sample, and leaves its generator where the
    reference leaves it.  DropConnect's blocks are, byte for byte, that
    many single-pass forwards that draw in order from one generator.
    Flipout draws each kind of noise once for the tile, so its blocks
    are the closed form of the tile's replayed draws."""
    layer, shape = _stacked_layer(kind)
    h = np.random.default_rng(53).normal(size=shape)
    rng_a, rng_b = np.random.default_rng(54), np.random.default_rng(54)
    stacked = layer.forward(np.concatenate([h] * passes), mode="mc_infer",
                            rng=rng_a, passes=passes)
    blocks = np.split(stacked, passes)
    if kind == "flipout":
        for block, ref in zip(blocks,
                              _replayed_flipout(layer, h, passes, rng_b)):
            np.testing.assert_allclose(block, ref, rtol=1e-12, atol=1e-14)
    else:
        for block in blocks:
            single = layer.forward(h, mode="mc_infer", rng=rng_b)
            assert block.tobytes() == single.tobytes()
    assert len({block.tobytes() for block in blocks}) == passes
    _next_draws_agree(rng_a, rng_b)


@pytest.mark.parametrize("family, method, dtype", [
    pytest.param(f, m, d, id=f"{f}-{m}-{np.dtype(d).name}")
    for f in arch.FAMILIES for m in arch.UQ_METHODS
    for d in (np.float64, np.float32)])
def test_posterior_plan_bytes_equal_unfused_for_any_lanes(family, method,
                                                          dtype, monkeypatch):
    """Top-level batch norms as training leaves them (5 of 16 gammas
    negative, running means shifted), so the cnn and cnn_lstm conv blocks
    min-pool some channels: for every family, the samples of 1, 2 and 3
    lanes, which run the inference plan with each layer's constants held
    for the call, are the bytes of plain layer-by-layer passes outside
    any frozen() block."""
    net = perturbed_net(family, method, dtype)
    x = np.random.default_rng(48).normal(size=(150, 6, 32)).astype(dtype)
    expect = _plain_samples(net, x, 3, np.random.default_rng(49)).tobytes()
    for n_lanes in (1, 2, 3):
        monkeypatch.setattr(lanes, "usable_cores", lambda: n_lanes)
        dist = metrics.predictive_posterior(net, x, m=3,
                                            rng=np.random.default_rng(49))
        assert dist.samples.tobytes() == expect


@pytest.fixture
def openblas_at_two():
    """OpenBLAS's (set, get) thread-count calls, with 2 threads set, so a
    call that leaves it at 1 shows; the count found is restored after."""
    api = blas._openblas()
    if api is None:
        pytest.skip("no OpenBLAS loaded")
    set_threads, get_threads = api
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


def test_posterior_restores_blas_threads(openblas_at_two, monkeypatch):
    """One thread inside every forward, single-window calls included, and
    the caller's count after a normal call and after a chunk raised."""
    get_threads = openblas_at_two
    net = _family_net("cnn", "mc_dropout")
    seen = _spy(net, get_threads)
    monkeypatch.setattr(lanes, "usable_cores", lambda: 2)
    x = np.random.default_rng(30).normal(size=(40, 6, 32))
    for windows in (x[:1], x):
        metrics.predictive_posterior(net, windows, m=2)
        assert seen == {1}
        assert get_threads() == 2
    x[12, 0, 0] = np.nan  # chunk 1, which lane 1 runs
    with pytest.raises(ValueError, match="non-finite"):
        metrics.predictive_posterior(net, x, m=2)
    assert get_threads() == 2


def test_posterior_concurrent_callers_restore_blas_threads(openblas_at_two,
                                                           monkeypatch):
    """Four threads in the posterior at once, two lanes each, under a short
    switch interval: every forward runs at one OpenBLAS thread, each
    caller gets its plain-loop bytes, though all fill and read one set of
    held constants, and the count is restored and nothing is held when
    all have left."""
    get_threads = openblas_at_two
    monkeypatch.setattr(lanes, "usable_cores", lambda: 2)
    net = _family_net("cnn", "mc_dropout")
    seen = _spy(net, get_threads)
    x = np.random.default_rng(31).normal(size=(64, 6, 32))
    start = threading.Barrier(4)
    out = [None] * 4

    def call(i):
        start.wait()
        out[i] = metrics.predictive_posterior(
            net, x, m=3, rng=np.random.default_rng(32 + i)).samples

    callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert seen == {1}
    assert get_threads() == 2
    assert net._frozen == 0
    assert all(layer._held is None for layer in net.layers)
    for i in range(4):
        expect = _plain_samples(net, x, 3, np.random.default_rng(32 + i))
        assert out[i].tobytes() == expect.tobytes()


def test_posterior_memory_peak_not_above_plain_loop(monkeypatch):
    """conv1's output is 10.7x its input, and it is held per 8-window chunk.

    The yardstick is a plain loop of 64-window passes.  Two lanes run at
    once; each 8-window chunk holds its own 1.6 MB conv1 output for all
    passes, and each of its passes is an eighth of a 64-window one.
    Holding a 64-window chunk's conv1 output would add 13 MB to the
    yardstick's peak; the 64 KiB slack covers only Python bookkeeping
    objects.
    """
    monkeypatch.setattr(lanes, "usable_cores", lambda: 2)
    cfg = arch.ModelConfig(family="cnn", uq="mc_dropout", cnn_blocks=2,
                           f1=64, f2=64, k1=8, k2=8, max_pool=4)
    net = arch.build_network(cfg, 6, 400, seed=0)
    x = np.random.default_rng(25).normal(size=(150, 6, 400))

    def plain_loop():
        samples = np.empty((3, len(x), 2))
        rng = np.random.default_rng(0)
        for j in range(3):
            for lo in range(0, len(x), 64):
                logits = net.forward(x[lo:lo + 64], mode="mc_infer", rng=rng)
                samples[j, lo:lo + len(logits)] = softmax(logits)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain = peak(plain_loop)
    ours = peak(lambda: metrics.predictive_posterior(
        net, x, m=3, rng=np.random.default_rng(0)))
    assert ours <= plain + 64 * 1024, (ours, plain)


def test_one_window_posterior_forwards_hold_a_chunk_of_rows(monkeypatch):
    """One window, M = 10, on two lanes: the prefix runs on the window,
    then two tiles of 5 stacked passes run at once, one per lane, so no
    forward holds more than a chunk's rows and the call peaks below a
    call on one full chunk of 8 windows."""
    monkeypatch.setattr(lanes, "usable_cores", lambda: 2)
    cfg = arch.ModelConfig(family="cnn", uq="mc_dropout", cnn_blocks=2,
                           f1=64, f2=64, k1=8, k2=8, max_pool=4)
    net = arch.build_network(cfg, 6, 400, seed=0)
    x = np.random.default_rng(25).normal(size=(metrics.CHUNK, 6, 400))
    forward, rows, threads = net.forward, [], set()

    def spy(h, *args, **kwargs):
        rows.append(len(h))
        threads.add(threading.get_ident())
        return forward(h, *args, **kwargs)

    def peak(windows):
        tracemalloc.start()
        try:
            metrics.predictive_posterior(net, windows, m=10,
                                         rng=np.random.default_rng(0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    full = peak(x)
    net.forward = spy
    one = peak(x[:1])
    assert sorted(rows) == [1, 5, 5]
    if blas._openblas():
        assert len(threads) == 2
    assert one <= full, (one, full)


def _count_forwards(net):
    """Per-layer forward call counts, kept up to date as the net runs, in
    any number of threads."""
    counts = [0] * len(net.layers)
    lock = threading.Lock()
    for i, layer in enumerate(net.layers):
        def counted(*args, _i=i, _forward=layer.forward, **kwargs):
            with lock:
                counts[_i] += 1
            return _forward(*args, **kwargs)
        layer.forward = counted
    return counts


@pytest.mark.parametrize("family, method, first, step", [
    ("cnn", "mc_dropout", 1, 8),         # conv1, then dropout
    ("cnn_lstm", "flipout", -1, 32),     # the whole trunk, then the head
])
def test_posterior_prefix_runs_once_per_chunk(family, method, first, step):
    """Layers before the first stochastic one run once per chunk, the
    rest once per pass: 150 windows are 19 chunks of 8 or 5 of 32."""
    net = _family_net(family, method)
    first %= len(net.layers)
    assert net.first_stochastic == first
    counts = _count_forwards(net)
    x = np.random.default_rng(26).normal(size=(150, 6, 32))
    metrics.predictive_posterior(net, x, m=3)
    chunks = -(-150 // step)
    assert counts == [chunks] * first + [3 * chunks] * (len(net.layers)
                                                        - first)


# ---------------------------------------------------------------------------
# inference constants held for one posterior call


@pytest.mark.parametrize("family, method", [
    ("cnn", "mc_dropout"), ("resnet", "flipout"), ("cnn_lstm", "none")])
def test_posterior_holds_nothing_after_return_or_raise(family, method,
                                                       monkeypatch):
    """Constants are held while the passes run, and nothing is held once
    the call returns, or once a lane has raised (row 12 is in chunk 1,
    which lane 1 runs)."""
    monkeypatch.setattr(lanes, "usable_cores", lambda: 2)
    net = _family_net(family, method)
    layers = leaf_layers(net.layers)
    seen = _spy(net, lambda: sum(bool(layer._held) for layer in layers))
    x = np.random.default_rng(33).normal(size=(40, 6, 32))
    metrics.predictive_posterior(net, x, m=3)
    assert max(seen) > 0
    assert all(layer._held is None for layer in layers)
    x[12, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        metrics.predictive_posterior(net, x, m=3)
    assert all(layer._held is None for layer in layers)
    assert net._frozen == 0


def test_posterior_dropconnect_conv_redraws_weight_every_pass(monkeypatch):
    """One window, M = 10, in two tiles of 5 stacked passes: each
    DropConnect conv draws a weight mask for all 10 passes, one draw per
    tile, and holds nothing, so the 10 samples differ."""
    net = _family_net("cnn", "dropconnect")
    draws, held = Counter(), []
    draw = uq._Bernoulli._draw

    def counted(self, shape, rng, passes=1):
        draws[self.name] += passes
        held.append(self._held)
        return draw(self, shape, rng, passes)

    monkeypatch.setattr(uq._Bernoulli, "_draw", counted)
    x = np.random.default_rng(34).normal(size=(1, 6, 32))
    dist = metrics.predictive_posterior(net, x, m=10)
    convs = [layer.name for layer in net.layers
             if isinstance(layer, uq.DropConnectConv1D)]
    assert len(convs) == 2 and {draws[name] for name in convs} == {10}
    assert held == [{}] * 4
    assert len({row.tobytes() for row in dist.samples[:, 0]}) == 10


@pytest.mark.parametrize("family", ("cnn", "cnn_lstm"))
def test_posterior_flipout_redraws_weight_every_pass(family, monkeypatch):
    """One window, M = 10, in one tile of 10 stacked passes or two of 5:
    the Flipout head draws its weight noise for all 10 passes, so the 10
    samples are pairwise distinct."""
    net = _family_net(family, "flipout")
    draws = Counter()
    forward = uq.FlipoutDense.forward

    def counted(self, x, mode="train", rng=None, passes=1):
        draws[self.name] += passes
        return forward(self, x, mode, rng, passes)

    monkeypatch.setattr(uq.FlipoutDense, "forward", counted)
    x = np.random.default_rng(34).normal(size=(1, 6, 32))
    dist = metrics.predictive_posterior(net, x, m=10)
    assert list(draws.values()) == [10]
    assert len({row.tobytes() for row in dist.samples[:, 0]}) == 10


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_posterior_plans_once_per_call(dtype, monkeypatch):
    """One window, M = 10: the fused pairs are found once per call, and
    each fused batch norm's gamma sign (5 of 16 negative) is derived once;
    the samples are the layer-by-layer ones."""
    net = perturbed_net("cnn", "mc_dropout", dtype)
    fused_starts, gamma_sign = arch._fused_starts, arch._gamma_sign
    plans, signs = [], Counter()

    def counted_plan(layers):
        plans.append(len(layers))
        return fused_starts(layers)

    def counted_sign(bn, sign_dtype):
        signs[bn.name] += 1
        return gamma_sign(bn, sign_dtype)

    monkeypatch.setattr(arch, "_fused_starts", counted_plan)
    monkeypatch.setattr(arch, "_gamma_sign", counted_sign)
    x = np.random.default_rng(37).normal(size=(1, 6, 32)).astype(dtype)
    dist = metrics.predictive_posterior(net, x, m=10,
                                        rng=np.random.default_rng(38))
    assert plans == [len(net.layers)]
    assert signs == {"b1_bn": 1, "b2_bn": 1}
    expect = _plain_samples(net, x, 10, np.random.default_rng(38))
    assert dist.samples.tobytes() == expect.tobytes()


@pytest.mark.parametrize("family, method", [
    ("cnn", "mc_dropout"), ("cnn_lstm", "flipout"), ("resnet", "none")])
def test_posterior_after_train_step_equals_loaded_checkpoint(family, method,
                                                             tmp_path):
    """An epoch of training between two posterior calls moves every
    weight, batch-norm statistic and Flipout rho; the second call gives
    the samples of the trained network loaded afresh."""
    net = _family_net(family, method)
    rng = np.random.default_rng(35)
    x = rng.normal(size=(20, 6, 32))
    y = rng.integers(0, 2, size=20)
    metrics.predictive_posterior(net, x, m=3)
    training.train_network(net, x, y, x, y, epochs=1, seed=0)
    after = metrics.predictive_posterior(net, x, m=3,
                                         rng=np.random.default_rng(36))
    arch.save_network(net, tmp_path / "net.ckpt")
    loaded, _ = arch.load_network(tmp_path / "net.ckpt")
    fresh = metrics.predictive_posterior(loaded, x, m=3,
                                         rng=np.random.default_rng(36))
    assert after.samples.tobytes() == fresh.samples.tobytes()


def test_posterior_tiles_batch_norm_rows_once_per_length(monkeypatch):
    """One window, M = 10: two tiles of 5 stacked passes.  Both batch
    norms follow the first dropout, so they run once per tile, each at
    one length, and tile their rows once."""
    net = _family_net("cnn", "mc_dropout")
    tiled = Counter()
    rows_of = BatchNorm1D._inference_rows

    def counted(self, reps):
        tiled[self.name, reps] += 1
        return rows_of(self, reps)

    monkeypatch.setattr(BatchNorm1D, "_inference_rows", counted)
    counts = _count_forwards(net)
    x = np.random.default_rng(37).normal(size=(1, 6, 32))
    metrics.predictive_posterior(net, x, m=10)
    bns = [i for i, layer in enumerate(net.layers)
           if isinstance(layer, BatchNorm1D)]
    assert len(bns) == 2 and [counts[i] for i in bns] == [2, 2]
    assert len(tiled) == 2 and set(tiled.values()) == {1}


# SHA-256 of the samples of one M = 10 posterior call (see
# _pinned_posterior); a change to how the stochastic layers draw or apply
# their noise shows here as the cases whose bytes it moves
PINNED_POSTERIOR = {
    ("cnn", "mc_dropout", "float64", 1):
        "cda2cf48a44200ddf4d2d6ee28a8f3ddebca9d4587b31dd70bc5b5556d779c36",
    ("cnn", "mc_dropout", "float64", 40):
        "f58e1feee01169fbc2f593286a8585dfd815580f1343c8cac44f5d9731b52b27",
    ("cnn", "mc_dropout", "float32", 1):
        "cf3aed7ea3d2d5764f43c855dfc9cdf09f9284af983027e68a1d425c2aa0948a",
    ("cnn", "mc_dropout", "float32", 40):
        "73bff75e903eacd179f9fba0c0c80bf12efff868846686c89b091a8f06c1a09e",
    ("cnn", "dropconnect", "float64", 1):
        "a4486f39c0cd5295b4efe3b7c9064b1ac82a9dd5e180634283b17067d1be2906",
    ("cnn", "dropconnect", "float64", 40):
        "3c20e408cc1dabb82af35c0b1254ee636f81c4069136268194ced937a301cbd1",
    ("cnn", "dropconnect", "float32", 1):
        "e2ab26caf48b8e71803317d68b66ecadb18160fef55119fe3aac030bc29e6d67",
    ("cnn", "dropconnect", "float32", 40):
        "0c5d3b981d92a78dd02c2428fc9638050967e09ccd17e67a4a68410ecf8ea711",
    ("cnn", "flipout", "float64", 1):
        "d04f63ccf1dbf3be319ba622ad7f9844a01ed460638e657b394744fd756d82e8",
    ("cnn", "flipout", "float64", 40):
        "23eb254dcb0a3d51206c6684c5eaef7138e02e2097454cc4781bdada2f6b9f6d",
    ("cnn", "flipout", "float32", 1):
        "d118a610b5b83ece55f01daf3f5e32f1aa63f48bb42c1bc3bc016efb1efe784a",
    ("cnn", "flipout", "float32", 40):
        "ac0c58b3d85b90576512de4d6b43f425610b7a08a94ab6f8a1cdc5c9984ddbf0",
    ("cnn_lstm", "flipout", "float64", 1):
        "b1d1751053d1448c0d0bc4464cc7f7bda8cee4ad13aa712a12f5dc8856a8a084",
    ("cnn_lstm", "flipout", "float64", 40):
        "e1fbfa3e2a4eb1e59d3b12622a86c6e81eadeb2cba3709cee12ec0dde46ba5fd",
    ("cnn_lstm", "flipout", "float32", 1):
        "f75042181f89310f1b5ee0ed5f24bb99caecd81439d82f08304183317b032ec8",
    ("cnn_lstm", "flipout", "float32", 40):
        "91f5a06231efdab6ff192be9175058ab98da4e52a63d374579ab10f3313d16e7",
}


def _pinned_posterior(family, method, dtype, n):
    net = _family_net(family, method, np.dtype(dtype).type)
    x = np.random.default_rng(60 + n).normal(size=(n, 6, 32))
    dist = metrics.predictive_posterior(net, x, m=10,
                                        rng=np.random.default_rng(61))
    return hashlib.sha256(dist.samples.tobytes()).hexdigest()


@pytest.mark.parametrize("case", PINNED_POSTERIOR,
                         ids=lambda case: "-".join(map(str, case)))
def test_posterior_sample_bytes_pinned(case):
    """For every UQ method in both precisions: one window, in two tiles of
    5 stacked passes, and 40 windows, in one-pass tiles over five chunks
    of 8 (with an LSTM, a chunk of 32 and a short one of 8)."""
    assert _pinned_posterior(*case) == PINNED_POSTERIOR[case]


def test_posterior_rejects_unnormalized():
    with pytest.raises(metrics.NotNormalized):
        metrics.PredictiveDistribution.from_samples(np.full((2, 2, 2), 0.3))


# ---------------------------------------------------------------------------
# entropy


def test_entropy_uniform():
    assert metrics.predictive_entropy([0.5, 0.5]) == pytest.approx(
        np.log(2.0), abs=1e-12)


def test_entropy_certain():
    assert metrics.predictive_entropy([1.0, 0.0]) == 0.0


def test_entropy_hand_case():
    got = metrics.predictive_entropy([0.7, 0.3])
    expect = -(0.7 * np.log(0.7) + 0.3 * np.log(0.3))
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(0.6109, abs=1e-4)


def test_entropy_bounds_and_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = rng.dirichlet((1.0, 1.0))
        h = metrics.predictive_entropy(p)
        assert 0.0 <= h <= np.log(2.0) + 1e-12
        assert h == pytest.approx(metrics.predictive_entropy(p[::-1]), abs=1e-12)


def test_entropy_rejects_unnormalized():
    with pytest.raises(metrics.NotNormalized):
        metrics.predictive_entropy([0.9, 0.3])


# ---------------------------------------------------------------------------
# ECE


def _probs_from_conf(confs, preds):
    """[N,2] matrix whose max-prob confidence and argmax match the args."""
    out = np.empty((len(confs), 2))
    for i, (c, p) in enumerate(zip(confs, preds)):
        out[i, p] = c
        out[i, 1 - p] = 1.0 - c
    return out


def test_ece_perfect_confidence():
    probs = _probs_from_conf([1.0, 1.0, 1.0], [0, 1, 0])
    labels = np.array([0, 1, 0])
    assert metrics.ece(probs, labels, k=10) == pytest.approx(0.0, abs=1e-12)


def test_ece_hand_binned_k2():
    # confidences {0.9 ok, 0.9 ok, 0.6 wrong, 0.6 ok} all in bin 2 of K=2
    probs = _probs_from_conf([0.9, 0.9, 0.6, 0.6], [0, 0, 0, 0])
    labels = np.array([0, 0, 1, 0])
    assert metrics.ece(probs, labels, k=2) == pytest.approx(0.0, abs=1e-12)


def test_ece_hand_binned_k4():
    probs = _probs_from_conf([0.9, 0.9, 0.6, 0.6], [0, 0, 0, 0])
    labels = np.array([0, 0, 1, 0])
    assert metrics.ece(probs, labels, k=4) == pytest.approx(0.1, abs=1e-12)


def test_ece_k1_closed_form():
    rng = np.random.default_rng(9)
    conf = rng.uniform(0.5, 1.0, size=50)
    preds = rng.integers(0, 2, size=50)
    labels = rng.integers(0, 2, size=50)
    probs = _probs_from_conf(conf, preds)
    acc = np.mean(preds == labels)
    assert metrics.ece(probs, labels, k=1) == pytest.approx(
        abs(acc - conf.mean()), abs=1e-12)


def test_ece_calibrated_stream_small():
    # draw confidence, then make the prediction correct w.p. exactly conf
    rng = np.random.default_rng(10)
    n = 10_000
    conf = rng.uniform(0.5, 1.0, size=n)
    correct = rng.random(n) < conf
    labels = rng.integers(0, 2, size=n)
    preds = np.where(correct, labels, 1 - labels)
    probs = _probs_from_conf(conf, preds)
    assert metrics.ece(probs, labels, k=10) < 0.03


def test_ece_bin_edges_right_inclusive():
    # 0.5 belongs to bin [0.25,0.5] when K=4 (right-inclusive edges)
    idx = metrics._bin_index(np.array([0.5, 0.500001, 0.0, 1.0]), 4)
    np.testing.assert_array_equal(idx, [1, 2, 0, 3])


def test_ece_empty_rejected():
    with pytest.raises(metrics.EmptyInput):
        metrics.ece(np.zeros((0, 2)), np.zeros(0))


# ---------------------------------------------------------------------------
# F1


def test_f1_perfect():
    res = metrics.f1_and_accuracy(np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1]))
    assert (res.f1_cl0, res.f1_cl1, res.f1_weighted, res.accuracy) == \
        (1.0, 1.0, 1.0, 1.0)


def test_f1_confusion_hand_case():
    res = metrics.f1_and_accuracy(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]))
    assert res.f1_cl0 == pytest.approx(2 / 3, abs=1e-4)
    assert res.f1_cl1 == pytest.approx(0.8, abs=1e-4)
    assert res.f1_weighted == pytest.approx(0.7333, abs=1e-4)
    assert res.accuracy == pytest.approx(0.75, abs=1e-12)


def test_f1_degenerate_all_one_class():
    res = metrics.f1_and_accuracy(np.ones(4, dtype=int), np.array([0, 0, 1, 1]))
    assert res.f1_cl0 == 0.0
    assert res.f1_cl1 > 0.0


def test_f1_zero_support_flagged():
    res = metrics.f1_and_accuracy(np.zeros(3, dtype=int), np.zeros(3, dtype=int))
    assert res.degenerate_classes == (1,)
    assert res.f1_cl1 == 0.0


def _brute_f1(preds, labels, cls):
    tp = np.sum((preds == cls) & (labels == cls))
    fp = np.sum((preds == cls) & (labels != cls))
    fn = np.sum((preds != cls) & (labels == cls))
    if tp == 0:
        return 0.0
    p, r = tp / (tp + fp), tp / (tp + fn)
    return 2 * p * r / (p + r)


def test_f1_matches_brute_force_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        res = metrics.f1_and_accuracy(preds, labels)
        assert res.f1_cl0 == pytest.approx(_brute_f1(preds, labels, 0), abs=1e-12)
        assert res.f1_cl1 == pytest.approx(_brute_f1(preds, labels, 1), abs=1e-12)
        s0 = np.mean(labels == 0)
        expect_w = s0 * _brute_f1(preds, labels, 0) + (1 - s0) * _brute_f1(preds, labels, 1)
        assert res.f1_weighted == pytest.approx(expect_w, abs=1e-12)


def test_f1_empty_rejected():
    with pytest.raises(metrics.EmptyInput):
        metrics.f1_and_accuracy(np.zeros(0), np.zeros(0))


# ---------------------------------------------------------------------------
# selection gate


def _report_stub(f1_cl0, f1_cl1, mean_entropy, ece_val=0.05):
    n = 4
    return metrics.EvalReport(
        mean_probs=np.full((n, 2), 0.5), entropy=np.full(n, mean_entropy),
        labels=np.zeros(n, dtype=int), preds=np.zeros(n, dtype=int),
        outcomes=["TN"] * n, accuracy=1.0, f1_cl0=f1_cl0, f1_cl1=f1_cl1,
        f1_weighted=(f1_cl0 + f1_cl1) / 2, mean_entropy=mean_entropy,
        ece=ece_val)


def test_select_row24_aggregates():
    rep = _report_stub(0.9942, 0.9814, 0.0142, ece_val=0.0532)
    part = metrics.select_candidates([rep])
    assert part["select"] == [rep]


def test_select_boundaries_inclusive():
    rep = _report_stub(0.9, 0.9, 0.1)
    assert metrics.select_candidates([rep])["select"] == [rep]


def test_reject_low_f1():
    rep = _report_stub(0.95, 0.89, 0.05)
    assert metrics.select_candidates([rep])["reject"] == [rep]


def test_reject_high_entropy():
    rep = _report_stub(0.95, 0.95, 0.12)
    assert metrics.select_candidates([rep])["reject"] == [rep]


# ---------------------------------------------------------------------------
# outcomes / entropy grouping


def test_outcome_tags():
    preds = np.array([1, 0, 1, 0])
    labels = np.array([1, 0, 0, 1])
    assert metrics.classify_outcomes(preds, labels) == ["TP", "TN", "FP", "FN"]


def test_entropy_by_outcome_one_each():
    dist = metrics.PredictiveDistribution.from_samples(
        np.array([[[0.9, 0.1], [0.8, 0.2], [0.4, 0.6], [0.55, 0.45]]]))
    labels = np.array([0, 1, 0, 0])  # TN, FN, FP, TN
    rep = metrics.build_report(dist, labels)
    groups = metrics.entropy_by_outcome(rep)
    assert len(groups["TN"]) == 2
    assert len(groups["FN"]) == 1
    assert len(groups["FP"]) == 1
    assert len(groups["TP"]) == 0


def test_entropy_by_outcome_all_correct():
    dist = metrics.PredictiveDistribution.from_samples(
        np.array([[[0.9, 0.1], [0.2, 0.8]]]))
    labels = np.array([0, 1])
    rep = metrics.build_report(dist, labels)
    groups = metrics.entropy_by_outcome(rep)
    assert groups["FP"].size == 0 and groups["FN"].size == 0
    assert groups["TN"].size == 1 and groups["TP"].size == 1


# ---------------------------------------------------------------------------
# report build + CSV roundtrip


def _sample_report(n=50, seed=12):
    rng = np.random.default_rng(seed)
    samples = rng.dirichlet((2.0, 1.0), size=(10, n))
    dist = metrics.PredictiveDistribution.from_samples(samples)
    labels = rng.integers(0, 2, n)
    return metrics.build_report(dist, labels, k=10)


def test_report_aggregates_consistent():
    rep = _sample_report()
    recomputed = metrics.f1_and_accuracy(rep.preds, rep.labels)
    assert rep.accuracy == pytest.approx(recomputed.accuracy, abs=1e-12)
    assert rep.f1_weighted == pytest.approx(recomputed.f1_weighted, abs=1e-12)
    assert rep.mean_entropy == pytest.approx(float(rep.entropy.mean()), abs=1e-12)
    assert sum(r.count for r in rep.bins) == len(rep)


def test_report_csv_roundtrip(tmp_path):
    rep = _sample_report()
    path = tmp_path / "report.csv"
    metrics.write_report_csv(rep, path)
    back = metrics.read_report_csv(path)
    np.testing.assert_array_equal(back.mean_probs, rep.mean_probs)
    np.testing.assert_array_equal(back.entropy, rep.entropy)
    np.testing.assert_array_equal(back.labels, rep.labels)
    assert back.outcomes == rep.outcomes
    assert back.ece == pytest.approx(rep.ece, abs=1e-15)
    assert len(back.bins) == len(rep.bins)


def test_report_csv_rejects_missing_aggregates(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample_id,p0,p1,entropy,label,pred,outcome\n"
                    "0,0.9,0.1,0.3,0,0,TN\n")
    with pytest.raises(metrics.MalformedReport):
        metrics.read_report_csv(path)


def test_report_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,prob\n1,0.5\n")
    with pytest.raises(metrics.MalformedReport):
        metrics.read_report_csv(path)
