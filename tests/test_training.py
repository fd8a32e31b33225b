"""Training-loop contract: determinism, learning, ELBO bookkeeping."""

import hashlib

import numpy as np
import pytest

from uqtsc import arch, training, uq
from uqtsc import nncore as nn
from uqtsc.nncore import blas, lanes
from uqtsc.nncore.layers import (Dense, softmax_cross_entropy,
                                 softmax_cross_entropy_backward)


def _toy_data(n, seed, channels=3, window=16):
    # class k centered at 2k-1; trivially separable by the channel mean
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    x = rng.normal(size=(n, channels, window)) * 0.3
    x += (2.0 * y - 1.0)[:, None, None]
    return x, y


def _toy_net(uq_method="none", seed=0, channels=3, window=16):
    cfg = arch.ModelConfig(family="cnn", uq=uq_method, cnn_blocks=1,
                           f1=16, k1=4, max_pool=2, batch_size=16,
                           dropout_rate=0.2)
    return arch.build_network(cfg, channels, window, seed=seed)


def test_smoke_two_epochs_logs_both():
    x, y = _toy_data(48, 0)
    xv, yv = _toy_data(16, 1)
    hist = training.train_network(_toy_net(), x, y, xv, yv, epochs=2, seed=3)
    assert len(hist) == 2
    assert [h.epoch for h in hist] == [0, 1]
    for h in hist:
        assert np.isfinite(h.train_loss) and np.isfinite(h.val_loss)
        assert 0.0 <= h.val_wf1 <= 1.0


def test_same_seed_identical_history():
    x, y = _toy_data(48, 2)
    xv, yv = _toy_data(16, 3)
    runs = []
    for _ in range(2):
        hist = training.train_network(_toy_net(seed=5), x, y, xv, yv,
                                      epochs=3, seed=7)
        runs.append([(h.train_loss, h.val_loss, h.val_wf1) for h in hist])
    assert runs[0] == runs[1]


def test_learns_separable_toy():
    x, y = _toy_data(96, 4)
    xv, yv = _toy_data(32, 5)
    hist = training.train_network(_toy_net(seed=6), x, y, xv, yv,
                                  epochs=8, seed=8)
    assert hist[-1].val_wf1 >= 0.9
    assert hist[-1].train_loss < hist[0].train_loss


def test_flipout_history_carries_kl():
    x, y = _toy_data(48, 9)
    xv, yv = _toy_data(16, 10)
    hist = training.train_network(_toy_net("flipout", seed=11), x, y, xv, yv,
                                  epochs=2, seed=12)
    assert all(h.kl is not None and h.kl > 0.0 for h in hist)


def test_training_log_kl_column(tmp_path):
    x, y = _toy_data(48, 13)
    xv, yv = _toy_data(16, 14)
    path = tmp_path / "log.csv"

    hist = training.train_network(_toy_net("flipout", seed=15), x, y, xv, yv,
                                  epochs=2, seed=16)
    training.write_training_log(hist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_wF1,kl"
    assert len(lines) == 3

    hist = training.train_network(_toy_net(seed=15), x, y, xv, yv,
                                  epochs=2, seed=16)
    training.write_training_log(hist, path)
    assert path.read_text().splitlines()[0] == "epoch,train_loss,val_loss,val_wF1"


def test_kl_grads_match_finite_differences():
    rng = np.random.default_rng(17)
    layer = uq.FlipoutDense(Dense(4, 3, rng))
    for p in layer.params():
        p.value = rng.normal(-0.5, 0.3, size=p.value.shape)
        p.zero_grad()
    weight = 0.7
    layer.accumulate_kl_grads(weight)
    eps = 1e-6
    for p in layer.params():
        flat = p.value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = weight * layer.kl()
            flat[i] = orig - eps
            lo = weight * layer.kl()
            flat[i] = orig
            fd = (hi - lo) / (2 * eps)
            assert p.grad.ravel()[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_float32_cast():
    x, y = _toy_data(48, 18)
    xv, yv = _toy_data(16, 19)
    net = _toy_net(seed=20)
    hist = training.train_network(net, x, y, xv, yv, epochs=1, seed=21,
                                  dtype=np.float32)
    assert net.params()[0].value.dtype == np.float32
    assert np.isfinite(hist[0].train_loss)


def test_singleton_tail_batch_dropped():
    rng = np.random.default_rng(22)
    batches = training._batches(33, 16, rng)
    assert [b.size for b in batches] == [16, 16]
    batches = training._batches(34, 16, rng)
    assert [b.size for b in batches] == [16, 16, 2]


def test_rejects_tiny_training_set():
    x, y = _toy_data(1, 23)
    with pytest.raises(training.EmptyTrainingSet):
        training.train_network(_toy_net(), x, y, x, y, epochs=1, seed=0)
    with pytest.raises(training.EmptyTrainingSet):
        training.evaluate(_toy_net(), np.zeros((0, 3, 16)), np.zeros(0))


# ---------------------------------------------------------------------------
# training bytes, pinned


# (config fields, SHA-256 over every parameter after one seeded float32
# epoch of `_pinned_run`): conv forward and backward at odd and even
# widths, DropConnect convs, an LSTM with a Flipout head, the FCN and the
# ResNet, so a kernel change that moves a float32 training byte fails here.
# train_network holds OpenBLAS to one thread and cuts each batch into
# chunks that depend on the batch alone, so the digests hold on any core
# count.
PINNED_EPOCH = {
    "cnn-mc_dropout": (
        dict(family="cnn", uq="mc_dropout", cnn_blocks=3, f1=58, f2=53,
             f3=68, k1=8, k2=9, k3=5, max_pool=2),
        "5c57919e06e7516435dacd1111796835d4cb5cb4921b1a5297045798a836a5a3"),
    "cnn-dropconnect": (
        dict(family="cnn", uq="dropconnect", cnn_blocks=2, f1=33, f2=47,
             k1=7, k2=10, max_pool=3),
        "67f6c64b505a1888a4027beea0ec76b030ac39567af5fea6049347cc54d5f41d"),
    "cnn_lstm-flipout": (
        dict(family="cnn_lstm", uq="flipout", cnn_blocks=2, f1=24, f2=17,
             k1=6, k2=5, max_pool=2, lstm_layers=2, u1=12, u2=9),
        "dfe70aa80ec7e4c8e51dfe72f64beb311a6814c8554380c7a267cda1b9a16120"),
    "fcn-none": (
        dict(family="fcn"),
        "b98fe3b112707e77cc756ac0c359b8aff80afc37c34e259d255720055088d558"),
    "resnet-dropconnect": (
        dict(family="resnet", uq="dropconnect"),
        "99fbe0e654b6c172b616da610287a7987bda4b397528137f89b255d98b1a4f57"),
}


def _pinned_run(fields):
    """SHA-256 of every parameter's name, shape and bytes (all float32), in
    network order, after one float32 epoch on 60 windows of 6 x 48 in
    batches of 30."""
    x, y = _toy_data(60, 31, channels=6, window=48)
    xv, yv = _toy_data(16, 32, channels=6, window=48)
    cfg = arch.ModelConfig(batch_size=30, dropout_rate=0.2, **fields)
    net = arch.build_network(cfg, 6, 48, seed=33)
    training.train_network(net, x, y, xv, yv, epochs=1, seed=34,
                           dtype=np.float32)
    digest = hashlib.sha256()
    for p in net.params():
        assert p.value.dtype == np.float32
        digest.update(f"{p.name}:{p.value.shape}".encode())
        digest.update(p.value.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", PINNED_EPOCH)
def test_float32_epoch_parameter_bytes_pinned(case):
    fields, sha = PINNED_EPOCH[case]
    assert _pinned_run(fields) == sha


@pytest.fixture
def openblas_at_two():
    """OpenBLAS at 2 threads, so a train call that ran at that default
    shows; the count found is restored after."""
    api = blas._openblas()
    if api is None:
        pytest.skip("no OpenBLAS loaded")
    set_threads, get_threads = api
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


@pytest.mark.parametrize("case", ["cnn-mc_dropout", "cnn-dropconnect",
                                  "cnn_lstm-flipout", "resnet-dropconnect"])
def test_float32_epoch_bytes_do_not_depend_on_cores(case, monkeypatch,
                                                    openblas_at_two):
    """1, 2 and 3 usable cores, that many lanes for the chunks of each
    batch and for validation, give the pinned bytes; the caller's 2
    OpenBLAS threads are back after each call."""
    fields, sha = PINNED_EPOCH[case]
    for cores in (1, 2, 3):
        monkeypatch.setattr(lanes, "usable_cores", lambda: cores)
        assert _pinned_run(fields) == sha
        assert openblas_at_two() == 2


@pytest.mark.parametrize("case", ["cnn-mc_dropout", "fcn-none"])
def test_float32_epoch_bytes_with_and_without_outer_one_thread(
        case, openblas_at_two):
    """Inside a caller's one_thread() block and outside it, at the
    caller's 2 OpenBLAS threads, an epoch gives the pinned bytes."""
    fields, sha = PINNED_EPOCH[case]
    with blas.one_thread():
        assert _pinned_run(fields) == sha
    assert _pinned_run(fields) == sha


@pytest.mark.parametrize("family,parallel", [("cnn", True),
                                             ("lstm", False),
                                             ("cnn_lstm", False)])
def test_lstm_chunks_run_on_one_lane(family, parallel, monkeypatch,
                                     openblas_at_two):
    """A network with an LSTM runs its chunks one after the other; any
    other network deals them to lanes."""
    seen = []
    run_steps = lanes.run_steps

    def spy(steps, rng=None, parallel=True):
        seen.append(parallel)
        return run_steps(steps, rng, parallel)

    monkeypatch.setattr(lanes, "run_steps", spy)
    cfg = arch.ModelConfig(family=family, uq="mc_dropout", cnn_blocks=1,
                           f1=16, k1=4, max_pool=2, u1=8, batch_size=16)
    x, y = _toy_data(32, 55)
    training.train_network(arch.build_network(cfg, 3, 16, seed=56), x, y,
                           x[:8], y[:8], epochs=1, seed=57)
    assert seen and set(seen) == {parallel}


def test_batch_chunks_depend_on_the_batch_alone():
    """Every batch of 2 or more windows is CHUNKS runs of consecutive
    positions, longest first, sizes differing by at most one."""
    for n in (2, 3, 16, 29, 30, 64):
        idx = np.arange(100, 100 + n)
        parts = training._chunks(idx)
        assert len(parts) == training.CHUNKS
        assert np.array_equal(np.concatenate(parts), idx)
        sizes = [len(p) for p in parts]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] - sizes[-1] <= 1


def test_chunked_step_matches_whole_batch_step():
    """A net without noise: one step's chunked loss, gradients and batch
    norm running stats equal a whole-batch forward and backward's within
    float64 rounding, the order of the sums being all that differs."""
    x, y = _toy_data(31, 41)
    net, ref = _toy_net(seed=42), _toy_net(seed=42)
    loss, probs = softmax_cross_entropy(ref.forward(x, mode="train"), y)
    ref.backward(softmax_cross_entropy_backward(probs, y))
    replicas = [net.replica() for _ in range(training.CHUNKS)]
    idx = np.arange(len(x))
    steps = [training._chunk_step(r, x, y, rows, len(idx), None)
             for r, rows in zip(replicas, training._chunks(idx))]
    nll = np.concatenate(lanes.run_steps(steps))
    assert nll.mean() == pytest.approx(loss, rel=1e-12)
    for i, (p, q) in enumerate(zip(net.params(), ref.params())):
        if p.trainable:
            got = lanes.ordered_sum([r.params()[i].grad for r in replicas])
            np.testing.assert_allclose(got, q.grad, rtol=1e-9, atol=1e-15)
            assert not p.grad.any()  # the replicas kept their own
        else:  # running stats: the replicas move the network's own
            np.testing.assert_allclose(p.value, q.value, rtol=1e-12)


def _diverging_data():
    """Windows of +-3e38: finite in float32, but a conv's sums overflow,
    so batch norm's mean is infinite and the loss NaN."""
    x, y = _toy_data(48, 43)
    xv, yv = _toy_data(16, 44)
    return np.sign(x) * 3e38, y, np.sign(xv) * 3e38, yv


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_stops_training():
    """Epoch 0's loss is NaN: training stops there instead of spending the
    other four epochs."""
    x, y, xv, yv = _diverging_data()
    hist = training.train_network(_toy_net(seed=45), x, y, xv, yv, epochs=5,
                                  seed=46, dtype=np.float32)
    assert len(hist) == 1 and not np.isfinite(hist[0].train_loss)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_trial_row_unchanged(tmp_path):
    """The stopped trial's trials.csv row is the one a full-budget run
    wrote: failed, loss inf, and the wF1 of NaN logits, whose argmax
    predicts class 0 for every window, as it does after every later
    epoch."""
    from types import SimpleNamespace

    from uqtsc import cli, hpo, metrics
    x, y, xv, yv = _diverging_data()
    train = SimpleNamespace(windows=x, labels=y, n_channels=3,
                            window_length=16)
    val = SimpleNamespace(windows=xv, labels=yv, n_channels=3,
                          window_length=16)
    objective = cli._TrainObjective(train, val, max_budget=5,
                                    dtype=np.float32)
    cfg = arch.ModelConfig(family="cnn", uq="mc_dropout", cnn_blocks=1,
                           f1=16, k1=4, max_pool=2, batch_size=16,
                           dropout_rate=0.2)
    trial = hpo._evaluate(objective, cfg, 5, 47, 0, 0, 0)
    wf1 = metrics.f1_and_accuracy(np.zeros(len(yv), dtype=int),
                                  yv).f1_weighted
    assert wf1 == 0.40499999999999997
    hpo.write_trials_csv([trial], tmp_path / "trials.csv")
    # the row of a run that trained all five epochs
    assert (tmp_path / "trials.csv").read_text().splitlines()[1] == (
        "0,0,0,5,failed,inf,0.40499999999999997,cnn,mc_dropout,1,16,16,16,"
        "4,4,4,2,1,8,8,8,16,0.2")
    assert objective.best_net is None


class _ChunkFailed(Exception):
    pass


def test_chunk_exception_reaches_caller_and_pool_recovers(monkeypatch):
    """47 windows in batches of 16: the last batch of 15 is chunks of 8 and
    7, and batch norm raises in the 7-window chunk, which a helper lane
    runs.  train_network raises that exception's own class, every chunk's
    pass has been closed, and the next call trains to the bytes of a run
    that never failed."""
    monkeypatch.setattr(lanes, "usable_cores", lambda: 2)
    x, y = _toy_data(47, 48)
    xv, yv = _toy_data(16, 49)
    expect = _toy_net(seed=50)
    training.train_network(expect, x, y, xv, yv, epochs=1, seed=51)

    forward_steps = nn.BatchNorm1D.forward_steps
    open_passes = [0]

    def failing(self, h, rng=None):
        open_passes[0] += 1
        try:
            if len(h) == 7:
                raise _ChunkFailed("chunk 1")
            return (yield from forward_steps(self, h, rng))
        finally:
            open_passes[0] -= 1

    monkeypatch.setattr(nn.BatchNorm1D, "forward_steps", failing)
    with pytest.raises(_ChunkFailed, match="chunk 1"):
        training.train_network(_toy_net(seed=50), x, y, xv, yv, epochs=1,
                               seed=51)
    assert open_passes[0] == 0
    monkeypatch.setattr(nn.BatchNorm1D, "forward_steps", forward_steps)
    net = _toy_net(seed=50)
    training.train_network(net, x, y, xv, yv, epochs=1, seed=51)
    assert all(p.value.tobytes() == q.value.tobytes()
               for p, q in zip(net.params(), expect.params()))


def test_concurrent_train_calls_share_the_pool(monkeypatch):
    """Four threads train at once on three lanes each, under a short
    switch interval, so their chunks contend for two pool threads and
    callers take back shares no pool thread has started: each call ends
    within the time limit with the bytes of the same call made alone."""
    import sys
    import threading

    monkeypatch.setattr(lanes, "usable_cores", lambda: 3)
    x, y = _toy_data(47, 52)
    xv, yv = _toy_data(16, 53)

    def trained(seed):
        net = _toy_net("mc_dropout", seed=seed)
        training.train_network(net, x, y, xv, yv, epochs=2, seed=seed,
                               dtype=np.float32)
        return b"".join(p.value.tobytes() for p in net.params())

    expect = [trained(60 + i) for i in range(4)]
    got = [None] * 4
    start = threading.Barrier(4)

    def call(i):
        start.wait()
        got[i] = trained(60 + i)

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
    assert got == expect


def test_training_refuses_a_frozen_network():
    """Held inference constants would go stale as the parameters move, so
    training inside `frozen()` raises, as a train-mode forward does."""
    x, y = _toy_data(32, 54)
    net = _toy_net(seed=55)
    with net.frozen():
        with pytest.raises(RuntimeError, match="frozen"):
            training.train_network(net, x, y, x, y, epochs=1, seed=56)
