"""Training-loop contract: determinism, learning, ELBO bookkeeping."""

import hashlib

import numpy as np
import pytest

from uqtsc import arch, training, uq
from uqtsc.nncore import blas
from uqtsc.nncore.layers import Dense


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
# The epoch runs on one OpenBLAS thread, as some GEMM shapes round
# differently at one thread and at two, so the digests hold on any core
# count.
PINNED_EPOCH = {
    "cnn-mc_dropout": (
        dict(family="cnn", uq="mc_dropout", cnn_blocks=3, f1=58, f2=53,
             f3=68, k1=8, k2=9, k3=5, max_pool=2),
        "d01578da91234c3c640544fc90dc4ec52ceeadc9b9dfae4f3d3cd19cb531348c"),
    "cnn-dropconnect": (
        dict(family="cnn", uq="dropconnect", cnn_blocks=2, f1=33, f2=47,
             k1=7, k2=10, max_pool=3),
        "d636716197d86c66b616c8bc71e254216ea12f1f7f9eea7ae99daabd923a9540"),
    "cnn_lstm-flipout": (
        dict(family="cnn_lstm", uq="flipout", cnn_blocks=2, f1=24, f2=17,
             k1=6, k2=5, max_pool=2, lstm_layers=2, u1=12, u2=9),
        "5c12fc84233be6bca5adf725163a3833733ae3494b3e94ee355aa0a0cb97817b"),
    "fcn-none": (
        dict(family="fcn"),
        "3aada1790090ec92cc5b9d4b4c2c11b258c8265646613b672a37e96f36661630"),
    "resnet-dropconnect": (
        dict(family="resnet", uq="dropconnect"),
        "ed91526fb78231357e4b7dfaa7490039a393ccdc06003de8b0bc6d05abdd3f4e"),
}


def _pinned_run(fields):
    """SHA-256 of every parameter's name, shape and bytes (all float32), in
    network order, after one float32 epoch on 60 windows of 6 x 48 in
    batches of 30."""
    x, y = _toy_data(60, 31, channels=6, window=48)
    xv, yv = _toy_data(16, 32, channels=6, window=48)
    cfg = arch.ModelConfig(batch_size=30, dropout_rate=0.2, **fields)
    net = arch.build_network(cfg, 6, 48, seed=33)
    with blas.one_thread():
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
