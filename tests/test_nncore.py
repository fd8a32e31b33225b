"""Layer forward semantics against hand and loop oracles."""

import numpy as np
import pytest

from uqtsc import nncore as nn


RNG = np.random.default_rng(0)


# ---------------------------------------------------------------------------
# dense


def test_dense_identity():
    layer = nn.Dense(3, 3, RNG)
    layer.w.value = np.eye(3)
    layer.b.value = np.zeros(3)
    x = np.arange(6, dtype=float).reshape(2, 3)
    np.testing.assert_allclose(layer.forward(x), x)


def test_dense_hand_case():
    layer = nn.Dense(2, 1, RNG)
    layer.w.value = np.array([[1.0], [1.0]])
    layer.b.value = np.array([0.5])
    y = layer.forward(np.array([[1.0, 2.0]]))
    assert y == pytest.approx(3.5)


def test_dense_matches_loop_oracle():
    rng = np.random.default_rng(7)
    layer = nn.Dense(4, 3, rng)
    x = rng.normal(size=(3, 4))
    y = layer.forward(x)
    w, b = layer.w.value, layer.b.value
    for i in range(3):
        for j in range(3):
            acc = sum(x[i, k] * w[k, j] for k in range(4)) + b[j]
            assert abs(y[i, j] - acc) < 1e-12


def test_dense_shape_mismatch():
    layer = nn.Dense(4, 3, RNG)
    with pytest.raises(nn.ShapeMismatch):
        layer.forward(np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# conv1d


def test_conv1d_delta_kernel_same_is_identity():
    layer = nn.Conv1D(1, 1, 3, RNG)
    layer.w.value = np.array([[[0.0, 1.0, 0.0]]])
    layer.b.value = np.zeros(1)
    x = np.arange(8, dtype=float).reshape(1, 8, 1)
    np.testing.assert_allclose(layer.forward(x), x)


def _conv_loop_oracle(x, w, b):
    bsz, cin, length = x.shape
    f, _, k = w.shape
    left = (k - 1) // 2
    x = np.pad(x, ((0, 0), (0, 0), (left, k - 1 - left)))
    lout = x.shape[2] - k + 1
    y = np.zeros((bsz, f, lout))
    for n in range(bsz):
        for m in range(f):
            for t in range(lout):
                acc = b[m]
                for c in range(cin):
                    for j in range(k):
                        acc += w[m, c, j] * x[n, c, t + j]
                y[n, m, t] = acc
    return y


def test_conv1d_matches_loop_oracle():
    rng = np.random.default_rng(11)
    layer = nn.Conv1D(2, 3, 4, rng)
    x = rng.normal(size=(2, 2, 10))
    y = layer.forward(x.transpose(0, 2, 1))
    expect = _conv_loop_oracle(x, layer.w.value, layer.b.value)
    np.testing.assert_allclose(y, expect.transpose(0, 2, 1), atol=1e-12)


def test_conv1d_same_preserves_length():
    for k in range(4, 17):
        layer = nn.Conv1D(2, 1, k, RNG)
        y = layer.forward(np.ones((1, 20, 2)))
        assert y.shape == (1, 20, 1)


# ---------------------------------------------------------------------------
# batchnorm


def test_batchnorm_standard_batch_nearly_identity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(64, 4, 10))
    x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
    x = x.transpose(0, 2, 1)
    bn = nn.BatchNorm1D(4)
    y = bn.forward(x, mode="train")
    assert np.max(np.abs(y - x)) < 1e-4


def test_batchnorm_infer_identity_with_unit_stats():
    bn = nn.BatchNorm1D(2)
    x = np.array([[0.5, -1.0], [2.0, 0.0]])
    y = bn.forward(x, mode="infer")
    np.testing.assert_allclose(y, x / np.sqrt(1 + 1e-5), atol=1e-12)


def test_batchnorm_closed_form_pair():
    # batch {1,3}, one channel: mean 2, biased var 1 -> +-(1+eps)^(-1/2)
    bn = nn.BatchNorm1D(1)
    x = np.array([[1.0], [3.0]])
    y = bn.forward(x, mode="train")
    expect = np.array([[-1.0], [1.0]]) / np.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(y, expect, atol=1e-12)


def test_batchnorm_running_stats_update():
    bn = nn.BatchNorm1D(1)
    x = np.array([[1.0], [3.0]])
    bn.forward(x, mode="train")
    assert bn.running_mean.value[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
    assert bn.running_var.value[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)


def test_batchnorm_batch_too_small():
    bn = nn.BatchNorm1D(1)
    with pytest.raises(nn.BatchTooSmall):
        bn.forward(np.array([[1.0]]), mode="train")


@pytest.mark.parametrize("shape", ((3, 7, 5), (4, 5)))
@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_batchnorm_infer_bytes_pinned(dtype, shape):
    """Outside train the output byte-equals the two-buffer formula: xhat,
    then y = xhat * gamma + beta in a second buffer."""
    rng = np.random.default_rng(12)
    bn = nn.BatchNorm1D(5)
    bn.gamma.value = rng.normal(size=5)
    bn.beta.value = rng.normal(size=5)
    bn.running_mean.value = rng.normal(size=5)
    bn.running_var.value = rng.uniform(0.2, 3.0, size=5)
    bn.astype(dtype)
    x = rng.normal(size=shape).astype(dtype)
    rows = x.reshape(len(x), -1)
    reps = rows.shape[1] // 5
    xhat = rows - np.tile(bn.running_mean.value, reps)
    xhat *= np.tile(1.0 / np.sqrt(bn.running_var.value + bn.EPS), reps)
    y = xhat * np.tile(bn.gamma.value, reps)
    y += np.tile(bn.beta.value, reps)
    for mode in ("infer", "mc_infer"):
        out = bn.forward(x, mode=mode)
        assert out.dtype == dtype
        assert out.tobytes() == y.reshape(x.shape).tobytes()


# ---------------------------------------------------------------------------
# pooling


def test_maxpool_hand_case():
    pool = nn.MaxPool1D(2)
    y = pool.forward(np.array([[[1.0, 3.0, 2.0, 5.0]]]).transpose(0, 2, 1))
    np.testing.assert_allclose(y, np.array([[[3.0, 5.0]]]).transpose(0, 2, 1))


def test_maxpool_p1_identity():
    pool = nn.MaxPool1D(1)
    x = np.arange(12, dtype=float).reshape(1, 2, 6).transpose(0, 2, 1)
    np.testing.assert_allclose(pool.forward(x), x)


def test_maxpool_remainder_dropped():
    pool = nn.MaxPool1D(2)
    y = pool.forward(np.arange(7, dtype=float).reshape(1, 7, 1))
    assert y.shape == (1, 3, 1)


def _pool_oracle(x, p, dy):
    """Train-mode max pool by argmax: output and input gradient."""
    b, l, c = x.shape
    n = l // p
    xr = x[:, :n * p].reshape(b, n, p, c)
    arg = xr.argmax(axis=2)[:, :, None]
    y = np.take_along_axis(xr, arg, axis=2)[:, :, 0]
    dxr = np.zeros((b, n, p, c), dtype=dy.dtype)
    np.put_along_axis(dxr, arg, dy[:, :, None], axis=2)
    dx = np.zeros_like(x)
    dx[:, :n * p] = dxr.reshape(b, n * p, c)
    return y, dx


@pytest.mark.parametrize("p, shape", [(1, (3, 6, 4)), (2, (3, 8, 4)),
                                      (3, (3, 10, 4)), (4, (3, 19, 4)),
                                      (4, (8, 402, 64))])
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_maxpool_infer_bytes_equal_train(p, shape, dtype):
    """Train-mode output and gradient are the argmax oracle's, bit for bit,
    and the inference max is the train-mode output: integer values force
    ties, signed zeros tell tied elements apart, and lengths not divisible
    by p drop a remainder."""
    rng = np.random.default_rng(p)
    x = rng.integers(-2, 3, size=shape).astype(dtype)
    x[x == 0] = rng.choice((-0.0, 0.0), size=int(np.sum(x == 0)))
    pool = nn.MaxPool1D(p)
    y = pool.forward(x, mode="train")
    dy = rng.normal(size=y.shape).astype(dtype)
    expect_y, expect_dx = _pool_oracle(x, p, dy)
    assert y.tobytes() == expect_y.tobytes()
    dx = pool.backward(dy)
    assert dx.dtype == expect_dx.dtype
    assert dx.tobytes() == expect_dx.tobytes()
    for mode in ("infer", "mc_infer"):
        assert pool.forward(x, mode=mode).tobytes() == expect_y.tobytes()


def test_gap_constant_and_hand():
    gap = nn.GlobalAvgPool1D()
    np.testing.assert_allclose(gap.forward(np.full((2, 5, 3), 4.0)), 4.0)
    y = gap.forward(np.array([[[1.0, 2.0, 3.0]]]).transpose(0, 2, 1))
    assert y[0, 0] == pytest.approx(2.0)


def test_gap_matches_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 7))
    y = nn.GlobalAvgPool1D().forward(x.transpose(0, 2, 1))
    for b in range(2):
        for c in range(3):
            assert abs(y[b, c] - sum(x[b, c]) / 7) < 1e-12


# ---------------------------------------------------------------------------
# lstm


def test_lstm_zero_weights_zero_output():
    layer = nn.LSTM(3, 4, RNG)
    layer.wx.value[:] = 0.0
    layer.wh.value[:] = 0.0
    layer.b.value[:] = 0.0
    y = layer.forward(np.random.default_rng(1).normal(size=(2, 6, 3)))
    np.testing.assert_array_equal(y, np.zeros((2, 4)))


def test_lstm_single_step_hand_computation():
    layer = nn.LSTM(1, 1, RNG)
    wx = np.array([[0.5, -0.3, 0.8, 0.2]])
    wh = np.array([[0.1, 0.4, -0.2, 0.6]])
    b = np.array([0.05, 1.0, -0.1, 0.3])
    layer.wx.value, layer.wh.value, layer.b.value = wx, wh, b
    xv = 0.7
    y = layer.forward(np.array([[[xv]]]))

    def sigm(z):
        return 1.0 / (1.0 + np.exp(-z))

    i = sigm(xv * wx[0, 0] + b[0])
    g = np.tanh(xv * wx[0, 2] + b[2])
    o = sigm(xv * wx[0, 3] + b[3])
    c = i * g  # forget gate irrelevant: c_prev = 0
    h = o * np.tanh(c)
    assert abs(y[0, 0] - h) < 1e-12


def test_lstm_batch_independence():
    rng = np.random.default_rng(2)
    layer = nn.LSTM(3, 5, rng)
    x = rng.normal(size=(2, 7, 3))
    y = layer.forward(x)
    y_dup = layer.forward(np.concatenate([x, x], axis=0))
    np.testing.assert_allclose(y_dup[:2], y, atol=1e-14)
    np.testing.assert_allclose(y_dup[2:], y, atol=1e-14)


def test_lstm_return_sequences_last_matches():
    rng = np.random.default_rng(4)
    a = nn.LSTM(3, 4, rng, return_sequences=True)
    b = nn.LSTM(3, 4, rng)
    for src, dst in zip(a.params(), b.params()):
        dst.value = src.value.copy()
    x = rng.normal(size=(2, 6, 3))
    seq = a.forward(x)
    last = b.forward(x)
    assert seq.shape == (2, 6, 4)
    np.testing.assert_allclose(seq[:, -1, :], last, atol=1e-14)


@pytest.mark.parametrize("return_sequences", (False, True))
def test_lstm_infer_bytes_equal_train(return_sequences):
    """Inference skips the backward bookkeeping; its output is unchanged."""
    rng = np.random.default_rng(12)
    layer = nn.LSTM(3, 5, rng, return_sequences=return_sequences)
    x = rng.normal(size=(4, 7, 3))
    expect = layer.forward(x, mode="train").tobytes()
    for mode in ("infer", "mc_infer"):
        assert layer.forward(x, mode=mode).tobytes() == expect
        assert layer._cache is None


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_softmax_uniform_logits():
    loss, probs = nn.softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
    np.testing.assert_allclose(probs, [[0.5, 0.5]])
    assert loss == pytest.approx(np.log(2.0))


def test_softmax_extreme_logits_stable():
    loss, probs = nn.softmax_cross_entropy(np.array([[100.0, 0.0]]), np.array([0]))
    assert np.isfinite(loss) and loss < 1e-6
    assert np.all(np.isfinite(probs))


def test_softmax_batch_mean_oracle():
    logits = np.array([[1.0, -1.0], [0.5, 2.0]])
    labels = np.array([0, 1])
    loss, probs = nn.softmax_cross_entropy(logits, labels)
    expect = np.mean([-np.log(probs[0, 0]), -np.log(probs[1, 1])])
    assert loss == pytest.approx(expect, abs=1e-12)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_label_out_of_range():
    with pytest.raises(nn.LabelOutOfRange):
        nn.softmax_cross_entropy(np.zeros((1, 2)), np.array([2]))


def test_softmax_rows_sum_to_one_fuzz():
    rng = np.random.default_rng(8)
    for _ in range(50):
        logits = rng.normal(scale=30.0, size=(16, 2))
        _, probs = nn.softmax_cross_entropy(logits, rng.integers(0, 2, 16))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((probs >= 0) & (probs <= 1))


# ---------------------------------------------------------------------------
# adam


def test_adam_first_step_cancellation():
    p = nn.Param("w", np.array([1.0]))
    opt = nn.Adam([p], lr=0.01)
    p.grad = np.array([1.0])
    opt.step()
    assert p.value[0] == pytest.approx(1.0 - 0.01, abs=1e-9)


def test_adam_zero_grad_no_change():
    p = nn.Param("w", np.array([2.0, -3.0]))
    opt = nn.Adam([p], lr=0.01)
    opt.step()
    np.testing.assert_allclose(p.value, [2.0, -3.0])


def test_adam_two_steps_hand_unrolled():
    p = nn.Param("w", np.array([0.0]))
    opt = nn.Adam([p], lr=0.1)
    g = 0.5
    m = v = 0.0
    theta = 0.0
    for t in (1, 2):
        p.grad = np.array([g])
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        theta -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        assert p.value[0] == pytest.approx(theta, abs=1e-12)


def test_adam_lr_zero_identity():
    rng = np.random.default_rng(6)
    p = nn.Param("w", rng.normal(size=(3, 3)))
    before = p.value.copy()
    opt = nn.Adam([p], lr=0.0)
    for _ in range(5):
        p.grad = rng.normal(size=(3, 3))
        opt.step()
    np.testing.assert_array_equal(p.value, before)


def test_adam_skips_non_trainable():
    stat = nn.Param("rmean", np.array([1.0]), trainable=False)
    opt = nn.Adam([stat], lr=0.1)
    assert opt.params == []


# ---------------------------------------------------------------------------
# checkpoint


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    params = [("a_w", rng.normal(size=(3, 2))), ("a_b", rng.normal(size=2))]
    path = tmp_path / "model.ckpt"
    nn.write_checkpoint(path, "family=cnn,uq=none", params, {"channels": "imu"})
    config, loaded, meta = nn.read_checkpoint(path)
    assert config == "family=cnn,uq=none"
    assert meta == {"channels": "imu"}
    for name, arr in params:
        np.testing.assert_array_equal(loaded[name], arr)


def test_checkpoint_bytes_deterministic(tmp_path):
    params = [("w", np.array([0.1, -2.5e-8, 3.0]))]
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    nn.write_checkpoint(p1, "x=1", params)
    nn.write_checkpoint(p2, "x=1", params)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("NOT-A-CKPT\n")
    with pytest.raises(nn.CheckpointError):
        nn.read_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "trunc.ckpt"
    path.write_text("UQTSC-CKPT-1\nconfig x=1\nparam w 2\n1.0\n")
    with pytest.raises(nn.CheckpointError):
        nn.read_checkpoint(path)


# ---------------------------------------------------------------------------
# NaN/Inf hygiene fuzz


def test_no_nan_inf_for_finite_inputs():
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = rng.normal(scale=10.0, size=(4, 32, 6))
        conv = nn.Conv1D(6, 16, 9, rng)
        bn = nn.BatchNorm1D(16)
        y = bn.forward(nn.ReLU().forward(conv.forward(x)), mode="train")
        y = nn.MaxPool1D(4).forward(y)
        lstm = nn.LSTM(16, 8, rng)
        h = lstm.forward(y)
        head = nn.Dense(8, 2, rng)
        loss, probs = nn.softmax_cross_entropy(head.forward(h),
                                               rng.integers(0, 2, 4))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(probs))
