"""Layer forward semantics against hand and loop oracles."""

import numpy as np
import pytest

from uqtsc import nncore as nn
from uqtsc import uq


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


@pytest.mark.parametrize("windows", (1, 30))
@pytest.mark.parametrize("dtype", (np.float64, np.float32))
@pytest.mark.parametrize("k", range(1, 13))
def test_pad_same_bytes_equal_np_pad(k, dtype, windows):
    """A [B, L, C] view of a [B, C, L] array, signed zeros included: the
    bytes of np.pad (no padding for k = 1), always C-contiguous."""
    rng = np.random.default_rng(k)
    raw = rng.normal(size=(windows, 5, 17)).astype(dtype)
    raw[:, 1, ::3] = -0.0
    x = raw.transpose(0, 2, 1)
    xp = nn.layers.pad_same(x, k)
    left = (k - 1) // 2
    expect = np.pad(x, ((0, 0), (left, k - 1 - left), (0, 0)))
    assert xp.dtype == expect.dtype and xp.shape == expect.shape
    assert xp.flags.c_contiguous
    assert xp.tobytes() == expect.tobytes()


@pytest.mark.parametrize("windows", (1, 3))
@pytest.mark.parametrize("k", (1, 4, 9))
def test_im2col_rows_and_read_only(k, windows):
    """Row b*Lout + t is window t of batch b, flattened; where the result
    is a view of the padded input, it is read-only."""
    rng = np.random.default_rng(k)
    xp = rng.normal(size=(windows, 12, 4))
    cols = nn.layers._im2col(xp, k)
    lout = 12 - k + 1
    expect = np.stack([xp[b, t:t + k].reshape(-1)
                       for b in range(windows) for t in range(lout)])
    assert cols.tobytes() == expect.tobytes()
    if np.shares_memory(cols, xp):
        assert not cols.flags.writeable
    if windows == 1:  # one window's rows need no copy
        assert np.shares_memory(cols, xp)


def _col2im_backward(conv, x, dy, input_grad=True):
    """The one-GEMM conv backward as a reference, after conv's train
    forward of x: dw from a fresh im2col of the padded input, dx from one
    [B*L, k*C] dcol product with the pass's weight matrix, scattered back
    offset by offset over the padded length, then cropped."""
    k, c = conv.kernel, conv.n_in
    xp = nn.layers.pad_same(x, k)
    left = (k - 1) // 2
    b, l_out, f = dy.shape
    dy2 = dy.reshape(b * l_out, f)
    dw = np.dot(dy2.T, nn.layers._im2col(xp, k))
    conv._backprop_weight(dw.reshape(f, k, c).transpose(0, 2, 1))
    conv.b.grad += dy2.sum(axis=0)
    if not input_grad:
        return None
    dcol = np.dot(dy2, conv._wmat.T).reshape(b, l_out, k, c)
    dxp = np.zeros((b, l_out + k - 1, c), dtype=xp.dtype)
    for j in range(k):
        dxp[:, j:j + l_out] += dcol[:, :, j]
    return dxp[:, left:left + l_out]


def _conv_pair(c, k, dtype, dropconnect=False):
    """Two identical convs of c -> 11 channels, DropConnect-wrapped or
    not, with nonzero gradients already accumulated."""
    pair = []
    for _ in range(2):
        conv = nn.Conv1D(c, 11, k, np.random.default_rng(k))
        if dropconnect:
            conv = uq.DropConnectConv1D(conv, 0.3)
        conv.astype(dtype)
        for p in conv.params():
            p.grad += np.random.default_rng(c).normal(size=p.grad.shape)
        pair.append(conv)
    return pair


def _assert_backward_equal(pairs, dtype):
    """Each (got, want) pair: float32 bytes equal; float64 within 1e-12
    relative (of the largest magnitude where an element's terms cancel)."""
    for a, b in pairs:
        assert a.dtype == b.dtype == dtype and a.shape == b.shape
    if dtype == np.float32:
        assert [a.tobytes() for a, _ in pairs] == \
            [b.tobytes() for _, b in pairs]
    else:
        for a, b in pairs:
            np.testing.assert_allclose(a, b, rtol=1e-12,
                                       atol=1e-12 * np.abs(b).max())


def _backward_against_reference(c, k, batch, length, dtype, dropconnect,
                                input_grad=True):
    ours, ref = _conv_pair(c, k, dtype, dropconnect)
    rng = np.random.default_rng(batch * length)
    x = rng.normal(size=(batch, length, c)).astype(dtype)
    dy = rng.normal(size=(batch, length, 11)).astype(dtype)
    for conv in (ours, ref):
        conv.forward(x, mode="train", rng=np.random.default_rng(9))
    dx = ours.backward(dy, input_grad=input_grad)
    want = _col2im_backward(ref, x, dy, input_grad)
    pairs = [(ours.w.grad, ref.w.grad), (ours.b.grad, ref.b.grad)]
    if input_grad:
        assert dx.flags.c_contiguous
        pairs.append((dx, want))
    else:
        assert dx is None
    _assert_backward_equal(pairs, dtype)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("c", (6, 53, 64))
@pytest.mark.parametrize("batch", (1, 2, 30))
@pytest.mark.parametrize("k", (1, 2, 3, 8, 9, 16))
def test_conv_backward_equals_col2im(k, batch, c, dtype):
    """dw from the kept im2col matrix and dx from k shifted products
    against the one-GEMM col2im backward, at lengths below k too, where
    some offsets reach no input step."""
    for length in (1, 5, 37):
        _backward_against_reference(c, k, batch, length, dtype, False)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("k, batch, c", ((9, 30, 53), (16, 2, 64), (3, 1, 6)))
def test_dropconnect_conv_backward_equals_col2im(k, batch, c, dtype):
    """The masked weight's dx and the masked weight gradient."""
    for length in (5, 37):
        _backward_against_reference(c, k, batch, length, dtype, True)


@pytest.mark.parametrize("dropconnect", (False, True))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_conv_backward_without_input_grad(dtype, dropconnect):
    """input_grad=False returns None and still adds dw and db to the
    gradients already there."""
    _backward_against_reference(53, 9, 30, 37, dtype, dropconnect,
                                input_grad=False)


@pytest.mark.parametrize("dropconnect", (False, True))
def test_conv_keeps_no_im2col_matrix(dropconnect):
    """After backward, and after an infer or mc_infer pass, a conv holds
    no array as large as its input."""
    conv, _ = _conv_pair(8, 9, np.float32, dropconnect)
    x = np.random.default_rng(3).normal(size=(4, 60, 8)).astype(np.float32)

    def large():
        return [name for name, v in vars(conv).items()
                if isinstance(v, np.ndarray) and v.size >= x.size]

    dy = np.ones((4, 60, 11), dtype=np.float32)
    train = np.random.default_rng(4)
    conv.forward(x, mode="train", rng=train)
    assert large() == ["_col"]  # 9x the input, until backward
    conv.backward(dy)
    assert large() == []
    conv.forward(x, mode="train", rng=train)
    conv.backward(dy, input_grad=False)
    assert large() == []
    for mode in ("infer", "mc_infer"):
        conv.forward(x, mode="train", rng=train)
        conv.forward(x, mode=mode, rng=np.random.default_rng(5))
        assert large() == []


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


@pytest.mark.parametrize("length", (1, 7, 100, 401))
@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_gap_forward_bytes_equal_mean(dtype, length):
    rng = np.random.default_rng(length)
    x = rng.normal(size=(3, 5, length)).astype(dtype).transpose(0, 2, 1)
    y = nn.GlobalAvgPool1D().forward(x, mode="infer")
    expect = x.mean(axis=1)
    assert y.dtype == expect.dtype
    assert y.tobytes() == expect.tobytes()


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


def _two_branch_sigmoid(z):
    """The masked two-branch logistic the LSTM step used before: every
    gate's bytes are pinned to it."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_sigmoid_bytes_equal_two_branch_form(dtype):
    """2e5 normal values at four scales, plus signed zeros, tiny values,
    and values past the points where exp overflows or underflows in
    float32 and in float64."""
    rng = np.random.default_rng(40)
    edge = [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300, 88.0, -88.0, 104.0,
            -104.0, 745.0, -745.0, 1e4, -1e4]
    z = np.concatenate([rng.normal(scale=s, size=50_000)
                        for s in (1.0, 5.0, 30.0, 300.0)] + [edge])
    z = z.astype(dtype)
    for arr in (z, z[:12_800].reshape(100, 128)):
        got = nn.layers._sigmoid(arr)
        assert got.dtype == dtype and got.shape == arr.shape
        assert got.tobytes() == _two_branch_sigmoid(arr).tobytes()


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
