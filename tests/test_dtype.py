"""Precision contract: a layer or network computes in its input's dtype.

float32 params and input give float32 outputs, gradients and BN running
stats in train and mc_infer; the same layers in float64 stay float64.
"""

import numpy as np
import pytest

from uqtsc import arch, uq
from uqtsc import nncore as nn
from uqtsc.nncore.optim import Adam
from uqtsc.training import LEARNING_RATE

DTYPES = (np.float32, np.float64)


def _layer_cases():
    """(name, layer builder, input shape) for every nncore and uq kind."""
    rng = np.random.default_rng(0)
    return [
        ("dense", lambda: nn.Dense(5, 3, rng), (4, 5)),
        ("conv_same", lambda: nn.Conv1D(3, 4, 3, rng), (4, 9, 3)),
        ("bn_3d", lambda: nn.BatchNorm1D(3), (4, 9, 3)),
        ("bn_2d", lambda: nn.BatchNorm1D(5), (4, 5)),
        ("maxpool", lambda: nn.MaxPool1D(2), (4, 9, 3)),
        ("gap", lambda: nn.GlobalAvgPool1D(), (4, 9, 3)),
        ("relu", lambda: nn.ReLU(), (4, 9, 3)),
        ("lstm_last", lambda: nn.LSTM(3, 4, rng), (4, 6, 3)),
        ("lstm_seq", lambda: nn.LSTM(3, 4, rng, return_sequences=True),
         (4, 6, 3)),
        ("mc_dropout", lambda: uq.MCDropout(0.25), (4, 9, 3)),
        ("dropconnect_dense",
         lambda: uq.DropConnectDense(nn.Dense(5, 3, rng), 0.25), (4, 5)),
        ("dropconnect_conv",
         lambda: uq.DropConnectConv1D(nn.Conv1D(3, 4, 3, rng), 0.25),
         (4, 9, 3)),
        ("flipout", lambda: uq.FlipoutDense(nn.Dense(5, 3, rng)), (4, 5)),
    ]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("mode", ("train", "mc_infer"))
@pytest.mark.parametrize("case", _layer_cases(), ids=lambda c: c[0])
def test_layer_keeps_dtype(case, mode, dtype):
    _, build, shape = case
    layer = build().astype(dtype)
    rng = np.random.default_rng(1)
    x = rng.normal(size=shape).astype(dtype)
    y = layer.forward(x, mode=mode, rng=rng)
    assert y.dtype == dtype
    if mode == "train":
        dx = layer.backward(np.ones_like(y))
        assert dx.dtype == dtype
    for p in layer.params():
        assert p.value.dtype == dtype, p.name
        assert p.grad.dtype == dtype, p.name


def _net(family, method):
    cfg = arch.ModelConfig(family=family, uq=method, cnn_blocks=2, f1=16,
                           f2=16, k1=4, k2=4, max_pool=2, u1=8,
                           batch_size=16, dropout_rate=0.25)
    return arch.build_network(cfg, 6, 32, seed=2)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("method", arch.UQ_METHODS)
@pytest.mark.parametrize("family", arch.FAMILIES)
def test_network_keeps_dtype(family, method, dtype):
    """A train step (forward, backward, Adam) and an mc_infer pass."""
    net = _net(family, method).astype(dtype)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 6, 32)).astype(dtype)
    opt = Adam(net.params(), lr=LEARNING_RATE)
    y = net.forward(x, mode="train", rng=rng)
    assert y.dtype == dtype
    net.backward(np.ones_like(y))
    opt.step()
    # every param, BN running stats included, stays in the net's dtype
    for p in net.params():
        assert p.value.dtype == dtype, p.name
        assert p.grad.dtype == dtype, p.name
    assert net.forward(x, mode="mc_infer", rng=rng).dtype == dtype


def test_batchnorm_running_stats_keep_param_dtype():
    bn = nn.BatchNorm1D(3).astype(np.float32)
    x = np.random.default_rng(4).normal(size=(4, 9, 3))  # float64 input
    bn.forward(x, mode="train")
    assert bn.running_mean.value.dtype == np.float32
    assert bn.running_var.value.dtype == np.float32
