"""Backward-pass correctness: central differences over every layer kind."""

import numpy as np
import pytest

from uqtsc import arch
from uqtsc.nncore import (GRAD_CHECKED_KINDS, BatchNorm1D, Conv1D,
                          grad_check, softmax_cross_entropy,
                          softmax_cross_entropy_backward)
from uqtsc.nncore.gradcheck import LayerSpec, _rel_err


@pytest.mark.parametrize("spec", GRAD_CHECKED_KINDS, ids=lambda s: s.describe())
def test_grad_check_reference_specs(spec):
    assert grad_check(spec, seed=0) < 1e-5


def test_dense_tight_tolerance():
    err = grad_check(LayerSpec("dense", {"batch": 2, "n_in": 3, "n_out": 2}))
    assert err < 1e-6


def test_conv1d_tight_tolerance():
    err = grad_check(LayerSpec("conv1d", {"batch": 2, "n_in": 2, "filters": 3,
                                          "kernel": 4, "length": 12}))
    assert err < 1e-6


def test_lstm_bptt_tolerance():
    err = grad_check(LayerSpec("lstm", {"batch": 2, "n_in": 3, "units": 4,
                                        "length": 5}))
    assert err < 1e-5


def test_grad_check_is_deterministic():
    spec = GRAD_CHECKED_KINDS[0]
    assert grad_check(spec, seed=3) == grad_check(spec, seed=3)


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_multiple_seeds_smoke(seed):
    # the full 20-seed sweep lives in the acceptance suite
    for spec in GRAD_CHECKED_KINDS[:4]:
        assert grad_check(spec, seed=seed) < 1e-5


# ---------------------------------------------------------------------------
# whole networks


def _bn_fed_conv_biases(layers):
    """The bias of every conv whose next layer is a batch norm.

    A dropout between the two would mask the bias per element and give
    it a real gradient, so such a conv is left out.
    """
    out = set()
    for layer, nxt in zip(layers, layers[1:] + [None]):
        if isinstance(layer, arch.ResidualBlock):
            out |= _bn_fed_conv_biases(layer.main)
            out |= _bn_fed_conv_biases(layer.shortcut)
        elif isinstance(layer, Conv1D) and isinstance(nxt, BatchNorm1D):
            out.add(id(layer.b))
    return out


# a UQ-free case keeps its family's bare id
NETWORK_CASES = [
    pytest.param(family, uq, id=family if uq == "none" else f"{family}-{uq}")
    for family in arch.FAMILIES for uq in arch.UQ_METHODS]


@pytest.mark.parametrize("family, uq_method", NETWORK_CASES)
def test_network_grad_check(family, uq_method, monkeypatch):
    """Central differences of the train-mode loss of a whole network.

    Covers the input transpose, the conv -> LSTM boundary, both
    ResidualBlock shortcuts (a projection in block 1, the identity
    after) and every UQ layer: each forward gets a generator seeded the
    same way, so the masks and the Flipout noise repeat on every pass.
    A conv bias that feeds a batch norm directly has a gradient of about
    0, because the norm subtracts it again, so those are compared in
    absolute terms.
    """
    monkeypatch.setattr(arch, "FCN_FILTERS", (16, 20, 16))
    cfg = arch.ModelConfig(family=family, uq=uq_method, cnn_blocks=2, f1=16,
                           f2=16, k1=4, k2=5, max_pool=2, lstm_layers=2,
                           u1=8, u2=8)
    net = arch.build_network(cfg, 3, 16, seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3, 16))
    labels = rng.integers(0, 2, size=4)

    def forward():
        return net.forward(x, mode="train", rng=np.random.default_rng(3))

    def loss_at():
        return softmax_cross_entropy(forward(), labels)[0]

    _, probs = softmax_cross_entropy(forward(), labels)
    net.backward(softmax_cross_entropy_backward(probs, labels))
    biases = _bn_fed_conv_biases(net.layers)
    eps = 1e-6
    checked = 0
    for p in net.params():
        if not p.trainable:
            continue
        flat = p.value.reshape(-1)
        assert np.shares_memory(flat, p.value)
        for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            analytic = p.grad.reshape(-1)[i]
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_at()
            flat[i] = orig - eps
            down = loss_at()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            if id(p) in biases:
                assert abs(analytic) < 1e-8 and abs(numeric) < 1e-8, p.name
            else:
                err = _rel_err(np.array([analytic]), np.array([numeric]))
                assert err < 1e-5, (p.name, analytic, numeric)
            checked += 1
    assert checked >= 10
