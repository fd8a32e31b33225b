"""Builders, shape propagation, UQ placement, config serialization."""

from pathlib import Path

import numpy as np
import pytest

from conftest import load_file
from uqtsc import arch, cli, uq
from uqtsc.nncore import (LSTM, BatchNorm1D, Conv1D, Dense, GlobalAvgPool1D,
                          Layer, MaxPool1D)


def _forward_shapes(net, x):
    """Layer-by-layer output shapes in infer mode, from the [B, L, C] view
    of the [B, C, L] input that Network.forward passes its first layer."""
    shapes = []
    h = x.transpose(0, 2, 1)
    for layer in net.layers:
        h = layer.forward(h, mode="infer")
        shapes.append(h.shape)
    return shapes


# ---------------------------------------------------------------------------
# builders


def test_build_cnn_shape_chain():
    cfg = arch.ModelConfig(family="cnn", cnn_blocks=1, f1=16, k1=7, max_pool=2)
    net = arch.build_network(cfg, n_channels=6, window_length=400)
    x = np.random.default_rng(0).normal(size=(2, 6, 400))
    shapes = _forward_shapes(net, x)
    assert shapes[0] == (2, 400, 16)   # conv, same padding
    assert shapes[3] == (2, 200, 16)   # maxpool 2
    assert shapes[4] == (2, 16)        # GAP
    assert shapes[5] == (2, 2)         # head


def test_build_cnn_shape_collapse():
    cfg = arch.ModelConfig(family="cnn", cnn_blocks=3, max_pool=8)
    with pytest.raises(arch.ShapeCollapse):
        arch.build_network(cfg, n_channels=6, window_length=100)


def test_invalid_blocks_rejected():
    cfg = arch.ModelConfig(family="cnn", cnn_blocks=4)
    with pytest.raises(arch.InvalidConfig):
        arch.build_network(cfg, 6, 400)


def test_build_lstm_single_layer():
    cfg = arch.ModelConfig(family="lstm", lstm_layers=1, u1=41)
    net = arch.build_network(cfg, 6, 400)
    x = np.random.default_rng(1).normal(size=(2, 6, 400))
    shapes = _forward_shapes(net, x)
    assert shapes[-2] == (2, 41)
    assert shapes[-1] == (2, 2)


def test_build_lstm_stacked_chained_sizes():
    cfg = arch.ModelConfig(family="lstm", lstm_layers=2, u1=113, u2=13)
    net = arch.build_network(cfg, 6, 100)
    lstms = [l for l in net.layers if isinstance(l, LSTM)]
    assert [(l.n_in, l.units) for l in lstms] == [(6, 113), (113, 13)]
    assert lstms[0].return_sequences and not lstms[1].return_sequences


def test_lstm_cells_below_range_rejected():
    cfg = arch.ModelConfig(family="lstm", u1=4)
    with pytest.raises(arch.InvalidConfig):
        arch.build_network(cfg, 6, 100)


def test_build_cnn_lstm_row24_shapes():
    cfg = arch.ModelConfig(family="cnn_lstm", cnn_blocks=1, f1=26, k1=9,
                           max_pool=2, lstm_layers=1, u1=67)
    net = arch.build_network(cfg, 6, 1000)
    x = np.random.default_rng(2).normal(size=(2, 6, 1000))
    shapes = _forward_shapes(net, x)
    assert shapes[0] == (2, 1000, 26)
    assert shapes[3] == (2, 500, 26)
    assert shapes[-2] == (2, 67)
    assert shapes[-1] == (2, 2)


def test_cnn_lstm_zero_lstm_layers_rejected():
    cfg = arch.ModelConfig(family="cnn_lstm", lstm_layers=0)
    with pytest.raises(arch.InvalidConfig):
        arch.build_network(cfg, 6, 400)


def test_build_deterministic_for_seed():
    cfg = arch.ModelConfig(family="cnn_lstm", cnn_blocks=2, f1=20, f2=24)
    a = arch.build_network(cfg, 6, 200, seed=5)
    b = arch.build_network(cfg, 6, 200, seed=5)
    for pa, pb in zip(a.params(), b.params()):
        np.testing.assert_array_equal(pa.value, pb.value)


def test_fcn_conv1_weight_count():
    net = arch.build_network(arch.ModelConfig(family="fcn"), 6, 400)
    conv1 = net.layers[0]
    assert conv1.w.value.size == 6 * 8 * 128 == 6144
    assert conv1.b.value.size == 128


def test_fcn_ends_in_two_unit_head():
    net = arch.build_network(arch.ModelConfig(family="fcn"), 6, 400)
    head = net.layers[-1]
    assert isinstance(head, Dense) and head.n_out == 2


def test_resnet_projection_vs_identity_shortcuts():
    net = arch.build_network(arch.ModelConfig(family="resnet"), 6, 400)
    blocks = [l for l in net.layers if isinstance(l, arch.ResidualBlock)]
    assert len(blocks) == 3
    assert blocks[0].short_conv is not None          # 6 -> 128 projection
    assert blocks[0].short_conv.kernel == 1
    assert blocks[1].short_conv is None              # 128 -> 128 identity
    assert blocks[2].short_conv is None


def test_resnet_forward_shapes():
    net = arch.build_network(arch.ModelConfig(family="resnet"), 6, 64)
    x = np.random.default_rng(3).normal(size=(2, 6, 64))
    y = net.forward(x, mode="infer")
    assert y.shape == (2, 2)


def test_resnet_backward_runs():
    net = arch.build_network(arch.ModelConfig(family="resnet"), 6, 32)
    x = np.random.default_rng(4).normal(size=(4, 6, 32))
    y = net.forward(x, mode="train")
    net.backward(np.ones_like(y))
    assert all(np.all(np.isfinite(p.grad)) for p in net.params())


@pytest.mark.parametrize("method", ("none", "dropconnect"))
@pytest.mark.parametrize("family", ("cnn", "cnn_lstm", "fcn"))
def test_backward_skipping_first_dx_keeps_param_grads(family, method):
    """Network.backward skips the first conv's dx; every parameter
    gradient still equals that of a full layer-by-layer backward."""
    cfg = arch.ModelConfig(family=family, uq=method, cnn_blocks=2,
                           batch_size=16, dropout_rate=0.25)
    x = np.random.default_rng(5).normal(size=(4, 6, 32))
    grads = []
    for full in (False, True):
        net = arch.build_network(cfg, 6, 32, seed=6)
        assert isinstance(net.layers[0], Conv1D)
        rng = np.random.default_rng(7)
        y = net.forward(x, mode="train", rng=rng)
        if full:
            d = np.ones_like(y)
            for layer in reversed(net.layers):
                d = layer.backward(d)
            assert d.shape == x.transpose(0, 2, 1).shape  # [B, L, C]
        else:
            net.backward(np.ones_like(y))
        grads.append([p.grad.tobytes() for p in net.params()])
    assert grads[0] == grads[1]


# ---------------------------------------------------------------------------
# param counting


def _trainable_count(net):
    """Trainable scalars; running statistics excluded."""
    return sum(p.value.size for p in net.params() if p.trainable)


def test_param_count_dense():
    net = arch.Network([Dense(2, 2, np.random.default_rng(0))],
                       arch.ModelConfig(family="cnn"), 2, 1)
    assert _trainable_count(net) == 6


def test_param_count_lstm_formula():
    cfg = arch.ModelConfig(family="lstm", u1=8)
    net = arch.build_network(cfg, 6, 100)
    lstm = [l for l in net.layers if isinstance(l, LSTM)][0]
    got = sum(p.value.size for p in lstm.params())
    assert got == 4 * (8 * (6 + 8) + 8) == 480


def test_param_count_fcn_summation_oracle():
    net = arch.build_network(arch.ModelConfig(family="fcn"), 6, 400)
    expect = 0
    ch = 6
    for f, k in zip(arch.FCN_FILTERS, arch.FCN_KERNELS):
        expect += f * ch * k + f      # conv w + b
        expect += 2 * f               # bn gamma + beta (running stats excluded)
        ch = f
    expect += ch * 2 + 2              # head
    assert _trainable_count(net) == expect


# ---------------------------------------------------------------------------
# UQ placement


def _drop_positions(net):
    return [i for i, l in enumerate(net.layers) if isinstance(l, uq.MCDropout)]


def test_mc_dropout_first_two_blocks_only():
    for family in ("cnn", "fcn"):
        cfg = arch.ModelConfig(family=family, uq="mc_dropout", cnn_blocks=3,
                               dropout_rate=0.3)
        net = arch.build_network(cfg, 6, 400)
        convs = [i for i, l in enumerate(net.layers)
                 if isinstance(l, Conv1D)]
        drops = _drop_positions(net)
        assert len(convs) == 3 and len(drops) == 2, family
        # each dropout directly follows its conv, before the batchnorm
        assert drops == [convs[0] + 1, convs[1] + 1], family
        assert all(isinstance(net.layers[d + 1], BatchNorm1D)
                   for d in drops), family
        assert all(d < convs[2] for d in drops), family


def test_mc_dropout_lstm_head_only():
    cfg = arch.ModelConfig(family="lstm", uq="mc_dropout", lstm_layers=1)
    net = arch.build_network(cfg, 6, 100)
    drops = _drop_positions(net)
    assert len(drops) == 1
    assert isinstance(net.layers[drops[0] + 1], Dense)


def test_mc_dropout_cnn_lstm_blocks_and_head():
    cfg = arch.ModelConfig(family="cnn_lstm", uq="mc_dropout", cnn_blocks=3)
    net = arch.build_network(cfg, 6, 1000)
    drops = _drop_positions(net)
    assert len(drops) == 3  # blocks 1-2 plus pre-classifier
    assert isinstance(net.layers[drops[-1] + 1], Dense)


def test_mc_dropout_resnet_blocks():
    cfg = arch.ModelConfig(family="resnet", uq="mc_dropout")
    net = arch.build_network(cfg, 6, 64)
    blocks = [l for l in net.layers if isinstance(l, arch.ResidualBlock)]
    assert all(d is not None for d in blocks[0].dropouts)
    assert all(d is not None for d in blocks[1].dropouts)
    assert all(d is None for d in blocks[2].dropouts)


def test_dropconnect_cnn_replaces_all_convs():
    for family in ("cnn", "cnn_lstm"):
        cfg = arch.ModelConfig(family=family, uq="dropconnect", cnn_blocks=3)
        net = arch.build_network(cfg, 6, 400)
        convs = [l for l in net.layers if isinstance(l, Conv1D)]
        assert len(convs) == 3, family
        assert all(isinstance(c, uq.DropConnectConv1D) for c in convs), family
        assert isinstance(net.layers[-1], Dense), family
        assert not isinstance(net.layers[-1], uq.DropConnectDense), family


def test_dropconnect_lstm_head_only():
    cfg = arch.ModelConfig(family="lstm", uq="dropconnect")
    net = arch.build_network(cfg, 6, 100)
    assert isinstance(net.layers[-1], uq.DropConnectDense)
    assert not any(isinstance(l, uq.DropConnectConv1D) for l in net.layers)


def test_dropconnect_fcn_all_convs():
    cfg = arch.ModelConfig(family="fcn", uq="dropconnect")
    net = arch.build_network(cfg, 6, 400)
    convs = [l for l in net.layers if isinstance(l, Conv1D)]
    assert len(convs) == 3
    assert all(isinstance(c, uq.DropConnectConv1D) for c in convs)


def test_dropconnect_resnet_spares_shortcuts():
    cfg = arch.ModelConfig(family="resnet", uq="dropconnect")
    net = arch.build_network(cfg, 6, 64)
    blocks = [l for l in net.layers if isinstance(l, arch.ResidualBlock)]
    for block in blocks:
        assert all(isinstance(c, uq.DropConnectConv1D) for c in block.convs)
        if block.short_conv is not None:
            assert not isinstance(block.short_conv, uq.DropConnectConv1D)


@pytest.mark.parametrize("family", arch.FAMILIES)
def test_flipout_replaces_head_everywhere(family):
    cfg = arch.ModelConfig(family=family, uq="flipout")
    net = arch.build_network(cfg, 6, 128)
    assert isinstance(net.layers[-1], uq.FlipoutDense)
    assert sum(isinstance(l, uq.FlipoutDense) for l in net.layers) == 1


@pytest.mark.parametrize("family", arch.FAMILIES)
@pytest.mark.parametrize("method", ("mc_dropout", "dropconnect", "flipout"))
def test_all_family_method_pairs_construct(family, method):
    cfg = arch.ModelConfig(family=family, uq=method)
    net = arch.build_network(cfg, 6, 128)
    x = np.random.default_rng(6).normal(size=(2, 6, 128))
    y = net.forward(x, mode="mc_infer", rng=np.random.default_rng(7))
    assert y.shape == (2, 2)


def _layertrace():
    """The benchmark's tracer, whose prefix timing reads _is_stochastic."""
    return load_file("perfbench/layertrace.py")


@pytest.mark.parametrize("blocks", (1, 3))
@pytest.mark.parametrize("family", arch.FAMILIES)
@pytest.mark.parametrize("method", arch.UQ_METHODS)
def test_first_stochastic_agrees_with_layertrace(family, method, blocks):
    trace = _layertrace()
    cfg = arch.ModelConfig(family=family, uq=method, cnn_blocks=blocks,
                           lstm_layers=blocks)
    net = arch.build_network(cfg, 6, 128)
    flags = [trace._is_stochastic(layer, uq, arch) for layer in net.layers]
    assert [layer.stochastic for layer in net.layers] == flags
    assert net.first_stochastic == (flags + [True]).index(True)


def test_first_stochastic_positions():
    def first(**kw):
        net = arch.build_network(arch.ModelConfig(**kw), 6, 128)
        return net.first_stochastic, len(net.layers)

    n = first(family="cnn")[1]
    assert first(family="cnn") == (n, n)            # none: the logits
    assert first(family="cnn", uq="mc_dropout")[0] == 1  # after conv1
    assert first(family="cnn", uq="dropconnect")[0] == 0
    assert first(family="cnn", uq="flipout") == (n - 1, n)
    # p = 0 still counts: the layer kind, not the rate, decides
    assert first(family="lstm", uq="mc_dropout", dropout_rate=0.0)[0] == 1


def _held_arrays(obj, seen=None):
    """Names of ndarrays reachable from a layer, Params excluded."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    found = []
    for key, val in vars(obj).items():
        for item in val if isinstance(val, (list, tuple)) else (val,):
            if isinstance(item, np.ndarray):
                found.append(f"{type(obj).__name__}.{key}")
            elif isinstance(item, Layer):
                found += _held_arrays(item, seen)
    return found


@pytest.mark.parametrize("family", arch.FAMILIES)
@pytest.mark.parametrize("method", arch.UQ_METHODS)
def test_inference_passes_hold_no_caches(family, method):
    """A train pass fills the backward caches; infer/mc_infer clear them."""
    cfg = arch.ModelConfig(family=family, uq=method, cnn_blocks=2)
    net = arch.build_network(cfg, 6, 64, seed=4)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 6, 64))
    net.backward(np.ones_like(net.forward(x, mode="train", rng=rng)))
    assert any(_held_arrays(layer) for layer in net.layers)
    for mode in ("infer", "mc_infer"):
        net.forward(x, mode="train", rng=rng)
        net.forward(x, mode=mode, rng=rng)
        held = [name for layer in net.layers for name in _held_arrays(layer)]
        assert held == [], (mode, held)


def test_unknown_uq_method_rejected():
    with pytest.raises(arch.InvalidConfig):
        arch.build_network(arch.ModelConfig(family="cnn", uq="ensembles"),
                           6, 128)


@pytest.mark.parametrize("family", arch.FAMILIES)
@pytest.mark.parametrize("method", ("mc_dropout", "dropconnect", "flipout"))
def test_strip_uq_recovers_deterministic_forward(family, method):
    """With UQ switched off (infer mode), a wrapped net is its plain twin."""
    cfg = arch.ModelConfig(family=family)
    plain = arch.build_network(cfg, 6, 64, seed=9)
    x = np.random.default_rng(8).normal(size=(2, 6, 64))
    expect = plain.forward(x, mode="infer")

    cfg2 = arch.ModelConfig(family=family, uq=method)
    wrapped = arch.build_network(cfg2, 6, 64, seed=9)
    np.testing.assert_allclose(wrapped.forward(x, mode="infer"), expect,
                               atol=1e-12)


# ---------------------------------------------------------------------------
# shape-propagation fuzz


def _random_config(rng):
    family = ("cnn", "lstm", "cnn_lstm")[rng.integers(0, 3)]
    return arch.ModelConfig(
        family=family,
        cnn_blocks=int(rng.integers(1, 4)),
        f1=int(rng.integers(16, 129)), f2=int(rng.integers(16, 129)),
        f3=int(rng.integers(16, 129)),
        k1=int(rng.integers(4, 17)), k2=int(rng.integers(4, 17)),
        k3=int(rng.integers(4, 17)),
        max_pool=int(rng.integers(2, 9)),
        lstm_layers=int(rng.integers(1, 4)),
        u1=int(rng.integers(8, 129)), u2=int(rng.integers(8, 129)),
        u3=int(rng.integers(8, 129)),
        batch_size=int(rng.integers(16, 65)),
        dropout_rate=float(rng.uniform(0.0, 0.5)),
    )


def test_shape_propagation_fuzz():
    rng = np.random.default_rng(42)
    length = 40
    built = collapsed = 0
    for _ in range(1000):
        cfg = _random_config(rng)
        uses_convs = cfg.family in ("cnn", "cnn_lstm")
        analytic = length
        if uses_convs:
            for _b in range(cfg.cnn_blocks):
                analytic //= cfg.max_pool
        should_collapse = uses_convs and analytic < 1
        if should_collapse:
            with pytest.raises(arch.ShapeCollapse):
                arch.build_network(cfg, 6, length)
            collapsed += 1
        else:
            net = arch.build_network(cfg, 6, length)
            y = net.forward(np.zeros((1, 6, length)), mode="infer")
            assert y.shape == (1, 2)
            built += 1
    assert built > 100 and collapsed > 100


# ---------------------------------------------------------------------------
# config serialization


def test_config_kv_roundtrip():
    cfg = arch.ModelConfig(family="cnn_lstm", uq="flipout", cnn_blocks=2,
                           f1=26, k1=9, u1=67, batch_size=48,
                           dropout_rate=0.125)
    line = cfg.to_kv_line()
    back = arch.ModelConfig.from_kv_line(line)
    assert back == cfg


def test_config_kv_rejects_unknown_key():
    full = arch.ModelConfig(family="cnn").to_kv_line()
    for line in ("family=cnn,uq=none,bogus=3",
                 full + ",bogus=3",                     # unknown key
                 full.replace(",max_pool=2", "")):      # missing key
        with pytest.raises(arch.InvalidConfig):
            arch.ModelConfig.from_kv_line(line)


def test_config_file_roundtrip(tmp_path):
    """The `key = value` file `train --config` reads parses via from_pairs."""
    cfg = arch.ModelConfig(family="lstm", u1=41, batch_size=16)
    path = tmp_path / "model.cfg"
    path.write_text("".join(f"{k} = {v}\n"
                            for k, v in cfg.to_pairs().items()))
    assert arch.ModelConfig.from_pairs(cli._read_kv(path)) == cfg


def test_from_pairs_partial_keys_keep_defaults():
    cfg = arch.ModelConfig.from_pairs({"family": "cnn_lstm", "u1": "67",
                                       "dropout_rate": "0.125"})
    assert cfg == arch.ModelConfig(family="cnn_lstm", u1=67,
                                   dropout_rate=0.125)
    assert isinstance(cfg.u1, int) and isinstance(cfg.dropout_rate, float)


@pytest.mark.parametrize("family", arch.FAMILIES)
@pytest.mark.parametrize("method", arch.UQ_METHODS)
def test_checkpoint_roundtrip_forward_equal(tmp_path, family, method):
    cfg = arch.ModelConfig(family=family, uq=method, cnn_blocks=1, f1=16, k1=5)
    net = arch.build_network(cfg, 6, 64, seed=3)
    x = np.random.default_rng(10).normal(size=(2, 6, 64))
    expect = net.forward(x, mode="infer")
    path = tmp_path / "net.ckpt"
    arch.save_network(net, path)
    loaded, meta = arch.load_network(path)
    assert meta["channels"] == "6"
    np.testing.assert_array_equal(loaded.forward(x, mode="infer"), expect)
    assert loaded.config.to_kv_line() == net.config.to_kv_line()
    assert loaded.config == net.config


# ---------------------------------------------------------------------------
# checkpoints written by the channels-first layers


@pytest.mark.parametrize("family", ("cnn_lstm", "resnet"))
def test_channels_first_checkpoints_load(family, monkeypatch):
    """Float64 checkpoints and infer logits in tests/data were written by
    the [batch, channels, length] layers (commit b41124e) from perturbed
    weights and BN statistics, with FCN_FILTERS (8, 16, 8).  Params kept
    their names and shapes, so this code loads them and gives the same
    logits up to summation order."""
    monkeypatch.setattr(arch, "FCN_FILTERS", (8, 16, 8))
    data = Path(__file__).parent / "data"
    net, _ = arch.load_network(data / f"compat_{family}.ckpt")
    x = np.load(data / "compat_input.npy")
    expect = np.load(data / f"compat_{family}_logits.npy")
    got = net.forward(x, mode="infer")
    np.testing.assert_allclose(got, expect, rtol=1e-9, atol=0)
