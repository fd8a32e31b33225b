"""Builders, shape propagation, UQ placement, config serialization."""

import dataclasses
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import leaf_layers, load_file, perturbed_net
from uqtsc import arch, cli, uq
from uqtsc.nncore import (LSTM, BatchNorm1D, CheckpointError, Conv1D, Dense,
                          GlobalAvgPool1D, Layer, MaxPool1D, ReLU)


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
    proj, projbn = blocks[0].shortcut                # 6 -> 128 projection
    assert type(proj) is Conv1D and proj.kernel == 1
    assert (proj.n_in, proj.filters) == (6, 128)
    assert isinstance(projbn, BatchNorm1D)
    assert blocks[1].shortcut == []                  # 128 -> 128 identity
    assert blocks[2].shortcut == []


def _conv_bn_names(conv, bn):
    return [f"{conv}_w", f"{conv}_b", f"{bn}_gamma", f"{bn}_beta",
            f"{bn}_rmean", f"{bn}_rvar"]


@pytest.mark.parametrize("method", ("none", "mc_dropout", "dropconnect"))
def test_resnet_param_names_pinned(method):
    """Checkpoints store params by name, in this order."""
    expect = []
    for b in (1, 2, 3):
        for j in range(3):
            expect += _conv_bn_names(f"r{b}_conv{j}", f"r{b}_bn{j}")
        if b == 1:
            expect += _conv_bn_names("r1_proj", "r1_projbn")
    expect += ["head_w", "head_b"]
    net = arch.build_network(arch.ModelConfig(family="resnet", uq=method),
                             6, 64)
    assert [name for name, _ in net.named_params()] == expect


class _ReferenceBlock(Layer):
    """A ResidualBlock's sublayers run by the explicit stage loop: three
    conv -> [dropout] -> bn stages, relu between them, then the shortcut
    (its projection conv and bn, or the identity) and relu(sum)."""

    def __init__(self, block):
        self.block = block
        main = block.main
        self.stages = []
        for conv in block.convs:
            i = main.index(conv)
            drop = main[i + 1] if isinstance(main[i + 1], uq.MCDropout) \
                else None
            bn = main[i + 2 if drop else i + 1]
            assert isinstance(bn, BatchNorm1D)
            self.stages.append((conv, drop, bn))
        self.relus = [ReLU(), ReLU()]
        self.proj = block.shortcut

    def params(self):
        return self.block.params()

    def forward(self, x, mode="train", rng=None):
        h = x
        for j, (conv, drop, bn) in enumerate(self.stages):
            h = conv.forward(h, mode, rng)
            if drop is not None:
                h = drop.forward(h, mode, rng)
            h = bn.forward(h, mode, rng)
            if j < 2:
                h = self.relus[j].forward(h, mode, rng)
        short = x
        if self.proj:
            conv, bn = self.proj
            short = bn.forward(conv.forward(x, mode, rng), mode, rng)
        y = h + short
        self.mask = y > 0
        return y * self.mask

    def backward(self, dy):
        dz = dy * self.mask
        dh = dz
        for j in (2, 1, 0):
            conv, drop, bn = self.stages[j]
            if j < 2:
                dh = self.relus[j].backward(dh)
            dh = bn.backward(dh)
            if drop is not None:
                dh = drop.backward(dh)
            dh = conv.backward(dh)
        dshort = dz
        if self.proj:
            conv, bn = self.proj
            dshort = conv.backward(bn.backward(dz))
        return dh + dshort


@pytest.mark.parametrize("method", ("none", "mc_dropout", "dropconnect"))
def test_resnet_blocks_equal_reference_loop(method, monkeypatch):
    """Train forward, every gradient, mc_infer logits and the rng state
    byte-equal the explicit stage loop's, with a projection shortcut in
    block 1 and the identity after it."""
    monkeypatch.setattr(arch, "FCN_FILTERS", (8, 16, 8))
    cfg = arch.ModelConfig(family="resnet", uq=method)
    ours = arch.build_network(cfg, 6, 32, seed=5)
    ref = arch.build_network(cfg, 6, 32, seed=5)
    ref.layers = [_ReferenceBlock(l) if isinstance(l, arch.ResidualBlock)
                  else l for l in ref.layers]
    x = np.random.default_rng(12).normal(size=(4, 6, 32))
    got, want = [], []
    for net, out in ((ours, got), (ref, want)):
        rng = np.random.default_rng(13)
        y = net.forward(x, mode="train", rng=rng)
        net.backward(np.cos(y))
        out += [y] + [p.grad for p in net.params()]
        out.append(net.forward(x, mode="mc_infer", rng=rng))
        out.append(rng.integers(0, 2 ** 62, size=2))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    assert [len(b.dropouts) for b in blocks] == [3, 3, 0]
    for block in blocks[:2]:
        # each dropout directly follows its conv, before the batch norm
        drops = [i for i, l in enumerate(block.main)
                 if isinstance(l, uq.MCDropout)]
        assert [block.main[i] for i in drops] == block.dropouts
        assert [block.main[i - 1] for i in drops] == block.convs
        assert all(isinstance(block.main[i + 1], BatchNorm1D)
                   for i in drops)
    assert not any(isinstance(l, uq.MCDropout)
                   for b in blocks for l in b.shortcut)


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
        assert len(block.convs) == 3
        assert all(isinstance(c, uq.DropConnectConv1D) for c in block.convs)
        assert not any(isinstance(l, uq.DropConnectConv1D)
                       for l in block.shortcut)
    assert type(blocks[0].shortcut[0]) is Conv1D


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


@pytest.mark.parametrize("family", arch.FAMILIES)
@pytest.mark.parametrize("method", arch.UQ_METHODS)
def test_every_pool_sits_between_batch_norm_and_relu(family, method):
    """Every conv stage that pools is built bn -> pool -> relu, the order a
    train pass and backward run, so no bn -> relu -> pool run is left."""
    cfg = arch.ModelConfig(family=family, uq=method, cnn_blocks=3)
    layers = leaf_layers(arch.build_network(cfg, 6, 128).layers)
    pools = [i for i, l in enumerate(layers) if isinstance(l, MaxPool1D)]
    assert len(pools) == (3 if family in ("cnn", "cnn_lstm") else 0)
    for i in pools:
        assert isinstance(layers[i - 1], BatchNorm1D), (i, layers)
        assert isinstance(layers[i + 1], ReLU), (i, layers)


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


@pytest.mark.parametrize("mode", ("infer", "mc_infer"))
@pytest.mark.parametrize("family", ("cnn", "cnn_lstm"))
def test_inference_pass_frees_each_activation_after_its_consumer(family,
                                                                 mode):
    """Outside train no layer keeps its output, so when a layer outside a
    batch norm -> pool pair starts, its input is the one layer output
    still alive: the pass keeps no spent activation, such as a pair's
    batch-norm output once its relu has run, while later layers run."""
    net = perturbed_net(family, "mc_dropout")
    outputs, late = [], []
    for layer in net.layers:
        def spy(x, *args, _layer=layer, _forward=layer.forward, **kwargs):
            if not isinstance(_layer, (BatchNorm1D, MaxPool1D)):
                alive = {id(ref()) for ref in outputs if ref() is not None}
                if len(alive) > 1:
                    late.append((_layer.name, len(alive)))
            y = _forward(x, *args, **kwargs)
            outputs.append(weakref.ref(y))
            return y
        layer.forward = spy
    x = np.random.default_rng(48).normal(size=(5, 6, 32))
    net.forward(x, mode=mode, rng=np.random.default_rng(49))
    assert len(outputs) == len(net.layers)
    assert late == []


def test_frozen_nests_drops_on_exit_and_refuses_train():
    """Residual blocks hold through their sublayers; an inner block's
    exit keeps the outer one's constants; the outer exit drops them all,
    also when its block raised; a train pass inside raises."""
    cfg = arch.ModelConfig(family="resnet", uq="flipout")
    net = arch.build_network(cfg, 6, 32, seed=4)
    layers = leaf_layers(net.layers)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 6, 32))
    expect = net.forward(x, mode="mc_infer", rng=np.random.default_rng(13))
    with net.frozen():
        with net.frozen():
            got = net.forward(x, mode="mc_infer",
                              rng=np.random.default_rng(13))
        held = {type(layer).__name__ for layer in layers if layer._held}
        assert held == {"Conv1D", "BatchNorm1D", "FlipoutDense"}
        with pytest.raises(RuntimeError, match="frozen"):
            net.forward(x, mode="train", rng=rng)
        again = net.forward(x, mode="mc_infer", rng=np.random.default_rng(13))
    assert got.tobytes() == expect.tobytes() == again.tobytes()
    assert all(layer._held is None for layer in layers)
    with pytest.raises(KeyError):
        with net.frozen():
            net.forward(x, mode="infer")
            raise KeyError("lane")
    assert all(layer._held is None for layer in layers)
    net.forward(x, mode="train", rng=rng)


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
# inference plan: BatchNorm1D -> MaxPool1D pools first outside train


def unfused(net, x, mode, rng=None, start=0, stop=None):
    """layers[start:stop] one by one, as train mode runs them."""
    h = x.transpose(0, 2, 1) if start == 0 else x
    return arch._run(net.layers[start:stop], h, mode, rng)


def classic(bn, relu, pool, x, mode):
    """The paper's stage tail, bn -> relu -> pool, called in that order on
    a [batch, channels, length] input."""
    h = bn.forward(x.transpose(0, 2, 1), mode=mode)
    return pool.forward(relu.forward(h, mode=mode), mode=mode)


PLAN_CASES = [pytest.param(f, m, d, id=f"{f}-{m}-{np.dtype(d).name}")
              for f in ("cnn", "cnn_lstm") for m in arch.UQ_METHODS
              for d in (np.float64, np.float32)]


@pytest.mark.parametrize("family, method, dtype", PLAN_CASES)
def test_plan_logits_bytes_equal_unfused(family, method, dtype):
    """infer logits, and an mc_infer pass and the rng state after it, are
    the layer-by-layer bytes; both blocks min-pool some channels."""
    net = perturbed_net(family, method, dtype)
    fused = arch._fused_starts(net.layers)
    assert fused == ((2, 7) if method == "mc_dropout" else (1, 5))
    assert all((net.layers[i].gamma.value < 0).any() for i in fused)
    x = np.random.default_rng(41).normal(size=(9, 6, 32)).astype(dtype)
    got = net.forward(x, mode="infer")
    assert got.dtype == dtype
    assert got.tobytes() == unfused(net, x, "infer").tobytes()
    rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
    got = net.forward(x, mode="mc_infer", rng=rng_a)
    assert got.tobytes() == unfused(net, x, "mc_infer", rng_b).tobytes()
    assert rng_a.random() == rng_b.random()


def _spy_lengths(net):
    """The time length of every input each BatchNorm1D, MaxPool1D and ReLU
    of net sees, by layer index, from a spy set on the layer instance, so
    the plan's calls are counted as well as the layer loop's.  A train
    pass runs batch norm through forward_steps, which is spied on too."""
    seen = {}
    for i, layer in enumerate(net.layers):
        if isinstance(layer, (BatchNorm1D, ReLU, MaxPool1D)):
            def spy(x, *args, _i=i, _forward=layer.forward, **kwargs):
                seen[_i].append(x.shape[1])
                return _forward(x, *args, **kwargs)
            seen[i] = []
            layer.forward = spy
        if isinstance(layer, BatchNorm1D):
            def spy_steps(x, *args, _i=i, _steps=layer.forward_steps,
                          **kwargs):
                seen[_i].append(x.shape[1])
                return (yield from _steps(x, *args, **kwargs))
            layer.forward_steps = spy_steps
    return seen


@pytest.mark.parametrize("start, stop", ((3, None), (0, 3), (0, 8), (4, 10),
                                         (8, None)))
def test_plan_step_cut_by_start_or_stop_runs_unfused(start, stop):
    """Layers 2-3 and 7-8 of an MC-dropout CNN are its batch norm -> pool
    pairs, each followed by its relu.  A slice that cuts a pair runs it
    layer by layer, so its batch norm sees the unpooled 32 or 16 steps; a
    pair whole inside the slice still pools first, to 16 or 8.  Pools see
    their unpooled input and relus the pooled one either way, and the
    bytes are the layer-by-layer ones."""
    net = perturbed_net("cnn", "mc_dropout")
    x = np.random.default_rng(43).normal(size=(5, 6, 32))
    if start:
        x = unfused(net, x, "mc_infer", np.random.default_rng(44), stop=start)
    want = unfused(net, x, "mc_infer", np.random.default_rng(45), start,
                   stop)
    seen = _spy_lengths(net)
    got = net.forward(x, mode="mc_infer", rng=np.random.default_rng(45),
                      start=start, stop=stop)
    assert got.tobytes() == want.tobytes()
    stop = len(net.layers) if stop is None else stop
    for lo, steps in ((2, 32), (7, 16)):
        whole = start <= lo and lo + 2 <= stop
        for i, length in ((lo, steps // 2 if whole else steps),
                          (lo + 1, steps), (lo + 2, steps // 2)):
            expect = [length] if start <= i < stop else []
            assert seen[i] == expect, (i, seen)


@pytest.mark.parametrize("mode", ("mc_infer", "infer", "train"))
def test_plan_is_taken_outside_train_only(mode):
    """An MC-dropout CNN on 64 steps, pool 4: outside train, batch norm
    sees 16 then 4 steps, pooled.  Pooling first is taken outside train
    only: a train pass shows batch norm 64 then 16 steps.  In every mode
    the pools see their unpooled input and the relus, which follow them,
    16 then 4 steps."""
    cfg = arch.ModelConfig(family="cnn", uq="mc_dropout", cnn_blocks=2,
                           f1=16, f2=16, k1=4, k2=4, max_pool=4)
    net = arch.build_network(cfg, 6, 64, seed=1)
    net.layers[2].gamma.value[::3] *= -1.0  # the min-pool path too
    seen = _spy_lengths(net)
    x = np.random.default_rng(46).normal(size=(4, 6, 64))
    net.forward(x, mode=mode, rng=np.random.default_rng(47))
    full = mode == "train"
    assert seen == {2: [64 if full else 16], 3: [64], 4: [16],
                    7: [16 if full else 4], 8: [16], 9: [4]}


def test_plan_zero_sign_differs_only_where_stated():
    """Pool 2 over four windows of two channels; channel 1 has a negative
    gamma.  Where a window's largest batch-norm output is exactly +0 and
    its first position's is negative, the paper's order (relu, then pool)
    gives the tied zeros -0, +0 and the pool keeps the first, -0; the
    built order, pooling first, gives +0.  The values compare equal, and
    only window 0 of channel 0 and window 2 of channel 1 differ, in the
    sign bit."""
    bn, relu, pool = BatchNorm1D(2), ReLU(), MaxPool1D(2)
    bn.gamma.value = np.array([1.0, -1.0])
    net = arch.Network([bn, pool, relu], arch.ModelConfig(family="cnn"),
                       2, 8)
    # [batch 1, channels 2, length 8]: windows (0,1) (2,3) (4,5) (6,7)
    x = np.array([[[-1.0, 0.0, 0.0, -1.0, 2.0, 0.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0, 3.0, 1.0, 0.0, 0.0, 0.0]]])
    got = net.forward(x, mode="infer")
    want = classic(bn, relu, pool, x, "infer")
    assert np.array_equal(got, want)
    flipped = np.signbit(got) != np.signbit(want)
    assert flipped[0].T.tolist() == [[True, False, False, False],
                                     [False, False, True, False]]
    assert not np.signbit(got).any() and np.signbit(want).sum() == 2


def test_train_plan_zero_sign_differs_only_where_stated():
    """Train mode, pool 2 over two windows of two samples and two
    channels; channel 1 has a negative gamma and both channels a batch
    mean of exactly 0.  In sample 0, window 0 of channel 0 and window 1
    of channel 1 have batch-norm outputs (negative, +0): the paper's order
    (relu, then pool) gives the tied zeros -0, +0 and the pool keeps the
    first, -0; the built order, relu after the pool, gives +0.  Each of these windows' zero gradient goes
    back through the +0 position instead of the first, a signed zero of
    the batch-norm gradient that reaches dx only in channel 0, whose two
    passing gradients cancel, so its dgamma and dbeta are exactly 0.
    Values, dx, dgamma and dbeta compare equal; only those three signs
    differ."""
    bn, relu, pool = BatchNorm1D(2), ReLU(), MaxPool1D(2)
    bn.gamma.value = np.array([1.0, -1.0])
    net = arch.Network([bn, pool, relu], arch.ModelConfig(family="cnn"),
                       2, 4)
    # [batch 2, channels 2, length 4]: windows (0,1) (2,3)
    x = np.array([[[-1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 2.0, 0.0]],
                  [[0.0, -1.0, 1.0, 0.0], [0.0, -1.0, -2.0, 0.0]]])
    # [batch, window, channel], the output layout
    dy = np.array([[[-1.0, -3.0], [2.0, -1.0]],
                   [[0.5, 1.5], [-2.0, 1.0]]])
    want = classic(bn, relu, pool, x, "train")
    want_dx = bn.backward(relu.backward(pool.backward(dy)))
    want_grads = [bn.gamma.grad.copy(), bn.beta.grad.copy()]
    bn.gamma.zero_grad()
    bn.beta.zero_grad()
    seen = []
    backward_steps = bn.backward_steps

    def spy(d):  # a network's train backward runs batch norm's steps
        seen.append((yield from backward_steps(d)))
        return seen[-1]

    bn.backward_steps = spy
    got = net.forward(x, mode="train")
    net.backward(dy)
    got_dx, = seen
    assert np.array_equal(got, want)
    flipped = np.signbit(got) != np.signbit(want)
    assert flipped.transpose(0, 2, 1).tolist() == [
        [[True, False], [False, True]], [[False, False], [False, False]]]
    assert not np.signbit(got).any() and np.signbit(want).sum() == 2
    assert np.array_equal(got_dx, want_dx)
    flipped = np.signbit(got_dx) != np.signbit(want_dx)
    assert np.argwhere(flipped).tolist() == [[0, 1, 0]]
    assert bn.gamma.grad[0] == bn.beta.grad[0] == 0.0
    assert [bn.gamma.grad.tobytes(), bn.beta.grad.tobytes()] == \
        [g.tobytes() for g in want_grads]


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


def test_checkpoint_with_parameters_the_config_does_not_build(tmp_path):
    """A 2-block CNN checkpoint whose config line was edited to one block
    does not load as a 1-block network: the error names the parameters
    that only the second block had."""
    cfg = arch.ModelConfig(family="cnn", cnn_blocks=2, f1=16, f2=16, k1=5,
                           k2=5)
    net = arch.build_network(cfg, 6, 64, seed=3)
    path = tmp_path / "net.ckpt"
    arch.save_network(net, path)
    one_block = dataclasses.replace(cfg, cnn_blocks=1).to_kv_line()
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = f"config {one_block}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    built = {p.name for p in arch.build_network(
        dataclasses.replace(cfg, cnn_blocks=1), 6, 64, seed=3).params()}
    extra = sorted({name for name, _ in net.named_params()} - built)
    assert extra
    with pytest.raises(CheckpointError) as err:
        arch.load_network(path)
    for name in extra:
        assert repr(name) in str(err.value)


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
