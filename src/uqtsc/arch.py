"""Network construction from configs, UQ layers included.

Three searchable families (cnn, lstm, cnn_lstm) and two fixed benchmarks
(fcn, resnet).  The config's UQ method is placed while the layers are
built: dropout goes after the conv and before batch norm in the first two
conv blocks only (plus before the classifier when LSTM layers are
present); DropConnect wraps every conv of the cnn, cnn_lstm and FCN
bodies, the dense head in pure LSTMs, and the residual-path convs (never
the projection shortcut) in the ResNet; Flipout replaces only the output
dense layer.

A network is one layer list and a residual block is two (its main path
and its shortcut); every list runs through the same forward and backward
loop, and `Network.forward(start=, stop=)` runs any slice of the stack.
A pooled conv stage is built as bn -> pool -> relu, with the values of
the paper's bn -> relu -> pool (see `_conv_stage`), so relu touches 1/p of
the data in every mode.  Outside train mode each BatchNorm1D -> MaxPool1D
pair also pools first, so batch norm touches 1/p of the data too (see
`_pool_first`); in train mode batch norm needs the full length for its
statistics.  Inside `Network.frozen()` the layers hold the constants they
derive from the parameters, so repeated inference passes derive them once.
"""

from __future__ import annotations

import copy
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import uq
from .nncore import checkpoint as ckpt
from .nncore import lanes
from .nncore.layers import (
    BatchNorm1D,
    Conv1D,
    Dense,
    GlobalAvgPool1D,
    Layer,
    LSTM,
    MaxPool1D,
    Param,
    ReLU,
    ShapeMismatch,
)

FAMILIES = ("cnn", "lstm", "cnn_lstm", "fcn", "resnet")
UQ_METHODS = ("none", "mc_dropout", "dropconnect", "flipout")

# fixed benchmark hyperparameters (standard TSC values)
FCN_FILTERS = (128, 256, 128)
FCN_KERNELS = (8, 5, 3)
RESNET_BLOCKS = 3


class InvalidConfig(Exception):
    pass


class ShapeCollapse(Exception):
    pass


@dataclass
class ModelConfig:
    """One point in the architecture configuration space.

    Family-irrelevant fields keep their defaults and are stored anyway so
    serialization is fixed-width.
    """

    family: str
    uq: str = "none"
    cnn_blocks: int = 1
    f1: int = 16
    f2: int = 16
    f3: int = 16
    k1: int = 4
    k2: int = 4
    k3: int = 4
    max_pool: int = 2
    lstm_layers: int = 1
    u1: int = 8
    u2: int = 8
    u3: int = 8
    batch_size: int = 32
    dropout_rate: float = 0.25

    # every field name, in field order: the serialized keys (set below)
    KV_KEYS: ClassVar[tuple[str, ...]]
    # (lo, hi) of every numeric field, also the search space (hpo); int
    # bounds mark an integer field
    RANGES = {
        "cnn_blocks": (1, 3),
        "f1": (16, 128), "f2": (16, 128), "f3": (16, 128),
        "k1": (4, 16), "k2": (4, 16), "k3": (4, 16),
        "max_pool": (2, 8), "lstm_layers": (1, 3),
        "u1": (8, 128), "u2": (8, 128), "u3": (8, 128),
        "batch_size": (16, 64), "dropout_rate": (0.0, 0.5),
    }

    def validate(self):
        if self.family not in FAMILIES:
            raise InvalidConfig(f"unknown family {self.family!r}")
        if self.uq not in UQ_METHODS:
            raise InvalidConfig(f"unknown uq method {self.uq!r}")
        for key, (lo, hi) in self.RANGES.items():
            v = getattr(self, key)
            wrong_type = isinstance(lo, int) and not isinstance(
                v, (int, np.integer))
            if wrong_type or not lo <= v <= hi:
                raise InvalidConfig(f"{key}={v!r} outside [{lo}, {hi}]")

    def filters(self) -> list[int]:
        return [self.f1, self.f2, self.f3][: self.cnn_blocks]

    def kernels(self) -> list[int]:
        return [self.k1, self.k2, self.k3][: self.cnn_blocks]

    def cells(self) -> list[int]:
        return [self.u1, self.u2, self.u3][: self.lstm_layers]

    def to_pairs(self) -> dict[str, str]:
        """Every KV_KEYS value as text; dropout_rate via repr(float)."""
        return {key: repr(float(self.dropout_rate)) if key == "dropout_rate"
                else str(getattr(self, key)) for key in self.KV_KEYS}

    def to_kv_line(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.to_pairs().items())

    @classmethod
    def from_pairs(cls, pairs: dict[str, str]) -> "ModelConfig":
        """Cast text values to field types; absent keys keep defaults."""
        unknown = set(pairs) - set(cls.KV_KEYS)
        if unknown:
            raise InvalidConfig(f"unknown config keys {sorted(unknown)}")
        if "family" not in pairs:
            raise InvalidConfig("model config must set family")
        casts = {"int": int, "float": float}
        return cls(**{f.name: casts.get(f.type, str)(pairs[f.name])
                      for f in fields(cls) if f.name in pairs})

    @classmethod
    def from_kv_line(cls, line: str) -> "ModelConfig":
        """Parse a to_kv_line string; every key must be present."""
        pairs = dict(tok.partition("=")[::2]
                     for tok in line.strip().split(","))
        missing = set(cls.KV_KEYS) - set(pairs)
        if missing:
            raise InvalidConfig(f"missing config keys {sorted(missing)}")
        return cls.from_pairs(pairs)


ModelConfig.KV_KEYS = tuple(f.name for f in fields(ModelConfig))


def _conv(config: ModelConfig, n_in: int, filters: int, kernel: int,
          rng: np.random.Generator, name: str) -> Conv1D:
    """A same-padded conv, DropConnect-wrapped under that method."""
    conv = Conv1D(n_in, filters, kernel, rng, name=name)
    if config.uq == "dropconnect":
        return uq.DropConnectConv1D(conv, config.dropout_rate)
    return conv


def _block_dropout(config: ModelConfig, block: int,
                   name: str) -> uq.MCDropout | None:
    """The MC dropout that follows a conv of conv block 1 or 2, else None."""
    if config.uq == "mc_dropout" and block <= 2:
        return uq.MCDropout(config.dropout_rate, name=name)
    return None


def _step(layer: Layer, h, mode: str, rng, passes: int) -> np.ndarray:
    """layer's forward of h; a stochastic layer is also told how many
    passes' rows h stacks (see `uq`)."""
    if layer.stochastic:
        return layer.forward(h, mode=mode, rng=rng, passes=passes)
    return layer.forward(h, mode=mode, rng=rng)


def _run(layers: list[Layer], h, mode: str, rng,
         passes: int = 1) -> np.ndarray:
    """Run h through layers in order; the loop rebinds its activation, so
    an input stays alive past its layer only where a caller keeps it."""
    for layer in layers:
        h = _step(layer, h, mode, rng, passes)
    return h


def _forward_steps(layers: list[Layer], h, rng):
    """A train-mode _run as a generator of the layers' requests (see
    `Layer.forward_steps`)."""
    for layer in layers:
        h = yield from layer.forward_steps(h, rng)
    return h


def _backward_steps(layers: list[Layer], d):
    """Run the output gradient d back through layers, yielding their
    requests; return the input gradient."""
    for layer in reversed(layers):
        d = yield from layer.backward_steps(d)
    return d


def _fused_starts(layers: list[Layer]) -> tuple[int, ...]:
    """Index of every BatchNorm1D -> MaxPool1D pair in layers."""
    return tuple(i for i in range(len(layers) - 1)
                 if isinstance(layers[i], BatchNorm1D)
                 and isinstance(layers[i + 1], MaxPool1D))


def _gamma_sign(bn: BatchNorm1D, dtype):
    """The sign of bn's gamma as +-1 per channel in dtype (+1 at zero), or
    False where no gamma is negative."""
    negative = bn.gamma.value < 0
    return np.where(negative, -1, 1).astype(dtype) if negative.any() \
        else False


def _pool_first(bn: BatchNorm1D, pool: MaxPool1D, z,
                mode: str) -> np.ndarray:
    """pool(bn(z)) outside train, with bn run on pooled z.

    Outside train bn is a fixed per-channel map (subtract, times ivar,
    times gamma, plus beta) whose every step rounds monotonically, so it
    is non-decreasing where gamma >= 0 and non-increasing where gamma < 0.
    So max-pooling z on the first channels and min-pooling it on the
    others, as s * pool(s * z) with s the sign of gamma (exact), then
    running bn gives the same values; the relu that follows sees them
    unchanged.  gamma moves between the validation passes of a training
    run, so s is derived on every call unless bn holds its constants.
    """
    s = bn._constant(mode, ("sign", z.dtype),
                     lambda: _gamma_sign(bn, z.dtype))
    if s is False:
        h = pool.forward(z, mode=mode)
    else:
        h = pool.forward(z * s, mode=mode)
        h *= s
    return bn.forward(h, mode=mode)


class ResidualBlock(Layer):
    """A main path and a shortcut, added; relu after the addition.

    `main` is three conv stages (conv -> [dropout] -> bn -> relu); the
    last stage's relu is taken out of it as `relu`, which runs on the sum.
    `shortcut` is empty, the identity, when channel counts already match,
    else a kernel-1 projection conv and its batch norm.  Residual block
    `block` counts as conv block `block` for UQ placement, and the block
    is stochastic when a sublayer is.
    """

    def __init__(self, n_in: int, config: ModelConfig, block: int,
                 rng: np.random.Generator):
        self.name = name = f"r{block}"
        self.main: list[Layer] = []
        ch = n_in
        for j, (f, k) in enumerate(zip(FCN_FILTERS, FCN_KERNELS)):
            self.main += _conv_stage(config, block, ch, f, k, rng,
                                     prefix="r", suffix=str(j))
            ch = f
        self.relu = self.main.pop()  # runs after the addition
        self.out_channels = ch
        self.shortcut: list[Layer] = [] if n_in == ch else [
            Conv1D(n_in, ch, 1, rng, name=f"{name}_proj"),
            BatchNorm1D(ch, name=f"{name}_projbn")]
        # the main path's convs and dropouts, which perfbench reads
        self.convs = [l for l in self.main if isinstance(l, Conv1D)]
        self.dropouts = [l for l in self.main if isinstance(l, uq.MCDropout)]
        self.stochastic = any(layer.stochastic for layer in self.main)

    def params(self):
        return [p for layer in self.main + self.shortcut
                for p in layer.params()]

    def hold(self, on):
        for layer in self.main + self.shortcut:
            layer.hold(on)

    def forward(self, x, mode="train", rng=None, passes=1):
        if mode == "train":
            return lanes.run_steps([self.forward_steps(x, rng)], rng)[0]
        y = _run(self.main, x, mode, rng, passes) \
            + _run(self.shortcut, x, mode, rng, passes)
        return self.relu.forward(y, mode=mode)

    def forward_steps(self, x, rng=None):
        y = (yield from _forward_steps(self.main, x, rng)) \
            + (yield from _forward_steps(self.shortcut, x, rng))
        return self.relu.forward(y, mode="train")

    def backward(self, dy):
        return lanes.run_steps([self.backward_steps(dy)])[0]

    def backward_steps(self, dy):
        dz = self.relu.backward(dy)
        return (yield from _backward_steps(self.main, dz)) \
            + (yield from _backward_steps(self.shortcut, dz))


class Network:
    """An ordered layer stack plus the config that built it."""

    def __init__(self, layers: list[Layer], config: ModelConfig,
                 n_channels: int, window_length: int):
        self.layers = layers
        self.config = config
        self.n_channels = n_channels
        self.window_length = window_length
        self._frozen = 0  # open frozen() blocks, in any thread
        self._frozen_lock = threading.Lock()
        self._fused = None  # _fused_starts(layers) while frozen

    @contextmanager
    def frozen(self):
        """Hold every layer's inference constants while the block runs.

        Inside, passes outside train reuse what the layers derive from the
        parameters (`Layer.hold`): a plain conv's weight matrix, a batch
        norm's tiled rows and gamma sign, a Flipout head's sigmas; and the
        network reuses its inference plan.  So the layers and parameters
        must not change, and a train-mode forward raises.  Blocks may
        nest and overlap across threads: the first to enter starts
        holding, and the last to leave drops everything held, whether its
        block returned or raised.
        """
        with self._frozen_lock:
            if not self._frozen:
                for layer in self.layers:
                    layer.hold(True)
                self._fused = _fused_starts(self.layers)
            self._frozen += 1
        try:
            yield self
        finally:
            with self._frozen_lock:
                self._frozen -= 1
                if not self._frozen:
                    for layer in self.layers:
                        layer.hold(False)
                    self._fused = None

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        return [(p.name, p.value) for p in self.params()]

    @property
    def first_stochastic(self) -> int:
        """Index of the first stochastic layer, len(layers) if none is.

        In mc_infer mode every layer before it is deterministic.
        """
        return next((i for i, layer in enumerate(self.layers)
                     if layer.stochastic), len(self.layers))

    def _layout(self, x: np.ndarray) -> np.ndarray:
        """A network input, checked and viewed as [batch, length,
        channels] without a copy."""
        if x.ndim != 3 or x.shape[1] != self.n_channels \
                or x.shape[2] != self.window_length:
            raise ShapeMismatch(
                f"expected [batch, {self.n_channels}, "
                f"{self.window_length}], got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite values in network input")
        return x.transpose(0, 2, 1)

    def forward(self, x: np.ndarray, mode: str = "train",
                rng: np.random.Generator | None = None, start: int = 0,
                stop: int | None = None, passes: int = 1) -> np.ndarray:
        """Run layers[start:stop] on x and return their output.

        With start 0, x is a network input in the on-disk [batch, channels,
        length] layout: it is checked, then viewed as [batch, length,
        channels], the layout of every layer, without a copy.  Otherwise
        x is the input of layer `start`, such as the output of an earlier
        call that stopped there.  A train pass runs the layers in order,
        as one chunk (`forward_steps`).  Outside train, every BatchNorm1D
        -> MaxPool1D pair that lies whole inside the slice pools first
        (`_pool_first`); a pair that start or stop cuts runs layer by
        layer.  Outside train, x may stack the rows of `passes`
        stochastic passes, pass after pass; every stochastic layer is
        handed that count (see `uq`).  `backward` follows a train forward
        of the whole stack.
        """
        if start == 0:
            x = self._layout(x)
        layers = self.layers
        start, stop, _ = slice(start, stop).indices(len(layers))
        if mode == "train":
            if self._frozen:
                raise RuntimeError("train-mode forward inside frozen()")
            return lanes.run_steps(
                [_forward_steps(layers[start:stop], x, rng)], rng)[0]
        fused = _fused_starts(layers) if self._fused is None else self._fused
        # one loop that rebinds x, so no activation outlives the layer
        # that consumes it
        i = start
        while i < stop:
            if i in fused and i + 2 <= stop:
                x = _pool_first(layers[i], layers[i + 1], x, mode)
                i += 2
            else:
                x = _step(layers[i], x, mode, rng, passes)
                i += 1
        return x

    def forward_steps(self, x: np.ndarray,
                      rng: np.random.Generator | None = None):
        """A train forward of a network input x as a generator of the
        layers' requests (`lanes.run_steps`), for one chunk of a batch."""
        return (yield from _forward_steps(self.layers, self._layout(x), rng))

    def backward(self, dlogits: np.ndarray) -> None:
        """Accumulate every parameter gradient; no input gradient is kept.

        The layers are walked in reverse, as a train forward left them.  A
        first Conv1D (DropConnect included) computes only its weight and
        bias gradients.
        """
        lanes.run_steps([self.backward_steps(dlogits)])

    def backward_steps(self, dlogits: np.ndarray):
        """backward as a generator, as forward_steps is a train forward."""
        d = yield from _backward_steps(self.layers[1:], dlogits)
        first = self.layers[0]
        if isinstance(first, Conv1D):
            first.backward(d, input_grad=False)
        else:
            yield from first.backward_steps(d)

    def replica(self) -> "Network":
        """A network of copies of these layers, for one chunk of a
        data-parallel train step.  Its trainable parameters share their
        values with this network's and start from zero gradients of
        their own; the running stats are this network's own Params.  Its
        layers keep their own train caches.  Training changes the
        parameters, so this raises inside `frozen()`, as a train forward
        does.
        """
        if self._frozen:
            raise RuntimeError("train-mode replica inside frozen()")
        memo = {}
        for p in self.params():
            memo[id(p.value)] = p.value
            if not p.trainable:
                memo[id(p)] = p
        net = Network(copy.deepcopy(self.layers, memo), self.config,
                      self.n_channels, self.window_length)
        for p in net.params():
            if p.trainable:
                p.zero_grad()
        return net

    def astype(self, dtype):
        for layer in self.layers:
            layer.astype(dtype)
        return self


def _build_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, 0xA2C4)))


def _conv_stage(config: ModelConfig, block: int, n_in: int, filters: int,
                kernel: int, rng: np.random.Generator, pool: int = 0,
                prefix: str = "b", suffix: str = "") -> list[Layer]:
    """Conv block `block`: conv(same) -> [dropout] -> bn [-> pool] -> relu,
    each layer named f"{prefix}{block}_{kind}{suffix}".

    The paper's stage is conv -> bn -> relu -> pool.  Pool and relu are
    swapped: relu is non-decreasing and the pool keeps the first maximum,
    so the values are the same, and relu touches 1/p of the data.  Only
    the sign of a zero can differ: where a window's largest bn output is
    exactly +0 and an earlier position's is negative, the classic order
    gives -0, the first of its tied relu zeros, and this one +0; that
    window's zero gradient goes back to the +0 position.  Pool and relu
    have no parameters, so parameter order and names do not move.
    """
    name = f"{prefix}{block}_{{}}{suffix}".format
    layers: list[Layer] = [_conv(config, n_in, filters, kernel, rng,
                                 name("conv"))]
    drop = _block_dropout(config, block, name("drop"))
    if drop is not None:
        layers.append(drop)
    layers.append(BatchNorm1D(filters, name=name("bn")))
    if pool:
        layers.append(MaxPool1D(pool, name=name("pool")))
    return layers + [ReLU(name=name("relu"))]


def _conv_blocks(config: ModelConfig, n_channels: int, window_length: int,
                 rng: np.random.Generator) -> tuple[list[Layer], int]:
    """The searchable families' conv stages, each ending in a max pool."""
    layers: list[Layer] = []
    ch, length = n_channels, window_length
    for b, (f, k) in enumerate(zip(config.filters(), config.kernels()), 1):
        if length // config.max_pool < 1:
            raise ShapeCollapse(
                f"block {b}: pooling {config.max_pool} on length {length}")
        layers += _conv_stage(config, b, ch, f, k, rng, config.max_pool)
        ch, length = f, length // config.max_pool
    return layers, ch


def _lstm_stack(config: ModelConfig, n_in: int,
                rng: np.random.Generator) -> tuple[list[Layer], int]:
    layers: list[Layer] = []
    cells = config.cells()
    ch = n_in
    for i, u in enumerate(cells, 1):
        last = i == len(cells)
        layers.append(LSTM(ch, u, rng, return_sequences=not last,
                           name=f"lstm{i}"))
        ch = u
    return layers, ch


def _cnn(config, n_channels, window_length, rng):
    layers, ch = _conv_blocks(config, n_channels, window_length, rng)
    return layers + [GlobalAvgPool1D(name="gap")], ch


def _lstm(config, n_channels, window_length, rng):
    return _lstm_stack(config, n_channels, rng)


def _cnn_lstm(config, n_channels, window_length, rng):
    convs, ch = _conv_blocks(config, n_channels, window_length, rng)
    stack, ch = _lstm_stack(config, ch, rng)
    return convs + stack, ch


def _fcn(config, n_channels, window_length, rng):
    layers: list[Layer] = []
    ch = n_channels
    for b, (f, k) in enumerate(zip(FCN_FILTERS, FCN_KERNELS), 1):
        layers += _conv_stage(config, b, ch, f, k, rng)
        ch = f
    return layers + [GlobalAvgPool1D(name="gap")], ch


def _resnet(config, n_channels, window_length, rng):
    layers: list[Layer] = []
    ch = n_channels
    for b in range(1, RESNET_BLOCKS + 1):
        block = ResidualBlock(ch, config, b, rng)
        layers.append(block)
        ch = block.out_channels
    return layers + [GlobalAvgPool1D(name="gap")], ch


# family -> (config, channels, length, rng) -> (body layers, body width);
# build_network appends the two-unit dense head to every body
_BODIES = {"cnn": _cnn, "lstm": _lstm, "cnn_lstm": _cnn_lstm, "fcn": _fcn,
           "resnet": _resnet}


def build_network(config: ModelConfig, n_channels: int, window_length: int,
                  seed: int = 0) -> Network:
    """Build the family's body, then its two-unit head, UQ layers included."""
    config.validate()
    rng = _build_rng(seed)
    layers, ch = _BODIES[config.family](config, n_channels, window_length,
                                        rng)
    rate = config.dropout_rate
    head: Layer = Dense(ch, 2, rng, name="head")
    if config.uq == "flipout":
        head = uq.FlipoutDense(head)
    elif config.uq == "dropconnect" and config.family == "lstm":
        head = uq.DropConnectDense(head, rate)
    elif config.uq == "mc_dropout" and any(isinstance(l, LSTM)
                                           for l in layers):
        layers.append(uq.MCDropout(rate, name="head_drop"))
    layers.append(head)
    return Network(layers, config, n_channels, window_length)


# ---------------------------------------------------------------------------
# checkpoint wiring


def save_network(net: Network, path):
    ckpt.write_checkpoint(path, net.config.to_kv_line(), net.named_params(),
                          {"channels": str(net.n_channels),
                           "window_length": str(net.window_length)})


def load_network(path) -> tuple[Network, dict[str, str]]:
    config_line, values, meta = ckpt.read_checkpoint(path)
    config = ModelConfig.from_kv_line(config_line)
    net = build_network(config, int(meta["channels"]),
                        int(meta["window_length"]), seed=0)
    unknown = set(values) - {p.name for p in net.params()}
    if unknown:
        raise ckpt.CheckpointError(
            f"parameters the config does not build: {sorted(unknown)}")
    for p in net.params():
        if p.name not in values:
            raise ckpt.CheckpointError(f"missing parameter {p.name}")
        if values[p.name].shape != p.value.shape:
            raise ckpt.CheckpointError(f"shape mismatch for {p.name}")
        p.value = values[p.name]
    return net, meta
