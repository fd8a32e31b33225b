"""Network construction from configs, plus UQ placement rules.

Three searchable families (cnn, lstm, cnn_lstm) and two fixed benchmarks
(fcn, resnet).  UQ wrapping follows strict placement: dropout goes after
the conv and before batch norm in the first two conv blocks only (plus
before the classifier when LSTM layers are present); DropConnect replaces
convs in conv-bearing searchable families, the dense head in pure LSTMs,
every conv in the FCN, and the residual-path convs (never the projection
shortcut) in the ResNet; Flipout replaces only the output dense layer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import uq
from .nncore import checkpoint as ckpt
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


class AlreadyWrapped(Exception):
    pass


class UnsupportedCombination(Exception):
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

    KV_KEYS = ("family", "uq", "cnn_blocks", "f1", "f2", "f3", "k1", "k2",
               "k3", "max_pool", "lstm_layers", "u1", "u2", "u3",
               "batch_size", "dropout_rate")

    def validate(self):
        if self.family not in FAMILIES:
            raise InvalidConfig(f"unknown family {self.family!r}")
        if self.uq not in UQ_METHODS:
            raise InvalidConfig(f"unknown uq method {self.uq!r}")
        ranges = {
            "cnn_blocks": (1, 3), "max_pool": (2, 8), "lstm_layers": (1, 3),
            "batch_size": (16, 64),
            "f1": (16, 128), "f2": (16, 128), "f3": (16, 128),
            "k1": (4, 16), "k2": (4, 16), "k3": (4, 16),
            "u1": (8, 128), "u2": (8, 128), "u3": (8, 128),
        }
        for key, (lo, hi) in ranges.items():
            v = getattr(self, key)
            if not (isinstance(v, (int, np.integer)) and lo <= v <= hi):
                raise InvalidConfig(f"{key}={v!r} outside [{lo}, {hi}]")
        if not (0.0 <= self.dropout_rate <= 0.5):
            raise InvalidConfig(
                f"dropout_rate={self.dropout_rate} outside [0, 0.5]")

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


class Transpose(Layer):
    """[B,C,L] <-> [B,L,C] bridge from conv stacks into LSTMs."""

    def __init__(self, name: str = "tr"):
        self.name = name

    def forward(self, x, mode="train", rng=None):
        return x.transpose(0, 2, 1)

    def backward(self, dy):
        return dy.transpose(0, 2, 1)


class ResidualBlock(Layer):
    """Three conv-bn stages with a shortcut; relu after the addition.

    The shortcut is the identity when channel counts already match, else a
    kernel-1 projection conv with its own batch norm.
    """

    def __init__(self, n_in: int, rng: np.random.Generator, name: str):
        self.name = name
        self.convs: list[Conv1D] = []
        self.bns: list[BatchNorm1D] = []
        ch = n_in
        for j, (f, k) in enumerate(zip(FCN_FILTERS, FCN_KERNELS)):
            self.convs.append(Conv1D(ch, f, k, rng, name=f"{name}_conv{j}"))
            self.bns.append(BatchNorm1D(f, name=f"{name}_bn{j}"))
            ch = f
        self.out_channels = ch
        self.dropouts: list[uq.MCDropout | None] = [None, None, None]
        if n_in != ch:
            self.short_conv = Conv1D(n_in, ch, 1, rng, name=f"{name}_proj")
            self.short_bn = BatchNorm1D(ch, name=f"{name}_projbn")
        else:
            self.short_conv = None
            self.short_bn = None
        self._relus = [ReLU(), ReLU()]
        self._out_mask = None

    def params(self):
        out = []
        for conv, bn in zip(self.convs, self.bns):
            out += conv.params() + bn.params()
        if self.short_conv is not None:
            out += self.short_conv.params() + self.short_bn.params()
        return out

    def forward(self, x, mode="train", rng=None):
        h = x
        for j in range(3):
            h = self.convs[j].forward(h, mode, rng)
            if self.dropouts[j] is not None:
                h = self.dropouts[j].forward(h, mode, rng)
            h = self.bns[j].forward(h, mode, rng)
            if j < 2:
                h = self._relus[j].forward(h, mode, rng)
        if self.short_conv is not None:
            short = self.short_bn.forward(
                self.short_conv.forward(x, mode, rng), mode, rng)
        else:
            short = x
        y = h + short
        self._out_mask = y > 0
        return y * self._out_mask

    def backward(self, dy):
        dz = dy * self._out_mask
        dh = dz
        for j in range(2, -1, -1):
            if j < 2:
                dh = self._relus[j].backward(dh)
            dh = self.bns[j].backward(dh)
            if self.dropouts[j] is not None:
                dh = self.dropouts[j].backward(dh)
            dh = self.convs[j].backward(dh)
        if self.short_conv is not None:
            dshort = self.short_conv.backward(self.short_bn.backward(dz))
        else:
            dshort = dz
        return dh + dshort


class Network:
    """An ordered layer stack plus the config that built it."""

    def __init__(self, layers: list[Layer], config: ModelConfig,
                 n_channels: int, window_length: int):
        self.layers = layers
        self.config = config
        self.n_channels = n_channels
        self.window_length = window_length

    def params(self) -> list[Param]:
        out = []
        for layer in self.layers:
            out += layer.params()
        return out

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        return [(p.name, p.value) for p in self.params()]

    def forward(self, x: np.ndarray, mode: str = "train",
                rng: np.random.Generator | None = None) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.n_channels \
                or x.shape[2] != self.window_length:
            raise ShapeMismatch(
                f"expected [batch, {self.n_channels}, {self.window_length}], "
                f"got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite values in network input")
        h = x
        for layer in self.layers:
            h = layer.forward(h, mode=mode, rng=rng)
        return h

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        d = dlogits
        for layer in reversed(self.layers):
            d = layer.backward(d)
        return d

    def kl(self) -> float:
        return sum(layer.kl() for layer in self.layers
                   if isinstance(layer, uq.FlipoutDense))

    def astype(self, dtype):
        for layer in self.layers:
            layer.astype(dtype)
        return self


def param_count(net: Network) -> int:
    """Trainable scalar count; running statistics excluded."""
    return sum(p.value.size for p in net.params() if p.trainable)


def _build_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, 0xA2C4)))


def _conv_blocks(config: ModelConfig, n_channels: int, window_length: int,
                 rng: np.random.Generator) -> tuple[list[Layer], int]:
    """Shared conv-block stack: conv(same) -> bn -> relu -> maxpool."""
    layers: list[Layer] = []
    ch, length = n_channels, window_length
    for b, (f, k) in enumerate(zip(config.filters(), config.kernels()), 1):
        if length // config.max_pool < 1:
            raise ShapeCollapse(
                f"block {b}: pooling {config.max_pool} on length {length}")
        layers.append(Conv1D(ch, f, k, rng, name=f"b{b}_conv"))
        layers.append(BatchNorm1D(f, name=f"b{b}_bn"))
        layers.append(ReLU(name=f"b{b}_relu"))
        layers.append(MaxPool1D(config.max_pool, name=f"b{b}_pool"))
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
    stack, ch = _lstm_stack(config, n_channels, rng)
    return [Transpose()] + stack, ch


def _cnn_lstm(config, n_channels, window_length, rng):
    convs, ch = _conv_blocks(config, n_channels, window_length, rng)
    stack, ch = _lstm_stack(config, ch, rng)
    return convs + [Transpose()] + stack, ch


def _fcn(config, n_channels, window_length, rng):
    layers: list[Layer] = []
    ch = n_channels
    for b, (f, k) in enumerate(zip(FCN_FILTERS, FCN_KERNELS), 1):
        layers.append(Conv1D(ch, f, k, rng, name=f"b{b}_conv"))
        layers.append(BatchNorm1D(f, name=f"b{b}_bn"))
        layers.append(ReLU(name=f"b{b}_relu"))
        ch = f
    return layers + [GlobalAvgPool1D(name="gap")], ch


def _resnet(config, n_channels, window_length, rng):
    layers: list[Layer] = []
    ch = n_channels
    for b in range(1, RESNET_BLOCKS + 1):
        block = ResidualBlock(ch, rng, name=f"r{b}")
        layers.append(block)
        ch = block.out_channels
    return layers + [GlobalAvgPool1D(name="gap")], ch


# family -> (config, channels, length, rng) -> (body layers, body width);
# build_network appends the two-unit dense head to every body
_BODIES = {"cnn": _cnn, "lstm": _lstm, "cnn_lstm": _cnn_lstm, "fcn": _fcn,
           "resnet": _resnet}


def build_network(config: ModelConfig, n_channels: int, window_length: int,
                  seed: int = 0) -> Network:
    """Build the family's layers, then apply the config's UQ method."""
    config.validate()
    rng = _build_rng(seed)
    layers, ch = _BODIES[config.family](config, n_channels, window_length,
                                        rng)
    layers.append(Dense(ch, 2, rng, name="head"))
    net = Network(layers, config, n_channels, window_length)
    if config.uq != "none":
        apply_uq(net, config.uq)
    return net


# ---------------------------------------------------------------------------
# UQ placement


def _head_index(layers: list[Layer]) -> int:
    for i in range(len(layers) - 1, -1, -1):
        if isinstance(layers[i], (Dense, uq.FlipoutDense)):
            return i
    raise InvalidConfig("network has no dense head")


def apply_uq(net: Network, method: str) -> Network:
    """Wrap a plain network with one UQ mechanism, in place.

    Placement is quoted-rule-exact per family; see the module docstring.
    Applying a second method (or the same one twice) raises AlreadyWrapped.
    """
    if method == "none":
        return net
    if method not in UQ_METHODS:
        raise UnsupportedCombination(f"unknown uq method {method!r}")
    already = any(isinstance(l, (uq.MCDropout, uq.DropConnectDense,
                                 uq.DropConnectConv1D, uq.FlipoutDense))
                  for l in net.layers) or any(
        isinstance(l, ResidualBlock) and (
            any(d is not None for d in l.dropouts)
            or any(isinstance(c, uq.DropConnectConv1D) for c in l.convs))
        for l in net.layers)
    if already:
        raise AlreadyWrapped("network already carries a UQ mechanism")

    rate = net.config.dropout_rate
    family = net.config.family

    if method == "mc_dropout":
        new_layers: list[Layer] = []
        conv_block = 0
        for layer in net.layers:
            if isinstance(layer, ResidualBlock):
                conv_block += 1
                if conv_block <= 2:
                    layer.dropouts = [
                        uq.MCDropout(rate, name=f"{layer.name}_drop{j}")
                        for j in range(3)]
                new_layers.append(layer)
                continue
            new_layers.append(layer)
            if isinstance(layer, Conv1D):
                conv_block += 1
                if conv_block <= 2:
                    new_layers.append(
                        uq.MCDropout(rate, name=f"b{conv_block}_drop"))
        if any(isinstance(l, LSTM) for l in net.layers):
            new_layers.insert(_head_index(new_layers),
                              uq.MCDropout(rate, name="head_drop"))
        net.layers = new_layers
    elif method == "dropconnect":
        if family == "lstm":
            i = _head_index(net.layers)
            net.layers[i] = uq.DropConnectDense(net.layers[i], rate)
        elif family == "resnet":
            for layer in net.layers:
                if isinstance(layer, ResidualBlock):
                    layer.convs = [uq.DropConnectConv1D(c, rate)
                                   for c in layer.convs]
        else:  # cnn, cnn_lstm, fcn: every conv layer
            net.layers = [uq.DropConnectConv1D(l, rate)
                          if isinstance(l, Conv1D) else l
                          for l in net.layers]
    else:  # flipout
        i = _head_index(net.layers)
        net.layers[i] = uq.FlipoutDense(net.layers[i])

    net.config.uq = method
    return net


# ---------------------------------------------------------------------------
# checkpoint wiring


def save_network(net: Network, path, meta: dict[str, str] | None = None):
    m = {"channels": str(net.n_channels),
         "window_length": str(net.window_length)}
    m.update(meta or {})
    ckpt.write_checkpoint(path, net.config.to_kv_line(), net.named_params(), m)


def load_network(path) -> tuple[Network, dict[str, str]]:
    config_line, values, meta = ckpt.read_checkpoint(path)
    config = ModelConfig.from_kv_line(config_line)
    net = build_network(config, int(meta["channels"]),
                        int(meta["window_length"]), seed=0)
    for p in net.params():
        if p.name not in values:
            raise ckpt.CheckpointError(f"missing parameter {p.name}")
        if values[p.name].shape != p.value.shape:
            raise ckpt.CheckpointError(f"shape mismatch for {p.name}")
        p.value = values[p.name]
    return net, meta
