"""Per-layer tracing of uqtsc from outside the package.

`Tracer.installed()` wraps the public functions of every uqtsc module and
the forward/backward methods of every layer class, records one span per
call (name, layer, duration, parent via a stack) and restores the
originals on exit.  Spans are folded into totals as they close: inclusive
time per span name (outermost occurrence only, so recursion and aliases
such as `hpo.propose` count once), call counts, and self time per layer
(span duration minus the time of its direct child spans).

A handful of hooks turn call arguments into exact counts: trials and
epochs from `hpo.run_bohb`, train windows from `training.train_network`,
posterior passes and the deterministic-prefix time from
`metrics.predictive_posterior` and `arch.Network.forward`, float32 layer
outputs during float32 training, rows parsed by `data.load_log` and bytes
written by `data.save_dataset`.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "data", "hpo", "training", "arch", "nncore", "uq",
          "metrics", "svgplot")
NN_KINDS = ("Conv1D", "BatchNorm1D", "MaxPool1D", "ReLU", "Dense",
            "GlobalAvgPool1D", "LSTM")
UQ_KINDS = ("MCDropout", "FlipoutDense")
CLI_STAGES = ("generate", "prepare", "train", "search", "evaluate", "select",
              "report")
DATA_FUNCS = ("synth_generate", "write_log_csv", "load_log", "trim_idle",
              "slide_windows", "subsample", "standardize", "save_dataset",
              "load_dataset")


def _per_layer_names() -> list[str]:
    names = [f"cli.{s}.s" for s in CLI_STAGES]
    names += [f"data.{f}.s" for f in DATA_FUNCS]
    names += ["data.load_log.rows", "data.save_dataset.bytes",
              "hpo.trials", "hpo.trials_failed", "hpo.epochs",
              "hpo.propose.s",
              "training.train_network.s", "training.train_network.calls",
              "training.evaluate.s", "training.train_windows",
              "arch.build_network.s", "arch.save_network.s",
              "arch.load_network.s", "arch.Network.forward.train.s",
              "arch.Network.forward.infer.s",
              "arch.Network.forward.mc_infer.s", "arch.Network.forward.calls",
              "arch.Network.backward.s"]
    for kind in NN_KINDS:
        names += [f"nncore.{kind}.forward.s", f"nncore.{kind}.backward.s",
                  f"nncore.{kind}.forward.calls"]
    names += ["nncore.Conv1D.first.backward.s", "nncore.Adam.step.s",
              "nncore.Adam.step.calls", "nncore.f32_output_ratio"]
    for kind in UQ_KINDS:
        names += [f"uq.{kind}.forward.s", f"uq.{kind}.backward.s",
                  f"uq.{kind}.calls"]
    names += ["metrics.predictive_posterior.s", "metrics.posterior_passes",
              "metrics.prefix.s", "metrics.prefix_redundant_ratio",
              "metrics.build_report.s", "svgplot.s", "svgplot.calls"]
    names += [f"{layer}.self.s" for layer in LAYERS]
    names += ["trace.overhead_s"]
    return names


PER_LAYER = _per_layer_names()

# counts that must repeat exactly between two traced runs of one seed
EXACT = ("hpo.trials", "hpo.epochs", "training.train_windows",
         "metrics.posterior_passes", "nncore.f32_output_ratio")


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


class Tracer:
    def __init__(self, uqtsc_modules: dict):
        """`uqtsc_modules` maps module name -> imported module object."""
        self.mods = uqtsc_modules
        self.stack: list[list] = []  # [name, child_seconds]
        self.depth: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.prefix_ids: frozenset = frozenset()
        self.first_layer_id = None
        self.f32_depth = 0
        self._patches: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, fn, layer: str, name, enter=None, leave=None):
        """Wrap fn in a span.  `name` is a str or a callable of the call's
        (args, kwargs).  `enter(args, kwargs)` returns a state passed to
        `leave(state, args, kwargs, out, seconds)` when the call ends; `out`
        is None when the call raised."""
        tracer = self
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = fixed or name(args, kwargs)
            state = enter(args, kwargs) if enter else None
            frame = [span, 0.0]
            tracer.stack.append(frame)
            tracer.depth[span] += 1
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dt = perf_counter() - t0
                tracer.stack.pop()
                tracer.depth[span] -= 1
                if not tracer.depth[span]:
                    tracer.total[span] += dt
                tracer.calls[span] += 1
                tracer.self_s[layer] += dt - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += dt
                if leave:
                    leave(state, args, kwargs, out, dt)

        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- hooks ----------------------------------------------------------------

    def _layer_forward_leave(self, count_f32: bool):
        """Prefix time for every layer; float32 outputs for nncore and uq
        layers, the leaves of a network."""
        def leave(_state, args, _kwargs, out, dt):
            if count_f32 and self.f32_depth:
                self.counts["f32.calls"] += 1
                if isinstance(out, np.ndarray) and out.dtype == np.float32:
                    self.counts["f32.outputs"] += 1
            if id(args[0]) in self.prefix_ids:
                self.total["metrics.prefix"] += dt
        return leave

    def _net_forward_enter(self, args, kwargs):
        net = args[0]
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "train")
        saved = self.prefix_ids
        if mode == "mc_infer":
            uq, arch = self.mods["uq"], self.mods["arch"]
            prefix = []
            for layer in net.layers:
                if _is_stochastic(layer, uq, arch):
                    break
                prefix.append(id(layer))
            self.prefix_ids = frozenset(prefix)
        else:
            self.prefix_ids = frozenset()
        return saved

    def _net_forward_leave(self, saved, *_):
        self.prefix_ids = saved

    def _bound(self, fn):
        sig = inspect.signature(fn)
        return lambda args, kwargs: sig.bind(*args, **kwargs).arguments

    def _hooks(self):
        m = self.mods
        hooks = {}

        def run_bohb_leave(_s, _a, _k, out, _dt):
            if out is None:
                return
            trials = out[0]
            self.counts["hpo.trials"] += len(trials)
            self.counts["hpo.trials_failed"] += sum(t.status != "ok"
                                                    for t in trials)
            self.counts["hpo.epochs"] += sum(t.budget_epochs for t in trials)
        hooks[("hpo", "run_bohb")] = (None, run_bohb_leave)

        bind_train = self._bound(m["training"].train_network)

        def train_enter(args, kwargs):
            a = bind_train(args, kwargs)
            f32 = a.get("dtype") is not None and \
                np.dtype(a["dtype"]) == np.float32
            self.f32_depth += f32
            return a, f32

        def train_leave(state, _a, _k, out, _dt):
            a, f32 = state
            self.f32_depth -= f32
            if out is not None:
                self.counts["training.train_windows"] += \
                    int(a["epochs"]) * len(a["x_train"])
        hooks[("training", "train_network")] = (train_enter, train_leave)

        bind_post = self._bound(m["metrics"].predictive_posterior)

        def post_enter(args, kwargs):
            a = bind_post(args, kwargs)
            return a, self.total["metrics.prefix"]

        def post_leave(state, _a, _k, out, _dt):
            a, prefix0 = state
            if out is None:
                return
            m_samples = int(a.get("m", m["metrics"].DEFAULT_M))
            self.counts["metrics.posterior_passes"] += \
                m_samples * len(a["x"])
            spent = self.total["metrics.prefix"] - prefix0
            self.total["metrics.prefix_redundant"] += \
                (m_samples - 1) / m_samples * spent
        hooks[("metrics", "predictive_posterior")] = (post_enter, post_leave)

        def load_log_leave(_s, _a, _k, out, _dt):
            if out is not None:
                self.counts["data.load_log.rows"] += out.length
        hooks[("data", "load_log")] = (None, load_log_leave)

        bind_save = self._bound(m["data"].save_dataset)

        def save_leave(_s, args, kwargs, _out, _dt):
            a = bind_save(args, kwargs)
            out_dir, name = Path(a["out_dir"]), a["name"]
            self.counts["data.save_dataset.bytes"] += sum(
                p.stat().st_size for p in out_dir.glob(f"{name}_*"))
        hooks[("data", "save_dataset")] = (None, save_leave)
        return hooks

    # -- installation -----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every traced callable; restore the originals on exit."""
        try:
            self._install()
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _install(self):
        m = self.mods
        hooks = self._hooks()
        wrapped: dict[int, object] = {}

        # public module functions
        func_modules = {"data": ("data",), "hpo": ("hpo",),
                        "training": ("training",), "arch": ("arch",),
                        "metrics": ("metrics",), "svgplot": ("svgplot",),
                        "uq": ("uq",),
                        "nncore": ("nncore.layers", "nncore.optim",
                                   "nncore.checkpoint", "nncore.gradcheck")}
        for layer, mod_names in func_modules.items():
            for mod_name in mod_names:
                mod = m[mod_name]
                for attr, fn in list(vars(mod).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    span = f"{layer}.{attr}"
                    if layer == "hpo" and attr in ("kde_propose",
                                                   "sample_random"):
                        span = "hpo.propose"
                    if layer == "svgplot":
                        span = "svgplot"
                    enter, leave = hooks.get((layer, attr), (None, None))
                    new = self._wrap(fn, layer, span, enter, leave)
                    wrapped[id(fn)] = new
                    self._patch(mod, attr, new)

        # CLI stages and the search objective
        cli = m["cli"]
        for stage in CLI_STAGES:
            attr = f"cmd_{stage}"
            self._patch(cli, attr, self._wrap(getattr(cli, attr), "cli",
                                              f"cli.{stage}"))
        obj_cls = cli._TrainObjective
        self._patch(obj_cls, "__call__",
                    self._wrap(obj_cls.__call__, "cli", "cli.objective"))

        # layer classes: forward/backward defined on the class itself
        for layer, mod_name in (("nncore", "nncore.layers"), ("uq", "uq"),
                                ("arch", "arch")):
            mod = m[mod_name]
            base = m["nncore.layers"].Layer
            for cls in vars(mod).values():
                if not (inspect.isclass(cls) and issubclass(cls, base)
                        and cls is not base
                        and cls.__module__ == mod.__name__):
                    continue
                kind = cls.__name__
                if "forward" in cls.__dict__:
                    self._patch(cls, "forward", self._wrap(
                        cls.__dict__["forward"], layer,
                        f"{layer}.{kind}.forward",
                        leave=self._layer_forward_leave(layer != "arch")))
                if "backward" in cls.__dict__:
                    leave = self._first_conv_leave() if kind == "Conv1D" \
                        else None
                    self._patch(cls, "backward", self._wrap(
                        cls.__dict__["backward"], layer,
                        f"{layer}.{kind}.backward", leave=leave))

        net = m["arch"].Network
        self._patch(net, "forward", self._wrap(
            net.__dict__["forward"], "arch",
            lambda a, k: "arch.Network.forward." + k.get(
                "mode", a[2] if len(a) > 2 else "train"),
            self._net_forward_enter, self._net_forward_leave))
        self._patch(net, "backward", self._wrap(
            net.__dict__["backward"], "arch", "arch.Network.backward",
            self._net_backward_enter, self._net_backward_leave))
        adam = m["nncore.optim"].Adam
        self._patch(adam, "step", self._wrap(adam.__dict__["step"], "nncore",
                                             "nncore.Adam.step"))

        # rebind names other modules imported directly (`from x import f`)
        for mod in m.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrapped:
                    self._patch(mod, attr, wrapped[id(val)])

    def _first_conv_leave(self):
        def leave(_state, args, _kwargs, _out, dt):
            if id(args[0]) == self.first_layer_id:
                self.total["nncore.Conv1D.first.backward"] += dt
        return leave

    def _net_backward_enter(self, args, _kwargs):
        saved = self.first_layer_id
        self.first_layer_id = id(args[0].layers[0])
        return saved

    def _net_backward_leave(self, saved, *_):
        self.first_layer_id = saved

    # -- results ----------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        t, c = self.total, self.calls
        out: dict[str, float] = {}
        for stage in CLI_STAGES:
            out[f"cli.{stage}.s"] = t[f"cli.{stage}"]
        for f in DATA_FUNCS:
            out[f"data.{f}.s"] = t[f"data.{f}"]
        out["data.load_log.rows"] = self.counts["data.load_log.rows"]
        out["data.save_dataset.bytes"] = self.counts["data.save_dataset.bytes"]
        for key in ("hpo.trials", "hpo.trials_failed", "hpo.epochs",
                    "training.train_windows"):
            out[key] = self.counts[key]
        out["hpo.propose.s"] = t["hpo.propose"]
        out["training.train_network.s"] = t["training.train_network"]
        out["training.train_network.calls"] = c["training.train_network"]
        out["training.evaluate.s"] = t["training.evaluate"]
        for f in ("build_network", "save_network", "load_network"):
            out[f"arch.{f}.s"] = t[f"arch.{f}"]
        for mode in ("train", "infer", "mc_infer"):
            out[f"arch.Network.forward.{mode}.s"] = \
                t[f"arch.Network.forward.{mode}"]
        out["arch.Network.forward.calls"] = sum(
            c[f"arch.Network.forward.{mode}"]
            for mode in ("train", "infer", "mc_infer"))
        out["arch.Network.backward.s"] = t["arch.Network.backward"]
        for kind in NN_KINDS:
            out[f"nncore.{kind}.forward.s"] = t[f"nncore.{kind}.forward"]
            out[f"nncore.{kind}.backward.s"] = t[f"nncore.{kind}.backward"]
            out[f"nncore.{kind}.forward.calls"] = c[f"nncore.{kind}.forward"]
        out["nncore.Conv1D.first.backward.s"] = \
            t["nncore.Conv1D.first.backward"]
        out["nncore.Adam.step.s"] = t["nncore.Adam.step"]
        out["nncore.Adam.step.calls"] = c["nncore.Adam.step"]
        f32_calls = self.counts["f32.calls"]
        out["nncore.f32_output_ratio"] = (
            self.counts["f32.outputs"] / f32_calls if f32_calls else 0.0)
        for kind in UQ_KINDS:
            out[f"uq.{kind}.forward.s"] = t[f"uq.{kind}.forward"]
            out[f"uq.{kind}.backward.s"] = t[f"uq.{kind}.backward"]
            out[f"uq.{kind}.calls"] = c[f"uq.{kind}.forward"]
        post_s = t["metrics.predictive_posterior"]
        out["metrics.predictive_posterior.s"] = post_s
        out["metrics.posterior_passes"] = \
            self.counts["metrics.posterior_passes"]
        out["metrics.prefix.s"] = t["metrics.prefix"]
        out["metrics.prefix_redundant_ratio"] = (
            t["metrics.prefix_redundant"] / post_s if post_s else 0.0)
        out["metrics.build_report.s"] = t["metrics.build_report"]
        out["svgplot.s"] = t["svgplot"]
        out["svgplot.calls"] = c["svgplot"]
        for layer in LAYERS:
            out[f"{layer}.self.s"] = self.self_s[layer]
        out["trace.overhead_s"] = overhead_s
        if set(out) != set(PER_LAYER):
            raise RuntimeError("per-layer metric list out of sync")
        return {k: out[k] for k in PER_LAYER}

    def f32_base(self) -> tuple[int, int]:
        """(float32 outputs, layer forward calls) behind the f32 ratio."""
        return self.counts["f32.outputs"], self.counts["f32.calls"]


def _is_stochastic(layer, uq, arch) -> bool:
    if isinstance(layer, (uq.MCDropout, uq.DropConnectDense,
                          uq.DropConnectConv1D, uq.FlipoutDense)):
        return True
    if isinstance(layer, arch.ResidualBlock):
        return any(d is not None for d in layer.dropouts) or any(
            isinstance(c, uq.DropConnectConv1D) for c in layer.convs)
    return False
