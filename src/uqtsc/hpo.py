"""BOHB: Hyperband budget scheduling married to a KDE configuration model.

The search space is the architecture config ranges
(`ModelConfig.RANGES`) with conditional activity: f_i/k_i exist only when
cnn_blocks >= i, u_i only when lstm_layers >= i.

Proposals come from factorized univariate Gaussian KDEs fit separately
to the best 15% ("good") and the rest ("bad") of observed trials on
[0,1]-normalized coordinates; 64 candidates drawn from the good density
are scored by the good/bad density ratio.  Integer dimensions are
treated as ordinal continuous and rounded; inactive dimensions are
imputed at their range midpoint.  A random fraction of proposals
(default 1/3) bypasses the model entirely.

Everything is deterministic in serial mode given the generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arch import ModelConfig, ShapeCollapse

BANDWIDTH_FACTOR = 3.0
TOP_FRACTION = 0.15
N_CANDIDATES = 64
RANDOM_FRACTION = 1.0 / 3.0
# Floor on the per-dim kernel bandwidth (unit-space).  Too small a floor
# lets the good-set KDE collapse onto a tight off-optimum cluster that the
# argmax acquisition then re-proposes forever; 0.03 keeps enough spread to
# escape while still localizing each dim to a few percent of its range.
MIN_BANDWIDTH = 0.03
FAILED_LOSS = float("inf")
# the default Hyperband schedule, also the search command's
MIN_BUDGET, MAX_BUDGET, ETA = 16, 50, 3

TRIAL_CSV_FIXED = ("trial_id", "bracket", "rung", "budget_epochs", "status",
                   "val_loss", "val_wF1")


class InvalidBudgets(Exception):
    pass


class InsufficientData(Exception):
    pass


class MalformedTrialLog(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration space


@dataclass(frozen=True)
class ParamSpec:
    """One searchable config field, bounded by its `ModelConfig.RANGES`
    entry (an int lower bound marks an integer dimension); active iff
    the parent's value >= threshold."""

    name: str
    parent: str | None = None
    threshold: int = 0

    def is_active(self, values: dict) -> bool:
        return self.parent is None or values[self.parent] >= self.threshold

    def sample(self, rng):
        lo, hi = ModelConfig.RANGES[self.name]
        if isinstance(lo, int):
            return int(rng.integers(lo, hi + 1))
        return float(rng.uniform(lo, hi))

    def to_unit(self, v) -> float:
        lo, hi = ModelConfig.RANGES[self.name]
        return (float(v) - lo) / (hi - lo)

    def from_unit(self, u: float):
        lo, hi = ModelConfig.RANGES[self.name]
        v = lo + min(max(u, 0.0), 1.0) * (hi - lo)
        if isinstance(lo, int):
            return int(min(max(round(v), lo), hi))
        return float(v)


@dataclass(frozen=True)
class ConfigSpace:
    family: str
    params: tuple[ParamSpec, ...]
    uq: str = "none"

    @property
    def dims(self) -> int:
        return len(self.params)


def model_space(family: str, uq: str = "none") -> ConfigSpace:
    """The Table-style search space for one architecture family.

    Fixed benchmark families (fcn, resnet) expose only the training
    hyperparameters; their topology is not searched.
    """
    params: list[ParamSpec] = []
    if family in ("cnn", "cnn_lstm"):
        params += [ParamSpec("cnn_blocks")]
        params += [ParamSpec(f"{prefix}{i}", "cnn_blocks", i)
                   for prefix in ("f", "k") for i in (1, 2, 3)]
        params += [ParamSpec("max_pool")]
    if family in ("lstm", "cnn_lstm"):
        params += [ParamSpec("lstm_layers")]
        params += [ParamSpec(f"u{i}", "lstm_layers", i) for i in (1, 2, 3)]
    params += [ParamSpec("batch_size"), ParamSpec("dropout_rate")]
    return ConfigSpace(family, tuple(params), uq)


def sample_values(space: ConfigSpace, rng) -> dict:
    """Sample active parameters only; inactive names are absent."""
    values: dict = {}
    for p in space.params:
        if p.is_active(values):
            values[p.name] = p.sample(rng)
    return values


def values_to_config(space: ConfigSpace, values: dict) -> ModelConfig:
    cfg = ModelConfig(family=space.family, uq=space.uq, **values)
    cfg.validate()
    return cfg


def sample_random(space: ConfigSpace, rng) -> ModelConfig:
    return values_to_config(space, sample_values(space, rng))


# ---------------------------------------------------------------------------
# KDE proposal model


def _unit_vector(space: ConfigSpace, config: ModelConfig) -> np.ndarray:
    """Normalized coordinates; inactive dims imputed at the midpoint."""
    vals = {p.name: getattr(config, p.name) for p in space.params}
    out = np.empty(space.dims)
    for j, p in enumerate(space.params):
        out[j] = p.to_unit(vals[p.name]) if p.is_active(vals) else 0.5
    return out


def _config_from_unit(space: ConfigSpace, u: np.ndarray) -> ModelConfig:
    values = {p.name: p.from_unit(u[j]) for j, p in enumerate(space.params)}
    return values_to_config(space, values)


def _bandwidths(points: np.ndarray) -> np.ndarray:
    # Scott's rule per univariate dim, widened by the bandwidth factor
    n = points.shape[0]
    sigma = np.maximum(points.std(axis=0), MIN_BANDWIDTH)
    return sigma * n ** (-0.2) * BANDWIDTH_FACTOR


def _log_density(x: np.ndarray, points: np.ndarray, bw: np.ndarray):
    """Factorized Gaussian KDE log-density of x [C,d] under points [n,d]."""
    z = (x[:, None, :] - points[None, :, :]) / bw
    logk = -0.5 * z ** 2 - np.log(bw * math.sqrt(2.0 * math.pi))
    m = logk.max(axis=1, keepdims=True)
    per_dim = m[:, 0, :] + np.log(np.mean(np.exp(logk - m), axis=1))
    return per_dim.sum(axis=1)


def kde_propose(trials, space: ConfigSpace, rng,
                random_fraction: float = RANDOM_FRACTION) -> ModelConfig:
    """TPE-style proposal from trials observed at a single budget.

    Requires at least dims+2 ok-trials.  With probability
    `random_fraction` returns a uniform random config instead (pass 0 to
    force model-based proposals).
    """
    ok = [t for t in trials if t.status == "ok"]
    if len(ok) < space.dims + 2:
        raise InsufficientData(
            f"need >= {space.dims + 2} ok trials, have {len(ok)}")
    if random_fraction > 0.0 and rng.random() < random_fraction:
        return sample_random(space, rng)

    order = sorted(range(len(ok)), key=lambda i: (ok[i].val_loss, i))
    n_good = max(2, int(math.floor(TOP_FRACTION * len(ok))))
    n_good = min(n_good, len(ok) - 1)
    good = np.stack([_unit_vector(space, ok[i].config)
                     for i in order[:n_good]])
    bad = np.stack([_unit_vector(space, ok[i].config)
                    for i in order[n_good:]])
    bw_good, bw_bad = _bandwidths(good), _bandwidths(bad)

    centers = good[rng.integers(0, len(good), size=N_CANDIDATES)]
    cand = centers + rng.normal(size=(N_CANDIDATES, space.dims)) * bw_good
    cand = np.clip(cand, 0.0, 1.0)
    score = _log_density(cand, good, bw_good) - _log_density(cand, bad, bw_bad)
    return _config_from_unit(space, cand[int(np.argmax(score))])


# ---------------------------------------------------------------------------
# Hyperband schedule


@dataclass(frozen=True)
class Bracket:
    s: int
    n_configs: int
    rungs: tuple[tuple[int, int], ...]  # (budget_epochs, n_configs at rung)

    @property
    def total_epochs(self) -> int:
        return sum(b * n for b, n in self.rungs)


@dataclass(frozen=True)
class HyperbandSchedule:
    min_budget: int
    max_budget: int
    eta: int
    brackets: tuple[Bracket, ...]

    @property
    def total_epochs(self) -> int:
        return sum(b.total_epochs for b in self.brackets)


def hyperband_schedule(min_b: int, max_b: int, eta: int) -> HyperbandSchedule:
    """Bracket structure for one Hyperband cycle.

    s_max = floor(log_eta(max_b/min_b)); bracket s starts
    n = ceil((s_max+1) * eta^s / (s+1)) configs at budget
    floor(max_b * eta^(i-s)) for rung i, keeping ceil(n/eta) per rung.
    """
    if not (isinstance(min_b, int) and isinstance(max_b, int)
            and 1 <= min_b < max_b):
        raise InvalidBudgets(f"need 1 <= min_b < max_b, got ({min_b}, {max_b})")
    if not (isinstance(eta, int) and eta >= 2):
        raise InvalidBudgets(f"eta must be an integer >= 2, got {eta}")
    s_max = 0
    while min_b * eta ** (s_max + 1) <= max_b:
        s_max += 1
    brackets = []
    for s in range(s_max, -1, -1):
        n = math.ceil((s_max + 1) * eta ** s / (s + 1))
        rungs, count = [], n
        for i in range(s + 1):
            if i > 0:
                count = math.ceil(count / eta)
            rungs.append((math.floor(max_b * eta ** (i - s)), count))
        brackets.append(Bracket(s, n, tuple(rungs)))
    return HyperbandSchedule(min_b, max_b, eta, tuple(brackets))


# ---------------------------------------------------------------------------
# trials


@dataclass
class TrialRecord:
    """One (config, budget) evaluation; failures are kept, never dropped."""

    config: ModelConfig
    budget_epochs: int
    val_loss: float
    val_wf1: float
    status: str
    trial_id: int
    bracket: int
    rung: int


def _evaluate(objective, config, budget, seed, trial_id, bracket, rung):
    """Run objective(config, budget, seed) -> (val_loss, val_wF1) and
    record it; a non-finite loss fails the trial at loss FAILED_LOSS."""
    try:
        val_loss, val_wf1 = objective(config, budget, seed)
    except ShapeCollapse:
        # a valid config the data cannot take fails its trial; any other
        # exception is a bug and ends the search
        val_loss, val_wf1 = FAILED_LOSS, 0.0
    ok = math.isfinite(val_loss)
    return TrialRecord(config, budget, val_loss if ok else FAILED_LOSS,
                       val_wf1, "ok" if ok else "failed", trial_id, bracket,
                       rung)


def _rank(rung_trials):
    # failed trials (loss FAILED_LOSS) last; ties broken by insertion order
    return sorted(rung_trials, key=lambda t: (t.val_loss, t.trial_id))


def successive_halving(configs, budgets, objective, eta: int = ETA, *,
                       bracket_id: int = 0, start_trial_id: int = 0,
                       seed_base: int = 0, map_fn=None):
    """Evaluate configs at budgets[0]; keep the top ceil(n/eta) per rung.

    Returns the trials of every rung in evaluation order; rung r + 1
    holds the configs promoted out of rung r, best-first.  `map_fn` (same
    contract as builtin map) lets callers parallelize within a rung;
    results keep submission order, so serial and parallel runs log the
    same rows.
    """
    if not configs:
        raise ValueError("need at least one config")
    trials = []
    tid = start_trial_id
    current = list(configs)
    run = map if map_fn is None else map_fn
    for r, budget in enumerate(budgets):
        jobs = [(cfg, budget, seed_base + tid + i, tid + i, bracket_id, r)
                for i, cfg in enumerate(current)]
        rung_trials = list(run(lambda j: _evaluate(objective, *j), jobs))
        trials.extend(rung_trials)
        tid += len(jobs)
        keep = math.ceil(len(current) / eta)
        current = [t.config for t in _rank(rung_trials)[:keep]]
    return trials


def _propose(trials, space, rng, random_fraction):
    """Model-based proposal from the highest budget with enough data."""
    by_budget: dict[int, list[TrialRecord]] = {}
    for t in trials:
        if t.status == "ok":
            by_budget.setdefault(t.budget_epochs, []).append(t)
    for budget in sorted(by_budget, reverse=True):
        if len(by_budget[budget]) >= space.dims + 2:
            return kde_propose(by_budget[budget], space, rng, random_fraction)
    return sample_random(space, rng)


def run_bohb(objective, space: ConfigSpace, iterations: int, rng, *,
             min_budget: int = MIN_BUDGET, max_budget: int = MAX_BUDGET,
             eta: int = ETA, random_fraction: float = RANDOM_FRACTION,
             seed_base: int = 0, map_fn=None):
    """BOHB loop: each iteration sweeps every Hyperband bracket once.

    Returns (trials, incumbent) where the incumbent is the best ok-trial
    at the maximum budget (None when nothing reached it).
    """
    sched = hyperband_schedule(min_budget, max_budget, eta)
    trials: list[TrialRecord] = []
    bracket_id = 0
    for _ in range(iterations):
        for bracket in sched.brackets:
            configs = [_propose(trials, space, rng, random_fraction)
                       for _ in range(bracket.n_configs)]
            budgets = [b for b, _ in bracket.rungs]
            trials.extend(successive_halving(
                configs, budgets, objective, eta, bracket_id=bracket_id,
                start_trial_id=len(trials), seed_base=seed_base,
                map_fn=map_fn))
            bracket_id += 1
    return trials, incumbent_of(trials, max_budget)


def run_random_search(objective, space: ConfigSpace, total_epochs: int,
                      budget: int, rng, *, seed_base: int = 0):
    """Uniform random baseline: full-budget trials until epochs run out."""
    configs = [sample_random(space, rng)
               for _ in range(total_epochs // budget)]
    if not configs:
        return [], None
    trials = successive_halving(configs, [budget], objective,
                                bracket_id=-1, seed_base=seed_base)
    return trials, incumbent_of(trials, budget)


def incumbent_of(trials, budget: int):
    at_top = [t for t in trials
              if t.status == "ok" and t.budget_epochs == budget]
    if not at_top:
        return None
    return min(at_top, key=lambda t: (t.val_loss, t.trial_id))


# ---------------------------------------------------------------------------
# trial log


def write_trials_csv(trials, path) -> None:
    header = ",".join(TRIAL_CSV_FIXED + ModelConfig.KV_KEYS)
    lines = [header]
    for t in trials:
        row = [str(t.trial_id), str(t.bracket), str(t.rung),
               str(t.budget_epochs), t.status, repr(float(t.val_loss)),
               repr(float(t.val_wf1))]
        lines.append(",".join(row + list(t.config.to_pairs().values())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trials_csv(path) -> list[TrialRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    expect = ",".join(TRIAL_CSV_FIXED + ModelConfig.KV_KEYS)
    if not lines or lines[0] != expect:
        raise MalformedTrialLog("bad or missing trial log header")
    n_fixed = len(TRIAL_CSV_FIXED)
    trials = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != n_fixed + len(ModelConfig.KV_KEYS):
            raise MalformedTrialLog(f"wrong column count in row: {ln!r}")
        fixed, cfg_cells = cells[:n_fixed], cells[n_fixed:]
        trials.append(TrialRecord(
            config=ModelConfig.from_pairs(
                dict(zip(ModelConfig.KV_KEYS, cfg_cells))),
            budget_epochs=int(fixed[3]), val_loss=float(fixed[5]),
            val_wf1=float(fixed[6]), status=fixed[4], trial_id=int(fixed[0]),
            bracket=int(fixed[1]), rung=int(fixed[2])))
    return trials
