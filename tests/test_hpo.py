"""Hyperband schedule arithmetic, KDE proposals, and the BOHB loop."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtsc import hpo
from uqtsc.arch import InvalidConfig, ModelConfig, ShapeCollapse

TOY = hpo.ConfigSpace("fcn", (hpo.ParamSpec("dropout_rate"),))


def quad_objective(cfg, budget, seed):
    loss = (cfg.dropout_rate - 0.3) ** 2
    return float(loss), 1.0 - loss


def _trial(cfg, loss, status="ok"):
    """A budget-16 trial record, as kde_propose reads them."""
    return hpo.TrialRecord(cfg, 16, loss, 0.0, status, -1, -1, -1)


# ---------------------------------------------------------------------------
# config space / random sampling


def test_space_dims_per_family():
    assert hpo.model_space("cnn").dims == 10
    assert hpo.model_space("lstm").dims == 6
    assert hpo.model_space("cnn_lstm").dims == 14
    assert hpo.model_space("fcn").dims == 2
    assert hpo.model_space("resnet").dims == 2


def test_conditionality_absent_when_shallow():
    rng = np.random.default_rng(0)
    space = hpo.model_space("cnn_lstm")
    seen_shallow = False
    for _ in range(200):
        vals = hpo.sample_values(space, rng)
        if vals["cnn_blocks"] == 1:
            seen_shallow = True
            assert "f2" not in vals and "f3" not in vals
            assert "k2" not in vals and "k3" not in vals
        if vals["lstm_layers"] < 3:
            assert "u3" not in vals
    assert seen_shallow


def test_random_sample_validates_and_reproduces():
    space = hpo.model_space("cnn_lstm", uq="mc_dropout")
    a = hpo.sample_random(space, np.random.default_rng(42))
    b = hpo.sample_random(space, np.random.default_rng(42))
    assert a == b
    assert a.uq == "mc_dropout"
    a.validate()


def test_random_sampling_covers_endpoints():
    space = hpo.model_space("cnn_lstm")
    rng = np.random.default_rng(1)
    bounds = {p.name: ModelConfig.RANGES[p.name] for p in space.params}
    seen = {name: set() for name, (lo, _) in bounds.items()
            if isinstance(lo, int)}
    for _ in range(10_000):
        for name, v in hpo.sample_values(space, rng).items():
            if name in seen:
                seen[name].add(v)
    for name in seen:
        lo, hi = bounds[name]
        assert lo in seen[name], name
        assert hi in seen[name], name


# ---------------------------------------------------------------------------
# hyperband schedule


def test_schedule_16_50_budgets():
    sched = hpo.hyperband_schedule(16, 50, 3)
    assert len(sched.brackets) == 2
    s1, s0 = sched.brackets
    assert s1.n_configs == 3 and s1.rungs == ((16, 3), (50, 1))
    assert s0.n_configs == 2 and s0.rungs == ((50, 2),)
    assert sched.total_epochs == 198


def test_schedule_eta2_unroll():
    sched = hpo.hyperband_schedule(16, 64, 2)
    top = sched.brackets[0]
    assert top.s == 2
    assert top.rungs == ((16, 4), (32, 2), (64, 1))


def test_schedule_invalid_budgets():
    with pytest.raises(hpo.InvalidBudgets):
        hpo.hyperband_schedule(1, 1, 3)
    with pytest.raises(hpo.InvalidBudgets):
        hpo.hyperband_schedule(0, 50, 3)
    with pytest.raises(hpo.InvalidBudgets):
        hpo.hyperband_schedule(16, 50, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 400), st.integers(2, 4))
def test_schedule_invariants(min_b, extra, eta):
    max_b = min_b + extra
    sched = hpo.hyperband_schedule(min_b, max_b, eta)
    for br in sched.brackets:
        budgets = [b for b, _ in br.rungs]
        counts = [n for _, n in br.rungs]
        assert budgets == sorted(budgets)
        assert budgets[0] >= min_b and budgets[-1] == max_b
        assert counts[0] == br.n_configs
        for prev, cur in zip(counts, counts[1:]):
            assert cur == math.ceil(prev / eta)


# ---------------------------------------------------------------------------
# KDE proposals


def _toy_trials(n, rng):
    trials = []
    for i in range(n):
        cfg = hpo.sample_random(TOY, rng)
        trials.append(_trial(cfg, quad_objective(cfg, 16, i)[0]))
    return trials


def test_kde_requires_min_points():
    rng = np.random.default_rng(2)
    with pytest.raises(hpo.InsufficientData):
        hpo.kde_propose(_toy_trials(2, rng), TOY, rng)


def test_kde_homes_in_on_optimum():
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        trials = _toy_trials(50, rng)
        prop = hpo.kde_propose(trials, TOY, rng, random_fraction=0.0)
        hits += abs(prop.dropout_rate - 0.3) <= 0.1
    assert hits >= 40


def test_kde_identical_losses_no_crash():
    rng = np.random.default_rng(3)
    trials = [_trial(hpo.sample_random(TOY, rng), 0.5) for _ in range(10)]
    prop = hpo.kde_propose(trials, TOY, rng, random_fraction=0.0)
    prop.validate()


def test_kde_ignores_failed_trials():
    rng = np.random.default_rng(4)
    trials = [_trial(hpo.sample_random(TOY, rng), hpo.FAILED_LOSS, "failed")
              for _ in range(20)]
    with pytest.raises(hpo.InsufficientData):
        hpo.kde_propose(trials, TOY, rng)


def test_kde_proposals_stay_in_range():
    space = hpo.model_space("cnn")
    rng = np.random.default_rng(5)
    trials = []
    for i in range(30):
        cfg = hpo.sample_random(space, rng)
        trials.append(_trial(cfg, float(rng.random())))
    for _ in range(20):
        hpo.kde_propose(trials, space, rng).validate()


# ---------------------------------------------------------------------------
# successive halving


def _fixed_loss_objective(losses):
    def objective(cfg, budget, seed):
        return losses[cfg.batch_size], 0.0
    return objective


def _cfg(batch):
    return ModelConfig(family="fcn", batch_size=batch)


def test_halving_top1_reaches_top_budget():
    losses = {16: 0.1, 32: 0.2, 64: 0.3}
    trials = hpo.successive_halving(
        [_cfg(16), _cfg(32), _cfg(64)], [16, 50],
        _fixed_loss_objective(losses), eta=3)
    assert [t.budget_epochs for t in trials] == [16, 16, 16, 50]
    assert [t.config.batch_size for t in trials if t.rung == 1] == [16]


def test_halving_single_config_survives():
    trials = hpo.successive_halving(
        [_cfg(20)], [16, 50], _fixed_loss_objective({20: 0.7}))
    assert [t.budget_epochs for t in trials] == [16, 50]
    assert all(t.config.batch_size == 20 for t in trials)


def test_halving_failed_rank_last():
    def objective(cfg, budget, seed):
        if cfg.batch_size != 48:
            raise ShapeCollapse("boom")
        return 123.0, 0.5

    trials = hpo.successive_halving(
        [_cfg(16), _cfg(32), _cfg(48)], [16, 50], objective, eta=3)
    assert [t.config.batch_size for t in trials if t.rung == 1] == [48]
    failed = [t for t in trials if t.status == "failed"]
    assert len(failed) == 2
    assert all(t.val_loss == hpo.FAILED_LOSS for t in failed)
    assert all(t.val_wf1 == 0.0 for t in failed)


def test_halving_propagates_unexpected_errors():
    """Only a config the network cannot take fails quietly; a bug in the
    objective ends the search."""
    def objective(cfg, budget, seed):
        if cfg.batch_size != 48:
            raise RuntimeError("boom")
        return 123.0, 0.5

    with pytest.raises(RuntimeError, match="boom"):
        hpo.successive_halving(
            [_cfg(48), _cfg(16)], [16, 50], objective, eta=3)


def test_halving_tie_break_by_insertion_order():
    trials = hpo.successive_halving(
        [_cfg(30), _cfg(40), _cfg(50)], [16, 50],
        _fixed_loss_objective({30: 0.5, 40: 0.5, 50: 0.5}), eta=3)
    assert [t.config.batch_size for t in trials if t.rung == 1] == [30]


def test_nan_loss_treated_as_failure():
    def objective(cfg, budget, seed):
        return float("nan"), 0.25

    trials = hpo.successive_halving([_cfg(24)], [16], objective)
    assert trials[0].status == "failed"
    assert trials[0].val_loss == hpo.FAILED_LOSS
    assert trials[0].val_wf1 == 0.25


# ---------------------------------------------------------------------------
# BOHB loop


def test_bohb_epoch_accounting_16_50():
    trials, incumbent = hpo.run_bohb(
        quad_objective, TOY, iterations=20, rng=np.random.default_rng(6))
    assert sum(t.budget_epochs for t in trials) == 3960
    assert len(trials) == 20 * 6
    assert incumbent is not None and incumbent.budget_epochs == 50


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 10), st.integers(1, 30), st.integers(2, 3),
       st.integers(0, 3))
def test_bohb_accounting_matches_schedule(min_b, extra, eta, iterations):
    max_b = min_b + extra
    sched = hpo.hyperband_schedule(min_b, max_b, eta)
    trials, _ = hpo.run_bohb(
        quad_objective, TOY, iterations=iterations,
        rng=np.random.default_rng(0), min_budget=min_b, max_budget=max_b,
        eta=eta)
    assert sum(t.budget_epochs for t in trials) == iterations * sched.total_epochs


def test_bohb_zero_iterations():
    trials, incumbent = hpo.run_bohb(
        quad_objective, TOY, iterations=0, rng=np.random.default_rng(7))
    assert trials == [] and incumbent is None


def test_bohb_reproducible():
    runs = []
    for _ in range(2):
        trials, _ = hpo.run_bohb(quad_objective, TOY, iterations=3,
                                 rng=np.random.default_rng(8))
        runs.append([(t.config.to_kv_line(), t.budget_epochs, t.val_loss)
                     for t in trials])
    assert runs[0] == runs[1]


def test_bohb_all_configs_validate():
    space = hpo.model_space("cnn")
    trials, _ = hpo.run_bohb(quad_objective, space, iterations=3,
                             rng=np.random.default_rng(9))
    for t in trials:
        t.config.validate()


def test_bohb_promotion_monotonic():
    trials, _ = hpo.run_bohb(quad_objective, TOY, iterations=4,
                             rng=np.random.default_rng(10))
    by_bracket = {}
    for t in trials:
        by_bracket.setdefault(t.bracket, {}).setdefault(t.rung, []).append(t)
    for rungs in by_bracket.values():
        for r in sorted(rungs):
            if r == 0:
                continue
            prev = sorted(rungs[r - 1],
                          key=lambda t: (t.status != "ok", t.val_loss,
                                         t.trial_id))
            keep = math.ceil(len(prev) / 3)
            allowed = {t.config.to_kv_line() for t in prev[:keep]}
            for t in rungs[r]:
                assert t.config.to_kv_line() in allowed


def test_random_search_budget_cap():
    trials, incumbent = hpo.run_random_search(
        quad_objective, TOY, total_epochs=198, budget=50,
        rng=np.random.default_rng(11))
    assert len(trials) == 3
    assert sum(t.budget_epochs for t in trials) == 150
    assert incumbent.val_loss == min(t.val_loss for t in trials)


def test_bohb_beats_random_smoke():
    # full paired-seed comparison lives in the acceptance suite
    wins = 0
    for seed in range(10):
        bohb_trials, b_inc = hpo.run_bohb(
            quad_objective, TOY, iterations=4,
            rng=np.random.default_rng(seed))
        total = sum(t.budget_epochs for t in bohb_trials)
        _, r_inc = hpo.run_random_search(
            quad_objective, TOY, total, 50,
            rng=np.random.default_rng(seed))
        wins += b_inc.val_loss <= r_inc.val_loss
    assert wins >= 5


# ---------------------------------------------------------------------------
# trial log


def test_trial_csv_roundtrip(tmp_path):
    trials, _ = hpo.run_bohb(quad_objective, TOY, iterations=1,
                             rng=np.random.default_rng(12))
    trials[1].status = "failed"
    trials[1].val_loss = hpo.FAILED_LOSS
    path = tmp_path / "trials.csv"
    hpo.write_trials_csv(trials, path)
    back = hpo.read_trials_csv(path)
    assert len(back) == len(trials)
    for a, b in zip(trials, back):
        assert a.config == b.config
        assert (a.trial_id, a.bracket, a.rung) == (b.trial_id, b.bracket, b.rung)
        assert a.val_loss == b.val_loss and a.status == b.status


def test_trial_csv_header_exact(tmp_path):
    path = tmp_path / "trials.csv"
    hpo.write_trials_csv([], path)
    header = path.read_text().splitlines()[0]
    assert header.startswith(
        "trial_id,bracket,rung,budget_epochs,status,val_loss,val_wF1,"
        "family,uq,cnn_blocks,")


def test_trial_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2,3\n")
    with pytest.raises(hpo.MalformedTrialLog):
        hpo.read_trials_csv(path)


# ---------------------------------------------------------------------------
# search bytes, pinned


# SHA-256 of the trials.csv that `run_bohb` writes for `_bowl_objective`
# over each space (3 iterations, budgets 1 -> 9, eta 3: 69 trials, KDE
# proposals once a budget holds dims + 2 ok trials): proposals, promotion,
# failure handling and the trial log, pinned.
BOHB_SHA256 = {
    "fcn": "1984790e4fa7a0518aa40986ab827eafbea231485c287a7fe505c474158efd34",
    "cnn_lstm":
        "38bf549125a2578df65474ae3c2f4556b8cb2db468bc89bec825e301993dc3f0",
}
COLLAPSE_SEED, NAN_SEED = 2, 4


def _bowl_objective(cfg, budget, seed):
    """A quadratic bowl over every ranged config field plus 1/budget;
    seed COLLAPSE_SEED cannot take the data and seed NAN_SEED diverges."""
    if seed == COLLAPSE_SEED:
        raise ShapeCollapse("pinned collapse")
    loss = sum(((getattr(cfg, key) - lo) / (hi - lo) - 0.3) ** 2
               for key, (lo, hi) in ModelConfig.RANGES.items()) + 1.0 / budget
    wf1 = 1.0 / (1.0 + loss)
    if seed == NAN_SEED:
        loss = float("nan")
    return loss, wf1


@pytest.mark.parametrize("family", BOHB_SHA256)
def test_bohb_trial_log_bytes_pinned(family, tmp_path, monkeypatch):
    model_proposals = []
    from_unit = hpo._config_from_unit

    def counted(space, u):
        model_proposals.append(u)
        return from_unit(space, u)

    monkeypatch.setattr(hpo, "_config_from_unit", counted)
    trials, incumbent = hpo.run_bohb(
        _bowl_objective, hpo.model_space(family, "mc_dropout"), iterations=3,
        rng=np.random.default_rng(19), min_budget=1, max_budget=9, eta=3)
    assert len(trials) == 69 and model_proposals
    failed = [t for t in trials if t.status == "failed"]
    assert [(t.trial_id, t.val_wf1 == 0.0) for t in failed] == [
        (COLLAPSE_SEED, True), (NAN_SEED, False)]
    assert all(t.val_loss == hpo.FAILED_LOSS for t in failed)
    assert incumbent is not None and incumbent.budget_epochs == 9
    path = tmp_path / "trials.csv"
    hpo.write_trials_csv(trials, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BOHB_SHA256[family]
