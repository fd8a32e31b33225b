"""Posterior, entropy, ECE, F1, and the selection gate against oracles."""

import tracemalloc

import numpy as np
import pytest

from uqtsc import arch, metrics
from uqtsc.nncore import ShapeMismatch


# ---------------------------------------------------------------------------
# predictive posterior


def _tiny_net(uq_method="none", seed=0):
    cfg = arch.ModelConfig(family="cnn", uq=uq_method, cnn_blocks=1,
                           f1=16, k1=5, max_pool=2, dropout_rate=0.3)
    return arch.build_network(cfg, 6, 32, seed=seed)


def test_posterior_deterministic_net_identical_samples():
    net = _tiny_net()
    x = np.random.default_rng(0).normal(size=(4, 6, 32))
    dist = metrics.predictive_posterior(net, x, m=10,
                                        rng=np.random.default_rng(1))
    for j in range(1, 10):
        np.testing.assert_array_equal(dist.samples[j], dist.samples[0])
    single = metrics.predictive_posterior(net, x, m=1,
                                          rng=np.random.default_rng(2))
    np.testing.assert_allclose(dist.mean_probs, single.mean_probs, atol=1e-12)


def test_posterior_m1_mean_is_lone_sample():
    net = _tiny_net("mc_dropout")
    x = np.random.default_rng(3).normal(size=(2, 6, 32))
    dist = metrics.predictive_posterior(net, x, m=1,
                                        rng=np.random.default_rng(4))
    np.testing.assert_array_equal(dist.mean_probs, dist.samples[0])


def test_posterior_hand_mean():
    samples = np.array([[[0.8, 0.2]], [[0.6, 0.4]]])
    dist = metrics.PredictiveDistribution.from_samples(samples)
    np.testing.assert_allclose(dist.mean_probs, [[0.7, 0.3]])
    assert dist.predicted_class[0] == 0


def test_posterior_sample_order_invariant():
    rng = np.random.default_rng(5)
    raw = rng.dirichlet((1.0, 1.0), size=(10, 7))  # [M=10, N=7, 2]
    a = metrics.PredictiveDistribution.from_samples(raw)
    b = metrics.PredictiveDistribution.from_samples(raw[::-1])
    np.testing.assert_allclose(a.mean_probs, b.mean_probs, atol=1e-15)


def test_posterior_stochastic_for_uq_net():
    net = _tiny_net("mc_dropout")
    x = np.random.default_rng(6).normal(size=(4, 6, 32))
    dist = metrics.predictive_posterior(net, x, m=5,
                                        rng=np.random.default_rng(7))
    assert not np.array_equal(dist.samples[0], dist.samples[1])


def _family_net(family, method, dtype=np.float64):
    cfg = arch.ModelConfig(family=family, uq=method, cnn_blocks=2, f1=16,
                           f2=16, k1=4, k2=4, max_pool=2, u1=8,
                           dropout_rate=0.25)
    return arch.build_network(cfg, 6, 32, seed=2).astype(dtype)


def _plain_samples(net, x, m, rng, batch_size=64):
    """m full forward passes per chunk, pass-outer, as the reference."""
    samples = np.empty((m, len(x), 2))
    for j in range(m):
        for lo in range(0, len(x), batch_size):
            logits = net.forward(x[lo:lo + batch_size], mode="mc_infer",
                                 rng=rng)
            samples[j, lo:lo + len(logits)] = metrics._softmax(
                logits.astype(np.float64))
    return samples


@pytest.mark.parametrize("method", arch.UQ_METHODS)
@pytest.mark.parametrize("family", arch.FAMILIES)
def test_posterior_prefix_reuse_equals_plain_loop(family, method):
    """150 windows are 3 chunks, the last one ragged."""
    net = _family_net(family, method)
    x = np.random.default_rng(20).normal(size=(150, 6, 32))
    rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
    dist = metrics.predictive_posterior(net, x, m=3, rng=rng_a)
    expect = _plain_samples(net, x, 3, rng_b)
    assert dist.samples.tobytes() == expect.tobytes()
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("method", arch.UQ_METHODS)
@pytest.mark.parametrize("family", arch.FAMILIES)
def test_posterior_checks_every_chunk(family, method):
    net = _family_net(family, method)
    x = np.random.default_rng(22).normal(size=(150, 6, 32))
    x[140, 3, 7] = np.nan  # in the ragged last chunk only
    with pytest.raises(ValueError, match="non-finite"):
        metrics.predictive_posterior(net, x, m=3)
    with pytest.raises(ShapeMismatch):
        metrics.predictive_posterior(net, x[:, :, :31], m=3)


@pytest.mark.parametrize("method", ("none", "mc_dropout"))
def test_posterior_float32_net_normalized(method):
    """Softmax runs on float64 logits, so float32 rows sum to 1 in 1e-9."""
    net = _family_net("cnn", method, np.float32)
    x = np.random.default_rng(23).normal(size=(150, 6, 32)).astype(np.float32)
    dist = metrics.predictive_posterior(net, x, m=3,
                                        rng=np.random.default_rng(24))
    expect = _plain_samples(net, x, 3, np.random.default_rng(24))
    assert dist.samples.tobytes() == expect.tobytes()


def test_posterior_memory_peak_not_above_plain_loop():
    """conv1's output is 10.7x its input, so it is recomputed, not held.

    Holding it, or keeping any reference to it while the suffix runs,
    would add a 13 MB conv1 output per chunk to the peak; the 64 KiB slack
    covers only Python bookkeeping objects.
    """
    cfg = arch.ModelConfig(family="cnn", uq="mc_dropout", cnn_blocks=2,
                           f1=64, f2=64, k1=8, k2=8, max_pool=4)
    net = arch.build_network(cfg, 6, 400, seed=0)
    x = np.random.default_rng(25).normal(size=(150, 6, 400))

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain = peak(lambda: _plain_samples(net, x, 3, np.random.default_rng(0)))
    ours = peak(lambda: metrics.predictive_posterior(
        net, x, m=3, rng=np.random.default_rng(0)))
    assert ours <= plain + 64 * 1024, (ours, plain)


def test_posterior_rejects_unnormalized():
    with pytest.raises(metrics.NotNormalized):
        metrics.PredictiveDistribution.from_samples(np.full((2, 2, 2), 0.3))


# ---------------------------------------------------------------------------
# entropy


def test_entropy_uniform():
    assert metrics.predictive_entropy([0.5, 0.5]) == pytest.approx(
        np.log(2.0), abs=1e-12)


def test_entropy_certain():
    assert metrics.predictive_entropy([1.0, 0.0]) == 0.0


def test_entropy_hand_case():
    got = metrics.predictive_entropy([0.7, 0.3])
    expect = -(0.7 * np.log(0.7) + 0.3 * np.log(0.3))
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(0.6109, abs=1e-4)


def test_entropy_bounds_and_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = rng.dirichlet((1.0, 1.0))
        h = metrics.predictive_entropy(p)
        assert 0.0 <= h <= np.log(2.0) + 1e-12
        assert h == pytest.approx(metrics.predictive_entropy(p[::-1]), abs=1e-12)


def test_entropy_rejects_unnormalized():
    with pytest.raises(metrics.NotNormalized):
        metrics.predictive_entropy([0.9, 0.3])


# ---------------------------------------------------------------------------
# ECE


def _probs_from_conf(confs, preds):
    """[N,2] matrix whose max-prob confidence and argmax match the args."""
    out = np.empty((len(confs), 2))
    for i, (c, p) in enumerate(zip(confs, preds)):
        out[i, p] = c
        out[i, 1 - p] = 1.0 - c
    return out


def test_ece_perfect_confidence():
    probs = _probs_from_conf([1.0, 1.0, 1.0], [0, 1, 0])
    labels = np.array([0, 1, 0])
    assert metrics.ece(probs, labels, k=10) == pytest.approx(0.0, abs=1e-12)


def test_ece_hand_binned_k2():
    # confidences {0.9 ok, 0.9 ok, 0.6 wrong, 0.6 ok} all in bin 2 of K=2
    probs = _probs_from_conf([0.9, 0.9, 0.6, 0.6], [0, 0, 0, 0])
    labels = np.array([0, 0, 1, 0])
    assert metrics.ece(probs, labels, k=2) == pytest.approx(0.0, abs=1e-12)


def test_ece_hand_binned_k4():
    probs = _probs_from_conf([0.9, 0.9, 0.6, 0.6], [0, 0, 0, 0])
    labels = np.array([0, 0, 1, 0])
    assert metrics.ece(probs, labels, k=4) == pytest.approx(0.1, abs=1e-12)


def test_ece_k1_closed_form():
    rng = np.random.default_rng(9)
    conf = rng.uniform(0.5, 1.0, size=50)
    preds = rng.integers(0, 2, size=50)
    labels = rng.integers(0, 2, size=50)
    probs = _probs_from_conf(conf, preds)
    acc = np.mean(preds == labels)
    assert metrics.ece(probs, labels, k=1) == pytest.approx(
        abs(acc - conf.mean()), abs=1e-12)


def test_ece_calibrated_stream_small():
    # draw confidence, then make the prediction correct w.p. exactly conf
    rng = np.random.default_rng(10)
    n = 10_000
    conf = rng.uniform(0.5, 1.0, size=n)
    correct = rng.random(n) < conf
    labels = rng.integers(0, 2, size=n)
    preds = np.where(correct, labels, 1 - labels)
    probs = _probs_from_conf(conf, preds)
    assert metrics.ece(probs, labels, k=10) < 0.03


def test_ece_bin_edges_right_inclusive():
    # 0.5 belongs to bin [0.25,0.5] when K=4 (right-inclusive edges)
    idx = metrics._bin_index(np.array([0.5, 0.500001, 0.0, 1.0]), 4)
    np.testing.assert_array_equal(idx, [1, 2, 0, 3])


def test_ece_empty_rejected():
    with pytest.raises(metrics.EmptyInput):
        metrics.ece(np.zeros((0, 2)), np.zeros(0))


# ---------------------------------------------------------------------------
# F1


def test_f1_perfect():
    res = metrics.f1_and_accuracy(np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1]))
    assert (res.f1_cl0, res.f1_cl1, res.f1_weighted, res.accuracy) == \
        (1.0, 1.0, 1.0, 1.0)


def test_f1_confusion_hand_case():
    res = metrics.f1_and_accuracy(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]))
    assert res.f1_cl0 == pytest.approx(2 / 3, abs=1e-4)
    assert res.f1_cl1 == pytest.approx(0.8, abs=1e-4)
    assert res.f1_weighted == pytest.approx(0.7333, abs=1e-4)
    assert res.accuracy == pytest.approx(0.75, abs=1e-12)


def test_f1_degenerate_all_one_class():
    res = metrics.f1_and_accuracy(np.ones(4, dtype=int), np.array([0, 0, 1, 1]))
    assert res.f1_cl0 == 0.0
    assert res.f1_cl1 > 0.0


def test_f1_zero_support_flagged():
    res = metrics.f1_and_accuracy(np.zeros(3, dtype=int), np.zeros(3, dtype=int))
    assert res.degenerate_classes == (1,)
    assert res.f1_cl1 == 0.0


def _brute_f1(preds, labels, cls):
    tp = np.sum((preds == cls) & (labels == cls))
    fp = np.sum((preds == cls) & (labels != cls))
    fn = np.sum((preds != cls) & (labels == cls))
    if tp == 0:
        return 0.0
    p, r = tp / (tp + fp), tp / (tp + fn)
    return 2 * p * r / (p + r)


def test_f1_matches_brute_force_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        res = metrics.f1_and_accuracy(preds, labels)
        assert res.f1_cl0 == pytest.approx(_brute_f1(preds, labels, 0), abs=1e-12)
        assert res.f1_cl1 == pytest.approx(_brute_f1(preds, labels, 1), abs=1e-12)
        s0 = np.mean(labels == 0)
        expect_w = s0 * _brute_f1(preds, labels, 0) + (1 - s0) * _brute_f1(preds, labels, 1)
        assert res.f1_weighted == pytest.approx(expect_w, abs=1e-12)


def test_f1_empty_rejected():
    with pytest.raises(metrics.EmptyInput):
        metrics.f1_and_accuracy(np.zeros(0), np.zeros(0))


# ---------------------------------------------------------------------------
# selection gate


def _report_stub(f1_cl0, f1_cl1, mean_entropy, ece_val=0.05):
    n = 4
    return metrics.EvalReport(
        mean_probs=np.full((n, 2), 0.5), entropy=np.full(n, mean_entropy),
        labels=np.zeros(n, dtype=int), preds=np.zeros(n, dtype=int),
        outcomes=["TN"] * n, accuracy=1.0, f1_cl0=f1_cl0, f1_cl1=f1_cl1,
        f1_weighted=(f1_cl0 + f1_cl1) / 2, mean_entropy=mean_entropy,
        ece=ece_val)


def test_select_row24_aggregates():
    rep = _report_stub(0.9942, 0.9814, 0.0142, ece_val=0.0532)
    part = metrics.select_candidates([rep])
    assert part["select"] == [rep]


def test_select_boundaries_inclusive():
    rep = _report_stub(0.9, 0.9, 0.1)
    assert metrics.select_candidates([rep])["select"] == [rep]


def test_reject_low_f1():
    rep = _report_stub(0.95, 0.89, 0.05)
    assert metrics.select_candidates([rep])["reject"] == [rep]


def test_reject_high_entropy():
    rep = _report_stub(0.95, 0.95, 0.12)
    assert metrics.select_candidates([rep])["reject"] == [rep]


# ---------------------------------------------------------------------------
# outcomes / entropy grouping


def test_outcome_tags():
    preds = np.array([1, 0, 1, 0])
    labels = np.array([1, 0, 0, 1])
    assert metrics.classify_outcomes(preds, labels) == ["TP", "TN", "FP", "FN"]


def test_entropy_by_outcome_one_each():
    dist = metrics.PredictiveDistribution.from_samples(
        np.array([[[0.9, 0.1], [0.8, 0.2], [0.4, 0.6], [0.55, 0.45]]]))
    labels = np.array([0, 1, 0, 0])  # TN, FN, FP, TN
    rep = metrics.build_report(dist, labels)
    groups = metrics.entropy_by_outcome(rep)
    assert len(groups["TN"]) == 2
    assert len(groups["FN"]) == 1
    assert len(groups["FP"]) == 1
    assert len(groups["TP"]) == 0


def test_entropy_by_outcome_all_correct():
    dist = metrics.PredictiveDistribution.from_samples(
        np.array([[[0.9, 0.1], [0.2, 0.8]]]))
    labels = np.array([0, 1])
    rep = metrics.build_report(dist, labels)
    groups = metrics.entropy_by_outcome(rep)
    assert groups["FP"].size == 0 and groups["FN"].size == 0
    assert groups["TN"].size == 1 and groups["TP"].size == 1


# ---------------------------------------------------------------------------
# report build + CSV roundtrip


def _sample_report(n=50, seed=12):
    rng = np.random.default_rng(seed)
    samples = rng.dirichlet((2.0, 1.0), size=(10, n))
    dist = metrics.PredictiveDistribution.from_samples(samples)
    labels = rng.integers(0, 2, n)
    return metrics.build_report(dist, labels, k=10)


def test_report_aggregates_consistent():
    rep = _sample_report()
    recomputed = metrics.f1_and_accuracy(rep.preds, rep.labels)
    assert rep.accuracy == pytest.approx(recomputed.accuracy, abs=1e-12)
    assert rep.f1_weighted == pytest.approx(recomputed.f1_weighted, abs=1e-12)
    assert rep.mean_entropy == pytest.approx(float(rep.entropy.mean()), abs=1e-12)
    assert sum(r.count for r in rep.bins) == len(rep)


def test_report_csv_roundtrip(tmp_path):
    rep = _sample_report()
    path = tmp_path / "report.csv"
    metrics.write_report_csv(rep, path)
    back = metrics.read_report_csv(path)
    np.testing.assert_array_equal(back.mean_probs, rep.mean_probs)
    np.testing.assert_array_equal(back.entropy, rep.entropy)
    np.testing.assert_array_equal(back.labels, rep.labels)
    assert back.outcomes == rep.outcomes
    assert back.ece == pytest.approx(rep.ece, abs=1e-15)
    assert len(back.bins) == len(rep.bins)


def test_report_csv_rejects_missing_aggregates(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample_id,p0,p1,entropy,label,pred,outcome\n"
                    "0,0.9,0.1,0.3,0,0,TN\n")
    with pytest.raises(metrics.MalformedReport):
        metrics.read_report_csv(path)


def test_report_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,prob\n1,0.5\n")
    with pytest.raises(metrics.MalformedReport):
        metrics.read_report_csv(path)
