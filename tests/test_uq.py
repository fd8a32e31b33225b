"""Uncertainty layers: degeneracy, unbiasedness, variance, KL, ELBO."""

import numpy as np
import pytest

from uqtsc import uq
from uqtsc.nncore import Conv1D, Dense


RNG = np.random.default_rng(0)


class FixedRandom:
    """rng stub whose .random() replays a preset array."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, shape):
        return self.values.reshape(shape)


# ---------------------------------------------------------------------------
# MC dropout


def test_dropout_p0_identity():
    layer = uq.MCDropout(0.0)
    x = RNG.normal(size=(4, 3))
    for mode in ("train", "mc_infer", "infer"):
        np.testing.assert_array_equal(layer.forward(x, mode=mode, rng=RNG), x)


def test_dropout_off_mode_identity():
    layer = uq.MCDropout(0.4)
    x = RNG.normal(size=(4, 3))
    np.testing.assert_array_equal(layer.forward(x, mode="infer"), x)


def test_dropout_fixed_mask_arithmetic():
    # keep-draws {0.1, 0.9} at p=0.5 -> mask {2, 0} -> [2,2] maps to [4,0]
    layer = uq.MCDropout(0.5)
    y = layer.forward(np.array([2.0, 2.0]), mode="mc_infer",
                      rng=FixedRandom([0.1, 0.9]))
    np.testing.assert_allclose(y, [4.0, 0.0])


def test_dropout_unbiased_mean():
    layer = uq.MCDropout(0.3)
    rng = np.random.default_rng(1)
    x = np.full(100_000, 1.0)
    y = layer.forward(x, mode="mc_infer", rng=rng)
    assert abs(y.mean() - 1.0) < 0.01


def test_dropout_invalid_rate():
    with pytest.raises(uq.InvalidRate):
        uq.MCDropout(1.0)
    with pytest.raises(uq.InvalidRate):
        uq.MCDropout(-0.1)


def test_dropout_stochastic_in_mc_infer():
    layer = uq.MCDropout(0.5)
    x = np.ones((2, 8))
    rng = np.random.default_rng(2)
    a = layer.forward(x, mode="mc_infer", rng=rng)
    b = layer.forward(x, mode="mc_infer", rng=rng)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_dropout_mc_infer_bytes_pinned(dtype):
    """mc_infer output byte-equals the draw, compare, divide and multiply
    formula, on signed zeros, infinities, nan and a subnormal too, and
    leaves the rng where that one draw does."""
    specials = (-0.0, 0.0, np.inf, -np.inf, np.nan,
                np.finfo(dtype).smallest_subnormal)
    v = np.random.default_rng(8).normal(size=(5, 7, 3)).astype(dtype)
    v.flat[:48] = np.tile(specials, 8)
    keep = 1.0 - 0.3
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    with np.errstate(invalid="ignore"):  # a dropped inf gives nan
        y = uq.MCDropout(0.3).forward(v, mode="mc_infer", rng=rng_a)
        expect = v * np.divide(rng_b.random(v.shape) < keep, keep,
                               dtype=v.dtype)
    assert y.dtype == dtype
    assert y.tobytes() == expect.tobytes()
    assert rng_a.random() == rng_b.random()


def test_dropout_backward_uses_same_mask():
    layer = uq.MCDropout(0.5)
    x = np.ones((3, 4))
    y = layer.forward(x, mode="train", rng=np.random.default_rng(3))
    dy = np.ones_like(y)
    dx = layer.backward(dy)
    np.testing.assert_array_equal(dx, y)  # mask * 1 either way


# ---------------------------------------------------------------------------
# DropConnect


def _fresh_dense(seed=4):
    return Dense(2, 1, np.random.default_rng(seed))


def test_dropconnect_p0_matches_dense():
    base = _fresh_dense()
    dc = uq.DropConnectDense(base, 0.0)
    x = RNG.normal(size=(3, 2))
    np.testing.assert_allclose(dc.forward(x, mode="train", rng=RNG),
                               base.forward(x), atol=1e-12)


def test_dropconnect_infer_matches_dense():
    base = _fresh_dense()
    dc = uq.DropConnectDense(base, 0.4)
    x = RNG.normal(size=(3, 2))
    np.testing.assert_allclose(dc.forward(x, mode="infer"),
                               base.forward(x), atol=1e-12)


def test_dropconnect_fixed_mask_arithmetic():
    base = _fresh_dense()
    base.w.value = np.array([[1.0], [1.0]])
    base.b.value = np.array([0.0])
    dc = uq.DropConnectDense(base, 0.5)
    # mask keeps row 1, drops row 2: (1*1)/0.5 + 0 = 2
    y = dc.forward(np.array([[1.0, 1.0]]), mode="mc_infer",
                   rng=FixedRandom([0.1, 0.9]))
    assert y[0, 0] == pytest.approx(2.0)


def test_dropconnect_bias_never_masked():
    base = _fresh_dense()
    base.w.value = np.zeros((2, 1))
    base.b.value = np.array([5.0])
    dc = uq.DropConnectDense(base, 0.5)
    rng = np.random.default_rng(5)
    for _ in range(10):
        y = dc.forward(np.ones((1, 2)), mode="mc_infer", rng=rng)
        assert y[0, 0] == pytest.approx(5.0)


def test_dropconnect_unbiased_mean():
    base = _fresh_dense()
    dc = uq.DropConnectDense(base, 0.25)
    x = np.ones((1, 2))
    expect = base.forward(x)[0, 0]
    rng = np.random.default_rng(6)
    draws = np.array([dc.forward(x, mode="mc_infer", rng=rng)[0, 0]
                      for _ in range(100_000)])
    assert abs(draws.mean() - expect) / abs(expect) < 0.01


def test_dropconnect_variance_oracle_p025():
    p = 0.25
    base = _fresh_dense(seed=7)
    base.b.value = np.zeros(1)
    dc = uq.DropConnectDense(base, p)
    rng = np.random.default_rng(8)
    x = np.array([[1.5, -0.7]])
    draws = np.array([dc.forward(x, mode="mc_infer", rng=rng)[0, 0]
                      for _ in range(100_000)])
    w = base.w.value[:, 0]
    expect_var = np.sum((x[0] * w) ** 2) * p / (1 - p)
    assert draws.var() == pytest.approx(expect_var, rel=0.05)


def test_dropconnect_conv_p0_matches_conv():
    rng = np.random.default_rng(9)
    base = Conv1D(2, 3, 4, rng)
    dc = uq.DropConnectConv1D(base, 0.0)
    x = rng.normal(size=(2, 10, 2))
    np.testing.assert_allclose(dc.forward(x, mode="train", rng=rng),
                               base.forward(x), atol=1e-12)


# ---------------------------------------------------------------------------
# Flipout


def test_flipout_sigma_zero_matches_dense():
    base = _fresh_dense(seed=11)
    fo = uq.FlipoutDense(base)
    fo.rho_w.value[:] = -40.0  # softplus -> ~4e-18
    fo.rho_b.value[:] = -40.0
    x = RNG.normal(size=(4, 2))
    y = fo.forward(x, mode="mc_infer", rng=np.random.default_rng(12))
    np.testing.assert_allclose(y, base.forward(x), atol=1e-12)


def test_flipout_infer_uses_means():
    base = _fresh_dense(seed=13)
    fo = uq.FlipoutDense(base)
    x = RNG.normal(size=(3, 2))
    np.testing.assert_allclose(fo.forward(x, mode="infer"),
                               base.forward(x), atol=1e-12)


def test_flipout_identical_rows_get_distinct_outputs():
    base = Dense(4, 3, np.random.default_rng(14))
    fo = uq.FlipoutDense(base)
    x = np.tile(RNG.normal(size=(1, 4)), (2, 1))
    y = fo.forward(x, mode="mc_infer", rng=np.random.default_rng(15))
    assert not np.allclose(y[0], y[1])


def test_flipout_variance_oracle():
    rng = np.random.default_rng(16)
    base = Dense(3, 2, rng)
    fo = uq.FlipoutDense(base)
    fo.rho_w.value = rng.normal(-2.0, 0.2, size=(3, 2))
    fo.rho_b.value = rng.normal(-2.0, 0.2, size=2)
    x = np.array([[0.8, -1.2, 0.5]])
    draws = np.stack([fo.forward(x, mode="mc_infer", rng=rng)[0]
                      for _ in range(10_000)])
    sig_w = uq.softplus(fo.rho_w.value)
    sig_b = uq.softplus(fo.rho_b.value)
    expect = (x[0] ** 2) @ (sig_w ** 2) + sig_b ** 2
    np.testing.assert_allclose(draws.var(axis=0), expect, rtol=0.05)


def test_flipout_grad_check_frozen_rng():
    assert uq.flipout_grad_check(seed=0) < 1e-5


def test_flipout_grad_check_many_seeds():
    for seed in range(5):
        assert uq.flipout_grad_check(seed=seed) < 1e-5


# ---------------------------------------------------------------------------
# KL / ELBO


def test_kl_standard_normal_zero():
    assert uq.gaussian_kl(np.zeros(3), np.ones(3)) == pytest.approx(0.0, abs=1e-12)


def test_kl_unit_mean():
    assert uq.gaussian_kl(np.array([1.0]), np.array([1.0])) == pytest.approx(0.5)


def test_kl_hand_case():
    got = uq.gaussian_kl(np.array([0.3]), np.array([0.5]))
    expect = np.log(2.0) + (0.25 + 0.09) / 2.0 - 0.5
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(0.3631, abs=1e-4)


def test_kl_nonnegative_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(200):
        mu = rng.normal(size=5)
        sigma = rng.uniform(0.05, 3.0, size=5)
        assert uq.gaussian_kl(mu, sigma) >= 0.0


def test_kl_zero_iff_standard():
    rng = np.random.default_rng(18)
    for _ in range(100):
        mu = rng.normal(size=3) * 0.5
        sigma = np.abs(rng.normal(1.0, 0.3, size=3)) + 0.01
        kl = uq.gaussian_kl(mu, sigma)
        if kl < 1e-12:
            np.testing.assert_allclose(mu, 0.0, atol=1e-5)
            np.testing.assert_allclose(sigma, 1.0, atol=1e-5)


def test_kl_rejects_nonpositive_sigma():
    with pytest.raises(uq.NonPositiveSigma):
        uq.gaussian_kl(np.array([0.0]), np.array([0.0]))


def test_elbo_trivials():
    assert uq.elbo_loss(0.7, 0.0, 0.1) == pytest.approx(0.7)
    assert uq.elbo_loss(0.7, 10.0, 0.01) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        uq.elbo_loss(0.5, 1.0, 0.0)


def test_elbo_prior_pulls_weight_toward_zero():
    """Scalar regression y=2x: ELBO optimum sits below the unregularized fit."""
    xs = np.linspace(-1.0, 1.0, 20)
    ys = 2.0 * xs
    sigma = np.array([0.1])

    def objective(mu, kl_weight):
        mse = np.mean((mu * xs - ys) ** 2)
        return uq.elbo_loss(mse, uq.gaussian_kl(np.array([mu]), sigma), kl_weight)

    grid = np.linspace(0.0, 3.0, 3001)
    unreg = grid[np.argmin([np.mean((m * xs - ys) ** 2) for m in grid])]
    reg = grid[np.argmin([objective(m, kl_weight=1.0) for m in grid])]
    assert unreg == pytest.approx(2.0, abs=1e-3)
    assert reg < unreg - 0.1
