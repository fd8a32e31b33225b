"""Uncertainty layers: degeneracy, unbiasedness, variance, KL, ELBO."""

import numpy as np
import pytest

from conftest import flipout_grad_check
from uqtsc import uq
from uqtsc.nncore import Conv1D, Dense
from uqtsc.nncore.gradcheck import layer_grad_error


RNG = np.random.default_rng(0)


class FixedRandom:
    """rng stub whose .integers() returns preset 16-bit lanes as the 64-bit
    words one full-range uint64 draw gives (zero lanes pad the last word)."""

    def __init__(self, lanes):
        self.lanes = np.asarray(lanes, dtype=np.uint16)

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 1 << 64, np.uint64)
        assert size == -(-self.lanes.size // 4)
        padded = np.zeros(4 * size, dtype=np.uint16)
        padded[:self.lanes.size] = self.lanes
        return padded.view(np.uint64)


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
    # lanes {0x1000, 0xF000} at p=0.5 (t = 0x8000) -> mask {2, 0}
    # -> [2,2] maps to [4,0]
    layer = uq.MCDropout(0.5)
    y = layer.forward(np.array([2.0, 2.0]), mode="mc_infer",
                      rng=FixedRandom([0x1000, 0xF000]))
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
    """mc_infer output byte-equals the 16-bit-lane compare, scale and
    multiply formula, on signed zeros, infinities, nan and a subnormal
    too, and leaves the rng where that one word draw does."""
    specials = (-0.0, 0.0, np.inf, -np.inf, np.nan,
                np.finfo(dtype).smallest_subnormal)
    v = np.random.default_rng(8).normal(size=(5, 7, 3)).astype(dtype)
    v.flat[:48] = np.tile(specials, 8)
    t = 45875  # round(0.7 * 2**16)
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    with np.errstate(invalid="ignore"):  # a dropped inf gives nan
        y = uq.MCDropout(0.3).forward(v, mode="mc_infer", rng=rng_a)
        words = rng_b.integers(0, 1 << 64, size=27,  # ceil(105 / 4)
                               dtype=np.uint64)
        lanes = words.view(np.uint16)[:v.size].reshape(v.shape)
        expect = v * np.multiply(lanes < t, 65536 / t, dtype=v.dtype)
    assert y.dtype == dtype
    assert y.tobytes() == expect.tobytes()
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_dropout_train_bytes_pinned(dtype):
    """A train pass and its backward byte-equal a multiply by the scaled
    mask (kept * 2^16/t in the tensor's dtype), on signed zeros,
    infinities, nan and a subnormal too."""
    specials = (-0.0, 0.0, np.inf, -np.inf, np.nan,
                np.finfo(dtype).smallest_subnormal)
    v = np.random.default_rng(8).normal(size=(5, 7, 3)).astype(dtype)
    v.flat[:48] = np.tile(specials, 8)
    g = v[::-1].copy()
    t = 45875  # round(0.7 * 2**16)
    layer = uq.MCDropout(0.3)
    with np.errstate(invalid="ignore"):  # a dropped inf gives nan
        y = layer.forward(v, mode="train", rng=np.random.default_rng(9))
        dx = layer.backward(g)
        words = np.random.default_rng(9).integers(0, 1 << 64, size=27,
                                                  dtype=np.uint64)
        lanes = words.view(np.uint16)[:v.size].reshape(v.shape)
        mask = np.multiply(lanes < t, 65536 / t, dtype=v.dtype)
        expect_y, expect_dx = v * mask, g * mask
    assert y.dtype == dx.dtype == dtype
    assert y.tobytes() == expect_y.tobytes()
    assert dx.tobytes() == expect_dx.tobytes()


def test_rate_edges():
    """t = round((1-p)·2^16) must lie in 1..65536."""
    for p in (1.0 - 2.0 ** -17, 1.0 - 2.0 ** -18):  # t would be 0
        with pytest.raises(uq.InvalidRate):
            uq.MCDropout(p)
        with pytest.raises(uq.InvalidRate):
            uq.DropConnectDense(_fresh_dense(), p)
    assert uq._keep_threshold(np.nextafter(1.0 - 2.0 ** -17, 0.0)) == 1
    uq.MCDropout(np.nextafter(1.0 - 2.0 ** -17, 0.0))
    # 0 < p <= 2^-17 quantizes to keep-all, still stochastic: it draws
    x = np.random.default_rng(10).normal(size=(4, 9))
    for p in (1e-9, 2.0 ** -17):
        assert uq._keep_threshold(p) == 65536
        rng = np.random.default_rng(11)
        y = uq.MCDropout(p).forward(x, mode="mc_infer", rng=rng)
        assert y.tobytes() == x.tobytes()
        ref = np.random.default_rng(11)
        ref.integers(0, 1 << 64, size=9, dtype=np.uint64)
        np.testing.assert_equal(rng.bit_generator.state,
                                ref.bit_generator.state)
    # p = 0.5: t = 32768 and survivors are scaled by exactly 2.0
    assert uq._keep_threshold(0.5) == 32768
    for dtype in (np.float64, np.float32):
        y = uq.MCDropout(0.5).forward(np.ones(1000, dtype=dtype),
                                      mode="mc_infer",
                                      rng=np.random.default_rng(12))
        assert y.dtype == dtype
        assert set(np.unique(y)) == {0.0, 2.0}


_BIT_GENERATORS = {"pcg64": np.random.PCG64, "mt19937": np.random.MT19937}


def _masking_layer(kind, shape, p):
    """A layer and input whose train pass masks a tensor of `shape`."""
    if kind == "dropout":
        return uq.MCDropout(p), np.ones(shape)
    conv = Conv1D(shape[1], shape[0], shape[2], np.random.default_rng(13))
    return uq.DropConnectConv1D(conv, p), np.ones((1, 4, shape[1]))


@pytest.mark.parametrize("bitgen", sorted(_BIT_GENERATORS))
@pytest.mark.parametrize("kind", ("dropout", "dropconnect_conv"))
@pytest.mark.parametrize("p", (0.1, 0.25, 0.5))
def test_kept_fraction_on_every_bit_generator(p, kind, bitgen):
    """Over 10^6 elements the kept share lies within 5 binomial sigma of
    t/65536.  A mask from 32-bit raw MT19937 outputs in 64-bit slots keeps
    75% at p = 0.5 (half its lanes are 0); full 64-bit words keep 50%."""
    shape = (100, 100, 100)
    layer, x = _masking_layer(kind, shape, p)
    rng = np.random.Generator(_BIT_GENERATORS[bitgen](14))
    layer.forward(x, mode="train", rng=rng)
    assert layer._kept.shape == shape
    n = layer._kept.size
    q = uq._keep_threshold(p) / 65536
    kept = np.count_nonzero(layer._kept) / n
    assert abs(kept - q) < 5 * np.sqrt(q * (1 - q) / n)


@pytest.mark.parametrize("bitgen", sorted(_BIT_GENERATORS))
@pytest.mark.parametrize("kind", ("dropout", "dropconnect_conv"))
@pytest.mark.parametrize("shape", ((1, 1, 1), (5, 7, 3)))
def test_mask_is_one_word_draw(shape, kind, bitgen):
    """A mask of n elements takes lanes of exactly ceil(n/4) uint64 words
    from one `integers` draw, also when n is not a multiple of 4."""
    layer, x = _masking_layer(kind, shape, 0.25)
    rng = np.random.Generator(_BIT_GENERATORS[bitgen](15))
    ref = np.random.Generator(_BIT_GENERATORS[bitgen](15))
    layer.forward(x, mode="train", rng=rng)
    n = int(np.prod(shape))
    words = ref.integers(0, 1 << 64, size=-(-n // 4), dtype=np.uint64)
    lanes = words.view(np.uint16)[:n].reshape(shape)
    kept = lanes < 49152  # t = 0.75 * 2**16
    assert layer._kept.tobytes() == kept.tobytes()
    expect = np.multiply(kept, 65536 / 49152)
    assert layer._apply_mask(np.ones(shape)).tobytes() == expect.tobytes()
    np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)


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
    # lanes {0x1000, 0xF000} at t = 0x8000 keep row 1, drop row 2:
    # 1*1*2 + 0 = 2
    y = dc.forward(np.array([[1.0, 1.0]]), mode="mc_infer",
                   rng=FixedRandom([0x1000, 0xF000]))
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


@pytest.mark.parametrize("bitgen", (np.random.PCG64, np.random.MT19937))
def test_flipout_signs_are_the_draws_of_choice(bitgen):
    """Sign vectors from rng.integers(0, 2) equal those of
    rng.choice((-1.0, 1.0)), and leave the stream where choice does."""
    for seed in range(20):
        for shape in ((1, 6), (8, 32), (32, 1), (3, 7), (64, 2)):
            a = np.random.Generator(bitgen(seed))
            b = np.random.Generator(bitgen(seed))
            if seed % 2:  # a buffered 32-bit half in both
                a.integers(2 ** 32, dtype=np.uint32)
                b.integers(2 ** 32, dtype=np.uint32)
            got = uq._SIGNS[a.integers(0, 2, size=shape)]
            want = b.choice((-1.0, 1.0), size=shape)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert a.integers(2 ** 32, dtype=np.uint32) == \
                b.integers(2 ** 32, dtype=np.uint32)
            assert a.random() == b.random()


def test_flipout_grad_check_frozen_rng():
    assert flipout_grad_check(seed=0) < 1e-5


def test_flipout_grad_check_many_seeds():
    for seed in range(5):
        assert flipout_grad_check(seed=seed) < 1e-5


# kind -> (layer from rng, input shape); inputs are channels-last
BERNOULLI_LAYERS = {
    "dropout": (lambda rng: uq.MCDropout(0.3), (2, 9, 3)),
    "dropconnect_dense": (
        lambda rng: uq.DropConnectDense(Dense(4, 3, rng), 0.3), (2, 4)),
    "dropconnect_conv": (
        lambda rng: uq.DropConnectConv1D(Conv1D(2, 3, 4, rng), 0.3),
        (2, 12, 2)),
}


@pytest.mark.parametrize("kind", BERNOULLI_LAYERS)
@pytest.mark.parametrize("seed", range(5))
def test_bernoulli_layer_grad_check(kind, seed):
    """The mask repeats on every pass of the check, so central
    differences see the same masked function the backward pass does."""
    build, shape = BERNOULLI_LAYERS[kind]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD20)))
    layer = build(rng)
    x = rng.normal(size=shape)
    assert layer_grad_error(layer, x, rng, 1e-5) < 1e-5


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
