"""Loss definitions against independent numpy oracles, plus the exact
rational identity behind the descriptor re-weighting."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_ops import grad_check, patchify_t

import pairmask.autodiff as ad
from pairmask.losses import (
    LossBundle,
    compute_rebalance,
    loss_mim,
    loss_mlm,
    loss_sr,
    loss_total,
    unit_factors,
)
from pairmask.masking import PatchMaskPlan, TextMaskPlan, patchify, plan_patch_mask, unpatchify_t


def nll_rows(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(targets)), targets]


# ---------------------------------------------------------------------------
# rebalancing factors
# ---------------------------------------------------------------------------


def identity_residual(f) -> Fraction:
    """lambda_neg*n_neg + lambda_oth*n_oth - n_a, exact (zero by construction)."""
    return f.lambda_neg_exact * f.n_neg + f.lambda_oth_exact * f.n_oth - (f.n_neg + f.n_oth)


def test_rebalance_twenty_to_one_is_exact():
    f = compute_rebalance(n_neg=2000, n_oth=100, lambda_neg=0.05)
    assert f.lambda_oth == 20.0
    assert identity_residual(f) == Fraction(0)


def test_rebalance_small_counts():
    f = compute_rebalance(n_neg=3, n_oth=2, lambda_neg=0.5)
    # (5 - 1.5) / 2 = 1.75, exact in binary
    assert f.lambda_oth == 1.75
    assert identity_residual(f) == Fraction(0)


def test_rebalance_errors():
    with pytest.raises(ValueError):
        compute_rebalance(n_neg=10, n_oth=0)
    with pytest.raises(ValueError):
        compute_rebalance(n_neg=-1, n_oth=5)
    with pytest.raises(ValueError):
        compute_rebalance(n_neg=10, n_oth=5, lambda_neg=0.0)
    with pytest.raises(ValueError):
        compute_rebalance(n_neg=10, n_oth=5, lambda_neg=1.5)


@settings(max_examples=200, deadline=None)
@given(
    n_neg=st.integers(min_value=0, max_value=10**6),
    n_oth=st.integers(min_value=1, max_value=10**6),
    lam=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
)
def test_rebalance_identity_always_exact(n_neg, n_oth, lam):
    f = compute_rebalance(n_neg=n_neg, n_oth=n_oth, lambda_neg=lam)
    assert identity_residual(f) == Fraction(0)
    # float conversion of lambda_oth is the only rounding step
    n_a = n_neg + n_oth
    drift = abs(f.lambda_neg * n_neg + f.lambda_oth * n_oth - n_a)
    assert drift <= np.spacing(float(f.lambda_oth)) * n_oth + np.spacing(float(n_a))


def test_unit_factors_are_one():
    f = unit_factors(n_neg=7, n_oth=3)
    assert f.lambda_neg == 1.0 and f.lambda_oth == 1.0
    assert identity_residual(f) == Fraction(0)


# ---------------------------------------------------------------------------
# masked-patch reconstruction loss
# ---------------------------------------------------------------------------


def test_mim_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    recon_np = rng.normal(size=(8, 8))
    target = rng.normal(size=(8, 8))
    plan = PatchMaskPlan(masked=(0, 3), visible=(1, 2), n_patches=4)
    rows = ad.constant(patchify(recon_np, 4)[None], dtype=np.float64)
    loss = loss_mim(rows, target[None], [plan], patch=4)
    pr = patchify(recon_np, 4)[[0, 3]]
    tr = patchify(target, 4)[[0, 3]]
    expected = ((pr - tr) ** 2).mean()
    assert abs(loss.item() - expected) < 1e-12


def test_mim_ignores_visible_pixels():
    rng = np.random.default_rng(1)
    recon_np = rng.normal(size=(8, 8))
    target = rng.normal(size=(8, 8))
    plan = PatchMaskPlan(masked=(0, 3), visible=(1, 2), n_patches=4)
    rows = ad.constant(patchify(recon_np, 4)[None], dtype=np.float64)
    base = loss_mim(rows, target[None], [plan], patch=4).item()
    bumped = recon_np.copy()
    bumped[0:4, 4:8] += 100.0  # patch 1, visible
    bumped[4:8, 0:4] -= 50.0   # patch 2, visible
    rows = ad.constant(patchify(bumped, 4)[None], dtype=np.float64)
    after = loss_mim(rows, target[None], [plan], patch=4).item()
    assert after == base


def test_mim_gradient_zero_on_visible():
    rng = np.random.default_rng(2)
    rows = ad.parameter(patchify(rng.normal(size=(1, 8, 8)), 4))
    target = rng.normal(size=(1, 8, 8))
    plan = PatchMaskPlan(masked=(0, 3), visible=(1, 2), n_patches=4)
    ad.backward(loss_mim(rows, target, [plan], patch=4))
    g = unpatchify_t(ad.constant(rows.grad), 8, 8, 4).data[0]
    assert np.all(g[0:4, 4:8] == 0.0)
    assert np.all(g[4:8, 0:4] == 0.0)
    assert np.abs(g[0:4, 0:4]).max() > 0
    assert np.abs(g[4:8, 4:8]).max() > 0


def test_mim_gradient_check():
    rng = np.random.default_rng(3)
    rows = ad.parameter(patchify(rng.normal(size=(1, 8, 8)), 4), dtype=np.float64)
    target = rng.normal(size=(1, 8, 8))
    plan = PatchMaskPlan(masked=(1, 2, 3), visible=(0,), n_patches=4)
    err = grad_check(lambda _: loss_mim(rows, target, [plan], patch=4), [rows])
    assert err < 1e-6


def test_mim_empty_plan_rejected():
    plan = PatchMaskPlan(masked=(), visible=(0, 1, 2, 3), n_patches=4)
    with pytest.raises(ValueError):
        loss_mim(ad.constant(np.zeros((1, 4, 16))), np.zeros((1, 8, 8)), [plan], patch=4)


def test_mim_refuses_an_image_for_rows():
    # a 16x16 image at patch 4 has rows of width 16 = patch^2: without the
    # shape check its first and fourth pixel rows would be scored silently
    plan = PatchMaskPlan(masked=(0, 3), visible=(1, 2), n_patches=4)
    with pytest.raises(ValueError, match=r"rows \(1, 16, 16\).*\(1, 4, 16\)"):
        loss_mim(ad.constant(np.zeros((1, 16, 16))), np.zeros((1, 8, 8)), [plan], patch=4)
    with pytest.raises(ValueError, match="rows"):
        loss_mim(ad.constant(np.zeros((4, 16))), np.zeros((1, 8, 8)), [plan], patch=4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mim_on_rows_equals_the_image_round_trip(dtype):
    # the decoder's rows used to be reassembled into an image and cut back
    # into the same rows; dropping the round trip moves no bit
    rng = np.random.default_rng(7)
    data = rng.normal(size=(3, 4, 16))
    target = rng.normal(size=(3, 8, 8))
    plans = [plan_patch_mask(4, np.random.default_rng([7, b]), ratio=0.5) for b in range(3)]
    direct, via_image = ad.parameter(data, dtype=dtype), ad.parameter(data, dtype=dtype)
    got = loss_mim(direct, target, plans, patch=4)
    want = loss_mim(patchify_t(unpatchify_t(via_image, 8, 8, 4), 4), target, plans, patch=4)
    np.testing.assert_array_equal(got.data, want.data)
    ad.backward(ad.sum_all(got))
    ad.backward(ad.sum_all(want))
    np.testing.assert_array_equal(direct.grad, via_image.grad)
    assert got.data.dtype == dtype and np.abs(direct.grad).max() > 0


# ---------------------------------------------------------------------------
# re-weighted token loss
# ---------------------------------------------------------------------------


def make_plan():
    return TextMaskPlan(
        descriptor_neg=(2,), descriptor_oth=(3,), random=(0, 1), visible=(4, 5), seq_len=6
    )


def test_mlm_matches_numpy_oracle():
    rng = np.random.default_rng(4)
    logits_np = rng.normal(size=(6, 8))
    targets = rng.integers(0, 8, size=6)
    factors = compute_rebalance(n_neg=2000, n_oth=100, lambda_neg=0.05)
    loss = loss_mlm(ad.constant(logits_np[None], dtype=np.float64), targets[None], [make_plan()], factors)
    nll = nll_rows(logits_np, targets)
    expected = (nll[0] + nll[1] + 0.05 * nll[2] + 20.0 * nll[3]) / (2 + 0.05 + 20.0)
    assert abs(loss.item() - expected) < 1e-10


def test_mlm_unit_factors_is_plain_mean():
    rng = np.random.default_rng(5)
    logits_np = rng.normal(size=(6, 8))
    targets = rng.integers(0, 8, size=6)
    loss = loss_mlm(ad.constant(logits_np[None], dtype=np.float64), targets[None], [make_plan()], unit_factors(1, 1))
    nll = nll_rows(logits_np, targets)
    assert abs(loss.item() - nll[[0, 1, 2, 3]].mean()) < 1e-10


def test_mlm_visible_rows_inert():
    rng = np.random.default_rng(6)
    logits_np = rng.normal(size=(6, 8))
    targets = rng.integers(0, 8, size=6)
    factors = compute_rebalance(n_neg=20, n_oth=1)
    base = loss_mlm(ad.constant(logits_np[None], dtype=np.float64), targets[None], [make_plan()], factors).item()
    bumped = logits_np.copy()
    bumped[4] += 9.0
    bumped[5] -= 9.0
    after = loss_mlm(ad.constant(bumped[None], dtype=np.float64), targets[None], [make_plan()], factors).item()
    assert after == base


def test_mlm_role_subsets_may_be_empty():
    plan = TextMaskPlan(descriptor_neg=(), descriptor_oth=(), random=(0, 1), visible=(2,), seq_len=3)
    rng = np.random.default_rng(7)
    logits_np = rng.normal(size=(3, 5))
    targets = np.array([1, 2, 3])
    loss = loss_mlm(ad.constant(logits_np[None], dtype=np.float64), targets[None], [plan], unit_factors(1, 1))
    nll = nll_rows(logits_np, targets)
    assert abs(loss.item() - nll[[0, 1]].mean()) < 1e-10


def test_mlm_nothing_masked_rejected():
    plan = TextMaskPlan(descriptor_neg=(), descriptor_oth=(), random=(), visible=(0, 1), seq_len=2)
    with pytest.raises(ValueError):
        loss_mlm(ad.constant(np.zeros((1, 2, 4))), np.zeros((1, 2), dtype=np.int64), [plan], unit_factors(1, 1))


def test_mlm_length_mismatch_rejected():
    with pytest.raises(ValueError):
        loss_mlm(ad.constant(np.zeros((1, 4, 8))), np.zeros((1, 4), dtype=np.int64), [make_plan()], unit_factors(1, 1))


def test_mlm_gradient_check():
    rng = np.random.default_rng(8)
    logits = ad.parameter(rng.normal(size=(1, 6, 8)), dtype=np.float64)
    targets = rng.integers(0, 8, size=(1, 6))
    factors = compute_rebalance(n_neg=40, n_oth=2)
    err = grad_check(lambda _: loss_mlm(logits, targets, [make_plan()], factors), [logits])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# attention-weighted super-resolution loss
# ---------------------------------------------------------------------------


def test_sr_zero_attention_is_zero():
    rng = np.random.default_rng(9)
    out = ad.constant(rng.normal(size=(8, 8)), dtype=np.float64)
    target = rng.normal(size=(8, 8))
    assert loss_sr(out, target, np.zeros((8, 8))).item() == 0.0


def test_sr_uniform_attention_is_plain_mse():
    rng = np.random.default_rng(10)
    out_np = rng.normal(size=(8, 8))
    target = rng.normal(size=(8, 8))
    loss = loss_sr(ad.constant(out_np, dtype=np.float64), target, np.ones((8, 8))).item()
    assert abs(loss - ((out_np - target) ** 2).mean()) < 1e-6


def test_sr_weighted_oracle():
    rng = np.random.default_rng(11)
    out_np = rng.normal(size=(4, 4))
    target = rng.normal(size=(4, 4))
    attn = rng.random((4, 4))
    loss = loss_sr(ad.constant(out_np, dtype=np.float64), target, attn).item()
    expected = (attn * (out_np - target) ** 2).sum() / attn.sum()
    assert abs(loss - expected) < 1e-12


def test_sr_ignores_zero_weight_pixels():
    rng = np.random.default_rng(12)
    out_np = rng.normal(size=(4, 4))
    target = rng.normal(size=(4, 4))
    attn = rng.random((4, 4))
    attn[2, 3] = 0.0
    base = loss_sr(ad.constant(out_np, dtype=np.float64), target, attn).item()
    bumped = target.copy()
    bumped[2, 3] = 1e6
    after = loss_sr(ad.constant(out_np, dtype=np.float64), bumped, attn).item()
    assert after == base


def test_sr_shape_and_sign_guards():
    with pytest.raises(ValueError):
        loss_sr(ad.constant(np.zeros((4, 4))), np.zeros((8, 8)), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        loss_sr(ad.constant(np.zeros((4, 4))), np.zeros((4, 4)), -np.ones((4, 4)))


def test_sr_gradient_check():
    rng = np.random.default_rng(13)
    out = ad.parameter(rng.normal(size=(4, 4)), dtype=np.float64)
    target = rng.normal(size=(4, 4))
    attn = rng.random((4, 4))
    err = grad_check(lambda _: loss_sr(out, target, attn), [out])
    assert err < 1e-6


# ---------------------------------------------------------------------------
# total
# ---------------------------------------------------------------------------


def test_total_sums_terms():
    a = ad.constant(np.array(1.25))
    b = ad.constant(np.array(0.5))
    c = ad.constant(np.array(0.25))
    bundle = loss_total(a, b, c)
    assert isinstance(bundle, LossBundle)
    assert bundle.total.item() == 2.0
    vals = bundle.values()
    assert set(vals) == {"l_mim", "l_mlm", "l_sr", "total"}


def test_total_rejects_nonfinite_naming_term():
    a = ad.constant(np.array(1.0))
    bad = ad.constant(np.array(np.nan))
    c = ad.constant(np.array(0.5))
    with pytest.raises(FloatingPointError, match="mlm"):
        loss_total(a, bad, c)
