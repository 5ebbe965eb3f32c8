"""Model wiring tests: shapes, scatter order, identities at init,
permutation behavior, and a composite finite-difference check."""

import math

import numpy as np
import pytest
from reference_ops import grad_check, matmul, mse, softmax
from test_autodiff import CONTRACT_TOL

import pairmask.autodiff as ad
from pairmask.corpus import MASK_ID
from pairmask.losses import loss_mlm, unit_factors
from pairmask.masking import PatchMaskPlan, TextMaskPlan, patchify, plan_patch_mask, unpatchify_t
from pairmask.model import Model, ModelConfig, sinusoid_table
from pairmask.synthgen import SynthSpec, gen_dataset
from pairmask.trainer import prepare_training_data, sample_losses

TINY = ModelConfig(
    image_size=8,
    patch=4,
    dim=8,
    encoder_depth=1,
    decoder_depth=1,
    text_decoder_depth=1,
    heads=2,
    max_text_len=6,
    vocab_size=12,
    sr_channels=2,
)


def tiny_model(seed=0, dtype=np.float32):
    return Model(TINY, seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# config and parameters
# ---------------------------------------------------------------------------


def test_config_rejects_indivisible_image():
    with pytest.raises(ValueError):
        ModelConfig(image_size=30, patch=8)


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        ModelConfig(dim=64, heads=5)


def test_param_names_stable_and_complete():
    m = tiny_model()
    names = list(m.params)
    assert names[0] == "patch_embed.w"
    for expected in (
        "enc.0.attn.wq",
        "enc.norm.g",
        "mask_token",
        "dec.head.w",
        "sr.conv1.w",
        "sr.conv2.w",
        "tok_embed.w",
        "fuse.sa.attn.wq",
        "fuse.ca.lnq.g",
        "fuse.global.w",
        "txtdec.head.b",
    ):
        assert expected in names
    # two models built from the same config enumerate identically
    assert names == list(tiny_model(seed=7).params)


def test_init_seeded():
    a = tiny_model(seed=3).params["patch_embed.w"].data
    b = tiny_model(seed=3).params["patch_embed.w"].data
    c = tiny_model(seed=4).params["patch_embed.w"].data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_init_conventions():
    m = tiny_model()
    assert np.all(m.params["enc.0.ln1.g"].data == 1.0)
    assert np.all(m.params["enc.0.attn.bq"].data == 0.0)
    assert np.all(m.params["sr.conv2.w"].data == 0.0)
    assert np.abs(m.params["patch_embed.w"].data).max() < 0.2


def test_sinusoid_frozen_values():
    table = sinusoid_table(4, 4, dtype=np.float64)
    assert np.allclose(table[0], [0.0, 1.0, 0.0, 1.0])
    expected_row1 = [math.sin(1.0), math.cos(1.0), math.sin(0.01), math.cos(0.01)]
    assert np.allclose(table[1], expected_row1, atol=1e-12)


# ---------------------------------------------------------------------------
# vision path
# ---------------------------------------------------------------------------


def test_encode_shape_and_determinism():
    m = tiny_model()
    rng = np.random.default_rng(0)
    patches = rng.normal(size=(3, 16))
    out1 = m.encode_image(patches, [0, 2, 3]).data
    out2 = m.encode_image(patches, [0, 2, 3]).data
    assert out1.shape == (3, 8)
    assert np.array_equal(out1, out2)


def test_encode_permutation_equivariance():
    m = tiny_model(dtype=np.float64)
    rng = np.random.default_rng(1)
    patches = rng.normal(size=(4, 16))
    positions = [0, 1, 2, 3]
    base = m.encode_image(patches, positions).data
    perm = [2, 0, 3, 1]
    shuffled = m.encode_image(patches[perm], [positions[i] for i in perm]).data
    assert np.allclose(shuffled, base[perm], atol=1e-12)


def test_encode_length_mismatch():
    m = tiny_model()
    with pytest.raises(ValueError):
        m.encode_image(np.zeros((3, 16)), [0, 1])


def test_decoder_sequence_scatter():
    m = tiny_model()
    plan = PatchMaskPlan(masked=(1, 3), visible=(0, 2), n_patches=4)
    f_v = ad.constant(np.arange(16, dtype=np.float32).reshape(1, 2, 8) / 10.0)
    rows = m.decoder_sequence(f_v, [plan]).data[0]
    pos = m.pos_table
    tok = m.params["mask_token"].data[0]
    assert np.array_equal(rows[0], f_v.data[0, 0] + pos[0])
    assert np.array_equal(rows[1], tok + pos[1])
    assert np.array_equal(rows[2], f_v.data[0, 1] + pos[2])
    assert np.array_equal(rows[3], tok + pos[3])


def test_decoder_sequence_row_count_mismatch():
    m = tiny_model()
    plan = PatchMaskPlan(masked=(1, 3), visible=(0, 2), n_patches=4)
    with pytest.raises(ValueError):
        m.decoder_sequence(ad.constant(np.zeros((1, 3, 8), dtype=np.float32)), [plan])


def test_decode_image_shape_and_mask_token_grad():
    m = tiny_model()
    rng = np.random.default_rng(2)
    image = rng.random((1, 8, 8)).astype(np.float32)
    plan = plan_patch_mask(4, np.random.default_rng(0), ratio=0.5)
    patches = patchify(image, 4)
    f_v = m.encode_image(patches[:, list(plan.visible)], plan.visible)
    rows = m.decode_image(f_v, [plan])
    assert rows.shape == (1, 4, 16)
    loss = mse(rows, ad.constant(patches))
    ad.backward(loss)
    g = m.params["mask_token"].grad
    assert g is not None and np.abs(g).max() > 0


def test_sr_head_is_bilinear_at_init():
    m = tiny_model()
    rng = np.random.default_rng(4)
    low = ad.constant(rng.random((8, 8)).astype(np.float32))
    out = m.sr_head(low)
    assert out.shape == (16, 16)
    assert np.array_equal(out.data, ad.bilinear_upsample(low, 2).data)


def test_sr_head_learns_past_bilinear():
    m = tiny_model()
    m.params["sr.conv2.w"].assign_(np.full((1, 2, 3, 3), 0.05))
    rng = np.random.default_rng(5)
    low = ad.constant(rng.random((8, 8)).astype(np.float32))
    out = m.sr_head(low)
    assert not np.array_equal(out.data, ad.bilinear_upsample(low, 2).data)


# ---------------------------------------------------------------------------
# text path and fusion
# ---------------------------------------------------------------------------


def test_embed_text_mask_rows():
    m = tiny_model()
    ids = np.full(5, MASK_ID, dtype=np.int64)
    rows = m.embed_text(ids).data
    mask_vec = m.params["tok_embed.w"].data[MASK_ID]
    for i in range(5):
        assert np.array_equal(rows[i], mask_vec + m.pos_table[i])


def test_embed_text_length_guard():
    m = tiny_model()
    with pytest.raises(ValueError):
        m.embed_text(np.zeros(7, dtype=np.int64))


def test_fusion_identity_with_zero_vision():
    # at init every projection bias is zero, so both vision terms vanish
    m = tiny_model()
    rng = np.random.default_rng(6)
    e_t = ad.constant(rng.normal(size=(5, 8)).astype(np.float32))
    f_v = ad.constant(np.zeros((4, 8), dtype=np.float32))
    bundle = m.mscf_fuse(f_v, e_t)
    assert np.array_equal(bundle.f_f.data, bundle.f_t.data)
    assert np.all(bundle.f_a_local.data == 0.0)
    assert np.all(bundle.f_a_global.data == 0.0)


def test_fusion_global_is_patch_mean():
    m = tiny_model()
    rng = np.random.default_rng(7)
    f_v = ad.constant(rng.normal(size=(4, 8)).astype(np.float32))
    e_t = ad.constant(rng.normal(size=(3, 8)).astype(np.float32))
    bundle = m.mscf_fuse(f_v, e_t)
    assert np.allclose(bundle.f_v_global.data, f_v.data.mean(axis=0), atol=1e-6)


def test_fusion_grads_reach_both_vision_paths():
    m = tiny_model()
    rng = np.random.default_rng(8)
    f_v = ad.parameter(rng.normal(size=(4, 8)))
    e_t = ad.constant(rng.normal(size=(3, 8)).astype(np.float32))
    bundle = m.mscf_fuse(f_v, e_t)
    loss = mse(bundle.f_f, ad.constant(np.zeros((3, 8), dtype=np.float32)))
    ad.backward(loss)
    assert np.abs(m.params["fuse.ca.attn.wv"].grad).max() > 0
    assert np.abs(m.params["fuse.global.w"].grad).max() > 0
    assert np.abs(f_v.grad).max() > 0


def test_decode_text_shape_and_permutation_equivariance():
    m = tiny_model(dtype=np.float64)
    rng = np.random.default_rng(9)
    f_f = rng.normal(size=(5, 8))
    logits = m.decode_text(ad.constant(f_f, dtype=np.float64))
    assert logits.shape == (5, 12)
    perm = [3, 1, 4, 0, 2]
    shuffled = m.decode_text(ad.constant(f_f[perm], dtype=np.float64))
    assert np.allclose(shuffled.data, logits.data[perm], atol=1e-12)


def test_forward_finetune_modes():
    m = tiny_model()
    rng = np.random.default_rng(10)
    image = rng.random((8, 8)).astype(np.float32)
    local = m.forward_finetune(image, mode="local")
    global_ = m.forward_finetune(image, mode="global")
    assert local.shape == (4, 8)
    assert global_.shape == (8,)
    assert np.allclose(global_.data, local.data.mean(axis=0), atol=1e-6)
    with pytest.raises(ValueError):
        m.forward_finetune(image, mode="pooled")


def test_embed_text_guard_reads_the_last_axis():
    m = tiny_model()
    # 12 ids in all, but each row is 4 tokens: within max_text_len 6
    assert m.embed_text(np.zeros((3, 4), dtype=np.int64)).shape == (3, 4, 8)
    with pytest.raises(ValueError, match="7 tokens"):
        m.embed_text(np.zeros((2, 7), dtype=np.int64))


# ---------------------------------------------------------------------------
# leading batch axes: a batch equals its samples run one at a time
# ---------------------------------------------------------------------------

# Batched rows go through one BLAS call per layer instead of one per
# sample, which may round differently at float32; features are O(1).
BATCH_ATOL = 1e-6


def test_batched_text_and_fusion_match_per_sample():
    m = tiny_model()
    rng = np.random.default_rng(20)
    ids = rng.integers(0, 12, size=(3, 5))
    f_v = rng.normal(size=(3, 4, 8)).astype(np.float32)
    batched = m.mscf_fuse(ad.constant(f_v), m.embed_text(ids))
    logits = m.decode_text(batched.f_f).data
    assert logits.shape == (3, 5, 12)
    assert batched.f_v_global.shape == (3, 8) and batched.f_a_global.shape == (3, 1, 8)
    for i in range(3):
        one = m.mscf_fuse(ad.constant(f_v[i]), m.embed_text(ids[i]))
        np.testing.assert_allclose(batched.f_f.data[i], one.f_f.data, rtol=0, atol=BATCH_ATOL)
        np.testing.assert_allclose(logits[i], m.decode_text(one.f_f).data, rtol=0, atol=BATCH_ATOL)


def test_batched_forward_finetune_matches_per_sample():
    m = tiny_model()
    images = np.random.default_rng(21).random((3, 8, 8)).astype(np.float32)
    local = m.forward_finetune(images, mode="local").data
    global_ = m.forward_finetune(images).data
    assert local.shape == (3, 4, 8) and global_.shape == (3, 8)
    for i in range(3):
        np.testing.assert_allclose(local[i], m.forward_finetune(images[i], mode="local").data,
                                   rtol=0, atol=BATCH_ATOL)
        np.testing.assert_allclose(global_[i], m.forward_finetune(images[i]).data, rtol=0, atol=BATCH_ATOL)


def test_decoder_and_token_loss_refuse_input_without_a_slot_axis():
    m = tiny_model()
    plan = plan_patch_mask(4, np.random.default_rng(0), ratio=0.5)
    with pytest.raises(ValueError, match="f_v"):
        m.decode_image(ad.constant(np.zeros((2, 8), dtype=np.float32)), [plan])
    tplan = TextMaskPlan(descriptor_neg=(), descriptor_oth=(), random=(0,), visible=(1,), seq_len=2)
    with pytest.raises(ValueError, match="logits"):
        loss_mlm(ad.constant(np.zeros((2, 12))), np.zeros(2, dtype=np.int64), [tplan], unit_factors(1, 1))


# ---------------------------------------------------------------------------
# the fused attention node against the unfused primitive graph it replaced
# ---------------------------------------------------------------------------

# Gradients of the two graphs differ only by float32 round-off in a
# different summation order; measured worst 2.5e-6 of a parameter's
# largest gradient at the default shape.
GRAD_RTOL = 2e-5
# The true gradient of bk is 0 (the softmax cancels a shift shared by all
# keys); both graphs return float32 round-off around it, near 1e-6 where
# the other weight gradients are O(10) as in these tests.
BK_ATOL = 1e-5


def reference_attention(model, prefix, query, kv):
    """Multi-head attention from primitive ops, as the model built it before fusion."""
    p, h = model.params, model.cfg.heads

    # a leading slot axis of one is dropped here and restored at the end
    lead, self_attention = query.shape[:-2], kv is query
    query = ad.reshape(query, query.shape[-2:])
    kv = query if self_attention else ad.reshape(kv, kv.shape[-2:])

    def split(x):
        L, d = x.shape
        return ad.transpose(ad.reshape(x, (L, h, d // h)), (1, 0, 2))

    q = ad.add(matmul(query, p[f"{prefix}.wq"]), p[f"{prefix}.bq"])
    k = ad.add(matmul(kv, p[f"{prefix}.wk"]), p[f"{prefix}.bk"])
    v = ad.add(matmul(kv, p[f"{prefix}.wv"]), p[f"{prefix}.bv"])
    scale = 1.0 / math.sqrt(model.cfg.dim // h)
    scores = ad.scale(matmul(split(q), ad.transpose(split(k), (0, 2, 1))), scale)
    ctx = matmul(softmax(scores, axis=-1), split(v))
    hh, L, hd = ctx.shape
    joined = ad.reshape(ad.transpose(ctx, (1, 0, 2)), (L, hh * hd))
    out = ad.add(matmul(joined, p[f"{prefix}.wo"]), p[f"{prefix}.bo"])
    return ad.reshape(out, lead + out.shape)


def assert_grads_match(fused: dict, reference: dict) -> None:
    for name, want in reference.items():
        got = fused[name]
        err = float(np.abs(got - want).max())
        if name.endswith(".bk"):
            assert err <= BK_ATOL, f"{name}: abs err {err:.1e}"
        else:
            scale = float(np.abs(want).max())
            assert err <= GRAD_RTOL * scale, f"{name}: err {err:.1e} vs grad scale {scale:.1e}"


def _attention_model():
    cfg = ModelConfig(image_size=16, patch=4, dim=32, encoder_depth=1, decoder_depth=1,
                      text_decoder_depth=1, heads=4, max_text_len=16, vocab_size=12, sr_channels=2)
    m = Model(cfg, seed=3)
    rng = np.random.default_rng(4)
    for name, t in m.params.items():   # nonzero biases, so every term is live
        if ".attn." in name:
            t.assign_(rng.normal(0.0, 0.3, size=t.shape))
    return m


@pytest.mark.parametrize("lq, lk, self_attention", [(16, 16, True), (12, 16, False)], ids=["self", "cross"])
def test_fused_attention_matches_unfused_reference(lq, lk, self_attention):
    m = _attention_model()
    rng = np.random.default_rng(5)
    weight = ad.constant(rng.normal(size=(lq, 32)).astype(np.float32))
    grads = {}
    outputs = {}
    for path, attention in (("fused", m._attention), ("reference", lambda *a: reference_attention(m, *a))):
        m.zero_grad()
        query = ad.parameter(np.random.default_rng(6).normal(size=(lq, 32)))
        kv = query if self_attention else ad.parameter(np.random.default_rng(7).normal(size=(lk, 32)))
        out = attention("enc.0.attn", query, kv)
        ad.backward(ad.sum_all(ad.mul(out, weight)))
        outputs[path] = out.data
        grads[path] = {name: t.grad for name, t in m.params.items() if name.startswith("enc.0.attn.")}
        grads[path]["query"], grads[path]["kv"] = query.grad, kv.grad
    # the fused node reduces rows with the engine's kernels, the reference
    # softmax with numpy's reduce; they round differently
    want = outputs["reference"]
    err = np.abs(outputs["fused"] - want).max() / np.abs(want).max()
    assert err <= CONTRACT_TOL[want.dtype], f"forward: {err:.2e} of scale"
    assert_grads_match(grads["fused"], grads["reference"])


def test_model_losses_match_unfused_reference(monkeypatch):
    samples = gen_dataset(SynthSpec(canvas=64, p_positive=0.3, seed=1), 4)
    data = prepare_training_data(samples)
    cfg = ModelConfig(image_size=32, patch=8, dim=32, encoder_depth=2, decoder_depth=1,
                      text_decoder_depth=1, heads=4, max_text_len=64, sr_channels=4,
                      vocab_size=len(data.vocab))
    m = Model(cfg, seed=0)
    totals, grads = {}, {}
    for path in ("fused", "reference"):
        if path == "reference":
            monkeypatch.setattr(Model, "_attention", reference_attention)
        m.zero_grad()
        total = sample_losses(m, samples[0], data.docs[0], data.factors,
                              np.random.default_rng([0, 1]), np.random.default_rng([0, 2])).total
        ad.backward(total)
        totals[path] = total.data
        grads[path] = {name: t.grad for name, t in m.params.items()}
    assert np.array_equal(totals["fused"], totals["reference"])
    assert_grads_match(grads["fused"], grads["reference"])


# ---------------------------------------------------------------------------
# composite gradient check
# ---------------------------------------------------------------------------


def test_composite_gradient_check():
    m = tiny_model(seed=1, dtype=np.float64)
    rng = np.random.default_rng(11)
    image = rng.random((1, 8, 8))
    plan = plan_patch_mask(4, np.random.default_rng(1), ratio=0.5)
    ids = np.array([[3, MASK_ID, 5, MASK_ID]], dtype=np.int64)
    targets = np.array([[3, 4, 5, 6]], dtype=np.int64)
    # nudge the zero-initialized SR conv so its gradient path is generic
    m.params["sr.conv2.w"].assign_(np.random.default_rng(12).normal(0, 0.05, size=(1, 2, 3, 3)))

    checked = [
        m.params[name]
        for name in (
            "patch_embed.w",
            "enc.0.attn.wq",
            "mask_token",
            "dec.head.w",
            "sr.conv1.w",
            "sr.conv2.w",
            "tok_embed.w",
            "fuse.ca.attn.wv",
            "fuse.global.w",
            "txtdec.head.w",
        )
    ]

    def f(_):
        patches = patchify(image, 4)
        f_v = m.encode_image(patches[:, list(plan.visible)], plan.visible)
        rows = m.decode_image(f_v, [plan])
        sr = m.sr_head(unpatchify_t(rows, 8, 8, 4))
        bundle = m.mscf_fuse(f_v, m.embed_text(ids))
        logits = m.decode_text(bundle.f_f)
        nll = ad.cross_entropy_with_logits(logits, targets)
        return ad.add(ad.add(mse(rows, ad.constant(patches, dtype=np.float64)),
                             ad.mean(ad.mul(sr, sr))),
                      ad.mean(nll))

    # eps balances truncation against round-off: the loss is O(1) while
    # some attention-weight gradients are ~1e-10 at init, so 1e-5 steps
    # drown the difference quotient in float64 noise
    err = grad_check(f, checked, eps=1e-3, max_coords=4, rng=np.random.default_rng(13))
    assert err < 1e-4
