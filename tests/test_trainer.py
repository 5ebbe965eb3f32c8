"""Optimizer math, data preparation, the step loop, checkpoints, and
the evaluation probes."""

import dataclasses
import json
import os
import platform
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairmask.autodiff as ad
import pairmask.trainer as trainer
from pairmask.corpus import (
    DEFAULT_BETA,
    DEFAULT_ENTITY_LEXICON,
    MASK_ID,
    POLARITY_OTHER,
    Vocabulary,
    annotate,
    tokenize,
)
from pairmask.distill import distill_rule_based
from pairmask.masking import apply_text_mask, patchify, plan_text_mask
from pairmask.model import Model, ModelConfig
from pairmask.synthgen import (
    LABEL_ABSENT,
    LABEL_PRESENT,
    SynthSample,
    SynthSpec,
    downsample,
    gen_dataset,
    load_dataset,
    save_dataset,
)
from pairmask.trainer import (
    NEWTON_TOL,
    STREAM_EVAL,
    STREAM_IMAGE,
    STREAM_TEXT,
    AdamW,
    ModelAttention,
    OptimizerConfig,
    TrainConfig,
    TrainingError,
    _fit_logistic,
    eval_descriptor_accuracy,
    extract_features,
    linear_probe,
    load_checkpoint,
    pretrain,
    prepare_training_data,
    read_checkpoint,
    sample_losses,
    save_checkpoint,
    train_step,
)
from reference_ops import lbfgs_fit_logistic

TEST_MODEL = ModelConfig(
    image_size=32,
    patch=8,
    dim=32,
    encoder_depth=2,
    decoder_depth=1,
    text_decoder_depth=1,
    heads=4,
    max_text_len=64,
    vocab_size=64,
    sr_channels=4,
)


def small_world(n=24, p=0.3, seed=0):
    samples = gen_dataset(SynthSpec(p_positive=p, seed=seed), n)
    data = prepare_training_data(samples)
    cfg = ModelConfig(**{**TEST_MODEL.__dict__, "vocab_size": len(data.vocab)})
    model = Model(cfg, seed=seed)
    return samples, data, model


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adamw_first_step_is_signed_lr():
    p = ad.parameter(np.array([1.0]))
    opt = AdamW({"p": p}, OptimizerConfig(lr=0.1, weight_decay=0.0))
    p.grad = np.array([1.0], dtype=np.float32)
    opt.step()
    # first step moves by lr * g / (|g| + eps)
    assert abs(p.data[0] - 0.9) < 1e-6


def test_adamw_decay_hits_matrices_only():
    w = ad.parameter(np.array([[1.0]]))
    b = ad.parameter(np.array([1.0]))
    opt = AdamW({"w": w, "b": b}, OptimizerConfig(lr=0.1, weight_decay=0.5))
    w.grad = np.zeros((1, 1), dtype=np.float32)
    b.grad = np.zeros(1, dtype=np.float32)
    opt.step()
    assert abs(w.data[0, 0] - 0.95) < 1e-7
    assert b.data[0] == 1.0


def test_adamw_skips_gradless_params():
    p = ad.parameter(np.array([2.0]))
    opt = AdamW({"p": p}, OptimizerConfig(lr=0.1))
    opt.step()
    assert p.data[0] == 2.0


def test_adamw_nonfinite_grad_names_param():
    p = ad.parameter(np.array([1.0]))
    opt = AdamW({"p": p})
    p.grad = np.array([np.nan], dtype=np.float32)
    with pytest.raises(FloatingPointError, match="p"):
        opt.step()


def test_adamw_nonfinite_grad_changes_nothing():
    # a finite gradient ahead of the offending one must not be applied
    # either, also when a gradless parameter puts them in separate runs
    a, b = ad.parameter(np.ones((2, 3))), ad.parameter(np.ones(3))
    opt = AdamW({"a": a, "frozen": ad.parameter(np.ones((3, 3))), "b": b})
    a_before, b_before = a.data.copy(), b.data.copy()
    a.grad = np.full((2, 3), 0.5, dtype=np.float32)
    b.grad = np.array([1.0, np.nan, 1.0], dtype=np.float32)
    with pytest.raises(FloatingPointError, match="in b$"):
        opt.step()
    assert np.array_equal(a.data, a_before) and np.array_equal(b.data, b_before)
    assert opt.t == 0
    assert all(not buf.any() for buf in (*opt.m.values(), *opt.v.values()))


def test_adamw_refuses_mixed_dtypes():
    with pytest.raises(ValueError, match="mixed dtypes"):
        AdamW({"a": ad.parameter(np.ones(2)), "b": ad.parameter(np.ones(2), dtype=np.float64)})


class _LoopAdamW:
    """The per-parameter AdamW loop the flat-buffer optimizer replaced,
    kept as the bit-for-bit reference (moments in per-parameter arrays)."""

    def __init__(self, params: dict, cfg: OptimizerConfig):
        self.params, self.cfg, self.t = params, cfg, 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        c = self.cfg
        self.t += 1
        b1t = 1.0 - c.beta1**self.t
        b2t = 1.0 - c.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * g * g
            update = (m / b1t) / (np.sqrt(v / b2t) + c.eps)
            new = p.data - c.lr * update
            if p.data.ndim >= 2:
                new = new - c.lr * c.weight_decay * p.data
            p.assign_(new)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_flat_buffers_match_the_per_parameter_loop(dtype):
    # ranks interleaved so the flat layout (decayed first) reorders them;
    # "frozen" never gets a gradient and splits the vectors into two runs
    shapes = {"w1": (4, 3), "b1": (3,), "frozen": (5,), "w2": (2, 2, 3), "g": (7,), "s": (1,), "w3": (3, 1)}
    rng = np.random.default_rng(40)
    init = {k: rng.normal(size=s) for k, s in shapes.items()}
    cfg = OptimizerConfig(lr=0.05, weight_decay=0.1)
    sides = []
    for make in (AdamW, _LoopAdamW):
        params = {k: ad.parameter(v, dtype=dtype) for k, v in init.items()}
        sides.append((params, make(params, cfg)))
    for step in range(3):
        scale = 10.0 ** rng.integers(-6, 3)
        grads = {k: rng.normal(scale=scale, size=s) for k, s in shapes.items() if k != "frozen"}
        for params, opt in sides:
            for k, grad in grads.items():
                params[k].grad = grad.astype(dtype)
            opt.step()
    (params, opt), (ref_params, ref) = sides
    assert opt.t == ref.t == 3
    for k in shapes:
        assert params[k].data.dtype == dtype
        assert np.array_equal(params[k].data, ref_params[k].data), k
        assert np.array_equal(opt.m[k], ref.m[k]), f"m {k}"
        assert np.array_equal(opt.v[k], ref.v[k]), f"v {k}"
    assert np.array_equal(params["frozen"].data, init["frozen"].astype(dtype))


def test_adamw_chunked_runs_match_the_per_parameter_loop(monkeypatch):
    # with runs closed at 8 elements, one run spans the decayed/undecayed
    # boundary and the rest split at parameter boundaries
    monkeypatch.setattr(AdamW, "CHUNK", 8)
    shapes = {"w1": (4, 3), "b1": (3,), "frozen": (5,), "w2": (2, 2, 3), "g": (7,), "s": (1,), "w3": (3, 1)}
    rng = np.random.default_rng(41)
    init = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
    cfg = OptimizerConfig(lr=0.05, weight_decay=0.1)
    params = {k: ad.parameter(v) for k, v in init.items()}
    ref_params = {k: ad.parameter(v) for k, v in init.items()}
    opt, ref = AdamW(params, cfg), _LoopAdamW(ref_params, cfg)
    for _ in range(3):
        for k, s in shapes.items():
            if k != "frozen":
                params[k].grad = ref_params[k].grad = rng.normal(size=s).astype(np.float32)
        assert opt._runs() == [["w1"], ["w2"], ["w3", "b1"], ["g", "s"]]
        opt.step()
        ref.step()
    for k in shapes:
        assert np.array_equal(params[k].data, ref_params[k].data), k
        assert np.array_equal(opt.m[k], ref.m[k]) and np.array_equal(opt.v[k], ref.v[k]), k


def test_adamw_matches_reference_two_steps():
    rng = np.random.default_rng(0)
    init = rng.normal(size=(3, 2)).astype(np.float32)
    grads = [rng.normal(size=(3, 2)).astype(np.float32) for _ in range(2)]
    p = ad.parameter(init.copy())
    cfg = OptimizerConfig(lr=0.01, weight_decay=0.1, beta1=0.9, beta2=0.95, eps=1e-8)
    opt = AdamW({"p": p}, cfg)

    ref = init.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        opt.step()
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        mhat = m / (1 - cfg.beta1**t)
        vhat = v / (1 - cfg.beta2**t)
        ref = ref - cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps) - cfg.lr * cfg.weight_decay * ref
    assert np.allclose(p.data, ref, atol=1e-6)


# ---------------------------------------------------------------------------
# data preparation
# ---------------------------------------------------------------------------


def test_prepare_concatenates_and_annotates():
    samples = gen_dataset(SynthSpec(p_positive=0.3, seed=0), 24)
    data = prepare_training_data(samples)
    assert len(data.docs) == len(samples)
    assert all(d.seq.boundary is not None for d in data.docs)
    assert data.stats.n_oth_tokens > 0
    f = data.factors
    assert f.lambda_neg_exact * f.n_neg + f.lambda_oth_exact * f.n_oth == f.n_neg + f.n_oth


def test_prepare_without_distill():
    samples = gen_dataset(SynthSpec(p_positive=0.3, seed=0), 12)
    data = prepare_training_data(samples, use_distill=False)
    assert all(d.seq.boundary is None for d in data.docs)


def test_prepare_without_rebalance():
    samples = gen_dataset(SynthSpec(p_positive=0.3, seed=0), 12)
    data = prepare_training_data(samples, use_rebalance=False)
    assert data.factors.lambda_neg == 1.0 and data.factors.lambda_oth == 1.0


def test_prepare_rule_based_pass_needs_no_vocabulary():
    # the distiller reads surfaces only: distilling against the corpus
    # vocabulary gives the same texts, vocabulary, docs and factors
    samples = gen_dataset(SynthSpec(p_positive=0.3, seed=0), 24)
    vocab = Vocabulary.from_texts(s.report for s in samples)
    texts = [distill_rule_based(annotate(tokenize(s.report, vocab))).raw for s in samples]
    data = prepare_training_data(samples)
    ref = prepare_training_data(samples, distilled_texts=texts)
    assert data.vocab.word2id == ref.vocab.word2id
    assert data.factors == ref.factors
    for doc, ref_doc in zip(data.docs, ref.docs):
        assert doc.seq.surfaces == ref_doc.seq.surfaces
        assert np.array_equal(doc.seq.ids, ref_doc.seq.ids)
        assert (doc.mentions, doc.spans) == (ref_doc.mentions, ref_doc.spans)


def test_prepare_rejects_misaligned_distilled():
    samples = gen_dataset(SynthSpec(seed=0), 4)
    with pytest.raises(ValueError):
        prepare_training_data(samples, distilled_texts=["there is edema."])


def test_prepare_accepts_external_distilled_texts():
    samples = gen_dataset(SynthSpec(p_positive=0.3, seed=3), 6)
    extra = ["there is severe edema."] * 6
    data = prepare_training_data(samples, distilled_texts=extra)
    assert all(d.seq.boundary is not None for d in data.docs)
    assert "severe" in data.vocab


@pytest.mark.parametrize("use_distill", [True, False])
def test_prepare_truncates_to_a_prefix(use_distill):
    samples = gen_dataset(SynthSpec(p_positive=0.3, seed=0), 12)
    untruncated = {
        u: prepare_training_data(samples, max_text_len=10**6, use_distill=u).docs for u in (True, False)
    }
    full = untruncated[use_distill]
    reports = [len(d.seq) for d in untruncated[False]]
    joined = [len(d.seq) for d in untruncated[True]]
    below, between, above = min(reports) - 3, (max(reports) + min(joined)) // 2, max(joined) + 3
    assert below >= 1 and max(reports) < between < min(joined)
    for max_text_len in (below, between, above):
        docs = prepare_training_data(samples, max_text_len=max_text_len, use_distill=use_distill).docs
        for doc, ref, n_report in zip(docs, full, reports):
            seq = doc.seq
            assert len(seq) == min(len(ref.seq), max_text_len)
            assert seq.surfaces == ref.seq.surfaces[: len(seq)]
            np.testing.assert_array_equal(seq.ids, ref.seq.ids[: len(seq)])
            assert seq.boundary == (min(n_report, max_text_len) if use_distill else None)


@pytest.mark.parametrize("max_text_len", [0, -3])
def test_prepare_refuses_max_text_len_below_one(max_text_len):
    samples = gen_dataset(SynthSpec(seed=0), 2)
    with pytest.raises(ValueError, match=f"max_len {max_text_len} < 1"):
        prepare_training_data(samples, max_text_len=max_text_len)


# ---------------------------------------------------------------------------
# step loop
# ---------------------------------------------------------------------------


def test_sample_losses_finite_and_sr_switch():
    samples, data, model = small_world(n=8)
    # a lesion-free image legitimately zeroes the weighted SR loss, so
    # exercise the positive case on a sample with findings
    hit = next(i for i, s in enumerate(samples) if s.attention.max() > 0)
    rng_i = np.random.default_rng(0)
    rng_t = np.random.default_rng(1)
    bundle = sample_losses(model, samples[hit], data.docs[hit], data.factors, rng_i, rng_t)
    vals = bundle.values()
    assert all(np.isfinite(v) for v in vals.values())
    assert vals["l_sr"] > 0.0

    bundle2 = sample_losses(
        model, samples[hit], data.docs[hit], data.factors,
        np.random.default_rng(0), np.random.default_rng(1), use_sr=False,
    )
    assert bundle2.values()["l_sr"] == 0.0


@pytest.mark.parametrize("flags", [{}, {"use_sr": False}, {"use_descriptor_mask": False}],
                         ids=["all", "no-sr", "no-descriptor-mask"])
def test_sample_losses_terms_are_scalars(flags):
    samples, data, model = small_world(n=4)
    bundle = sample_losses(model, samples[0], data.docs[0], data.factors,
                           np.random.default_rng(0), np.random.default_rng(1), **flags)
    assert [t.shape for t in (bundle.mim, bundle.mlm, bundle.sr, bundle.total)] == [()] * 4


def test_sample_losses_rejects_wrong_resolution():
    samples, data, model = small_world(n=4)
    bad = SynthSample(
        id="bad", report=samples[0].report,
        image=np.zeros((32, 32), dtype=np.float32),
        lesion_mask=np.zeros((32, 32), dtype=np.float32),
        attention=np.zeros((32, 32), dtype=np.float32),
        labels=dict(samples[0].labels),
    )
    with pytest.raises(ValueError):
        sample_losses(
            model, bad, data.docs[0], data.factors,
            np.random.default_rng(0), np.random.default_rng(1),
        )


def test_train_step_chunking_invariant():
    samples, data, model_a = small_world(n=8)
    model_b = Model(model_a.cfg, seed=0)
    opt_a = AdamW(model_a.params)
    opt_b = AdamW(model_b.params)
    pairs = list(zip(samples[:4], data.docs[:4]))

    train_step(model_a, opt_a, pairs, data.factors, step=0, seed=0)

    # same logical batch accumulated in two chunks, slots preserved
    opt_b.zero_grad()
    for slot, (sample, doc) in enumerate(pairs):
        rng_image = np.random.default_rng([0, 2, 0, slot])
        rng_text = np.random.default_rng([0, 1, 0, slot])
        bundle = sample_losses(model_b, sample, doc, data.factors, rng_image, rng_text)
        ad.backward(ad.scale(bundle.total, 1.0 / len(pairs)))
    opt_b.step()

    for name in model_a.params:
        assert np.array_equal(model_a.params[name].data, model_b.params[name].data), name


def slot_by_slot(model, opt, pairs, factors, step, seed, **flags):
    """The reference a batched step must equal: one graph per slot, each
    differentiated into the leaves before the next is built."""
    opt.zero_grad()
    rows = []
    for slot, (sample, doc) in enumerate(pairs):
        rng_image = np.random.default_rng([seed, STREAM_IMAGE, step, slot])
        rng_text = np.random.default_rng([seed, STREAM_TEXT, step, slot])
        bundle = sample_losses(model, sample, doc, factors, rng_image, rng_text, **flags)
        rows.append(bundle.values())
        ad.backward(ad.scale(bundle.total, 1.0 / len(pairs)))
    return {key: sum(row[key] for row in rows) / len(rows) for key in rows[0]}


def assert_same_state(model_a, opt_a, model_b, opt_b):
    assert opt_a.t == opt_b.t
    for name in model_a.params:
        assert np.array_equal(model_a.params[name].data, model_b.params[name].data), name
        assert np.array_equal(opt_a.m[name], opt_b.m[name]), f"adam m {name}"
        assert np.array_equal(opt_a.v[name], opt_b.v[name]), f"adam v {name}"


@pytest.mark.parametrize("use_sr, use_descriptor_mask", [(True, True), (False, True), (True, False)],
                         ids=["all", "no-sr", "no-descriptor-mask"])
def test_batched_step_is_bit_identical_at_default_shape(use_sr, use_descriptor_mask):
    # at dim 64, folding rows of different samples into one matrix
    # product would already round differently from the per-slot graphs
    samples = gen_dataset(SynthSpec(p_positive=0.3, seed=2), 12)
    data = prepare_training_data(samples)
    cfg = ModelConfig(vocab_size=len(data.vocab))
    model_a, model_b = Model(cfg, seed=1), Model(cfg, seed=1)
    opt_a, opt_b = AdamW(model_a.params), AdamW(model_b.params)
    pairs = list(zip(samples[:8], data.docs[:8]))
    assert len({len(doc.seq) for _, doc in pairs}) == 1   # one text group
    flags = dict(use_sr=use_sr, use_descriptor_mask=use_descriptor_mask)
    for step in range(2):
        row = train_step(model_a, opt_a, pairs, data.factors, step=step, seed=3, **flags)
        want = slot_by_slot(model_b, opt_b, pairs, data.factors, step, 3, **flags)
        opt_b.step()
        assert row == want
    assert_same_state(model_a, opt_a, model_b, opt_b)


@pytest.fixture(scope="module")
def property_world():
    return small_world(n=10, seed=4)


@settings(max_examples=12, deadline=None)
@given(batch=st.integers(min_value=1, max_value=5), seed=st.integers(min_value=0, max_value=2**16))
def test_batched_step_equals_per_slot_for_any_batch(property_world, batch, seed):
    samples, data, model = property_world
    cfg = model.cfg
    pick = np.random.default_rng(seed).choice(len(samples), size=batch, replace=False)
    pairs = [(samples[i], data.docs[i]) for i in pick]
    model_a, model_b = Model(cfg, seed=seed), Model(cfg, seed=seed)
    opt_a, opt_b = AdamW(model_a.params), AdamW(model_b.params)
    step = seed % 5
    row = train_step(model_a, opt_a, pairs, data.factors, step=step, seed=seed)
    assert row == slot_by_slot(model_b, opt_b, pairs, data.factors, step, seed)
    opt_b.step()
    assert_same_state(model_a, opt_a, model_b, opt_b)


# slot order: zero-weight and weighted maps interleaved, or one kind only
SR_BATCHES = {"mixed": "0110100", "all-zero": "0000", "all-weighted": "1111"}


@pytest.mark.parametrize("pattern", SR_BATCHES.values(), ids=SR_BATCHES.keys())
def test_sr_head_runs_only_on_weighted_slots_and_moves_no_bit(monkeypatch, pattern):
    samples, data, model_a = small_world(n=24)
    pools = {w: [i for i, s in enumerate(samples) if (s.attention.max() > 0) == w] for w in (False, True)}
    pick = [pools[c == "1"].pop() for c in pattern]
    pairs = [(samples[i], data.docs[i]) for i in pick]
    sr_batches = []
    sr_head = Model.sr_head

    def recording_sr_head(self, low):
        sr_batches.append(low.shape[0])
        return sr_head(self, low)

    monkeypatch.setattr(Model, "sr_head", recording_sr_head)
    model_b = Model(model_a.cfg, seed=0)
    opt_a, opt_b = AdamW(model_a.params), AdamW(model_b.params)
    for step in range(2):
        sr_batches.clear()
        row = train_step(model_a, opt_a, pairs, data.factors, step=step, seed=5)
        # an all-zero batch keeps slot 0, so the sr.* parameters still get a gradient
        assert sr_batches == [max(pattern.count("1"), 1)]
        if "1" not in pattern:
            sr_grads = {name: p.grad for name, p in model_a.params.items() if name.startswith("sr.")}
            assert sr_grads and all(g is not None and not g.any() for g in sr_grads.values())
        assert row == slot_by_slot(model_b, opt_b, pairs, data.factors, step, 5)
        opt_b.step()
    assert_same_state(model_a, opt_a, model_b, opt_b)


@pytest.mark.parametrize("value, kind", [(np.nan, "NaN"), (np.inf, "infinite"), (-np.inf, "infinite"),
                                         (-0.25, "negative")])
def test_a_broken_sr_weight_map_is_refused_naming_the_sample(value, kind):
    samples, data, model = small_world(n=4)
    attention = samples[2].attention.copy()
    attention[5, 7] = value
    pairs = list(zip(samples, data.docs))
    pairs[2] = (dataclasses.replace(samples[2], attention=attention), data.docs[2])
    before = {name: p.data.copy() for name, p in model.params.items()}
    with pytest.raises(ValueError, match=re.escape(f"sample {samples[2].id}: SR weight map has a {kind} entry")):
        train_step(model, AdamW(model.params), pairs, data.factors, step=0, seed=0)
    for name, p in model.params.items():
        assert np.array_equal(p.data, before[name]), name


# Reports of two lengths run the text path in two groups, so the text
# parameters sum their gradients group by group, not slot by slot:
# float32 round-off relative to each parameter's largest gradient
# (measured worst 2e-7, txtdec.0.attn.bv).
MIXED_LENGTH_RTOL = 1e-5
TEXT_PARAMS = ("tok_embed.", "fuse.", "txtdec.")


def test_mixed_length_batch_matches_per_slot_within_tolerance():
    samples, data, model_a = small_world(n=8)
    # every other doc keeps only its original report: two lengths, interleaved
    docs = [
        doc if i % 2 else annotate(tokenize(sample.report, data.vocab), DEFAULT_ENTITY_LEXICON, beta=DEFAULT_BETA)
        for i, (sample, doc) in enumerate(zip(samples, data.docs))
    ]
    assert len({len(doc.seq) for doc in docs}) == 2
    pairs = list(zip(samples, docs))
    model_b = Model(model_a.cfg, seed=0)
    row = train_step(model_a, AdamW(model_a.params), pairs, data.factors, step=0, seed=0)
    assert row == slot_by_slot(model_b, AdamW(model_b.params), pairs, data.factors, 0, 0)
    text = 0
    for name, p in model_a.params.items():
        want = model_b.params[name].grad
        if name.startswith(TEXT_PARAMS):
            text += 1
            atol = MIXED_LENGTH_RTOL * float(np.abs(want).max())
            np.testing.assert_allclose(p.grad, want, rtol=0, atol=atol, err_msg=name)
        else:
            assert np.array_equal(p.grad, want), name
    assert text > 0


def test_pretrain_runs_are_bit_identical():
    samples, data, model_a = small_world(n=12)
    model_b = Model(model_a.cfg, seed=0)
    cfg = TrainConfig(steps=4, batch_size=3, seed=0, log_every=0)
    rows_a = pretrain(model_a, samples, data, cfg)
    rows_b = pretrain(model_b, samples, data, cfg)
    for ra, rb in zip(rows_a, rows_b):
        for key in ("l_mim", "l_mlm", "l_sr", "total"):
            assert ra[key] == rb[key]
    for name in model_a.params:
        assert np.array_equal(model_a.params[name].data, model_b.params[name].data)


def test_generated_and_reloaded_corpus_train_alike(tmp_path):
    # in-memory samples and the same samples read back from disk give the
    # same low-res inputs and the same parameters after a few steps
    samples, data, model_a = small_world(n=16, seed=3)
    save_dataset(samples, tmp_path)
    reloaded = load_dataset(tmp_path)
    for s, r in zip(samples, reloaded):
        assert downsample(s.image).tobytes() == downsample(r.image).tobytes()
    model_b = Model(model_a.cfg, seed=3)
    cfg = TrainConfig(steps=4, batch_size=4, seed=3, log_every=0)
    pretrain(model_a, samples, data, cfg)
    pretrain(model_b, reloaded, data, cfg)
    for name in model_a.params:
        assert np.array_equal(model_a.params[name].data, model_b.params[name].data), name


def test_pretrain_loss_goes_down():
    samples, data, model = small_world(n=16)
    cfg = TrainConfig(steps=60, batch_size=4, seed=0, log_every=0)
    rows = pretrain(model, samples, data, cfg)
    first = np.mean([r["total"] for r in rows[:5]])
    last = np.mean([r["total"] for r in rows[-5:]])
    assert last < first


def test_pretrain_aborts_on_poisoned_params():
    samples, data, model = small_world(n=8)
    poisoned = model.params["patch_embed.w"].data.copy()
    poisoned[0, 0] = np.nan
    model.params["patch_embed.w"].assign_(poisoned)
    with pytest.raises(TrainingError, match="step 0"):
        pretrain(model, samples, data, TrainConfig(steps=1, batch_size=2, log_every=0))


def test_metrics_rows_have_contract_fields():
    samples, data, model = small_world(n=8)
    rows = pretrain(model, samples, data, TrainConfig(steps=2, batch_size=2, log_every=0))
    assert [r["step"] for r in rows] == [0, 1]
    for row in rows:
        assert {"step", "l_mim", "l_mlm", "l_sr", "total", "wall_ms"} <= set(row)
        assert row["wall_ms"] > 0


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bitexact(tmp_path):
    samples, data, model = small_world(n=8)
    opt = AdamW(model.params)
    pretrain(model, samples, data, TrainConfig(steps=3, batch_size=2, log_every=0), opt=opt)
    save_checkpoint(tmp_path / "ck", model, opt, step=3)

    model2 = Model(model.cfg, seed=99)
    opt2 = AdamW(model2.params)
    step = load_checkpoint(tmp_path / "ck", model2, opt2)
    assert step == 3
    assert opt2.t == opt.t
    for name in model.params:
        assert np.array_equal(model.params[name].data, model2.params[name].data)
        assert np.array_equal(opt.m[name], opt2.m[name])
        assert np.array_equal(opt.v[name], opt2.v[name])


def test_resume_equals_straight_run(tmp_path):
    samples, data, model_a = small_world(n=12)
    cfg6 = TrainConfig(steps=6, batch_size=3, seed=0, log_every=0)
    rows_a = pretrain(model_a, samples, data, cfg6)

    model_b = Model(model_a.cfg, seed=0)
    opt_b = AdamW(model_b.params)
    pretrain(model_b, samples, data, TrainConfig(steps=3, batch_size=3, seed=0, log_every=0), opt=opt_b)
    save_checkpoint(tmp_path / "ck", model_b, opt_b, step=3)

    model_c = Model(model_a.cfg, seed=42)
    opt_c = AdamW(model_c.params)
    start = load_checkpoint(tmp_path / "ck", model_c, opt_c)
    rows_c = pretrain(model_c, samples, data, cfg6, opt=opt_c, start_step=start)

    for ra, rc in zip(rows_a[3:], rows_c):
        for key in ("l_mim", "l_mlm", "l_sr", "total"):
            assert ra[key] == rc[key]
    for name in model_a.params:
        assert np.array_equal(model_a.params[name].data, model_c.params[name].data)


def test_load_rejects_truncated_blob(tmp_path):
    samples, data, model = small_world(n=4)
    opt = AdamW(model.params)
    save_checkpoint(tmp_path / "ck", model, opt, step=0)
    blob = (tmp_path / "ck" / "checkpoint.bin").read_bytes()
    (tmp_path / "ck" / "checkpoint.bin").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(tmp_path / "ck", Model(model.cfg, seed=0), AdamW(Model(model.cfg, seed=0).params))


TINY_MODEL = ModelConfig(
    image_size=16, patch=8, dim=8, encoder_depth=1, decoder_depth=1, text_decoder_depth=1,
    heads=2, max_text_len=16, vocab_size=16, sr_channels=2, patch_mask_ratio=0.5,
)


def _state(model, opt) -> list:
    return [a.copy() for name, p in model.params.items() for a in (p.data, opt.m[name], opt.v[name])]


def _damaged(blob: bytes, rng):
    """``blob`` with one bit flipped in each of its first 4 KiB and at 200
    later bytes, then cut at 50 lengths."""
    for i in [*range(4096), *rng.choice(np.arange(4096, len(blob)), size=200, replace=False)]:
        flipped = bytearray(blob)
        flipped[i] ^= 1 << (int(i) % 8)
        yield flipped
    for n in np.linspace(0, len(blob) - 1, 50).astype(int):
        yield blob[:n]


def test_checkpoint_damage_raises_and_mutates_nothing(tmp_path):
    # every flipped bit and every truncation of every file in the
    # directory must be refused before anything is restored
    model = Model(TINY_MODEL, seed=0)
    opt = AdamW(model.params, OptimizerConfig(lr=1e-3))
    rng = np.random.default_rng(0)
    for p in model.params.values():
        p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype)
    opt.step()
    ckpt = tmp_path / "ck"
    save_checkpoint(ckpt, model, opt, step=7)
    assert sorted(f.name for f in ckpt.iterdir()) == ["checkpoint.bin"]
    first = (ckpt / "checkpoint.bin").read_bytes()
    save_checkpoint(ckpt, model, opt, step=7)
    assert (ckpt / "checkpoint.bin").read_bytes() == first
    assert sorted(f.name for f in ckpt.iterdir()) == ["checkpoint.bin"]
    saved = read_checkpoint(ckpt)
    assert (saved.header["model"], saved.header["opt"], saved.header["step"]) == (TINY_MODEL, OptimizerConfig(lr=1e-3), 7)

    target = Model(TINY_MODEL, seed=1)
    target_opt = AdamW(target.params, OptimizerConfig(lr=1e-3))
    before = _state(target, target_opt)
    n_loads = 0
    for path in sorted(ckpt.iterdir()):
        blob = path.read_bytes()
        for data in _damaged(blob, rng):
            path.write_bytes(data)
            with pytest.raises(ValueError):
                load_checkpoint(ckpt, target, target_opt)
            n_loads += 1
        path.write_bytes(blob)
    assert n_loads == 4096 + 200 + 50
    # a load that got past its checks would have left the saved state behind
    assert target_opt.t == 0
    assert all(np.array_equal(a, b) for a, b in zip(_state(target, target_opt), before))
    assert load_checkpoint(ckpt, target, target_opt) == 7
    assert target_opt.t == 1
    assert all(np.array_equal(a, b) for a, b in zip(_state(target, target_opt), _state(model, opt)))


def test_checkpoint_from_before_one_file_format_does_not_load(tmp_path):
    ckpt = tmp_path / "old"
    ckpt.mkdir()
    (ckpt / "manifest.tsv").write_text("#meta\tstep=3\tadam_t=3\tbytes=4\tcrc32=0\n")
    (ckpt / "params.bin").write_bytes(bytes(4))
    (ckpt / "config.txt").write_text("dim=8\n")
    model = Model(TINY_MODEL, seed=0)
    with pytest.raises(OSError, match="checkpoint.bin"):
        load_checkpoint(ckpt, model, AdamW(model.params))
    with pytest.raises(OSError, match="checkpoint.bin"):
        read_checkpoint(ckpt)


def _rewrite_header(path, edit) -> None:
    """Apply ``edit`` to a checkpoint's JSON header and record a matching crc32."""
    blob = path.read_bytes()
    start = blob.index(b"\n") + 1
    end = blob.index(b"\n", start) + 1
    header = json.loads(blob[start:end])
    edit(header)
    rest = (json.dumps(header) + "\n").encode() + blob[end:]
    path.write_bytes(f"pairmask-checkpoint crc32={zlib.crc32(rest):08x}\n".encode() + rest)


@pytest.mark.parametrize("key, edit, named", [
    ("model", lambda cfg: cfg.update(depth=3), "unknown ['depth']"),
    ("model", lambda cfg: cfg.pop("patch_mask_ratio"), "missing ['patch_mask_ratio']"),
    ("opt", lambda cfg: cfg.pop("lr"), "missing ['lr']"),
])
def test_checkpoint_config_fields_must_match(tmp_path, key, edit, named):
    model = Model(TINY_MODEL, seed=0)
    opt = AdamW(model.params)
    save_checkpoint(tmp_path, model, opt, step=0)
    _rewrite_header(tmp_path / "checkpoint.bin", lambda header: edit(header[key]))
    with pytest.raises(ValueError, match=re.escape(f"{key} config fields do not match")) as exc:
        read_checkpoint(tmp_path)
    assert named in str(exc.value) and "checkpoint.bin" in str(exc.value)
    fresh = Model(TINY_MODEL, seed=1)
    with pytest.raises(ValueError, match=re.escape(named)):
        load_checkpoint(tmp_path, fresh, AdamW(fresh.params))


def test_load_refuses_configs_other_than_the_model_and_optimizer(tmp_path):
    # a library caller's model and optimizer must match the saved configs;
    # one error names every differing field, and nothing is restored
    model = Model(TINY_MODEL, seed=0)
    save_checkpoint(tmp_path, model, AdamW(model.params, OptimizerConfig(lr=1e-3)), step=4)
    masked = dataclasses.replace(TINY_MODEL, patch_mask_ratio=0.75)
    ratio, lr = "model.patch_mask_ratio: checkpoint 0.5 vs 0.75", "opt.lr: checkpoint 0.001 vs 0.0015"
    cases = [
        (masked, OptimizerConfig(), [ratio, lr]),
        (masked, OptimizerConfig(lr=1e-3), [ratio]),
        (TINY_MODEL, OptimizerConfig(), [lr]),
        (TINY_MODEL, OptimizerConfig(lr=1e-3, weight_decay=0.0), ["opt.weight_decay: checkpoint 0.05 vs 0.0"]),
    ]
    for cfg, ocfg, named in cases:
        target = Model(cfg, seed=1)
        opt = AdamW(target.params, ocfg)
        before = _state(target, opt)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(tmp_path, target, opt)
        assert str(exc.value) == "load_checkpoint: " + "; ".join(named)
        assert opt.t == 0 and all(np.array_equal(a, b) for a, b in zip(_state(target, opt), before))
    target = Model(TINY_MODEL, seed=1)
    assert load_checkpoint(tmp_path, target, AdamW(target.params, OptimizerConfig(lr=1e-3))) == 4


def test_load_rejects_shape_mismatch_listing_names(tmp_path):
    samples, data, model = small_world(n=4)
    opt = AdamW(model.params)
    save_checkpoint(tmp_path / "ck", model, opt, step=0)
    other_cfg = ModelConfig(**{**model.cfg.__dict__, "dim": 16})
    other = Model(other_cfg, seed=0)
    with pytest.raises(ValueError, match="patch_embed.w"):
        load_checkpoint(tmp_path / "ck", other, AdamW(other.params))


def test_loaded_adam_moments_are_fresh_writable_arrays(tmp_path):
    samples, data, model = small_world(n=4)
    opt = AdamW(model.params)
    pretrain(model, samples, data, TrainConfig(steps=1, batch_size=2, seed=0, log_every=0), opt=opt)
    save_checkpoint(tmp_path / "ck", model, opt, step=1)
    fresh = Model(model.cfg, seed=1)
    fresh_opt = AdamW(fresh.params)
    load_checkpoint(tmp_path / "ck", fresh, fresh_opt)
    moments = list(fresh_opt.m.values()) + list(fresh_opt.v.values())
    params = [p.data for p in fresh.params.values()]
    for i, buf in enumerate(moments):
        assert buf.flags.writeable
        others = params + moments[:i] + moments[i + 1 :]
        assert not any(np.may_share_memory(buf, other) for other in others)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# Batched rows go through one BLAS call per layer instead of one per
# sample, which may round differently at float32; features and logits
# are O(1).
BATCH_ATOL = 1e-5


def per_sample_eval(model, samples, data, seed):
    """The per-sample eval loop batching replaced: accuracy, and logits per scored doc."""
    cfg = model.cfg
    correct = total = 0
    logits = {}
    for i, (sample, doc) in enumerate(zip(samples, data.docs)):
        if not any(s.polarity == POLARITY_OTHER and s.token_indices for s in doc.spans):
            continue
        low = downsample(sample.image, cfg.sr_factor).astype(np.float32)
        f_v = model.encode_image(patchify(low, cfg.patch), range(cfg.n_patches))
        rng = np.random.default_rng([seed, STREAM_EVAL, i])
        tplan = plan_text_mask(doc.seq, doc.spans, rng, ratio=cfg.text_mask_ratio)
        masked = apply_text_mask(doc.seq, tplan, MASK_ID)
        logits[i] = model.decode_text(model.mscf_fuse(f_v, model.embed_text(masked)).f_f).data
        pred = logits[i].argmax(axis=1)
        for pos in tplan.descriptor_oth:
            total += 1
            correct += int(pred[pos] == doc.seq.ids[pos])
    return correct / total, logits


def two_length_world(n):
    """A small world where every other doc keeps only its original report:
    two sequence lengths, so two length groups in descriptor eval."""
    samples, data, model = small_world(n=n)
    docs = [
        doc if i % 2 else annotate(tokenize(sample.report, data.vocab), DEFAULT_ENTITY_LEXICON, beta=DEFAULT_BETA)
        for i, (sample, doc) in enumerate(zip(samples, data.docs))
    ]
    assert len({len(doc.seq) for doc in docs}) == 2
    return samples, dataclasses.replace(data, docs=docs), model


SMALL_CHUNK = 8


def test_batched_eval_matches_per_sample_loop(monkeypatch):
    monkeypatch.setattr(trainer, "EVAL_CHUNK", SMALL_CHUNK)
    samples, data, model = two_length_world(n=3 * SMALL_CHUNK)
    docs = data.docs
    want_acc, want_logits = per_sample_eval(model, samples, data, seed=3)
    lengths = {len(doc.seq) for doc in docs}
    assert max(sum(len(docs[i].seq) == n for i in want_logits) for n in lengths) > SMALL_CHUNK

    calls = []
    original = Model.decode_text

    def recording(self, f_f):
        out = original(self, f_f)
        calls.append(out.data)
        return out

    monkeypatch.setattr(Model, "decode_text", recording)
    got_acc = eval_descriptor_accuracy(model, samples, data, seed=3)
    assert got_acc == want_acc
    for n in lengths:
        # within a length group, chunks keep the input order
        got = np.concatenate([c for c in calls if c.shape[-2] == n])
        want = np.stack([want_logits[i] for i in sorted(want_logits) if len(docs[i].seq) == n])
        np.testing.assert_allclose(got, want, rtol=0, atol=BATCH_ATOL)


def test_extract_features_matches_per_sample_loop(monkeypatch):
    monkeypatch.setattr(trainer, "EVAL_CHUNK", SMALL_CHUNK)
    samples, data, model = small_world(n=SMALL_CHUNK + 5)
    feats = extract_features(model, samples)
    want = np.stack([
        model.forward_finetune(downsample(s.image, model.cfg.sr_factor).astype(np.float32)).data
        for s in samples
    ]).astype(np.float64)
    assert feats.shape == want.shape and feats.dtype == np.float64
    np.testing.assert_allclose(feats, want, rtol=0, atol=BATCH_ATOL)


def test_eval_is_bit_exact_in_every_chunking(monkeypatch):
    # 40 samples: chunks of 3 and 32 leave a partial chunk, in both length
    # groups of descriptor eval and in feature extraction
    samples, data, model = two_length_world(n=40)
    lengths = sorted({len(doc.seq) for doc in data.docs})
    calls = []
    original = Model.decode_text

    def recording(self, f_f):
        out = original(self, f_f)
        calls.append(out.data)
        return out

    monkeypatch.setattr(Model, "decode_text", recording)
    runs = []
    for chunk in (3, 8, 32, len(samples)):
        monkeypatch.setattr(trainer, "EVAL_CHUNK", chunk)
        calls.clear()
        acc = eval_descriptor_accuracy(model, samples, data, seed=5)
        assert max(len(c) for c in calls) <= chunk
        # within a length group, chunks keep the input order
        logits = [np.concatenate([c for c in calls if c.shape[-2] == n]) for n in lengths]
        runs.append((extract_features(model, samples), acc, logits))
    feats, acc, logits = runs[0]
    for other_feats, other_acc, other_logits in runs[1:]:
        assert np.array_equal(other_feats, feats)
        assert other_acc == acc
        assert all(np.array_equal(a, b) for a, b in zip(other_logits, logits))


def test_misaligned_inputs_are_refused_naming_both_lengths():
    samples, data, model = small_world(n=6)
    with pytest.raises(ValueError, match="5 samples and 6 prepared docs misaligned"):
        eval_descriptor_accuracy(model, samples[:5], data)
    fewer = dataclasses.replace(data, docs=data.docs[:5])
    with pytest.raises(ValueError, match="6 samples and 5 prepared docs misaligned"):
        eval_descriptor_accuracy(model, samples, fewer)
    with pytest.raises(ValueError, match="pretrain: 6 samples and 5 prepared docs misaligned"):
        pretrain(model, samples, fewer, TrainConfig(steps=1, batch_size=2, seed=0, log_every=0))
    with pytest.raises(ValueError, match="linear_probe: 5 feature rows and 6 samples misaligned"):
        linear_probe(np.zeros((5, 4)), samples, ["x"])


def test_forward_only_evaluation_builds_no_graph(monkeypatch):
    samples, data, model = small_world(n=6)
    bundles = []
    original = Model.mscf_fuse

    def recording(self, f_v, e_t):
        bundles.append(original(self, f_v, e_t))
        return bundles[-1]

    monkeypatch.setattr(Model, "mscf_fuse", recording)
    eval_descriptor_accuracy(model, samples, data)
    ModelAttention(model, data.vocab)(samples[0])
    assert bundles and all(b.f_f._parents == () and b.f_v_local._parents == () for b in bundles)
    assert all(p.grad is None for p in model.params.values())


def test_model_attention_leaves_the_training_graph_intact():
    samples, data, model = small_world(n=4)
    provider = ModelAttention(model, data.vocab)
    total = sample_losses(
        model, samples[0], data.docs[0], data.factors,
        np.random.default_rng(0), np.random.default_rng(1), attention=provider,
    ).total
    ad.backward(total)
    assert all(model.params[name].grad is not None for name in ("patch_embed.w", "enc.0.attn.wq", "sr.conv1.w"))


def test_eval_descriptor_accuracy_bounded_and_deterministic():
    samples, data, model = small_world(n=24)
    a = eval_descriptor_accuracy(model, samples, data, seed=0)
    b = eval_descriptor_accuracy(model, samples, data, seed=0)
    assert 0.0 <= a <= 1.0
    assert a == b


def test_extract_features_shape():
    samples, data, model = small_world(n=6)
    feats = extract_features(model, samples)
    assert feats.shape == (6, model.cfg.dim)
    assert feats.dtype == np.float64


def probe_samples(n, seed):
    return gen_dataset(SynthSpec(p_positive=0.5, seed=seed), n)


def test_linear_probe_finds_planted_signal():
    samples = probe_samples(120, seed=1)
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(120, 16))
    y = np.array([s.labels["pneumonia"] == LABEL_PRESENT for s in samples], dtype=float)
    feats[:, 3] += 5.0 * y
    result = linear_probe(feats, samples, ["pneumonia"], seed=0)
    assert result.per_entity["pneumonia"] > 0.9
    assert result.n_entities == 1


def test_linear_probe_shuffled_labels_near_chance():
    samples = probe_samples(120, seed=1)
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(120, 16))
    y = np.array([s.labels["pneumonia"] == LABEL_PRESENT for s in samples], dtype=float)
    feats[:, 3] += 5.0 * y
    result = linear_probe(feats, samples, ["pneumonia"], seed=0, shuffle_labels=True)
    assert 0.2 <= result.per_entity["pneumonia"] <= 0.8


def test_linear_probe_refuses_a_train_frac_outside_0_1():
    samples = probe_samples(20, seed=1)
    feats = np.random.default_rng(2).normal(size=(20, 4))
    for frac in (-0.5, 1.5):
        with pytest.raises(ValueError, match=re.escape(f"train_frac {frac}")):
            linear_probe(feats, samples, ["pneumonia"], train_frac=frac)


def test_linear_probe_refuses_features_that_are_not_2d():
    samples = probe_samples(40, seed=1)
    rng = np.random.default_rng(2)
    for feats in (rng.normal(size=40), rng.normal(size=(40, 4, 1))):
        with pytest.raises(ValueError, match=re.escape(f"features must be 2-D (samples, dims), got shape {feats.shape}")):
            linear_probe(feats, samples, ["pneumonia"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_linear_probe_names_the_first_non_finite_feature(bad):
    samples = probe_samples(40, seed=1)
    feats = np.random.default_rng(2).normal(size=(40, 4))
    feats[30, 0] = feats[7, 2] = bad
    with pytest.raises(ValueError, match=re.escape(f"features[7, 2] is {bad}, not finite")):
        linear_probe(feats, samples, ["pneumonia"])


def _logistic_objective(x, y, wb, l2=1e-3):
    """The probe's objective: mean log-loss plus ``0.5 * l2 * |w|^2``."""
    z = x @ wb[:-1] + wb[-1]
    return np.mean((1.0 - y) * z + np.logaddexp(0.0, -z)) + 0.5 * l2 * (wb[:-1] @ wb[:-1])


@pytest.fixture(scope="module")
def probe_world():
    """A balanced corpus, its entities and three feature sets: a planted
    label signal, seeded noise and a random-init model's features."""
    samples = probe_samples(160, seed=4)
    entities = sorted({e for s in samples for e in s.labels})
    y = np.array([[s.labels.get(e) == LABEL_PRESENT for e in entities] for s in samples], dtype=float)
    rng = np.random.default_rng(5)
    planted = rng.normal(size=(160, 16))
    planted[:, : len(entities)] += 3.0 * y
    feats = {
        "planted": planted,
        "noise": rng.normal(size=(160, 16)),
        "random-init": extract_features(Model(TEST_MODEL, seed=6), samples),
    }
    return samples, entities, feats


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("kind", ["planted", "noise", "random-init"])
def test_newton_fit_matches_the_lbfgs_reference(probe_world, monkeypatch, kind, shuffle):
    # per entity, the Newton fit reaches the reference's objective and the
    # probe scores the same accuracies
    samples, entities, feats = probe_world
    gaps = []

    def both(x, y):
        wb = _fit_logistic(x, y)
        gaps.append(_logistic_objective(x, y, wb) - _logistic_objective(x, y, lbfgs_fit_logistic(x, y)))
        return wb

    monkeypatch.setattr(trainer, "_fit_logistic", both)
    got = linear_probe(feats[kind], samples, entities, seed=0, shuffle_labels=shuffle)
    monkeypatch.setattr(trainer, "_fit_logistic", lbfgs_fit_logistic)
    want = linear_probe(feats[kind], samples, entities, seed=0, shuffle_labels=shuffle)
    assert len(gaps) == got.n_entities >= 3
    assert max(gaps) <= 1e-12
    assert got.per_entity == want.per_entity


def test_newton_fit_meets_its_gradient_tolerance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(120, 8))
    y = (x[:, 0] + rng.normal(size=120) > 0).astype(float)
    wb = _fit_logistic(x, y)
    xb = np.hstack([x, np.ones((120, 1))])
    grad = xb.T @ (1.0 / (1.0 + np.exp(-(xb @ wb))) - y) / 120 + 1e-3 * np.r_[wb[:8], 0.0]
    assert np.abs(grad).max() < NEWTON_TOL


@pytest.mark.parametrize("cap, value, steps", [("NEWTON_STEPS", 1, 1), ("NEWTON_HALVINGS", 0, 0)])
def test_linear_probe_names_the_entity_whose_fit_does_not_converge(monkeypatch, cap, value, steps):
    # a step cap reached, or a step that no halving lets descend
    samples = probe_samples(40, seed=1)
    feats = np.random.default_rng(2).normal(size=(40, 4))
    monkeypatch.setattr(trainer, cap, value)
    with pytest.raises(ValueError, match=rf"entity 'pneumonia': no fit: max \|gradient\| \S+ after {steps} Newton steps"):
        linear_probe(feats, samples, ["pneumonia"])


_SHUFFLED_PROBE = """
import numpy as np
from pairmask.synthgen import SynthSpec, gen_dataset
from pairmask.trainer import linear_probe
samples = gen_dataset(SynthSpec(p_positive=0.5, seed=1), 80)
entities = sorted({e for s in samples for e in s.labels})
feats = np.random.default_rng(2).normal(size=(80, 8))
r = linear_probe(feats, samples, entities, seed=0, shuffle_labels=True)
print(sorted(r.per_entity.items()), r.macro_accuracy)
"""


def _run_python(code: str, **env) -> str:
    """Standard output of ``code`` run by a fresh interpreter on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, **env, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_linear_probe_shuffle_is_the_same_in_every_process():
    assert _run_python(_SHUFFLED_PROBE, PYTHONHASHSEED="1") == _run_python(_SHUFFLED_PROBE, PYTHONHASHSEED="2")


def test_no_scipy_module_loads_for_features_or_the_probe():
    # numpy is the only runtime dependency, and urllib.request is deferred
    # to its one caller: importing the CLI, generating a corpus, extracting
    # features and probing them must load no scipy module at all
    code = ("import sys, pairmask.cli, pairmask.trainer; "
            "print('urllib.request' in sys.modules); "
            "from pairmask.model import Model, ModelConfig; "
            "from pairmask.synthgen import SynthSpec, gen_dataset; "
            "samples = gen_dataset(SynthSpec(canvas=32, p_positive=0.5, seed=0), 40); "
            "cfg = ModelConfig(image_size=16, patch=8, dim=8, encoder_depth=1, decoder_depth=1, "
            "text_decoder_depth=1, heads=2, max_text_len=16, vocab_size=16, sr_channels=2); "
            "feats = pairmask.trainer.extract_features(Model(cfg, seed=0), samples); "
            "print(feats.shape); "
            "entities = sorted({e for s in samples for e in s.labels}); "
            "print(pairmask.trainer.linear_probe(feats, samples, entities).n_entities > 0); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code).split("\n") == ["False", "(40, 8)", "True", "[]", ""]


_PAGE_FAULTS = """
import dataclasses, resource
from pairmask import synthgen, trainer
from pairmask.model import Model, ModelConfig
samples = synthgen.gen_dataset(synthgen.SynthSpec(seed=0), 64)
data = trainer.prepare_training_data(samples)
model = Model(ModelConfig(vocab_size=len(data.vocab)), seed=0)
opt = trainer.AdamW(model.params)
tc = trainer.TrainConfig(steps=3, batch_size=8, seed=0, log_every=0)
batch = samples[:32]
batch_data = trainer.prepare_training_data(batch)

def evaluate():
    trainer.extract_features(model, batch)
    trainer.eval_descriptor_accuracy(model, batch, batch_data)

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

trainer.pretrain(model, samples, data, tc, opt=opt)
evaluate()
start = faults()
trainer.pretrain(model, samples, data, dataclasses.replace(tc, steps=13), opt=opt, start_step=3)
trained = faults()
for _ in range(3):
    evaluate()
print(trained - start, faults() - trained)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the engine pins glibc's malloc thresholds only",
)
def test_a_fresh_process_does_not_page_fault_its_buffers_back_in():
    # at glibc's dynamic thresholds a default-shape train step page-faulted
    # over a thousand times, its freed buffers unmapped and mapped again
    train, evaluate = map(int, _run_python(_PAGE_FAULTS).split())
    assert train <= 10 * 50, f"{train} minor page faults in 10 train steps"
    assert evaluate <= 6 * 50, f"{evaluate} minor page faults in 6 eval calls of 32 samples"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps] == ["numpy"]


def test_linear_probe_skips_single_class_entities():
    def fake(i, present):
        return SynthSample(
            id=f"s{i}", report="there is no edema.",
            image=np.zeros((4, 4), dtype=np.float32),
            lesion_mask=np.zeros((4, 4), dtype=np.float32),
            attention=np.zeros((4, 4), dtype=np.float32),
            labels={"edema": LABEL_PRESENT if present else LABEL_ABSENT},
        )

    samples = [fake(i, False) for i in range(10)]
    feats = np.random.default_rng(0).normal(size=(10, 4))
    with pytest.raises(ValueError, match="single-class"):
        linear_probe(feats, samples, ["edema"], seed=0)


def test_model_attention_provider_contract():
    samples, data, model = small_world(n=4)
    provider = ModelAttention(model, data.vocab)
    amap = provider(samples[0])
    assert amap.shape == samples[0].image.shape
    assert amap.min() >= 0.0 and amap.max() <= 1.0
    # constant within each patch cell
    cell = samples[0].image.shape[0] // model.cfg.grid
    block = amap[:cell, :cell]
    assert np.all(block == block[0, 0])
