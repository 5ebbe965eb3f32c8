"""Acceptance suite: ten system-level properties, one test each.

Every test prints a single PASS/FAIL line with its headline numbers and
elapsed time, emitted with capture disabled so the lines stay visible in
a plain verbose run. Statistical checks run on pinned seeds, so each
test is deterministic; the chi-square calibration behind criterion 2 was
verified by Monte Carlo against the stated null before the seeds were
frozen.
"""

import time

import numpy as np
import pytest
from reference_ops import grad_check, matmul, mse, softmax
from scipy import stats as sps

from pairmask import autodiff as ad
from pairmask.corpus import (
    DEFAULT_ENTITY_LEXICON,
    Vocabulary,
    annotate,
    compute_stats,
    tokenize,
)
from pairmask.distill import distill_rule_based, parse_distilled
from pairmask.losses import compute_rebalance, loss_mim, loss_sr, unit_factors
from pairmask.masking import patchify, plan_patch_mask, plan_text_mask, unpatchify_t
from pairmask.model import Model, ModelConfig
from pairmask.synthgen import SynthSample, SynthSpec, gen_dataset
from pairmask.trainer import (
    STREAM_IMAGE,
    STREAM_TEXT,
    AdamW,
    TrainConfig,
    eval_descriptor_accuracy,
    extract_features,
    linear_probe,
    load_checkpoint,
    prepare_training_data,
    pretrain,
    sample_losses,
    save_checkpoint,
)


def _report(capsys, tag: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"\nacceptance {tag}: {status} {detail} [{elapsed:.1f}s]", flush=True)


# Shared desk-scale setup: a 20:1 imbalanced corpus and a small model
# shape that trains in tens of milliseconds per step.
BASE_MODEL = dict(
    image_size=32, patch=8, dim=32, encoder_depth=2, decoder_depth=1,
    text_decoder_depth=1, heads=4, max_text_len=64, sr_channels=4,
)


@pytest.fixture(scope="module")
def world():
    samples = gen_dataset(SynthSpec(canvas=64, p_positive=1.0 / 21.0, seed=7), 256)
    data_rb = prepare_training_data(samples, lexicon=DEFAULT_ENTITY_LEXICON, beta=2)
    data_un = prepare_training_data(
        samples, lexicon=DEFAULT_ENTITY_LEXICON, beta=2, use_rebalance=False
    )
    cfg = ModelConfig(vocab_size=len(data_rb.vocab), **BASE_MODEL)
    return samples, data_rb, data_un, cfg


def test_c01_rebalance_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_ulp = 0.0
    all_exact = True
    for _ in range(1000):
        n_neg = int(rng.integers(0, 10_000))
        n_oth = int(rng.integers(1, 10_000))
        lam = float(rng.uniform(1e-6, 1.0))
        f = compute_rebalance(n_neg, n_oth, lambda_neg=lam)
        residual = f.lambda_neg_exact * n_neg + f.lambda_oth_exact * n_oth - (n_neg + n_oth)
        all_exact = all_exact and residual == 0
        total = lam * n_neg + f.lambda_oth * n_oth
        target = float(n_neg + n_oth)
        worst_ulp = max(worst_ulp, abs(total - target) / np.spacing(target))
    anchor = compute_rebalance(2000, 100, lambda_neg=0.05)
    ok = worst_ulp <= 1.0 and all_exact and anchor.lambda_oth == 20.0
    detail = f"max drift {worst_ulp:.3f} ulp, 20:1 lambda_oth {anchor.lambda_oth}"
    _report(capsys, "01 rebalance identity", ok, detail, t0)
    assert ok, detail


def _without_replacement_chisq(counts: np.ndarray, trials: int, k: int) -> float:
    """Pearson statistic for exact-count draws, corrected so that drawing
    exactly k of c positions per plan still references chi2 with c-1 df."""
    c = counts.size
    p = k / c
    s = np.sum((counts - trials * p) ** 2) / (trials * p * (1.0 - p))
    return s * (c - 1) / c


def test_c02_masking_contract(capsys):
    t0 = time.perf_counter()
    text = (
        "there is no focal consolidation and there is mild interval edema "
        "the heart size remains normal the lungs are otherwise clear with "
        "no acute osseous abnormality seen on the current portable view"
    )
    vocab = Vocabulary.from_texts([text])
    doc = annotate(tokenize(text, vocab), DEFAULT_ENTITY_LEXICON, beta=2)
    span_positions = {i for s in doc.spans for i in s.token_indices}
    assert span_positions, "masking contract needs a report with descriptor spans"
    candidates = [p for p in range(len(doc.seq)) if p not in span_positions]
    c_txt = len(candidates)
    k_txt = int(round(0.75 * c_txt))

    trials = 1000
    always_masked = 0
    counts_ok = True
    txt_counts = np.zeros(c_txt)
    pos_index = {p: j for j, p in enumerate(candidates)}
    for t in range(trials):
        plan = plan_text_mask(doc.seq, doc.spans, np.random.default_rng([2, t]))
        if span_positions <= set(plan.masked):
            always_masked += 1
        counts_ok = counts_ok and len(plan.random) == k_txt
        for p in plan.random:
            txt_counts[pos_index[p]] += 1

    n_patches, k_pat = 16, int(round(0.75 * 16))
    pat_counts = np.zeros(n_patches)
    for t in range(trials):
        plan = plan_patch_mask(n_patches, np.random.default_rng([21, t]))
        counts_ok = counts_ok and len(plan.masked) == k_pat
        pat_counts[list(plan.masked)] += 1

    s_txt = _without_replacement_chisq(txt_counts, trials, k_txt)
    s_pat = _without_replacement_chisq(pat_counts, trials, k_pat)
    q_txt = sps.chi2.ppf(0.99, c_txt - 1)
    q_pat = sps.chi2.ppf(0.99, n_patches - 1)
    ok = (
        always_masked == trials
        and counts_ok
        and s_txt < q_txt
        and s_pat < q_pat
    )
    detail = (
        f"descriptors masked {always_masked}/{trials}, counts exact, "
        f"chisq text {s_txt:.1f}<{q_txt:.1f}, patch {s_pat:.1f}<{q_pat:.1f}"
    )
    _report(capsys, "02 masking contract", ok, detail, t0)
    assert ok, detail


def _op_trial(name: str, rng: np.random.Generator) -> float:
    """One randomized finite-difference trial for a single operator."""
    r = int(rng.integers(2, 5))
    c = int(rng.integers(2, 6))

    def p(shape):
        return ad.parameter(rng.normal(size=shape), dtype=np.float64)

    def sq(t):
        return ad.sum_all(ad.mul(t, t))

    check = lambda f, inputs: grad_check(f, inputs, max_coords=3, rng=rng)

    if name in ("add", "sub", "mul"):
        # "sub" is a - b as add(a, scale(b, -1)); the trial keeps its slot
        # so every later op keeps its seed
        op = {"add": ad.add, "mul": ad.mul, "sub": lambda a, b: ad.add(a, ad.scale(b, -1.0))}[name]
        a, b = p((r, c)), p((c,) if rng.integers(2) else (r, c))
        return check(lambda _: sq(op(a, b)), [a, b])
    if name == "scale":
        a, s = p((r, c)), float(rng.normal())
        return check(lambda _: sq(ad.scale(a, s)), [a])
    if name == "matmul":
        k = int(rng.integers(2, 5))
        if rng.integers(2):
            a, b = p((2, r, k)), p((2, k, c))
        else:
            a, b = p((r, k)), p((k, c))
        return check(lambda _: sq(matmul(a, b)), [a, b])
    if name == "linear":
        k = int(rng.integers(2, 5))
        x = p(((2, r, c), (r, c), (c,))[int(rng.integers(3))])
        w, b = p((c, k)), p((k,))
        return check(lambda _: sq(ad.linear(x, w, b)), [x, w, b])
    if name == "attention":
        # self-attention, cross-attention with Lq != Lk, or either under
        # a leading batch axis
        heads, lk = int(rng.integers(1, 3)), r + 1
        d = heads * int(rng.integers(1, 4))
        lead = (2,) if rng.integers(2) else ()
        query = p(lead + (r, d))
        kv = query if rng.integers(2) else p(lead + (lk, d))
        weights = [p((d, d)) if i % 2 == 0 else p((d,)) for i in range(8)]
        # bk's true gradient is 0 (the softmax cancels a shift shared by
        # all keys), so a relative error on it measures round-off only;
        # tests/test_autodiff.py checks it in absolute terms
        checked = [query] + ([] if kv is query else [kv]) + weights[:3] + weights[4:]
        return check(lambda _: sq(ad.attention(query, kv, *weights, heads=heads)), checked)
    if name == "transpose":
        a = p((r, c, 2))
        return check(lambda _: sq(ad.transpose(a, (2, 0, 1))), [a])
    if name == "reshape":
        a = p((r, c))
        return check(lambda _: sq(ad.reshape(a, (c * r,))), [a])
    if name == "concat":
        axis = int(rng.integers(2))
        a, b = p((r, c)), p((r, c))
        return check(lambda _: sq(ad.concat([a, b], axis=axis)), [a, b])
    if name == "take_rows":
        a = p((r, c))
        idx = rng.integers(0, r, size=r + 1)  # repeats exercise accumulation
        return check(lambda _: sq(ad.take_rows(a, idx)), [a])
    if name == "embedding_lookup":
        v = int(rng.integers(3, 7))
        table = p((v, c))
        ids = rng.integers(0, v, size=r + 1)
        return check(lambda _: sq(ad.embedding_lookup(table, ids)), [table])
    if name == "layer_normalize":
        # width 2 saturates the normalized output at +-1, pinning the x
        # gradient under the finite-difference round-off floor; the model
        # never normalizes below width 8
        cw = max(c, 3)
        x, g, b = p((r, cw)), p((cw,)), p((cw,))
        return check(lambda _: sq(ad.layer_normalize(x, g, b)), [x, g, b])
    if name == "softmax":
        a = p((r, c))
        return check(lambda _: sq(softmax(a)), [a])
    if name == "gelu":
        a = p((r, c))
        return check(lambda _: sq(ad.gelu(a)), [a])
    if name == "mean":
        a = p((r, c))
        which = int(rng.integers(3))
        axis = None if which == 0 else which - 1
        if axis is None:
            return check(lambda _: ad.mul(ad.mean(a), ad.mean(a)), [a])
        return check(lambda _: sq(ad.mean(a, axis=axis)), [a])
    if name == "sum_all":
        a = p((r, c))
        return check(lambda _: ad.mul(ad.sum_all(a), ad.sum_all(a)), [a])
    if name == "weighted_mse":
        a, b = p((r, c)), p((r, c))
        w = rng.uniform(0.0, 1.0, size=(r, c))
        return check(lambda _: ad.weighted_mse(a, b, w), [a, b])
    if name == "cross_entropy_with_logits":
        v = int(rng.integers(3, 7))
        logits = p((r, v))
        ids = rng.integers(0, v, size=r)
        return check(lambda _: ad.sum_all(ad.cross_entropy_with_logits(logits, ids)), [logits])
    if name == "conv2d":
        cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        h = int(rng.integers(3, 6))
        x, w, b = p((cin, h, h)), p((cout, cin, 3, 3)), p((cout,))
        return check(lambda _: sq(ad.conv2d(x, w, b)), [x, w, b])
    if name == "bilinear_upsample":
        h = int(rng.integers(3, 6))
        factor = int(rng.integers(2, 4))
        a = p((h, h))
        return check(lambda _: sq(ad.bilinear_upsample(a, factor=factor)), [a])
    if name == "conv2d_batched":
        cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        h = int(rng.integers(3, 6))
        x, w, b = p((r, cin, h, h)), p((cout, cin, 3, 3)), p((cout,))
        return check(lambda _: sq(ad.conv2d(x, w, b)), [x, w, b])
    if name == "bilinear_upsample_batched":
        h = int(rng.integers(3, 6))
        factor = int(rng.integers(2, 4))
        a = p((r, h, h + 1))
        return check(lambda _: sq(ad.bilinear_upsample(a, factor=factor)), [a])
    if name == "take_rows_batched":
        n = int(rng.integers(2, 5))
        a = p((r, n, c))
        idx = rng.integers(0, n, size=(r, n + 1))  # per-sample rows, with repeats
        return check(lambda _: sq(ad.take_rows(a, idx)), [a])
    if name == "gather_sum":
        a = p((r, c))
        # per-sample index lists of different lengths, one of them empty
        lists = [rng.integers(0, c, size=int(rng.integers(0, c + 1))) for _ in range(r)]
        return check(lambda _: sq(ad.gather_sum(a, lists)), [a])
    raise AssertionError(f"no trial for op {name}")


# c03 seeds each op's trials with its slot here; an op that is gone
# leaves None in its slot, so every other op keeps its draws
_ALL_OPS = (
    "add", "sub", "mul", "scale", "matmul", "transpose", "reshape", "concat",
    None, "take_rows", "embedding_lookup", "layer_normalize", "softmax",
    "gelu", "mean", "sum_all", None, "weighted_mse", "cross_entropy_with_logits",
    "conv2d", "bilinear_upsample", "linear", "attention",
    "conv2d_batched", "bilinear_upsample_batched", "take_rows_batched", "gather_sum",
)


def _composite_world():
    """A float64 model plus one aligned pair small enough for FD sweeps."""
    text = "there is no effusion and there is mild edema seen"
    vocab = Vocabulary.from_texts([text])
    doc = annotate(tokenize(text, vocab), DEFAULT_ENTITY_LEXICON, beta=2)
    stats = compute_stats([doc])
    factors = compute_rebalance(stats.n_neg_tokens, stats.n_oth_tokens)
    rng = np.random.default_rng(11)
    hi = rng.uniform(0.0, 1.0, size=(16, 16)).astype(np.float32)
    att = np.zeros((16, 16), dtype=np.float32)
    att[4:9, 5:10] = 1.0
    sample = SynthSample(
        id="fd-0", report=text, image=hi, lesion_mask=att.copy(),
        attention=att, labels={},
    )
    cfg = ModelConfig(
        image_size=8, patch=4, dim=8, encoder_depth=1, decoder_depth=1,
        text_decoder_depth=1, heads=2, max_text_len=16,
        vocab_size=len(vocab), sr_channels=2,
    )
    model = Model(cfg, seed=5, dtype=np.float64)
    return model, sample, doc, factors


def test_c03_gradient_correctness(capsys):
    t0 = time.perf_counter()
    trials = 100
    tol = 1e-4
    worst_op, worst_op_err = "", 0.0
    for slot, name in enumerate(_ALL_OPS):
        if name is None:
            continue
        rng = np.random.default_rng([3, slot])
        for _ in range(trials):
            err = _op_trial(name, rng)
            if err > worst_op_err:
                worst_op, worst_op_err = name, err

    model, sample, doc, factors = _composite_world()
    names = list(model.params)
    worst_comp = 0.0
    for t in range(trials):
        pick = np.random.default_rng([30, t]).choice(len(names), size=2, replace=False)
        inputs = [model.params[names[i]] for i in pick]

        def f(_):
            return sample_losses(
                model, sample, doc, factors,
                np.random.default_rng([31, t]), np.random.default_rng([32, t]),
            ).total

        # Composite losses are O(1) while many parameter gradients sit
        # near 1e-10; a 1e-5 step leaves the central difference below
        # float64 round-off, so the composite sweep widens eps to 1e-3.
        err = grad_check(f, inputs, eps=1e-3, max_coords=2,
                         rng=np.random.default_rng([33, t]))
        worst_comp = max(worst_comp, err)

    ok = worst_op_err < tol and worst_comp < tol
    detail = (
        f"ops max rel err {worst_op_err:.2e} ({worst_op}), "
        f"composite {worst_comp:.2e}, tol {tol:.0e}, {trials} trials each"
    )
    _report(capsys, "03 gradient correctness", ok, detail, t0)
    assert ok, detail


def test_c04_fusion_dual_path_gradient(capsys):
    t0 = time.perf_counter()
    cfg = ModelConfig(vocab_size=32, **BASE_MODEL)
    model = Model(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(4)
    vision = rng.normal(0.0, 1.0, size=(cfg.n_patches, cfg.dim))
    ids = rng.integers(0, cfg.vocab_size, size=12)

    norms = {}
    for path in ("cross_attention", "pooled_projection"):
        f_v = ad.parameter(vision, dtype=np.float64)
        bundle = model.mscf_fuse(f_v, model.embed_text(ids))
        term = bundle.f_a_local if path == "cross_attention" else bundle.f_a_global
        partial = ad.add(bundle.f_t, term)
        ad.backward(ad.sum_all(ad.mul(partial, partial)))
        norms[path] = float(np.linalg.norm(f_v.grad))

    ok = all(v > 1e-8 for v in norms.values())
    detail = (
        f"grad norm via cross-attention {norms['cross_attention']:.3e}, "
        f"via pooled projection {norms['pooled_projection']:.3e}"
    )
    _report(capsys, "04 fusion dual-path gradient", ok, detail, t0)
    assert ok, detail


def test_c05_loss_support(capsys):
    t0 = time.perf_counter()
    cfg = ModelConfig(
        image_size=8, patch=4, dim=8, encoder_depth=1, decoder_depth=1,
        text_decoder_depth=1, heads=2, max_text_len=8, vocab_size=12, sr_channels=2,
    )
    model = Model(cfg, seed=1)
    rng = np.random.default_rng(5)
    low = rng.uniform(0.0, 1.0, size=(1, 8, 8)).astype(np.float32)
    plan = plan_patch_mask(cfg.n_patches, np.random.default_rng(6))
    patches = patchify(low, cfg.patch)
    f_v = model.encode_image(patches[:, list(plan.visible)], plan.visible)
    rows = model.decode_image(f_v, [plan])
    recon = unpatchify_t(rows, 8, 8, cfg.patch)

    base = loss_mim(rows, low, [plan], cfg.patch).item()
    bumped = patches.copy()
    bumped[:, list(plan.visible)] += 3.0
    perturbed = unpatchify_t(ad.constant(bumped), 8, 8, cfg.patch).data
    moved = loss_mim(rows, perturbed, [plan], cfg.patch).item()
    mim_invariant = moved == base

    hi = rng.uniform(0.0, 1.0, size=(1, 16, 16)).astype(np.float32)
    sr_out = model.sr_head(recon)
    sr_zero = loss_sr(sr_out, hi, np.zeros((1, 16, 16), dtype=np.float32)).item()
    sr_ones = loss_sr(sr_out, hi, np.ones((1, 16, 16), dtype=np.float32)).item()
    plain = mse(model.sr_head(recon), ad.constant(hi)).item()
    sr_gap = abs(sr_ones - plain)

    ok = mim_invariant and sr_zero == 0.0 and sr_gap <= 1e-6
    detail = (
        f"visible-patch perturbation moved L_MIM by {abs(moved - base):.1e}, "
        f"zero-map L_SR {sr_zero}, ones-map gap to MSE {sr_gap:.1e}"
    )
    _report(capsys, "05 loss support", ok, detail, t0)
    assert ok, detail


def test_c06_pipeline_round_trips(capsys):
    t0 = time.perf_counter()
    big = gen_dataset(SynthSpec(canvas=64, p_positive=1.0 / 21.0, seed=0), 10_000)
    vocab = Vocabulary.from_texts(s.report for s in big)

    dropped_total = 0
    round_trips_ok = True
    for s in big[:1000]:
        doc = annotate(tokenize(s.report, vocab), DEFAULT_ENTITY_LEXICON, beta=2)
        rep = distill_rule_based(doc)
        sentences, dropped = parse_distilled(rep.raw)
        dropped_total += dropped
        rendered = " ".join(sent.render() for sent in sentences)
        again, dropped2 = parse_distilled(rendered)
        dropped_total += dropped2
        first = [(x.modality, x.descriptor, x.entity) for x in sentences]
        second = [(x.modality, x.descriptor, x.entity) for x in again]
        round_trips_ok = round_trips_ok and first == second

    docs = [annotate(tokenize(s.report, vocab), DEFAULT_ENTITY_LEXICON, beta=2) for s in big]
    ratio = compute_stats(docs).imbalance_ratio

    ok = dropped_total == 0 and round_trips_ok and 18.0 <= ratio <= 22.0
    detail = f"parse drops {dropped_total}/1000 reports, 10k imbalance {ratio:.2f} in [18, 22]"
    _report(capsys, "06 pipeline round-trips", ok, detail, t0)
    assert ok, detail


def _rows_equal(a: list, b: list) -> bool:
    keys = ("step", "l_mim", "l_mlm", "l_sr", "total")
    return len(a) == len(b) and all(
        ra[k] == rb[k] for ra, rb in zip(a, b) for k in keys
    )


def test_c07_training_sanity(world, tmp_path, capsys):
    t0 = time.perf_counter()
    samples, data, _, cfg = world

    def run(steps, start=0, model=None, opt=None):
        if model is None:
            model = Model(cfg, seed=0)
            opt = AdamW(model.params)
        tc = TrainConfig(steps=steps, batch_size=8, seed=0, log_every=0)
        rows = pretrain(model, samples, data, tc, opt=opt, start_step=start)
        return model, opt, rows

    model_a, _, rows_a = run(300)
    early = float(np.mean([r["total"] for r in rows_a[:10]]))
    late = float(np.mean([r["total"] for r in rows_a[-10:]]))
    drop = 1.0 - late / early

    model_b, _, rows_b = run(300)
    deterministic = _rows_equal(rows_a, rows_b) and all(
        np.array_equal(model_a.params[n].data, model_b.params[n].data)
        for n in model_a.params
    )

    model_c, opt_c, rows_c1 = run(150)
    save_checkpoint(tmp_path / "ck", model_c, opt_c, step=150)
    model_d = Model(cfg, seed=0)
    opt_d = AdamW(model_d.params)
    start = load_checkpoint(tmp_path / "ck", model_d, opt_d)
    _, _, rows_c2 = run(300, start=start, model=model_d, opt=opt_d)
    resume_exact = _rows_equal(rows_c1 + rows_c2, rows_a) and all(
        np.array_equal(model_a.params[n].data, model_d.params[n].data)
        for n in model_a.params
    )

    ok = drop >= 0.30 and deterministic and resume_exact
    detail = (
        f"loss drop {drop:.1%} (first-10 avg {early:.3f} to last-10 avg {late:.3f}), "
        f"reruns bit-identical {deterministic}, resume bit-exact {resume_exact}"
    )
    _report(capsys, "07 training sanity", ok, detail, t0)
    assert ok, detail


def test_c08_rebalancing_efficacy(world, capsys):
    t0 = time.perf_counter()
    samples, data_rb, data_un, cfg = world
    acc = {"rebalanced": [], "uniform": []}
    for seed in range(5):
        for tag, data in (("rebalanced", data_rb), ("uniform", data_un)):
            model = Model(cfg, seed=seed)
            tc = TrainConfig(steps=500, batch_size=8, seed=seed, log_every=0)
            pretrain(model, samples, data, tc, opt=AdamW(model.params))
            acc[tag].append(eval_descriptor_accuracy(model, samples, data, seed=100))
    mean_rb = float(np.mean(acc["rebalanced"]))
    mean_un = float(np.mean(acc["uniform"]))
    ok = mean_rb > mean_un
    detail = (
        f"other-descriptor accuracy over 5 seeds: rebalanced {mean_rb:.3f} "
        f"vs uniform {mean_un:.3f} after 500 steps"
    )
    _report(capsys, "08 rebalancing efficacy", ok, detail, t0)
    assert ok, detail


def test_c09_pretraining_transfer(capsys):
    t0 = time.perf_counter()
    samples = gen_dataset(SynthSpec(canvas=64, p_positive=0.5, seed=3), 400)
    data = prepare_training_data(samples, lexicon=DEFAULT_ENTITY_LEXICON, beta=2)
    cfg = ModelConfig(vocab_size=len(data.vocab), **BASE_MODEL)
    entities = sorted({e for s in samples for e in s.labels})

    deltas, shuffled = [], []
    for seed in range(3):
        model = Model(cfg, seed=seed)
        tc = TrainConfig(steps=1000, batch_size=8, seed=seed, log_every=0)
        pretrain(model, samples, data, tc, opt=AdamW(model.params))
        feats = extract_features(model, samples)
        trained = linear_probe(feats, samples, entities, seed=seed)
        baseline = Model(cfg, seed=seed + 1000)
        rand = linear_probe(extract_features(baseline, samples), samples, entities, seed=seed)
        control = linear_probe(feats, samples, entities, seed=seed, shuffle_labels=True)
        deltas.append(trained.macro_accuracy - rand.macro_accuracy)
        shuffled.append(control.macro_accuracy)

    mean_delta = float(np.mean(deltas))
    mean_shuffled = float(np.mean(shuffled))
    ok = mean_delta >= 0.10 and abs(mean_shuffled - 0.5) <= 0.05
    detail = (
        f"probe gain over random init {mean_delta:+.3f} (3 seeds, need +0.100), "
        f"shuffled-label control {mean_shuffled:.3f} vs chance 0.500"
    )
    _report(capsys, "09 pre-training transfer", ok, detail, t0)
    assert ok, detail


def test_c10_ablation_isolation(world, capsys):
    t0 = time.perf_counter()
    samples, data_rb, data_un, cfg = world
    data_nd = prepare_training_data(
        samples, lexicon=DEFAULT_ENTITY_LEXICON, beta=2, use_distill=False
    )
    model = Model(cfg, seed=0)
    slots = [i for i, d in enumerate(data_rb.docs) if any(s.token_indices for s in d.spans)][:4]
    assert len(slots) == 4

    def batch_losses(docs, factors, use_sr=True, use_descriptor_mask=True):
        out = []
        for slot, i in enumerate(slots):
            bundle = sample_losses(
                model, samples[i], docs[i], factors,
                np.random.default_rng([0, STREAM_IMAGE, 0, slot]),
                np.random.default_rng([0, STREAM_TEXT, 0, slot]),
                use_sr=use_sr, use_descriptor_mask=use_descriptor_mask,
            )
            out.append(bundle.values())
        return out

    base = batch_losses(data_rb.docs, data_rb.factors)

    no_sr = batch_losses(data_rb.docs, data_rb.factors, use_sr=False)
    sr_isolated = all(
        v["l_sr"] == 0.0 and v["l_mim"] == b["l_mim"] and v["l_mlm"] == b["l_mlm"]
        for v, b in zip(no_sr, base)
    )

    stats = data_rb.stats
    unit = unit_factors(stats.n_neg_tokens, stats.n_oth_tokens)
    no_rb = batch_losses(data_rb.docs, unit)
    rb_isolated = all(
        v["l_mim"] == b["l_mim"] and v["l_sr"] == b["l_sr"]
        for v, b in zip(no_rb, base)
    ) and any(v["l_mlm"] != b["l_mlm"] for v, b in zip(no_rb, base))

    no_dm = batch_losses(data_rb.docs, data_rb.factors, use_descriptor_mask=False)
    dm_images_fixed = all(
        v["l_mim"] == b["l_mim"] and v["l_sr"] == b["l_sr"]
        for v, b in zip(no_dm, base)
    )
    plans_shift = True
    for slot, i in enumerate(slots):
        doc = data_rb.docs[i]
        with_spans = plan_text_mask(
            doc.seq, doc.spans, np.random.default_rng([0, STREAM_TEXT, 0, slot])
        )
        without = plan_text_mask(
            doc.seq, [], np.random.default_rng([0, STREAM_TEXT, 0, slot])
        )
        plans_shift = plans_shift and (
            len(with_spans.descriptor_neg) + len(with_spans.descriptor_oth) > 0
            and without.descriptor_neg == () and without.descriptor_oth == ()
            and len(without.random) == int(round(0.75 * len(doc.seq)))
        )
    dm_isolated = dm_images_fixed and plans_shift

    no_di = batch_losses(data_nd.docs, data_nd.factors)
    di_isolated = all(
        v["l_mim"] == b["l_mim"] and v["l_sr"] == b["l_sr"]
        for v, b in zip(no_di, base)
    ) and any(v["l_mlm"] != b["l_mlm"] for v, b in zip(no_di, base))

    ok = sr_isolated and rb_isolated and dm_isolated and di_isolated
    detail = (
        f"step-0 isolation: sr {sr_isolated}, rebalance {rb_isolated}, "
        f"descriptor-mask {dm_isolated}, distill {di_isolated}"
    )
    _report(capsys, "10 ablation isolation", ok, detail, t0)
    assert ok, detail
