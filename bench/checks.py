"""Correctness checks run around the timed phases, never inside them.

Each check compares pairmask's output with something computed apart
from it (central differences, a plain-numpy float64 encoder, token
counts redone from the descriptor spans) or with a property the method
must have (bit-exact resume, loss going down, a planted signal being
found). Each returns a ``Check`` whose ``ok`` is False when the property
does not hold; none of them compares against stored output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import erf

from pairmask import autodiff as ad
from pairmask import corpus, trainer
from pairmask.model import Model
from pairmask.synthgen import LABEL_PRESENT

LOSS_KEYS = ("l_mim", "l_mlm", "l_sr", "total")

# Directional derivative of the float64 composite loss: central
# difference against autodiff.backward.
FD_EPS = 1e-5
FD_TOL = 1e-6

# Mean total loss over the last tenth of the steps against the first
# tenth. Over 80 runs of 208 to 360 steps, at either shape, it dropped by 90%
# or more.
LOSS_DROP = 0.5

# extract_features runs in float32; the reference runs in float64. The
# features are layer-normed and mean-pooled, so entries are O(1) and
# float32 rounding through a few blocks stays far below this.
FEATURE_ATOL = 1e-4

# Seeded noise features on balanced labels: macro accuracy over
# four entities and 80 test rows each lies near 0.5.
CHANCE_BAND = 0.12


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def both_descriptor_doc(data) -> int:
    """Index of the first doc with negative and other descriptor tokens."""
    for i, doc in enumerate(data.docs):
        pols = {s.polarity for s in doc.spans if s.token_indices}
        if pols >= {corpus.POLARITY_NEGATIVE, corpus.POLARITY_OTHER}:
            return i
    raise ValueError("no doc carries both descriptor classes")


def finite_difference(cfg, samples, data, seed: int) -> Check:
    """d/dt loss(theta + t v) at t=0 by central difference vs backward."""
    model = Model(cfg, seed=seed, dtype=np.float64)
    i = both_descriptor_doc(data)

    def loss():
        return trainer.sample_losses(
            model, samples[i], data.docs[i], data.factors,
            np.random.default_rng([seed, 1]), np.random.default_rng([seed, 2]),
        ).total

    model.zero_grad()
    ad.backward(loss())
    rng = np.random.default_rng([seed, 3])
    base = {k: p.data.copy() for k, p in model.params.items()}
    direction = {k: rng.normal(size=p.shape) for k, p in model.params.items()}
    analytic = sum(
        float((p.grad * direction[k]).sum()) for k, p in model.params.items() if p.grad is not None
    )

    def at(t: float) -> float:
        for k, p in model.params.items():
            p.assign_(base[k] + t * direction[k])
        return loss().item()

    numeric = (at(FD_EPS) - at(-FD_EPS)) / (2.0 * FD_EPS)
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
    return Check(
        "finite_difference", rel <= FD_TOL,
        f"directional derivative backward {analytic:.9g} vs central difference {numeric:.9g}, "
        f"rel err {rel:.1e} (tol {FD_TOL:.0e})",
    )


def loss_curve(rows: list) -> Check:
    """Every loss finite; last-tenth mean total below first tenth by ``LOSS_DROP``."""
    finite = all(math.isfinite(r[k]) for r in rows for k in LOSS_KEYS)
    tenth = max(1, len(rows) // 10)
    early = float(np.mean([r["total"] for r in rows[:tenth]]))
    late = float(np.mean([r["total"] for r in rows[-tenth:]]))
    drop = 1.0 - late / early
    return Check(
        "loss_curve", finite and drop >= LOSS_DROP,
        f"{len(rows)} steps all finite {finite}, total {early:.3f} -> {late:.3f} "
        f"(drop {drop:.1%}, need {LOSS_DROP:.0%})",
    )


def resume(model, opt, samples, data, tc: trainer.TrainConfig, ckpt_dir, step: int, save: bool) -> Check:
    """Reload a checkpoint into a differently seeded model; replay 3 steps."""
    if save:
        trainer.save_checkpoint(ckpt_dir, model, opt, step)
    fresh = Model(model.cfg, seed=tc.seed + 1)
    fresh_opt = trainer.AdamW(fresh.params, opt.cfg)
    loaded = trainer.load_checkpoint(ckpt_dir, fresh, fresh_opt)
    state_equal = (
        loaded == step
        and fresh_opt.t == opt.t
        and all(
            np.array_equal(a, b) and a.dtype == b.dtype
            for name, p in model.params.items()
            for a, b in (
                (p.data, fresh.params[name].data),
                (opt.m[name], fresh_opt.m[name]),
                (opt.v[name], fresh_opt.v[name]),
            )
        )
    )
    cont = trainer.TrainConfig(steps=step + 3, batch_size=tc.batch_size, seed=tc.seed, log_every=0)
    live = trainer.pretrain(model, samples, data, cont, opt=opt, start_step=step)
    replay = trainer.pretrain(fresh, samples, data, cont, opt=fresh_opt, start_step=step)
    replay_equal = [[r[k] for k in LOSS_KEYS] for r in live] == [[r[k] for k in LOSS_KEYS] for r in replay]
    return Check(
        "checkpoint_resume", state_equal and replay_equal,
        f"checkpoint at step {step} reloads bit-identically {state_equal}, "
        f"3 resumed steps replay the losses bit for bit {replay_equal}",
    )


def rebalance_identity(data) -> Check:
    """Recount descriptor tokens from the spans; check the lambda identity."""
    n_neg = n_oth = 0
    for doc in data.docs:
        for span in doc.spans:
            words = [doc.seq.surfaces[i] for i in span.token_indices]
            if any(w in corpus.DEFAULT_NEGATION_TERMS for w in words):
                n_neg += len(words)
            else:
                n_oth += len(words)
    f = data.factors
    lam_neg, lam_oth = Fraction(f.lambda_neg), f.lambda_oth_exact
    exact = lam_neg * n_neg + lam_oth * n_oth == n_neg + n_oth
    as_float = f.lambda_neg * n_neg + f.lambda_oth * n_oth
    ulps = abs(as_float - (n_neg + n_oth)) / math.ulp(n_neg + n_oth)
    ok = (n_neg, n_oth) == (f.n_neg, f.n_oth) and exact and float(lam_oth) == f.lambda_oth and ulps <= 4
    return Check(
        "rebalance_identity", ok,
        f"recounted tokens neg {n_neg} oth {n_oth} (factors {f.n_neg}/{f.n_oth}), "
        f"exact identity {exact}, float drift {ulps:.1f} ulp",
    )


# ---------------------------------------------------------------------------
# frozen evaluation
# ---------------------------------------------------------------------------


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * g + b


def _attention(x, p, prefix, heads):
    n, d = x.shape
    hd = d // heads

    def split(w, b):
        return (x @ p[f"{prefix}.{w}"] + p[f"{prefix}.{b}"]).reshape(n, heads, hd).transpose(1, 0, 2)

    q, k, v = split("wq", "bq"), split("wk", "bk"), split("wv", "bv")
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(hd)
    scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
    ctx = (scores / scores.sum(axis=-1, keepdims=True)) @ v
    return ctx.transpose(1, 0, 2).reshape(n, d) @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]


def reference_features(model: Model, image: np.ndarray) -> np.ndarray:
    """The global-mode encoder forward pass in plain float64 numpy."""
    cfg = model.cfg
    p = {k: t.data.astype(np.float64) for k, t in model.params.items()}
    f, s, g = cfg.sr_factor, cfg.patch, cfg.grid
    hi = image.astype(np.float64)
    low = hi.reshape(hi.shape[0] // f, f, hi.shape[1] // f, f).mean(axis=(1, 3))
    patches = low.reshape(g, s, g, s).transpose(0, 2, 1, 3).reshape(g * g, s * s)
    angle = np.arange(g * g)[:, None] / np.power(10000.0, 2.0 * np.arange(cfg.dim // 2) / cfg.dim)
    pos = np.zeros((g * g, cfg.dim))
    pos[:, 0::2], pos[:, 1::2] = np.sin(angle), np.cos(angle)
    x = patches @ p["patch_embed.w"] + p["patch_embed.b"] + pos
    for i in range(cfg.encoder_depth):
        b = f"enc.{i}"
        x = x + _attention(_layer_norm(x, p[f"{b}.ln1.g"], p[f"{b}.ln1.b"]), p, f"{b}.attn", cfg.heads)
        h = _layer_norm(x, p[f"{b}.ln2.g"], p[f"{b}.ln2.b"]) @ p[f"{b}.ff.w1"] + p[f"{b}.ff.b1"]
        h = h * 0.5 * (1.0 + erf(h / math.sqrt(2.0)))
        x = x + h @ p[f"{b}.ff.w2"] + p[f"{b}.ff.b2"]
    return _layer_norm(x, p["enc.norm.g"], p["enc.norm.b"]).mean(axis=0)


def reference_encoder(models: dict, samples) -> Check:
    worst = 0.0
    for model in models.values():
        got = trainer.extract_features(model, samples)
        want = np.stack([reference_features(model, s.image) for s in samples])
        worst = max(worst, float(np.abs(got - want).max()))
    return Check(
        "reference_encoder", worst <= FEATURE_ATOL,
        f"extract_features vs float64 numpy encoder on {len(samples)} samples x "
        f"{len(models)} models: max abs err {worst:.1e} (tol {FEATURE_ATOL:.0e})",
    )


def probe_planted_and_noise(samples, entities, seed: int) -> Check:
    labels = np.array(
        [[s.labels.get(e) == LABEL_PRESENT for e in entities] for s in samples], dtype=np.float64
    )
    rng = np.random.default_rng([seed, 4])
    planted = np.hstack([2.0 * labels - 1.0, rng.normal(size=(len(samples), 4))])
    found = trainer.linear_probe(planted, samples, entities, seed=seed)
    noise = trainer.linear_probe(rng.normal(size=(len(samples), 16)), samples, entities, seed=seed)
    ok = (
        found.n_entities == len(entities)
        and all(a == 1.0 for a in found.per_entity.values())
        and abs(noise.macro_accuracy - 0.5) <= CHANCE_BAND
    )
    return Check(
        "probe_planted_and_noise", ok,
        f"planted-label features score {found.macro_accuracy:.3f} over {found.n_entities} entities "
        f"(need 1.0), seeded noise {noise.macro_accuracy:.3f} (need 0.5 +/- {CHANCE_BAND})",
    )


def descriptor_eval_repeats(model, samples, data, seed: int) -> Check:
    """Two calls give the same accuracy from bit-identical logits.

    The logits are captured by a temporary wrapper on
    ``Model.decode_text``: the accuracy alone can repeat by chance when
    the predictions at descriptor positions ignore the masked context.
    """
    logits: list = []
    original = Model.decode_text

    def recording(self, f_f):
        out = original(self, f_f)
        logits[-1].append(out.data.copy())
        return out

    Model.decode_text = recording
    try:
        values = []
        for _ in range(2):
            logits.append([])
            values.append(trainer.eval_descriptor_accuracy(model, samples, data, seed))
    finally:
        Model.decode_text = original
    a, b = values
    same_logits = len(logits[0]) == len(logits[1]) and all(
        np.array_equal(x, y) for x, y in zip(*logits)
    )
    return Check(
        "descriptor_eval_repeats", a == b and same_logits and 0.0 <= a <= 1.0,
        f"two calls over {len(samples)} samples return {a!r} and {b!r}, "
        f"logits of {len(logits[0])} docs bit-identical {same_logits}",
    )
