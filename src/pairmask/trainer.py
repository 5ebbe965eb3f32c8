"""End-to-end pre-training: data preparation, the optimizer, the step
loop, checkpoints, and the two evaluation probes.

Randomness is stateless. Every draw comes from a generator seeded as
``default_rng([seed, stream, step, slot])``, so a resumed run replays
the exact stream of the uninterrupted one and per-slot draws do not
depend on how a batch is chunked.

A training step builds one autodiff graph for its whole batch, runs one
backward and drops the graph. The autodiff operators compute each
sample's slice exactly as they would for that sample alone and sum
parameter gradients over samples in slot order, so the step is
bit-identical to building, differentiating and dropping one graph per
slot (``sample_losses`` is that batch-of-one call), however the samples
are chunked. One exception: reports of different token lengths run the
text path in one group per length, and the text parameters (``tok_embed``,
``fuse.*``, ``txtdec.*``) then sum their gradients group by group rather
than in slot order, which changes float32 rounding, not the math.
Evaluation is forward-only: it runs under ``no_grad`` and stacks samples
along a leading batch axis.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import corpus as corpus_mod
from .corpus import (
    AnnotatedReport,
    CorpusStats,
    MASK_ID,
    Vocabulary,
    annotate,
    compute_stats,
    tokenize,
)
from .distill import concat_input, distill_rule_based
from .losses import (
    DEFAULT_LAMBDA_NEG,
    LossBundle,
    RebalanceFactors,
    compute_rebalance,
    loss_mim,
    loss_mlm,
    loss_sr,
    loss_total,
    unit_factors,
)
from .masking import apply_text_mask, patchify, plan_patch_mask, plan_text_mask, unpatchify_t
from .model import MODE_LOCAL, Model, ModelConfig
from .synthgen import LABEL_PRESENT, SynthSample, downsample

STREAM_TEXT = 1
STREAM_IMAGE = 2
STREAM_DATA = 3
STREAM_INIT = 4     # consumed inside Model
STREAM_EVAL = 5
STREAM_PROBE = 6

# Samples per batched forward pass in extract_features and
# eval_descriptor_accuracy. Every op keeps each sample's arithmetic, so
# the chunk changes no bit. With freed arrays kept mapped (see autodiff),
# the cost per sample fell with the chunk up to 32 and was flat at 64. A
# 32-sample descriptor pass traces a 3.5 MiB peak at the acceptance shape
# and 7.2 MiB at the default one, 4x its peak at 8.
EVAL_CHUNK = 32


class TrainingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerConfig:
    lr: float = 1.5e-3
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8


class AdamW:
    """Adam with decoupled weight decay (arXiv 1711.05101).

    Decay applies only to rank >= 2 parameters; gains, biases and other
    vectors are left unregularized. All parameters share one dtype, and
    the moments stay in it so checkpoints restore bit-exactly.

    The first and second moments live in one flat buffer each, decayed
    parameters first, each group in ``params`` order. ``m[name]`` and
    ``v[name]`` are views of those buffers shaped like the parameter:
    write into them (``m[name][...] = ...``), since rebinding a key
    detaches it from the buffer ``step`` updates.

    ``step`` updates each run of consecutive parameters (in buffer order)
    that have gradients with one pass of whole-run numpy calls, and
    leaves gradless parameters and their moments alone; a run ends at the
    first parameter boundary past ``CHUNK`` elements. The update is
    elementwise, so it gives the bits of updating one parameter at a
    time. Each updated parameter's ``data`` becomes a view of its run's
    new flat values. Every gradient is checked before anything changes:
    a non-finite one raises ``FloatingPointError`` naming the parameter
    and leaves the parameters, the moments and ``t`` as they were.
    """

    CHUNK = 32768  # a run's five float32 buffers then fit a 2 MiB L2 cache

    def __init__(self, params: dict, cfg: Optional[OptimizerConfig] = None):
        self.params = params
        self.cfg = cfg if cfg is not None else OptimizerConfig()
        self.t = 0
        dtypes = sorted({p.data.dtype.name for p in params.values()})
        if len(dtypes) > 1:
            raise ValueError(f"AdamW: parameters of mixed dtypes {dtypes}")
        # decayed (rank >= 2) parameters first; sorted() is stable
        self._order = sorted(params, key=lambda name: params[name].data.ndim < 2)
        self._start = {}
        total = 0
        for name in self._order:
            self._start[name] = total
            total += params[name].data.size
        self._n_decayed = sum(p.data.size for p in params.values() if p.data.ndim >= 2)
        dtype = dtypes[0] if dtypes else ad.DEFAULT_DTYPE
        self._m = np.zeros(total, dtype=dtype)
        self._v = np.zeros(total, dtype=dtype)
        self.m = {name: self._view(self._m, name) for name in params}
        self.v = {name: self._view(self._v, name) for name in params}

    def _view(self, flat: np.ndarray, name: str) -> np.ndarray:
        start, p = self._start[name], self.params[name]
        return flat[start : start + p.data.size].reshape(p.data.shape)

    def _runs(self) -> list:
        """Runs of consecutive parameters with gradients, in buffer order, closed at ``CHUNK`` elements."""
        runs, run, size = [], [], 0
        for name in self._order:
            p = self.params[name]
            if p.grad is not None:
                run.append(name)
                size += p.data.size
            if run and (p.grad is None or size >= self.CHUNK):
                runs.append(run)
                run, size = [], 0
        if run:
            runs.append(run)
        return runs

    def step(self) -> None:
        runs = self._runs()
        flat_grads = []
        for run in runs:
            for name in run:
                p = self.params[name]
                if p.grad.shape != p.data.shape:
                    raise ValueError(f"AdamW: gradient {p.grad.shape} for {name} of shape {p.data.shape}")
            g = np.concatenate([self.params[name].grad.reshape(-1) for name in run], dtype=self._m.dtype)
            # min and max propagate NaN, so both are finite exactly when every entry is
            if g.size and not (np.isfinite(g.min()) and np.isfinite(g.max())):
                bad = next(name for name in run if not np.all(np.isfinite(self.params[name].grad)))
                raise FloatingPointError(f"AdamW: non-finite gradient in {bad}")
            flat_grads.append(g)
        self.t += 1
        for run, g in zip(runs, flat_grads):
            self._update(run, g)

    def _update(self, run: list, g: np.ndarray) -> None:
        """One pass over a run's flat gradient ``g``, which ends up holding
        the run's new parameter values; the parameters become views of it."""
        c = self.cfg
        b1t = 1.0 - c.beta1**self.t
        b2t = 1.0 - c.beta2**self.t
        start = self._start[run[0]]
        m, v = self._m[start : start + len(g)], self._v[start : start + len(g)]
        n_decayed = min(max(self._n_decayed - start, 0), len(g))
        # the per-parameter expressions, operation for operation:
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g;
        # new = (p - lr ((m / b1t) / (sqrt(v / b2t) + eps))) - (lr wd) p, decay on rank >= 2 only
        scratch = (1.0 - c.beta1) * g
        m *= c.beta1
        m += scratch
        np.multiply(g, 1.0 - c.beta2, out=scratch)
        scratch *= g
        v *= c.beta2
        v += scratch
        np.divide(v, b2t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += c.eps
        np.divide(m, b1t, out=g)
        g /= scratch
        g *= c.lr
        np.concatenate([self.params[name].data.reshape(-1) for name in run], out=scratch)
        np.subtract(scratch, g, out=g)
        scratch[:n_decayed] *= c.lr * c.weight_decay
        g[:n_decayed] -= scratch[:n_decayed]
        for name in run:
            p = self.params[name]
            offset = self._start[name] - start
            p.assign_(g[offset : offset + p.data.size].reshape(p.data.shape))

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


# ---------------------------------------------------------------------------
# data preparation
# ---------------------------------------------------------------------------


@dataclass
class PreparedData:
    vocab: Vocabulary
    docs: list              # AnnotatedReport per sample, aligned with samples
    stats: CorpusStats
    factors: RebalanceFactors


def prepare_training_data(
    samples: Sequence[SynthSample],
    lexicon: frozenset = corpus_mod.DEFAULT_ENTITY_LEXICON,
    beta: int = corpus_mod.DEFAULT_BETA,
    max_text_len: int = 64,
    lambda_neg: float = DEFAULT_LAMBDA_NEG,
    use_distill: bool = True,
    use_rebalance: bool = True,
    distilled_texts: Optional[Sequence[str]] = None,
) -> PreparedData:
    """Annotate reports, append distilled summaries, fit loss weights.

    Distillation defaults to the deterministic rule-based path;
    externally produced texts (for example from a remote model) can be
    passed pre-computed via ``distilled_texts``, aligned with samples.
    Without distillation every report gets an empty extra text, which
    appends nothing and adds no word to the vocabulary. Each document
    keeps its first ``max_text_len`` tokens, report first.
    """
    if not samples:
        raise ValueError("prepare_training_data: no samples")
    texts = [s.report for s in samples]

    if not use_distill:
        distilled_texts = [""] * len(texts)
    elif distilled_texts is None:
        # annotate and the rule-based distiller read surfaces only, so no vocabulary is built
        pre = [annotate(tokenize(t, Vocabulary()), lexicon, beta=beta) for t in texts]
        distilled_texts = [distill_rule_based(a).raw for a in pre]
    elif len(distilled_texts) != len(samples):
        raise ValueError("prepare_training_data: distilled_texts misaligned with samples")
    vocab = Vocabulary.from_texts(list(texts) + [d for d in distilled_texts if d])
    docs = []
    for text, extra in zip(texts, distilled_texts):
        seq = tokenize(text, vocab, max_text_len)
        if extra:
            seq = concat_input(seq, tokenize(extra, vocab), max_text_len)
        docs.append(annotate(seq, lexicon, beta=beta))

    stats = compute_stats(docs)
    if use_rebalance:
        factors = compute_rebalance(stats.n_neg_tokens, stats.n_oth_tokens, lambda_neg)
    else:
        factors = unit_factors(stats.n_neg_tokens, stats.n_oth_tokens)
    return PreparedData(vocab=vocab, docs=docs, stats=stats, factors=factors)


# ---------------------------------------------------------------------------
# the training step
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    steps: int = 300
    batch_size: int = 8
    seed: int = 0
    log_every: int = 10
    ckpt_every: int = 0             # 0 disables periodic checkpoints
    ckpt_dir: Optional[str] = None
    use_sr: bool = True
    use_descriptor_mask: bool = True


def _losses(
    model: Model,
    pairs: Sequence[tuple],
    factors: RebalanceFactors,
    rngs_image: Sequence[np.random.Generator],
    rngs_text: Sequence[np.random.Generator],
    use_sr: bool,
    use_descriptor_mask: bool,
    attention: Optional[Callable[[SynthSample], np.ndarray]],
) -> LossBundle:
    """All three objectives for (sample, doc) pairs, as one graph.

    Slot ``b`` draws its patch mask from ``rngs_image[b]`` and its text
    mask from ``rngs_text[b]``. Every tensor has a leading slot axis and
    the terms are (B,); every sample shows the same number of patches,
    so the image path is one rectangular batch (MAE's gather), and the
    text path runs once per report length.
    """
    cfg = model.cfg
    dtype = np.float64 if model.dtype == np.float64 else np.float32
    samples = [sample for sample, _ in pairs]
    for sample in samples:
        side = sample.image.shape[0]
        if side != cfg.image_size * cfg.sr_factor:
            raise ValueError(
                f"sample {sample.id}: side {side} vs model target {cfg.image_size * cfg.sr_factor}"
            )
    images = np.stack([s.image for s in samples])
    low = downsample(images, cfg.sr_factor).astype(dtype)

    plans = [plan_patch_mask(cfg.n_patches, rng, ratio=cfg.patch_mask_ratio) for rng in rngs_image]
    visible = np.array([plan.visible for plan in plans], dtype=np.int64)
    patches = np.take_along_axis(patchify(low, cfg.patch), visible[..., None], axis=-2)
    f_v = model.encode_image(patches, visible)
    rows = model.decode_image(f_v, plans)
    mim = loss_mim(rows, low, plans, cfg.patch)

    if use_sr:
        weights = np.stack([s.attention if attention is None else attention(s) for s in samples])
        recon = unpatchify_t(rows, cfg.image_size, cfg.image_size, cfg.patch)
        sr = loss_sr(model.sr_head(recon), images.astype(dtype), weights)
    else:
        sr = ad.constant(np.zeros(mim.shape), dtype=dtype)

    tplans, masked_ids = [], []
    for (_, doc), rng in zip(pairs, rngs_text):
        spans = doc.spans if use_descriptor_mask else []
        tplans.append(plan_text_mask(doc.seq, spans, rng, ratio=cfg.text_mask_ratio))
        masked_ids.append(apply_text_mask(doc.seq, tplans[-1], MASK_ID))
    groups: dict = {}
    for slot, (_, doc) in enumerate(pairs):
        groups.setdefault(len(doc.seq), []).append(slot)
    parts = []
    for slots in groups.values():
        f_g = f_v if len(groups) == 1 else ad.take_rows(f_v, slots)
        bundle = model.mscf_fuse(f_g, model.embed_text(np.stack([masked_ids[i] for i in slots])))
        logits = model.decode_text(bundle.f_f)
        targets = np.stack([pairs[i][1].seq.ids for i in slots])
        parts.append(loss_mlm(logits, targets, [tplans[i] for i in slots], factors))
    if len(parts) == 1:
        mlm = parts[0]
    else:
        grouped = np.concatenate(list(groups.values()))
        mlm = ad.take_rows(ad.concat(parts), np.argsort(grouped))

    return loss_total(mim, mlm, sr)


def sample_losses(
    model: Model,
    sample: SynthSample,
    doc: AnnotatedReport,
    factors: RebalanceFactors,
    rng_image: np.random.Generator,
    rng_text: np.random.Generator,
    use_sr: bool = True,
    use_descriptor_mask: bool = True,
    attention: Optional[Callable[[SynthSample], np.ndarray]] = None,
) -> LossBundle:
    """All three objectives for one image/report pair, as scalars: the
    training step's graph for a batch of one, with the slot axis dropped."""
    bundle = _losses(
        model, [(sample, doc)], factors, [rng_image], [rng_text],
        use_sr, use_descriptor_mask, attention,
    )
    return LossBundle(**{name: ad.reshape(term, ()) for name, term in vars(bundle).items()})


def train_step(
    model: Model,
    opt: AdamW,
    pairs: Sequence[tuple],
    factors: RebalanceFactors,
    step: int,
    seed: int,
    use_sr: bool = True,
    use_descriptor_mask: bool = True,
    attention: Optional[Callable[[SynthSample], np.ndarray]] = None,
) -> dict:
    """One optimizer step over ``pairs`` of (sample, doc).

    Per-slot generators are keyed by (seed, stream, step, slot). The
    batch is one graph and one backward, with gradients equal bit for
    bit to adding them into the leaves one slot at a time, so any
    chunking of the same pairs produces bit-identical parameters (up to
    rounding in the text parameters when report lengths differ; see the
    module docstring).
    """
    opt.zero_grad()
    n = len(pairs)
    rngs_image = [np.random.default_rng([seed, STREAM_IMAGE, step, slot]) for slot in range(n)]
    rngs_text = [np.random.default_rng([seed, STREAM_TEXT, step, slot]) for slot in range(n)]
    try:
        bundle = _losses(
            model, pairs, factors, rngs_image, rngs_text,
            use_sr, use_descriptor_mask, attention,
        )
    except FloatingPointError as exc:
        raise TrainingError(f"step {step}: {exc}") from exc
    ad.backward(ad.sum_all(ad.scale(bundle.total, 1.0 / n)))
    try:
        opt.step()
    except FloatingPointError as exc:
        raise TrainingError(f"step {step}: {exc}") from exc
    terms = {"l_mim": bundle.mim, "l_mlm": bundle.mlm, "l_sr": bundle.sr, "total": bundle.total}
    # per-slot values added in slot order, as Python floats
    return {key: sum(float(v) for v in t.data) / n for key, t in terms.items()}


def pretrain(
    model: Model,
    samples: Sequence[SynthSample],
    data: PreparedData,
    cfg: TrainConfig,
    opt: Optional[AdamW] = None,
    opt_cfg: Optional[OptimizerConfig] = None,
    start_step: int = 0,
    log: Optional[Callable[[str], None]] = None,
    attention: Optional[Callable[[SynthSample], np.ndarray]] = None,
) -> list:
    """Run the step loop; returns one metrics dict per step."""
    if len(samples) != len(data.docs):
        raise ValueError(f"pretrain: {len(samples)} samples and {len(data.docs)} prepared docs misaligned")
    if start_step > cfg.steps:
        raise ValueError(f"pretrain: start_step {start_step} is past the run's steps {cfg.steps}")
    if cfg.batch_size < 1:
        raise ValueError(f"pretrain: batch_size {cfg.batch_size} < 1")
    if cfg.ckpt_every < 0 or (cfg.ckpt_every and not cfg.ckpt_dir):
        raise ValueError(f"pretrain: ckpt_every {cfg.ckpt_every} must be 0, or positive with a ckpt_dir")
    if opt is None:
        opt = AdamW(model.params, opt_cfg)
    pool = list(zip(samples, data.docs))
    metrics = []
    for step in range(start_step, cfg.steps):
        t0 = time.perf_counter()
        rng_data = np.random.default_rng([cfg.seed, STREAM_DATA, step])
        idx = rng_data.integers(0, len(pool), size=cfg.batch_size)
        row = train_step(
            model, opt, [pool[i] for i in idx], data.factors,
            step=step, seed=cfg.seed,
            use_sr=cfg.use_sr, use_descriptor_mask=cfg.use_descriptor_mask,
            attention=attention,
        )
        row["step"] = step
        row["wall_ms"] = (time.perf_counter() - t0) * 1e3
        metrics.append(row)
        if log is not None and cfg.log_every and step % cfg.log_every == 0:
            log(
                f"step {step}: total {row['total']:.4f} "
                f"(mim {row['l_mim']:.4f}, mlm {row['l_mlm']:.4f}, sr {row['l_sr']:.4f})"
            )
        if cfg.ckpt_every and (step + 1) % cfg.ckpt_every == 0:
            save_checkpoint(cfg.ckpt_dir, model, opt, step + 1)
    return metrics


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


CHECKPOINT_FILE = "checkpoint.bin"
_FIRST_LINE = "pairmask-checkpoint crc32={:08x}\n"


def save_checkpoint(ckpt_dir, model: Model, opt: AdamW, step: int) -> None:
    """Write params and optimizer state to ``ckpt_dir/checkpoint.bin``.

    Line 1 is ``pairmask-checkpoint crc32=<8 hex digits>``, the
    ``zlib.crc32`` of every byte after it. Line 2 is a JSON header: the
    step, Adam's ``t``, both configs, the dtype and ``[name, shape]``
    per parameter in ``model.params`` order. Then come the little-endian
    raw bytes of the parameters, the first moments and the second
    moments, each in header order. The file is written under a temp
    name and renamed, so a crash leaves the previous checkpoint whole.
    """
    path = Path(ckpt_dir) / CHECKPOINT_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "step": step, "adam_t": opt.t, "model": asdict(model.cfg), "opt": asdict(opt.cfg),
        "dtype": np.dtype(model.dtype).name,
        "params": [[name, list(p.data.shape)] for name, p in model.params.items()],
    }
    arrays = [p.data for p in model.params.values()] + [buf[n] for buf in (opt.m, opt.v) for n in model.params]
    # views, not copies, when the arrays are already contiguous little-endian
    body = [(json.dumps(header) + "\n").encode()]
    body += [np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).reshape(-1).view(np.uint8) for a in arrays]
    crc = 0
    for chunk in body:
        crc = zlib.crc32(chunk, crc)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(_FIRST_LINE.format(crc).encode())
        for chunk in body:
            fh.write(chunk)
    os.replace(tmp, path)


@dataclass(frozen=True)
class Checkpoint:
    """A ``checkpoint.bin`` read once, its crc32 and config fields checked:
    its header, with ``header["model"]`` and ``header["opt"]`` built into
    a ``ModelConfig`` and an ``OptimizerConfig``, and the bytes to restore
    from."""

    path: Path
    header: dict
    arrays: memoryview  # the file's bytes after the header


def read_checkpoint(ckpt_dir) -> Checkpoint:
    """Read ``ckpt_dir/checkpoint.bin`` and check its crc32 and the fields
    of its configs; ``restore_checkpoint`` applies it to a model."""
    path = Path(ckpt_dir) / CHECKPOINT_FILE
    raw = path.read_bytes()
    start = raw.find(b"\n") + 1
    crc = zlib.crc32(memoryview(raw)[start:])
    if raw[:start] != _FIRST_LINE.format(crc).encode():
        raise ValueError(f"{path}: damaged or truncated: its first line does not record the crc32 {crc:08x} of the rest")
    end = raw.find(b"\n", start) + 1
    header = json.loads(raw[start:end])
    for key, cls in (("model", ModelConfig), ("opt", OptimizerConfig)):
        names = {f.name for f in fields(cls)}
        unknown, missing = sorted(header[key].keys() - names), sorted(names - header[key].keys())
        if unknown or missing:
            raise ValueError(f"{path}: {key} config fields do not match: unknown {unknown}, missing {missing}")
        header[key] = cls(**header[key])
    return Checkpoint(path, header, memoryview(raw)[end:])


def load_checkpoint(ckpt_dir, model: Model, opt: AdamW) -> int:
    """Restore params and optimizer state in place from
    ``ckpt_dir/checkpoint.bin``; returns the step."""
    return restore_checkpoint(read_checkpoint(ckpt_dir), model, opt)


def restore_checkpoint(ckpt: Checkpoint, model: Model, opt: AdamW) -> int:
    """Restore params and optimizer state in place from a read checkpoint;
    returns the step.

    Nothing mutates until the whole file has passed its checks: the
    crc32, the config fields, every field of the saved configs against
    ``model.cfg`` and ``opt.cfg``, every parameter's name, shape and dtype
    against the model, and the length; the field and parameter
    mismatches are reported together.
    """
    header = ckpt.header
    dtype = np.dtype(header["dtype"])
    saved = {name: tuple(shape) for name, shape in header["params"]}
    configs = [
        f"{key}.{f.name}: checkpoint {getattr(header[key], f.name)!r} vs {getattr(ours, f.name)!r}"
        for key, ours in (("model", model.cfg), ("opt", opt.cfg))
        for f in fields(ours)
        if getattr(header[key], f.name) != getattr(ours, f.name)
    ]
    offenders = [f"{name}: not in model" for name in saved if name not in model.params]
    offenders += [f"{name}: missing from checkpoint" for name in model.params if name not in saved]
    for name in saved.keys() & model.params.keys():
        data = model.params[name].data
        if data.shape != saved[name] or data.dtype != dtype:
            offenders.append(
                f"{name}: checkpoint {dtype.name}{list(saved[name])} vs model "
                f"{data.dtype.name}{list(data.shape)}"
            )
    if configs or offenders:
        raise ValueError("load_checkpoint: " + "; ".join(configs + sorted(offenders)))
    nbytes = 3 * sum(p.data.nbytes for p in model.params.values())
    if len(ckpt.arrays) != nbytes:
        raise ValueError(f"{ckpt.path}: holds {len(ckpt.arrays)} array bytes, its header describes {nbytes}")

    # read-only views of the file's bytes, rows params, m and v, until the copies below
    stored = np.frombuffer(ckpt.arrays, dtype=dtype.newbyteorder("<")).reshape(3, -1)
    at = 0
    for name in saved:
        p = model.params[name]
        data, m, v = stored[:, at : at + p.data.size].reshape(3, *p.data.shape)
        p.assign_(data.astype(p.data.dtype))
        # into the optimizer's views of its flat moment buffers
        opt.m[name][...] = m
        opt.v[name][...] = v
        at += p.data.size
    opt.t = header["adam_t"]
    return header["step"]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_descriptor_accuracy(
    model: Model,
    samples: Sequence[SynthSample],
    data: PreparedData,
    seed: int = 0,
) -> float:
    """Argmax accuracy on masked other-class descriptor tokens.

    Images are encoded fully visible; text masking replays a fixed
    evaluation stream, one generator per doc index, so repeated calls
    score the same predictions. Docs with other-class descriptors are
    grouped by sequence length (no padding enters a batch) and run
    without a graph, up to ``EVAL_CHUNK`` docs per batched forward pass;
    the chunking changes no bit. ``samples`` and ``data.docs`` must be
    aligned, one doc per sample.
    """
    if len(samples) != len(data.docs):
        raise ValueError(
            f"eval_descriptor_accuracy: {len(samples)} samples and {len(data.docs)} prepared docs misaligned"
        )
    cfg = model.cfg
    by_length: dict = {}
    for i, doc in enumerate(data.docs):
        if any(s.polarity == corpus_mod.POLARITY_OTHER and s.token_indices for s in doc.spans):
            by_length.setdefault(len(doc.seq), []).append(i)
    chunks = [
        group[start : start + EVAL_CHUNK]
        for group in by_length.values()
        for start in range(0, len(group), EVAL_CHUNK)
    ]
    correct = 0
    total = 0
    with ad.no_grad():
        for chunk in chunks:
            low = downsample(np.stack([samples[i].image for i in chunk]), cfg.sr_factor).astype(np.float32)
            f_v = model.forward_finetune(low, mode=MODE_LOCAL)
            plans, ids = [], []
            for i in chunk:
                doc = data.docs[i]
                rng = np.random.default_rng([seed, STREAM_EVAL, i])
                plans.append(plan_text_mask(doc.seq, doc.spans, rng, ratio=cfg.text_mask_ratio))
                ids.append(apply_text_mask(doc.seq, plans[-1], MASK_ID))
            bundle = model.mscf_fuse(f_v, model.embed_text(np.stack(ids)))
            pred = model.decode_text(bundle.f_f).data.argmax(axis=-1)
            for row, i, tplan in zip(pred, chunk, plans):
                truth = data.docs[i].seq.ids
                for pos in tplan.descriptor_oth:
                    total += 1
                    if row[pos] == truth[pos]:
                        correct += 1
    if total == 0:
        raise ValueError("eval_descriptor_accuracy: no other-descriptor tokens in corpus")
    return correct / total


def extract_features(model: Model, samples: Sequence[SynthSample]) -> np.ndarray:
    """Mean-pooled encoder features per sample, (n, dim) float64, in input order.

    Runs without a graph, ``EVAL_CHUNK`` images per batched forward pass;
    each sample's features are the same bits in any chunking.
    """
    if not samples:
        raise ValueError("extract_features: no samples")
    rows = []
    with ad.no_grad():
        for start in range(0, len(samples), EVAL_CHUNK):
            chunk = samples[start : start + EVAL_CHUNK]
            low = downsample(np.stack([s.image for s in chunk]), model.cfg.sr_factor).astype(np.float32)
            rows.append(model.forward_finetune(low, mode="global").data.astype(np.float64))
    return np.concatenate(rows)


# the probe's Newton solve: step cap, halvings per step, and the
# max |gradient| at which a fit has converged
NEWTON_STEPS = 50
NEWTON_HALVINGS = 30
NEWTON_TOL = 1e-10


def _fit_logistic(x: np.ndarray, y: np.ndarray, l2: float = 1e-3) -> np.ndarray:
    """L2-regularized logistic regression by damped Newton steps; returns [w, b].

    Minimizes the mean log-loss plus ``0.5 * l2 * |w|^2``; the bias is not
    regularized. Each step solves the ``(d+1, d+1)`` Newton system once and
    is halved until the objective does not rise. Raises ValueError when
    max |gradient| is not below ``NEWTON_TOL`` within ``NEWTON_STEPS``.
    """
    n, d = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    ridge = np.r_[np.full(d, l2), 0.0]

    def objective(wb):
        z = xb @ wb
        # log(1 + exp(-z)) is logaddexp(0, -z), stable for either sign
        return np.mean((1.0 - y) * z + np.logaddexp(0.0, -z)) + 0.5 * l2 * (wb[:d] @ wb[:d]), z

    wb = np.zeros(d + 1)
    f, z = objective(wb)
    for k in range(NEWTON_STEPS + 1):
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        grad = xb.T @ (p - y) / n + ridge * wb
        if np.abs(grad).max() < NEWTON_TOL:
            return wb
        if k == NEWTON_STEPS:
            break
        step = np.linalg.solve((xb.T * (p * (1.0 - p))) @ xb / n + np.diag(ridge), grad)
        for _ in range(NEWTON_HALVINGS):
            f_new, z_new = objective(wb - step)
            # a rise within the objective's own rounding does not count
            if f_new <= f + 64 * np.spacing(f):
                break
            step *= 0.5
        else:
            break
        wb, f, z = wb - step, f_new, z_new
    raise ValueError(f"no fit: max |gradient| {np.abs(grad).max():.3g} after {k} Newton steps, not below {NEWTON_TOL:g}")


@dataclass
class ProbeResult:
    per_entity: dict
    macro_accuracy: float
    n_entities: int


def linear_probe(
    features: np.ndarray,
    samples: Sequence[SynthSample],
    entities: Sequence[str],
    train_frac: float = 0.8,
    seed: int = 0,
    shuffle_labels: bool = False,
) -> ProbeResult:
    """Per-entity presence classification on frozen features.

    Features are standardized with train-split statistics. Entities
    whose train or test split is single-class are skipped; accuracy is
    the unweighted mean over the rest. ``shuffle_labels`` permutes
    labels before splitting, the no-signal control.
    """
    n = len(samples)
    if features.ndim != 2:
        raise ValueError(f"linear_probe: features must be 2-D (samples, dims), got shape {features.shape}")
    if features.shape[0] != n:
        raise ValueError(f"linear_probe: {features.shape[0]} feature rows and {n} samples misaligned")
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):
        row, col = bad[0]
        raise ValueError(f"linear_probe: features[{row}, {col}] is {features[row, col]}, not finite")
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"linear_probe: train_frac {train_frac} is outside (0, 1)")
    rng = np.random.default_rng([seed, STREAM_PROBE])
    order = rng.permutation(n)
    n_train = int(round(train_frac * n))
    if n_train == 0 or n_train == n:
        raise ValueError(f"linear_probe: degenerate split {n_train}/{n - n_train}")
    train_idx, test_idx = order[:n_train], order[n_train:]

    per_entity = {}
    for entity in entities:
        y = np.array([1.0 if s.labels.get(entity) == LABEL_PRESENT else 0.0 for s in samples])
        if shuffle_labels:
            # crc32, unlike str hash, is the same in every process
            key = zlib.crc32(entity.encode("utf-8"))
            y = y[np.random.default_rng([seed, STREAM_PROBE, key]).permutation(n)]
        y_tr, y_te = y[train_idx], y[test_idx]
        if len(np.unique(y_tr)) < 2 or len(np.unique(y_te)) < 2:
            continue
        mu = features[train_idx].mean(axis=0)
        sd = features[train_idx].std(axis=0) + 1e-8
        x_tr = (features[train_idx] - mu) / sd
        x_te = (features[test_idx] - mu) / sd
        try:
            wb = _fit_logistic(x_tr, y_tr)
        except ValueError as exc:
            raise ValueError(f"linear_probe: entity {entity!r}: {exc}") from exc
        pred = (np.hstack([x_te, np.ones((len(x_te), 1))]) @ wb) > 0
        per_entity[entity] = float((pred == y_te.astype(bool)).mean())

    if not per_entity:
        raise ValueError("linear_probe: every entity was single-class in a split")
    macro = float(np.mean(list(per_entity.values())))
    return ProbeResult(per_entity=per_entity, macro_accuracy=macro, n_entities=len(per_entity))


class ModelAttention:
    """Text-conditioned patch relevance from the trained model.

    Cosine similarity between each patch feature and the mean token
    feature, clamped at zero, upsampled to the sample's resolution and
    max-normalized. A learned stand-in for ground-truth lesion maps
    when those are unavailable.
    """

    def __init__(self, model: Model, vocab: Vocabulary):
        self.model = model
        self.vocab = vocab

    def __call__(self, sample: SynthSample) -> np.ndarray:
        cfg = self.model.cfg
        low = downsample(sample.image, cfg.sr_factor).astype(np.float32)
        seq = tokenize(sample.report, self.vocab, cfg.max_text_len)
        with ad.no_grad():
            f_v = self.model.forward_finetune(low, mode=MODE_LOCAL)
            bundle = self.model.mscf_fuse(f_v, self.model.embed_text(seq.ids))
        t = bundle.f_t.data.mean(axis=0)
        v = bundle.f_v_local.data
        cos = (v @ t) / (np.linalg.norm(v, axis=1) * np.linalg.norm(t) + 1e-8)
        grid = cfg.grid
        weights = np.maximum(cos, 0.0).reshape(grid, grid)
        cell = sample.image.shape[0] // grid
        full = np.kron(weights, np.ones((cell, cell)))
        peak = full.max()
        return (full / peak if peak > 0 else full).astype(np.float32)
