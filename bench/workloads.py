"""The three workloads: inputs made from the seed, timed phases, metrics.

Every workload builds a synthetic corpus and a model from ``--seed``,
then runs up to two timed phases and reports medians:

- train: ``trainer.pretrain`` one step at a time, batch 8 (pretrain-*);
- eval: batches of 8 through ``extract_features`` and
  ``eval_descriptor_accuracy`` (all workloads; frozen-eval's main loop).

The main loop is the train phase on pretrain-* and the eval phase on
frozen-eval; ``samples_per_s`` and ``step_ms_p50`` describe it. The
correctness checks run after the timed phases. ``linear_probe`` is
timed only in the traced run (see ``layer_sweep``).
"""

from __future__ import annotations

import dataclasses
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from hostspeed import HostSpeed
from tracing import Tracer

from pairmask import autodiff as ad
from pairmask import corpus, synthgen, trainer
from pairmask import model as model_mod
from pairmask.model import Model, ModelConfig

BATCH = 8               # train samples per step
EVAL_BATCH = 32         # samples per extract_features / eval_descriptor_accuracy call
WARMUP = 3              # untimed loop iterations (their losses still count)
MIN_TRAIN_STEPS = 200
MIN_EVAL_STEPS = 30
SWEEP_STEPS = 4         # traced run only: train steps on a fresh model
PROBE_REPS = 3          # traced run only: repetitions of the probe trio

# The acceptance-test model shape (tests/test_acceptance.py BASE_MODEL).
SMALL_SHAPE = dict(
    image_size=32, patch=8, dim=32, encoder_depth=2, decoder_depth=1,
    text_decoder_depth=1, heads=4, max_text_len=64, sr_channels=4,
)


@dataclass(frozen=True)
class Workload:
    p_positive: float
    n_samples: int
    shape: dict             # ModelConfig fields besides vocab_size
    eval_every: int         # train steps per eval batch; 0 = no training
    ckpt_every: int = 0     # periodic save_checkpoint inside the train loop


WORKLOADS = {
    "pretrain-small": Workload(1.0 / 21.0, 256, SMALL_SHAPE, eval_every=4),
    "pretrain-default": Workload(1.0 / 21.0, 256, {}, eval_every=6, ckpt_every=16),
    "frozen-eval": Workload(0.5, 400, SMALL_SHAPE, eval_every=0),
}

E2E_UNITS = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "step_ms_p50": "ms",
    "features_per_s": "samples/s",
    "descriptor_eval_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
}

_MASKING = (
    "synthgen.downsample", "masking.patchify", "masking.plan_patch_mask",
    "masking.plan_text_mask", "masking.apply_text_mask",
)
_MODEL = ("encode_image", "decode_image", "sr_head", "embed_text", "mscf_fuse", "decode_text")


def _scored(doc) -> bool:
    """Whether eval_descriptor_accuracy scores this doc."""
    return any(s.polarity == corpus.POLARITY_OTHER and s.token_indices for s in doc.spans)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    w = tracer.wrap
    w(synthgen, "gen_dataset", "synthgen.gen_dataset", lambda a, r: len(r))
    w(trainer, "prepare_training_data", "trainer.prepare_training_data", lambda a, r: len(r.docs))
    w(trainer, "annotate", "corpus.annotate")
    w(trainer, "distill_rule_based", "distill.distill_rule_based")
    w(trainer, "downsample", "synthgen.downsample")
    for fn in ("patchify", "plan_patch_mask", "plan_text_mask", "apply_text_mask"):
        w(trainer, fn, f"masking.{fn}")
    w(model_mod, "patchify", "masking.patchify")
    for fn in _MODEL:
        w(Model, fn, f"model.{fn}")
    for fn in ("loss_mim", "loss_mlm", "loss_sr"):
        w(trainer, fn, f"losses.{fn}")
    w(ad, "backward", "autodiff.backward")
    w(trainer.AdamW, "step", "trainer.adamw_step")
    w(trainer, "train_step", "trainer.train_step")
    w(trainer, "save_checkpoint", "trainer.save_checkpoint")
    w(trainer, "load_checkpoint", "trainer.load_checkpoint")
    w(trainer, "extract_features", "trainer.extract_features", lambda a, r: len(r))
    w(trainer, "eval_descriptor_accuracy", "trainer.eval_descriptor_accuracy",
      lambda a, r: sum(map(_scored, a[2].docs)))
    w(trainer, "linear_probe", "trainer.linear_probe", lambda a, r: r.n_entities)


def _graph(root) -> list:
    """Every node reachable from ``root`` through recorded parents."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def graph_counts(model: Model, samples, data, seed: int) -> dict:
    i = checks.both_descriptor_doc(data)
    total = trainer.sample_losses(
        model, samples[i], data.docs[i], data.factors,
        np.random.default_rng([seed, 1]), np.random.default_rng([seed, 2]),
    ).total
    ops = Counter(n._op for n in _graph(total))
    n_nodes = sum(ops.values())
    low = synthgen.downsample(samples[i].image, model.cfg.sr_factor).astype(np.float32)
    feature = model.forward_finetune(low)
    return {
        "autodiff.nodes_per_sample": n_nodes,
        "autodiff.ops_per_sample": n_nodes - ops["leaf"],
        **{f"autodiff.op.{op}": ops[op] for op in ("matmul", "add", "reshape", "transpose")},
        "autodiff.vjps_per_feature": sum(len(n._vjps) for n in _graph(feature)),
    }


def per_layer(tracer: Tracer, counts: dict, checkpoint_bytes: int) -> dict:
    t = tracer.totals()

    def per_call(name):
        calls, seconds, _, _ = t[name]
        return seconds * 1e3 / calls

    def per_amount(name):
        _, seconds, amount, _ = t[name]
        return seconds * 1e3 / amount

    steps = t["trainer.train_step"]
    return {
        "masking.prepare_ms": sum(t[n][1] for n in _MASKING) * 1e3 / t["synthgen.downsample"][0],
        **{f"model.{fn}_ms": per_call(f"model.{fn}") for fn in _MODEL},
        **{f"losses.{fn}_ms": per_call(f"losses.{fn}") for fn in ("loss_mim", "loss_mlm", "loss_sr")},
        "autodiff.backward_ms": per_call("autodiff.backward"),
        **counts,
        "trainer.adamw_step_ms": per_call("trainer.adamw_step"),
        "trainer.train_step_self_ms": steps[3] * 1e3 / steps[0],
        "trainer.save_checkpoint_ms": per_call("trainer.save_checkpoint"),
        "trainer.load_checkpoint_ms": per_call("trainer.load_checkpoint"),
        "trainer.checkpoint_bytes": checkpoint_bytes,
        "trainer.extract_features_ms_per_sample": per_amount("trainer.extract_features"),
        "trainer.eval_descriptor_ms_per_sample": per_amount("trainer.eval_descriptor_accuracy"),
        "trainer.linear_probe_ms_per_entity": per_amount("trainer.linear_probe"),
        "synthgen.gen_dataset_ms_per_sample": per_amount("synthgen.gen_dataset"),
        "trainer.prepare_training_data_ms_per_sample": per_amount("trainer.prepare_training_data"),
        "corpus.annotate_ms_per_doc": per_call("corpus.annotate"),
        "distill.distill_rule_based_ms_per_doc": per_call("distill.distill_rule_based"),
    }


PER_LAYER_UNITS = {
    "autodiff.nodes_per_sample": "count", "autodiff.ops_per_sample": "count",
    "autodiff.op.matmul": "count", "autodiff.op.add": "count",
    "autodiff.op.reshape": "count", "autodiff.op.transpose": "count",
    "autodiff.vjps_per_feature": "count", "trainer.checkpoint_bytes": "bytes",
}


# ---------------------------------------------------------------------------
# timed phases
# ---------------------------------------------------------------------------


@dataclass
class Timings:
    """Per timed call: seconds, and the host factor in force when it ran."""

    train: list = dataclasses.field(default_factory=list)
    train_factor: list = dataclasses.field(default_factory=list)
    features: list = dataclasses.field(default_factory=list)
    descriptor_eval: list = dataclasses.field(default_factory=list)
    eval_factor: list = dataclasses.field(default_factory=list)
    calls: int = 0          # train steps plus eval batches, warm-up included


def timed_loop(wl: Workload, model, opt, samples, data, tc, seconds: float, host: HostSpeed):
    """The workload's timed loop; returns the loss rows and the timings.

    Pretrain workloads run one ``trainer.pretrain`` step per iteration
    and, every ``eval_every`` steps, one eval batch: 32 samples through
    ``extract_features`` and 32 scored docs through
    ``eval_descriptor_accuracy``. Frozen-eval runs one eval batch per
    iteration. Interleaving puts both kinds of call under the same host
    conditions. The loop ends at a checkpoint boundary once ``seconds``
    of calls are timed.
    """
    scored = [i for i, doc in enumerate(data.docs) if _scored(doc)]
    rows, t = [], Timings()
    step = k = 0
    resumed = False
    while True:
        record = (step if wl.eval_every else k) >= WARMUP
        factor = host.factor
        if wl.eval_every:
            t0 = time.perf_counter()
            rows += trainer.pretrain(model, samples, data, dataclasses.replace(tc, steps=step + 1),
                                     opt=opt, start_step=step)
            step += 1
            t.calls += 1
            if wl.ckpt_every and step % wl.ckpt_every == 0 and not resumed:
                # the one resume of the run: reload the checkpoint just written
                trainer.load_checkpoint(tc.ckpt_dir, model, opt)
                resumed = True
            if record:
                t.train.append(time.perf_counter() - t0)
                t.train_factor.append(factor)
        if not wl.eval_every or step % wl.eval_every == 0:
            feature_batch = [samples[(k * EVAL_BATCH + j) % len(samples)] for j in range(EVAL_BATCH)]
            idx = [scored[(k * EVAL_BATCH + j) % len(scored)] for j in range(EVAL_BATCH)]
            eval_samples = [samples[i] for i in idx]
            eval_data = dataclasses.replace(data, docs=[data.docs[i] for i in idx])
            t0 = time.perf_counter()
            trainer.extract_features(model, feature_batch)
            t1 = time.perf_counter()
            trainer.eval_descriptor_accuracy(model, eval_samples, eval_data, tc.seed)
            t2 = time.perf_counter()
            k += 1
            t.calls += 1
            if record:
                t.features.append(t1 - t0)
                t.descriptor_eval.append(t2 - t1)
                t.eval_factor.append(factor)
        spent = sum(t.train) + sum(t.features) + sum(t.descriptor_eval)
        if (
            spent >= seconds
            and len(t.features) >= MIN_EVAL_STEPS
            and (not wl.eval_every or len(t.train) >= MIN_TRAIN_STEPS)
            and (not wl.ckpt_every or step % wl.ckpt_every == 0)
        ):
            return rows, t
        host.tick()


def timing_metrics(main: list, main_batch: int, feat: list, desc: list) -> dict:
    """The timed end-to-end metrics from per-step seconds."""
    return {
        "samples_per_s": main_batch * len(main) / sum(main),
        "step_ms_p50": statistics.median(main) * 1e3,
        "features_per_s": EVAL_BATCH / statistics.median(feat),
        "descriptor_eval_samples_per_s": EVAL_BATCH / statistics.median(desc),
    }


def layer_sweep(model, cfg, samples, data, seed: int, out_dir: Path) -> int:
    """Traced run only: train steps, a save, a load and the probe trio.

    Gives every workload a value for every layer, frozen-eval included,
    at that workload's model shape; returns the checkpoint's bytes. The
    probes fit the trained (or frozen) model's features, a random-init
    baseline's features and the shuffled-label control.
    """
    fresh = Model(cfg, seed=seed)
    opt = trainer.AdamW(fresh.params)
    tc = trainer.TrainConfig(steps=SWEEP_STEPS, batch_size=BATCH, seed=seed, log_every=0)
    trainer.pretrain(fresh, samples, data, tc, opt=opt)
    ckpt = out_dir / "sweep"
    trainer.save_checkpoint(ckpt, fresh, opt, SWEEP_STEPS)
    trainer.load_checkpoint(ckpt, fresh, opt)
    feats = trainer.extract_features(model, samples)
    base = trainer.extract_features(Model(cfg, seed=seed + 1000), samples)
    entities = sorted({e for s in samples for e in s.labels})
    for _ in range(PROBE_REPS):
        for f, shuffle in ((feats, False), (base, False), (feats, True)):
            trainer.linear_probe(f, samples, entities, seed=seed, shuffle_labels=shuffle)
    return sum(f.stat().st_size for f in ckpt.iterdir())


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path, started) -> dict:
    """One workload in this process. ``started()`` is the time since start."""
    wl = WORKLOADS[name]
    tracer = Tracer()
    if trace:
        install(tracer)

    samples = synthgen.gen_dataset(synthgen.SynthSpec(canvas=64, p_positive=wl.p_positive, seed=seed), wl.n_samples)
    data = trainer.prepare_training_data(samples)
    cfg = ModelConfig(vocab_size=len(data.vocab), **wl.shape)
    model = Model(cfg, seed=seed)
    setup_s = started()

    work_dir = out_dir / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    tc = trainer.TrainConfig(
        steps=0, batch_size=BATCH, seed=seed, log_every=0, ckpt_every=wl.ckpt_every,
        ckpt_dir=str(work_dir / "ckpt") if wl.ckpt_every else None,
    )
    opt = trainer.AdamW(model.params)
    host = HostSpeed()
    rows, t = timed_loop(wl, model, opt, samples, data, tc, seconds, host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def scaled(times, factors):
        return [x * f for x, f in zip(times, factors)]

    if wl.eval_every:
        main, main_factor, main_batch = t.train, t.train_factor, BATCH
    else:
        main = [f + d for f, d in zip(t.features, t.descriptor_eval)]
        main_factor, main_batch = t.eval_factor, EVAL_BATCH
    raw = timing_metrics(main, main_batch, t.features, t.descriptor_eval)
    metrics = {
        "setup_s": setup_s,
        **timing_metrics(
            scaled(main, main_factor),
            main_batch,
            scaled(t.features, t.eval_factor),
            scaled(t.descriptor_eval, t.eval_factor),
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    units = E2E_UNITS
    if trace:
        counts = graph_counts(model, samples, data, seed)
        ckpt_bytes = layer_sweep(model, cfg, samples, data, seed, work_dir)
        tracer.close()
        tracer.dump(out_dir / f"trace-{name}-seed{seed}.json")
        traced_e2e = metrics
        metrics = per_layer(tracer, counts, ckpt_bytes)
        units = {k: PER_LAYER_UNITS.get(k, "ms") for k in metrics}

    if wl.eval_every:
        results = [
            checks.rebalance_identity(data),
            checks.finite_difference(cfg, samples, data, seed),
            checks.loss_curve(rows),
            checks.resume(model, opt, samples, data, tc, work_dir / "ckpt", len(rows),
                          save=not wl.ckpt_every),
        ]
    else:
        entities = sorted({e for s in samples for e in s.labels})
        results = [
            checks.reference_encoder({"model": model, "baseline": Model(cfg, seed=seed + 1000)}, samples[:32]),
            checks.probe_planted_and_noise(samples, entities, seed),
            checks.descriptor_eval_repeats(model, samples, data, seed),
        ]
    shutil.rmtree(work_dir, ignore_errors=True)

    out = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "checks": [dataclasses.asdict(c) for c in results],
        "raw_timing_metrics": raw,
        "host_kernel_ms_median": host.median_ms(),
        "timings": dataclasses.asdict(t),
        "correct": all(c.ok for c in results),
        "attempted": t.calls + len(results),
        "failed": 0,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    if trace:
        out["traced_end_to_end"] = {k: float(v) for k, v in traced_e2e.items()}
    return out
