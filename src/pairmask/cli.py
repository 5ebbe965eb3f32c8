"""Command-line entry point.

Subcommands cover the full workflow: generate a paired synthetic
corpus, inspect its descriptor statistics, produce distilled summaries
(rule-based or through a remote chat endpoint), pre-train, and probe
frozen features. Every command exits 0 on success and 1 on failure;
argparse usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .corpus import DEFAULT_BETA, DEFAULT_ENTITY_LEXICON, Vocabulary, annotate, load_word_list, tokenize
from .distill import (
    DEFAULT_CREDENTIAL_ENV,
    DistillError,
    HttpChatClient,
    build_prompt,
    distill_remote,
    distill_rule_based,
)
from .losses import DEFAULT_LAMBDA_NEG
from .model import Model, ModelConfig
from .synthgen import SynthSpec, gen_dataset, load_dataset, save_dataset
from .trainer import (
    AdamW,
    ModelAttention,
    OptimizerConfig,
    TrainConfig,
    TrainingError,
    eval_descriptor_accuracy,
    extract_features,
    linear_probe,
    prepare_training_data,
    pretrain,
    read_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)


def parse_config_overrides(pairs, model_cfg: dict, opt_cfg: dict) -> None:
    """Apply ``key=value`` overrides; ``opt.`` prefix targets the optimizer.

    Every field of both config dataclasses is addressable by name; an
    unknown key or an uncoercible value raises ValueError.
    """
    # every field is an int or a float, annotated as a string under
    # deferred evaluation
    by_name = {"int": int, "float": float}
    model_fields = {f.name: by_name[f.type] for f in fields(ModelConfig)}
    opt_fields = {f.name: by_name[f.type] for f in fields(OptimizerConfig)}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"config override must be key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if key.startswith("opt."):
            name = key[4:]
            if name not in opt_fields:
                raise ValueError(f"unknown optimizer config key: {name}")
            opt_cfg[name] = opt_fields[name](value)
        else:
            if key not in model_fields:
                raise ValueError(f"unknown model config key: {key}")
            model_cfg[key] = model_fields[key](value)


def _lexicon(args) -> frozenset:
    if getattr(args, "lexicon", None):
        return load_word_list(args.lexicon)
    return DEFAULT_ENTITY_LEXICON


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = SynthSpec(canvas=args.canvas, p_positive=args.p_positive, seed=args.seed)
    samples = gen_dataset(spec, args.n)
    save_dataset(samples, args.out)
    n_pos = sum(1 for s in samples if s.lesion_mask.max() > 0)
    print(f"wrote {len(samples)} samples to {args.out} ({n_pos} with findings)")
    return 0


def cmd_stats(args) -> int:
    samples = load_dataset(args.data)
    lexicon = _lexicon(args)
    data = prepare_training_data(
        samples, lexicon=lexicon, beta=args.beta,
        use_distill=not args.no_distill, lambda_neg=args.lambda_neg,
    )
    s = data.stats
    print(f"reports: {len(samples)}")
    print(f"entity mentions: {sum(s.entity_counts.values())} across {len(s.entity_counts)} entities")
    print(f"negation descriptor spans: {s.n_neg} ({s.n_neg_tokens} tokens)")
    print(f"other descriptor spans: {s.n_oth} ({s.n_oth_tokens} tokens)")
    print(f"imbalance ratio: {s.imbalance_ratio:.2f}")
    print(f"lambda_neg: {data.factors.lambda_neg}")
    print(f"lambda_oth: {data.factors.lambda_oth}")
    top = sorted(s.descriptor_counts.items(), key=lambda kv: -kv[1])[:10]
    for text, count in top:
        print(f"  {count:6d}  {text}")
    return 0


def cmd_distill(args) -> int:
    samples = load_dataset(args.data)
    lexicon = _lexicon(args)

    client = None
    if args.remote:
        client = HttpChatClient(
            base_url=args.base_url, model=args.model,
            credential_env=args.credential_env,
        )

    rows = []
    for sample in samples:
        # annotate and the distillers read surfaces only, so no vocabulary is built
        doc = annotate(tokenize(sample.report, Vocabulary()), lexicon, beta=args.beta)
        if client is None:
            report = distill_rule_based(doc)
        else:
            entities = [m.entity for m in doc.mentions]
            if not entities:
                print(f"warning: {sample.id} mentions no entities, skipped", file=sys.stderr)
                rows.append({"id": sample.id, "raw": "", "provenance": "skipped"})
                continue
            prompt = build_prompt(sample.report, entities)
            report = distill_remote(prompt, client, cache_dir=args.cache, lexicon=lexicon)
        rows.append({"id": sample.id, "raw": report.raw, "provenance": report.provenance})

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(json.dumps(r) + "\n" for r in rows))
    print(f"wrote {len(rows)} distilled reports to {out}")
    return 0


def _load_distilled_file(path, samples) -> list:
    by_id = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        by_id[row["id"]] = row["raw"]
    missing = [s.id for s in samples if s.id not in by_id]
    if missing:
        raise ValueError(f"distilled file lacks ids: {', '.join(missing[:5])}")
    return [by_id[s.id] for s in samples]


def cmd_pretrain(args) -> int:
    samples = load_dataset(args.data)
    lexicon = _lexicon(args)

    if args.resume:
        if args.config:
            raise ValueError("--config cannot be combined with --resume; the checkpoint fixes the configuration")
        ckpt = read_checkpoint(args.resume)
        mcfg, ocfg = ckpt.header["model"], ckpt.header["opt"]
        fit_vocab = False
    else:
        model_overrides: dict = {}
        opt_overrides: dict = {}
        parse_config_overrides(args.config, model_overrides, opt_overrides)
        mcfg = ModelConfig(**model_overrides)
        ocfg = OptimizerConfig(**opt_overrides)
        fit_vocab = "vocab_size" not in model_overrides

    distilled_texts = None
    if args.distilled:
        if args.no_distill:
            raise ValueError("--distilled conflicts with --no-distill")
        distilled_texts = _load_distilled_file(args.distilled, samples)

    data = prepare_training_data(
        samples, lexicon=lexicon, beta=args.beta,
        max_text_len=mcfg.max_text_len,
        lambda_neg=args.lambda_neg,
        use_distill=not args.no_distill,
        use_rebalance=not args.no_rebalance,
        distilled_texts=distilled_texts,
    )

    if fit_vocab:
        mcfg = replace(mcfg, vocab_size=len(data.vocab))
    elif len(data.vocab) > mcfg.vocab_size:
        source = "checkpoint " if args.resume else ""
        raise ValueError(f"{source}vocab_size {mcfg.vocab_size} too small for corpus ({len(data.vocab)})")

    model = Model(mcfg, seed=args.seed)
    opt = AdamW(model.params, ocfg)
    start_step = 0
    if args.resume:
        start_step = restore_checkpoint(ckpt, model, opt)
        del ckpt  # the file's bytes, held no longer than the restore
        print(f"resumed from {args.resume} at step {start_step}")

    attention = ModelAttention(model, data.vocab) if args.attention == "model" else None
    cfg = TrainConfig(
        steps=args.steps,
        batch_size=args.batch_size,
        seed=args.seed,
        log_every=args.log_every,
        ckpt_every=args.ckpt_every,
        ckpt_dir=args.ckpt_dir,
        use_sr=not args.no_sr,
        use_descriptor_mask=not args.no_descriptor_mask,
    )
    rows = pretrain(
        model, samples, data, cfg, opt=opt, start_step=start_step,
        log=print, attention=attention,
    )

    if args.ckpt_dir:
        save_checkpoint(args.ckpt_dir, model, opt, step=cfg.steps)
        print(f"checkpoint written to {args.ckpt_dir}")
    if args.metrics:
        path = Path(args.metrics)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        print(f"metrics written to {path}")
    if rows:
        final = rows[-1]
        print(
            f"final step {final['step']}: total {final['total']:.4f} "
            f"(mim {final['l_mim']:.4f}, mlm {final['l_mlm']:.4f}, sr {final['l_sr']:.4f})"
        )
    if args.eval_descriptors:
        acc = eval_descriptor_accuracy(model, samples, data, seed=args.seed)
        print(f"masked other-descriptor accuracy: {acc:.3f}")
    return 0


def cmd_probe(args) -> int:
    samples = load_dataset(args.data)
    ckpt = read_checkpoint(args.ckpt)
    mcfg = ckpt.header["model"]
    model = Model(mcfg, seed=0)
    restore_checkpoint(ckpt, model, AdamW(model.params, ckpt.header["opt"]))
    del ckpt  # the file's bytes, held no longer than the restore

    entities = sorted({e for s in samples for e in s.labels})
    feats = extract_features(model, samples)
    result = linear_probe(
        feats, samples, entities,
        train_frac=args.train_frac, seed=args.seed, shuffle_labels=args.shuffle_labels,
    )
    for entity in sorted(result.per_entity):
        print(f"{entity}: {result.per_entity[entity]:.3f}")
    print(f"macro accuracy over {result.n_entities} entities: {result.macro_accuracy:.3f}")

    if args.baseline:
        baseline = Model(mcfg, seed=args.seed + 1000)
        base_feats = extract_features(baseline, samples)
        base = linear_probe(
            base_feats, samples, entities,
            train_frac=args.train_frac, seed=args.seed, shuffle_labels=args.shuffle_labels,
        )
        print(f"random-init macro accuracy: {base.macro_accuracy:.3f}")
        print(f"delta: {result.macro_accuracy - base.macro_accuracy:+.3f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairmask",
        description="Masked pre-training on paired synthetic medical images and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a paired image/report corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=256, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--canvas", type=int, default=64, help="image side in pixels")
    p.add_argument("--p-positive", type=float, default=1.0 / 21.0,
                   help="per-entity probability of a positive finding")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="descriptor statistics and loss weights for a corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--lexicon", help="entity word list file, one word per line")
    p.add_argument("--beta", type=int, default=DEFAULT_BETA)
    p.add_argument("--lambda-neg", type=float, default=DEFAULT_LAMBDA_NEG)
    p.add_argument("--no-distill", action="store_true",
                   help="measure original reports only, without distilled text")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "distill",
        help="write distilled summaries for a corpus",
        description="Produce entity-centered summaries. The default is the "
        "deterministic rule-based distiller; --remote sends the one-shot "
        "prompt to an OpenAI-style chat endpoint. The API credential is "
        f"read from the {DEFAULT_CREDENTIAL_ENV} environment variable "
        "(override with --credential-env); it is never read from files.",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output JSONL file")
    p.add_argument("--lexicon")
    p.add_argument("--beta", type=int, default=DEFAULT_BETA)
    p.add_argument("--remote", action="store_true", help="use a remote chat endpoint")
    p.add_argument("--base-url", default="https://api.openai.com/v1")
    p.add_argument("--model", default="gpt-3.5-turbo")
    p.add_argument("--credential-env", default=DEFAULT_CREDENTIAL_ENV,
                   help="environment variable holding the API key")
    p.add_argument("--cache", default=".distill-cache", help="response cache directory")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("pretrain", help="run masked pre-training")
    p.add_argument("--data", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--beta", type=int, default=DEFAULT_BETA)
    p.add_argument("--lambda-neg", type=float, default=DEFAULT_LAMBDA_NEG)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log-every", type=int, default=10)
    p.add_argument("--metrics", help="write per-step metrics JSONL here")
    p.add_argument("--distilled", help="JSONL of pre-computed distilled reports (from the distill command)")
    p.add_argument("--ckpt-dir", help="checkpoint directory")
    p.add_argument("--ckpt-every", type=int, default=0, help="also checkpoint every K steps")
    p.add_argument("--resume", help="checkpoint directory to continue from")
    p.add_argument("--config", action="append", metavar="KEY=VALUE",
                   help="model/optimizer override; optimizer keys use the opt. prefix "
                        "(e.g. --config dim=32 --config opt.lr=1e-3); repeatable")
    p.add_argument("--attention", choices=["ground-truth", "model"], default="ground-truth",
                   help="super-resolution weighting source")
    p.add_argument("--no-sr", action="store_true", help="drop the super-resolution loss")
    p.add_argument("--no-rebalance", action="store_true", help="uniform token loss weights")
    p.add_argument("--no-descriptor-mask", action="store_true", help="purely random text masking")
    p.add_argument("--no-distill", action="store_true", help="train on original reports only")
    p.add_argument("--eval-descriptors", action="store_true",
                   help="report masked descriptor accuracy after training")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("probe", help="linear probe of frozen features")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True, help="checkpoint directory")
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle-labels", action="store_true", help="no-signal control")
    p.add_argument("--baseline", action="store_true",
                   help="also probe a randomly initialized model")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TrainingError, DistillError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
