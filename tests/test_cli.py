"""End-to-end command tests through main(argv); no subprocesses."""

import json
from pathlib import Path

import pytest

from pairmask.cli import main, parse_config_overrides
from pairmask.model import Model
from pairmask.synthgen import load_dataset
from pairmask.trainer import AdamW, load_checkpoint, read_checkpoint

SMALL_MODEL = [
    "--config", "dim=16",
    "--config", "heads=2",
    "--config", "encoder_depth=1",
    "--config", "decoder_depth=1",
    "--config", "text_decoder_depth=1",
    "--config", "sr_channels=2",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["synth", "--out", str(out), "--n", "16", "--seed", "0", "--p-positive", "0.3"])
    assert rc == 0
    return out


def test_synth_writes_loadable_corpus(corpus_dir):
    samples = load_dataset(corpus_dir)
    assert len(samples) == 16
    assert samples[0].image.shape == (64, 64)


def test_synth_rejects_bad_canvas(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "x"), "--n", "2", "--canvas", "13"])
    assert rc == 1
    assert "canvas" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated image", "missing manifest row"])
def test_stats_on_a_damaged_corpus_is_a_one_line_error(tmp_path, capsys, damage):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), "--n", "4", "--seed", "0"]) == 0
    sid = load_dataset(out)[1].id
    if damage == "truncated image":
        image = out / "images" / f"{sid}.f32"
        image.write_bytes(image.read_bytes()[:100])
    else:
        rows = (out / "manifest.tsv").read_text().splitlines(keepends=True)
        (out / "manifest.tsv").write_text("".join(row for row in rows if not row.startswith(f"{sid}\t")))
    capsys.readouterr()
    assert main(["stats", "--data", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"sample {sid}" in err


def test_stats_reports_imbalance(corpus_dir, capsys):
    rc = main(["stats", "--data", str(corpus_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "imbalance ratio:" in out
    assert "lambda_oth:" in out


def test_distill_rule_based_aligned(corpus_dir, tmp_path):
    out = tmp_path / "distilled.jsonl"
    rc = main(["distill", "--data", str(corpus_dir), "--out", str(out)])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 16
    assert all(row["provenance"] == "rule_based" for row in rows)
    sample_ids = {s.id for s in load_dataset(corpus_dir)}
    assert {row["id"] for row in rows} == sample_ids


def test_pretrain_writes_metrics_and_checkpoint(corpus_dir, tmp_path, capsys):
    metrics = tmp_path / "metrics.jsonl"
    ckpt = tmp_path / "ckpt"
    rc = main([
        "pretrain", "--data", str(corpus_dir),
        "--steps", "2", "--batch-size", "2", "--log-every", "0",
        "--metrics", str(metrics), "--ckpt-dir", str(ckpt),
        *SMALL_MODEL,
    ])
    assert rc == 0
    rows = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert [r["step"] for r in rows] == [0, 1]
    assert [f.name for f in ckpt.iterdir()] == ["checkpoint.bin"]
    out = capsys.readouterr().out
    assert "final step 1" in out


def test_pretrain_resume_continues(corpus_dir, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    rc = main([
        "pretrain", "--data", str(corpus_dir),
        "--steps", "2", "--batch-size", "2", "--log-every", "0",
        "--ckpt-dir", str(ckpt), *SMALL_MODEL,
    ])
    assert rc == 0
    capsys.readouterr()
    rc = main([
        "pretrain", "--data", str(corpus_dir),
        "--steps", "4", "--batch-size", "2", "--log-every", "0",
        "--resume", str(ckpt), "--ckpt-dir", str(ckpt),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "resumed" in out and "at step 2" in out
    assert "final step 3" in out


def test_model_attention_training_is_reproducible_across_runs_and_resume(corpus_dir, tmp_path, capsys):
    """Under ``--attention model`` the SR weights come from the model being
    trained: two runs give the same checkpoint bytes, and 6 steps plus a
    3-step resume give those of a straight 9-step run."""
    def run(name, steps, *extra):
        rc = main([
            "pretrain", "--data", str(corpus_dir), "--steps", str(steps), "--batch-size", "4",
            "--log-every", "0", "--attention", "model", "--ckpt-dir", str(tmp_path / name), *extra,
        ])
        assert rc == 0
        return (tmp_path / name / "checkpoint.bin").read_bytes()

    straight = run("a", 9, *SMALL_MODEL)
    assert run("b", 9, *SMALL_MODEL) == straight
    run("six", 6, *SMALL_MODEL)
    assert run("resumed", 9, "--resume", str(tmp_path / "six")) == straight
    models = [Model(read_checkpoint(tmp_path / name).header["model"], seed=1) for name in ("a", "resumed")]
    for model, name in zip(models, ("a", "resumed")):
        assert load_checkpoint(tmp_path / name, model, AdamW(model.params)) == 9
    for key, p in models[0].params.items():
        assert p.data.tobytes() == models[1].params[key].data.tobytes()
    capsys.readouterr()


def test_pretrain_resume_refuses_to_go_backwards(corpus_dir, tmp_path, capsys):
    ckpt, later = tmp_path / "ckpt", tmp_path / "later"
    args = ["pretrain", "--data", str(corpus_dir), "--batch-size", "2", "--log-every", "0"]
    assert main([*args, "--steps", "3", "--ckpt-dir", str(ckpt), *SMALL_MODEL]) == 0
    capsys.readouterr()
    rc = main([*args, "--steps", "1", "--resume", str(ckpt), "--ckpt-dir", str(later)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "start_step 3" in err and "steps 1" in err
    assert not later.exists()
    # resuming at the last step is a no-op that rewrites the same step
    assert main([*args, "--steps", "3", "--resume", str(ckpt), "--ckpt-dir", str(later)]) == 0
    saved = read_checkpoint(later)
    model = Model(saved.header["model"])
    opt = AdamW(model.params, saved.header["opt"])
    assert load_checkpoint(later, model, opt) == 3
    assert opt.t == 3


@pytest.mark.parametrize("batch_size", ["0", "-2"])
def test_pretrain_rejects_batch_size_below_one(corpus_dir, tmp_path, capsys, batch_size):
    ckpt = tmp_path / "ckpt"
    rc = main([
        "pretrain", "--data", str(corpus_dir), "--steps", "1", "--log-every", "0",
        "--batch-size", batch_size, "--ckpt-dir", str(ckpt), *SMALL_MODEL,
    ])
    assert rc == 1
    assert f"batch_size {batch_size} < 1" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("flags, named", [
    (["--ckpt-every", "5"], "ckpt_every 5"),
    (["--ckpt-every", "-1", "--ckpt-dir", "ckpt"], "ckpt_every -1"),
])
def test_pretrain_rejects_checkpoint_cadence_that_cannot_act(corpus_dir, tmp_path, capsys, monkeypatch, flags, named):
    monkeypatch.chdir(tmp_path)
    rc = main([
        "pretrain", "--data", str(corpus_dir), "--steps", "2", "--batch-size", "2",
        "--log-every", "0", *flags, *SMALL_MODEL,
    ])
    assert rc == 1
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _damaged_checkpoints(ckpt, tmp_path) -> dict:
    blob = (ckpt / "checkpoint.bin").read_bytes()
    truncated, flipped, old = tmp_path / "truncated", tmp_path / "flipped", tmp_path / "old"
    for d in (truncated, flipped, old):
        d.mkdir()
    (truncated / "checkpoint.bin").write_bytes(blob[: len(blob) - 100])
    (flipped / "checkpoint.bin").write_bytes(blob[:200] + bytes([blob[200] ^ 0x10]) + blob[201:])
    for name in ("params.bin", "manifest.tsv", "config.txt"):
        (old / name).write_bytes(b"0\n")
    return {"truncated": truncated, "flipped": flipped, "old": old}


@pytest.mark.parametrize("command", ["probe", "resume"])
def test_damaged_checkpoint_is_a_one_line_error(corpus_dir, tmp_path, capsys, command):
    ckpt = tmp_path / "ckpt"
    assert main([
        "pretrain", "--data", str(corpus_dir), "--steps", "1", "--batch-size", "2",
        "--log-every", "0", "--ckpt-dir", str(ckpt), *SMALL_MODEL,
    ]) == 0
    for kind, damaged in _damaged_checkpoints(ckpt, tmp_path).items():
        capsys.readouterr()
        if command == "probe":
            argv = ["probe", "--data", str(corpus_dir), "--ckpt", str(damaged)]
        else:
            argv = ["pretrain", "--data", str(corpus_dir), "--steps", "2", "--resume", str(damaged)]
        assert main(argv) == 1, kind
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (kind, err)
        assert str(damaged / "checkpoint.bin") in err, (kind, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["probe", "resume"])
def test_a_command_reads_its_checkpoint_once(corpus_dir, tmp_path, capsys, monkeypatch, command):
    ckpt = tmp_path / "ckpt"
    assert main([
        "pretrain", "--data", str(corpus_dir), "--steps", "1", "--batch-size", "2",
        "--log-every", "0", "--ckpt-dir", str(ckpt), *SMALL_MODEL,
    ]) == 0
    reads = []
    read_bytes = Path.read_bytes

    def counted(self):
        if self.name == "checkpoint.bin":
            reads.append(self)
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counted)
    if command == "probe":
        argv = ["probe", "--data", str(corpus_dir), "--ckpt", str(ckpt)]
    else:
        argv = ["pretrain", "--data", str(corpus_dir), "--steps", "2", "--batch-size", "2",
                "--log-every", "0", "--resume", str(ckpt)]
    assert main(argv) == 0
    assert reads == [ckpt / "checkpoint.bin"]


def test_pretrain_resume_rejects_config_overrides(corpus_dir, tmp_path, capsys):
    rc = main([
        "pretrain", "--data", str(corpus_dir), "--steps", "1",
        "--resume", str(tmp_path / "nowhere"), "--config", "dim=8",
    ])
    assert rc == 1
    assert "--resume" in capsys.readouterr().err


def test_pretrain_uses_distilled_file(corpus_dir, tmp_path):
    distilled = tmp_path / "d.jsonl"
    assert main(["distill", "--data", str(corpus_dir), "--out", str(distilled)]) == 0
    rc = main([
        "pretrain", "--data", str(corpus_dir),
        "--steps", "1", "--batch-size", "2", "--log-every", "0",
        "--distilled", str(distilled), *SMALL_MODEL,
    ])
    assert rc == 0


def test_pretrain_ablation_flags(corpus_dir):
    rc = main([
        "pretrain", "--data", str(corpus_dir),
        "--steps", "1", "--batch-size", "2", "--log-every", "0",
        "--no-sr", "--no-rebalance", "--no-descriptor-mask", "--no-distill",
        *SMALL_MODEL,
    ])
    assert rc == 0


def test_pretrain_rejects_unknown_config_key(corpus_dir, capsys):
    rc = main([
        "pretrain", "--data", str(corpus_dir), "--steps", "1",
        "--config", "window=7",
    ])
    assert rc == 1
    assert "unknown model config key" in capsys.readouterr().err


def test_pretrain_rejects_small_vocab_override(corpus_dir, capsys):
    rc = main([
        "pretrain", "--data", str(corpus_dir), "--steps", "1",
        "--config", "vocab_size=4",
    ])
    assert rc == 1
    assert "too small" in capsys.readouterr().err


def test_probe_runs_with_baseline(corpus_dir, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    assert main([
        "pretrain", "--data", str(corpus_dir),
        "--steps", "1", "--batch-size", "2", "--log-every", "0",
        "--ckpt-dir", str(ckpt), *SMALL_MODEL,
    ]) == 0
    capsys.readouterr()
    rc = main(["probe", "--data", str(corpus_dir), "--ckpt", str(ckpt), "--baseline"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "macro accuracy" in out
    assert "random-init macro accuracy" in out
    assert "delta:" in out


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_distill_help_documents_credential_env(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distill", "--help"])
    assert exc.value.code == 0
    assert "DISTILL_API_KEY" in capsys.readouterr().out


def test_config_override_parser_types():
    model_cfg, opt_cfg = {}, {}
    parse_config_overrides(["dim=32", "opt.lr=0.001", "patch_mask_ratio=0.5"], model_cfg, opt_cfg)
    assert model_cfg == {"dim": 32, "patch_mask_ratio": 0.5}
    assert opt_cfg == {"lr": 0.001}
    with pytest.raises(ValueError):
        parse_config_overrides(["dim"], {}, {})
    with pytest.raises(ValueError):
        parse_config_overrides(["opt.momentum=0.9"], {}, {})
    with pytest.raises(ValueError):
        parse_config_overrides(["dim=abc"], {}, {})
