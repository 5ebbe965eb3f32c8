"""Synthetic paired corpus: images with geometric findings plus reports.

Each sample considers a fixed roster of entities. An entity is present
with probability ``p_positive`` (default 1/21, giving the 20:1
negative:positive descriptor imbalance the loss re-balancing targets).
Present entities render their shape into the image with an intensity
keyed to a sampled severity word and contribute "there is {severity}
{entity}." to the report; absent ones contribute "there is no {entity}.".
The lesion mask drives a blurred, max-normalized attention map used by
the super-resolution loss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

DEFAULT_CANVAS = 64
DEFAULT_P_POSITIVE = 1.0 / 21.0

SEVERITY_INTENSITY = {"mild": 0.4, "moderate": 0.65, "severe": 0.9}
_SEVERITIES = tuple(SEVERITY_INTENSITY)

SHAPE_DISK = "disk"
SHAPE_BAR = "bar"
SHAPE_RING = "ring"
SHAPE_BLOB = "blob"

# Entity -> shape, one shape per entity; insertion order fixes the
# report sentence order and each entity's home quadrant.
DEFAULT_ENTITY_SHAPES = {
    "pneumonia": SHAPE_DISK,
    "effusion": SHAPE_BAR,
    "nodule": SHAPE_RING,
    "edema": SHAPE_BLOB,
}

LABEL_PRESENT = "present"
LABEL_ABSENT = "absent"

# 5x5 binomial blur kernel, rows/cols [1, 4, 6, 4, 1] / 16.
_BINOMIAL_1D = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


@dataclass(frozen=True)
class SynthSpec:
    canvas: int = DEFAULT_CANVAS
    p_positive: float = DEFAULT_P_POSITIVE
    entities: dict = field(default_factory=lambda: dict(DEFAULT_ENTITY_SHAPES))
    seed: int = 0

    def __post_init__(self):
        if self.canvas % 4 != 0 or self.canvas < 16:
            raise ValueError(f"SynthSpec: canvas {self.canvas} must be a multiple of 4, >= 16")
        if not 0.0 < self.p_positive < 1.0:
            raise ValueError(f"SynthSpec: p_positive {self.p_positive} outside (0, 1)")
        bad = [s for s in self.entities.values() if s not in (SHAPE_DISK, SHAPE_BAR, SHAPE_RING, SHAPE_BLOB)]
        if bad:
            raise ValueError(f"SynthSpec: unknown shapes {bad}")


@dataclass
class SynthSample:
    id: str
    report: str
    image: np.ndarray         # (canvas, canvas) float32 in [0, 1]
    lesion_mask: np.ndarray   # (canvas, canvas) float32, 1 on findings
    attention: np.ndarray     # (canvas, canvas) float32 in [0, 1]
    labels: dict              # entity -> present | absent | uncertain


def _smooth_background(rng: np.random.Generator, side: int) -> np.ndarray:
    """Low-frequency field: coarse uniform grid, bilinearly resized."""
    coarse = rng.uniform(0.05, 0.30, size=(5, 5))
    pos = np.linspace(0.0, coarse.shape[0] - 1.0, side)
    i0 = np.floor(pos).astype(int)
    i1 = np.minimum(i0 + 1, coarse.shape[0] - 1)
    t = pos - i0
    rows = coarse[i0] * (1 - t)[:, None] + coarse[i1] * t[:, None]  # (side, 5)
    cols = rows[:, i0] * (1 - t)[None, :] + rows[:, i1] * t[None, :]
    return cols


def _shape_support(shape: str, center: tuple, size: float, canvas: int) -> np.ndarray:
    cy, cx = center
    yy, xx = np.mgrid[0:canvas, 0:canvas]
    dy, dx = yy - cy, xx - cx
    if shape == SHAPE_DISK:
        return dy * dy + dx * dx <= size * size
    if shape == SHAPE_BAR:
        return (np.abs(dy) <= size / 3.0) & (np.abs(dx) <= size * 1.6)
    if shape == SHAPE_RING:
        r2 = dy * dy + dx * dx
        return (r2 <= size * size) & (r2 >= (size - 2.5) ** 2)
    if shape == SHAPE_BLOB:
        return (dy / (size * 0.7)) ** 2 + (dx / (size * 1.3)) ** 2 <= 1.0
    raise ValueError(f"unknown shape {shape}")


_QUADRANT_CENTERS = ((0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75))


def gen_sample(spec: SynthSpec, rng: np.random.Generator, sample_id: str = "synth-00000") -> SynthSample:
    """One paired sample; every value a pure function of (spec, rng state)."""
    side = spec.canvas
    image = _smooth_background(rng, side)
    mask = np.zeros((side, side), dtype=bool)
    sentences = []
    labels = {}
    for idx, (entity, shape) in enumerate(spec.entities.items()):
        present = rng.random() < spec.p_positive
        if not present:
            sentences.append(f"there is no {entity}.")
            labels[entity] = LABEL_ABSENT
            continue
        severity = _SEVERITIES[rng.integers(0, len(_SEVERITIES))]
        qy, qx = _QUADRANT_CENTERS[idx % 4]
        # keep the rendered shape and its blur halo inside the canvas
        cy = qy * side + rng.uniform(-side * 0.08, side * 0.08)
        cx = qx * side + rng.uniform(-side * 0.08, side * 0.08)
        size = rng.uniform(side * 0.07, side * 0.11)
        support = _shape_support(shape, (cy, cx), size, side)
        image = np.where(support, np.maximum(image, SEVERITY_INTENSITY[severity]), image)
        mask |= support
        sentences.append(f"there is {severity} {entity}.")
        labels[entity] = LABEL_PRESENT
    # C order, as load_dataset gives: a reloaded sample is the same arrays
    image = np.ascontiguousarray(np.clip(image, 0.0, 1.0), dtype=np.float32)
    mask = np.ascontiguousarray(mask, dtype=np.float32)
    return SynthSample(
        id=sample_id,
        report=" ".join(sentences),
        image=image,
        lesion_mask=mask,
        attention=attention_map(mask),
        labels=labels,
    )


def gen_dataset(spec: SynthSpec, n: int) -> list:
    """n samples with ids synth-00000..; sample i is independent of n."""
    out = []
    for i in range(n):
        rng = np.random.default_rng([spec.seed, i])
        out.append(gen_sample(spec, rng, sample_id=f"synth-{i:05d}"))
    return out


def attention_map(lesion_mask: np.ndarray) -> np.ndarray:
    """Blurred lesion mask rescaled to peak 1; all-zero mask stays zero.

    The 5x5 binomial blur runs separably over the mask zero-padded by 2:
    rows, then columns. On a 0/1 mask every tap and partial sum is a
    multiple of 1/256, so each is exact and the float64 result is the
    same in any summation order.
    """
    if lesion_mask.ndim != 2:
        raise ValueError(f"attention_map: mask must be 2-D, got {lesion_mask.shape}")
    h, w = lesion_mask.shape
    padded = np.pad(lesion_mask.astype(np.float64), 2)
    rows = sum(k * padded[:, j : j + w] for j, k in enumerate(_BINOMIAL_1D))
    blurred = sum(k * rows[i : i + h] for i, k in enumerate(_BINOMIAL_1D))
    peak = blurred.max()
    if peak <= 0.0:
        return np.zeros_like(lesion_mask, dtype=np.float32)
    return (blurred / peak).astype(np.float32)


def downsample(image: np.ndarray, factor: int = 2) -> np.ndarray:
    """Average pooling of float images by ``factor`` over the last two axes:
    (..., H, W) -> (..., H/factor, W/factor); axes before them index images.

    Each block is summed in a fixed order, whatever the memory layout:
    each of its rows left to right, then the row sums top to bottom, each
    sum starting from zero; then divided by factor**2. For factors below 8
    and at least two blocks per row, that is numpy's ``mean(axis=(1, 3))``
    over the blocks of a C-ordered image, bit for bit. A stack of images
    pools to the bits of each image alone.
    """
    if image.ndim < 2:
        raise ValueError(f"downsample: need (..., H, W) images, got {image.shape}")
    h, w = image.shape[-2:]
    if h % factor or w % factor:
        raise ValueError(f"downsample: {image.shape} not divisible by factor {factor}")
    blocks = image.reshape(image.shape[:-2] + (h // factor, factor, w // factor, factor))
    total = np.zeros(image.shape[:-2] + (h // factor, w // factor), dtype=image.dtype)
    for i in range(factor):
        row = np.zeros_like(total)
        for j in range(factor):
            row += blocks[..., i, :, j]
        total += row
    total /= factor * factor
    return total


# ---------------------------------------------------------------------------
# on-disk layout: reports.jsonl + labels.jsonl + raw float32 images
# ---------------------------------------------------------------------------


def save_dataset(samples: Sequence[SynthSample], out_dir) -> None:
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    with open(out / "reports.jsonl", "w") as fh:
        for s in samples:
            rec = {"id": s.id, "text": s.report, "image_ref": f"images/{s.id}.f32"}
            fh.write(json.dumps(rec) + "\n")
    with open(out / "labels.jsonl", "w") as fh:
        for s in samples:
            fh.write(json.dumps({"id": s.id, "labels": s.labels}) + "\n")
    with open(out / "manifest.tsv", "w") as fh:
        for s in samples:
            side = s.image.shape[0]
            fh.write(f"{s.id}\t{side}\timages/{s.id}.f32\tmasks/{s.id}.f32\n")
    for s in samples:
        s.image.astype("<f4").tofile(out / "images" / f"{s.id}.f32")
        s.lesion_mask.astype("<f4").tofile(out / "masks" / f"{s.id}.f32")


def _read_plane(path: Path, side: int, sid: str) -> np.ndarray:
    """A side x side little-endian float32 file; any other size raises
    ValueError naming the file and the sample."""
    size = path.stat().st_size
    if size != side * side * 4:
        raise ValueError(f"{path}: sample {sid} has {size} bytes, not {side * side * 4} ({side}x{side} float32)")
    return np.fromfile(path, dtype="<f4").reshape(side, side)


def load_dataset(in_dir) -> list:
    """Read a corpus written by ``save_dataset``. A report without a
    manifest row, or an image or mask file of the wrong size, raises
    ValueError naming the file and the sample."""
    src = Path(in_dir)
    manifest = {}
    for line in (src / "manifest.tsv").read_text().splitlines():
        sid, side, img, msk = line.split("\t")
        manifest[sid] = (int(side), img, msk)
    labels = {}
    labels_path = src / "labels.jsonl"
    if labels_path.exists():
        for line in labels_path.read_text().splitlines():
            rec = json.loads(line)
            labels[rec["id"]] = rec["labels"]
    samples = []
    for line in (src / "reports.jsonl").read_text().splitlines():
        rec = json.loads(line)
        sid = rec["id"]
        if sid not in manifest:
            raise ValueError(f"{src / 'manifest.tsv'}: no row for sample {sid}")
        side, img_rel, msk_rel = manifest[sid]
        image, mask = (_read_plane(src / rel, side, sid) for rel in (img_rel, msk_rel))
        samples.append(
            SynthSample(
                id=sid,
                report=rec["text"],
                image=image,
                lesion_mask=mask,
                attention=attention_map(mask),
                labels=labels.get(sid, {}),
            )
        )
    return samples
