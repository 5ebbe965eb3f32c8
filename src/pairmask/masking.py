"""Mask planning for text tokens and image patches.

Text masking is two-stage: every descriptor-span position is masked
unconditionally (split by polarity into the negative and other sets),
then an exact-count 75% of the remaining positions is drawn uniformly
without replacement as the random set. Patch masking is the
same exact-count draw over the patch grid. Plans are pure functions of
(inputs, rng state), so a seeded generator reproduces them bit for bit.

Patches go each way once: ``patchify`` cuts numpy images into the rows
the encoder reads and the reconstruction loss compares against, and
``unpatchify_t`` reassembles the decoder's autodiff rows into the image
the super-resolution head upsamples. Both take leading batch axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .corpus import POLARITY_NEGATIVE, TokenSeq

DEFAULT_TEXT_MASK_RATIO = 0.75
DEFAULT_PATCH_MASK_RATIO = 0.75


def exact_count(ratio: float, n: int) -> int:
    """Number of positions to mask: round(ratio * n), ties to even."""
    return int(round(ratio * n))


@dataclass(frozen=True)
class TextMaskPlan:
    """Disjoint position sets; union with ``visible`` is every position."""

    descriptor_neg: tuple
    descriptor_oth: tuple
    random: tuple
    visible: tuple
    seq_len: int

    @property
    def masked(self) -> tuple:
        return tuple(sorted(self.descriptor_neg + self.descriptor_oth + self.random))


@dataclass(frozen=True)
class PatchMaskPlan:
    masked: tuple
    visible: tuple
    n_patches: int


def plan_text_mask(
    seq: TokenSeq,
    spans: Sequence,
    rng: np.random.Generator,
    ratio: float = DEFAULT_TEXT_MASK_RATIO,
) -> TextMaskPlan:
    """Plan which token positions get masked.

    Descriptor positions are always masked; the random set is an
    exact-count uniform draw over what remains.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"plan_text_mask: ratio {ratio} outside [0, 1]")
    neg, oth = set(), set()
    for span in spans:
        for i in span.token_indices:
            if not 0 <= i < len(seq):
                raise ValueError(f"plan_text_mask: span index {i} outside a sequence of length {len(seq)}")
            if span.polarity == POLARITY_NEGATIVE:
                neg.add(i)
            else:
                oth.add(i)
    overlap = neg & oth
    if overlap:
        raise ValueError(f"plan_text_mask: polarity overlap at positions {sorted(overlap)}")

    candidates = np.array(
        [p for p in range(len(seq)) if p not in neg and p not in oth], dtype=np.int64
    )
    k = exact_count(ratio, candidates.size)
    chosen = rng.permutation(candidates)[:k] if candidates.size else np.empty(0, dtype=np.int64)
    random_set = set(int(i) for i in chosen)
    visible = tuple(
        p for p in range(len(seq)) if p not in neg and p not in oth and p not in random_set
    )
    return TextMaskPlan(
        descriptor_neg=tuple(sorted(neg)),
        descriptor_oth=tuple(sorted(oth)),
        random=tuple(sorted(random_set)),
        visible=visible,
        seq_len=len(seq),
    )


def apply_text_mask(seq: TokenSeq, plan: TextMaskPlan, mask_id: int) -> np.ndarray:
    """A copy of ``seq.ids`` with the planned positions set to the mask id.

    The caller keeps the input sequence; its ids at masked positions are
    the prediction targets.
    """
    if plan.seq_len != len(seq):
        raise ValueError(f"apply_text_mask: plan built for length {plan.seq_len}, seq is {len(seq)}")
    ids = seq.ids.copy()
    ids[list(plan.masked)] = mask_id
    return ids


def plan_patch_mask(
    n_patches: int, rng: np.random.Generator, ratio: float = DEFAULT_PATCH_MASK_RATIO
) -> PatchMaskPlan:
    """Exact-count uniform choice of masked patch indices."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"plan_patch_mask: ratio {ratio} outside [0, 1]")
    if n_patches <= 0:
        raise ValueError(f"plan_patch_mask: n_patches {n_patches} <= 0")
    k = exact_count(ratio, n_patches)
    chosen = set(int(i) for i in rng.permutation(n_patches)[:k])
    masked = tuple(sorted(chosen))
    visible = tuple(p for p in range(n_patches) if p not in chosen)
    return PatchMaskPlan(masked=masked, visible=visible, n_patches=n_patches)


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """[..., H, W] -> [..., N, patch*patch] rows in row-major patch order."""
    if image.ndim < 2:
        raise ValueError(f"patchify: image {image.shape} must be (..., H, W)")
    *lead, h, w = image.shape
    if h % patch or w % patch:
        raise ValueError(f"patchify: image {image.shape} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    tiles = image.reshape(*lead, gh, patch, gw, patch).swapaxes(-3, -2)
    return tiles.reshape(*lead, gh * gw, patch * patch)


def _tile_axes(lead: int) -> tuple:
    """Swap the two middle axes of (..., a, b, c, d): the patch/pixel shuffle."""
    return tuple(range(lead)) + (lead, lead + 2, lead + 1, lead + 3)


def unpatchify_t(patches: ad.Tensor, height: int, width: int, patch: int) -> ad.Tensor:
    """Differentiable inverse of :func:`patchify`: (..., N, patch*patch) -> (..., H, W)."""
    gh, gw = height // patch, width // patch
    *lead, n, p2 = patches.shape
    if (n, p2) != (gh * gw, patch * patch):
        raise ValueError(f"unpatchify_t: got {patches.shape}, expected (..., {gh * gw}, {patch * patch})")
    tiles = ad.transpose(ad.reshape(patches, (*lead, gh, gw, patch, patch)), _tile_axes(len(lead)))
    return ad.reshape(tiles, (*lead, height, width))
