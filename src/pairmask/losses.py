"""Training objectives: masked-patch reconstruction, re-weighted masked
token prediction, attention-weighted super-resolution, and their sum.

The token loss corrects a structural imbalance in paired radiology text:
negated findings outnumber affirmative descriptors roughly twenty to
one, so uniform weighting lets the model coast on predicting absence.
Descriptor positions get class weights chosen so the two descriptor
groups contribute equally in aggregate while their combined weight
stays equal to the plain-token total. Factors are computed in exact
rational arithmetic; the defining identity holds to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .masking import patchify

DEFAULT_LAMBDA_NEG = 0.05


@dataclass(frozen=True)
class RebalanceFactors:
    """Descriptor class weights, with the exact rationals that produced them."""

    lambda_neg: float
    lambda_oth: float
    n_neg: int
    n_oth: int
    lambda_neg_exact: Fraction
    lambda_oth_exact: Fraction


def compute_rebalance(n_neg: int, n_oth: int, lambda_neg: float = DEFAULT_LAMBDA_NEG) -> RebalanceFactors:
    """Solve for the other-descriptor weight given the negation weight.

    With n_a = n_neg + n_oth descriptor tokens total, the constraint
    lambda_neg*n_neg + lambda_oth*n_oth = n_a fixes lambda_oth. Division
    is done in Fraction arithmetic on the exact binary value of
    lambda_neg, so the only rounding is the final conversion to float.
    """
    if n_neg < 0 or n_oth < 0:
        raise ValueError(f"compute_rebalance: negative counts ({n_neg}, {n_oth})")
    if n_oth == 0:
        raise ValueError("compute_rebalance: no other-descriptor tokens; weight is undefined")
    if not 0.0 < lambda_neg <= 1.0:
        raise ValueError(f"compute_rebalance: lambda_neg {lambda_neg} outside (0, 1]")
    ln = Fraction(lambda_neg)
    n_a = Fraction(n_neg + n_oth)
    lo = (n_a - ln * n_neg) / n_oth
    if lo <= 0:
        raise ValueError(f"compute_rebalance: derived lambda_oth {float(lo)} not positive")
    return RebalanceFactors(
        lambda_neg=lambda_neg,
        lambda_oth=float(lo),
        n_neg=n_neg,
        n_oth=n_oth,
        lambda_neg_exact=ln,
        lambda_oth_exact=lo,
    )


def unit_factors(n_neg: int, n_oth: int) -> RebalanceFactors:
    """Uniform weights; the ablation baseline for the re-weighted loss."""
    one = Fraction(1)
    return RebalanceFactors(1.0, 1.0, n_neg, n_oth, one, one)


def loss_mim(rows: Tensor, target: np.ndarray, plans, patch: int) -> Tensor:
    """Mean squared error over masked patches only: (B,) per-sample losses.

    This is ``weighted_mse`` with unit weights on the masked rows.

    ``rows`` is the decoder's (B, N, patch^2) output, ``target`` the
    (B, H, W) images it reconstructs, and ``plans`` holds one
    ``PatchMaskPlan`` per sample. The target is cut into the same
    row-major patch grid, and only the rows in each ``plan.masked`` enter
    that sample's average, so visible-patch pixels cannot influence the
    value or the gradient.
    """
    plans = list(plans)
    expected = (len(plans), plans[0].n_patches if plans else 0, patch * patch)
    if rows.shape != expected:
        raise ValueError(f"loss_mim: rows {rows.shape} must be (B, n_patches, patch^2) = {expected}")
    if any(not p.masked for p in plans):
        raise ValueError("loss_mim: plan masks no patches")
    if len({len(p.masked) for p in plans}) > 1:
        raise ValueError("loss_mim: plans mask different numbers of patches")
    idx = np.array([p.masked for p in plans], dtype=np.int64)
    pred_rows = ad.take_rows(rows, idx)
    target_rows = np.take_along_axis(patchify(target, patch), idx[..., None], axis=-2)
    return ad.weighted_mse(pred_rows, ad.constant(target_rows, dtype=rows.data.dtype), np.ones(pred_rows.shape))


def loss_mlm(logits: Tensor, target_ids: np.ndarray, plans, factors: RebalanceFactors) -> Tensor:
    """Weighted cross-entropy over masked token positions: (B,) per-sample losses.

    ``logits`` is (B, L, V), ``target_ids`` (B, L), and ``plans`` holds
    one ``TextMaskPlan`` per sample. Random positions weigh 1, negation
    descriptors ``lambda_neg``, other descriptors ``lambda_oth``; each
    sample's sum is normalized by its total weight so the scale is
    comparable across sequences.
    """
    plans = list(plans)
    if logits.ndim != 3 or logits.shape[0] != len(plans):
        raise ValueError(f"loss_mlm: logits {logits.shape} must be (B, L, V) for {len(plans)} plans")
    for p in plans:
        if logits.shape[-2] != p.seq_len:
            raise ValueError(f"loss_mlm: {logits.shape[-2]} logit rows vs plan length {p.seq_len}")
        if not p.masked:
            raise ValueError("loss_mlm: plan masks no tokens")
    nll = ad.cross_entropy_with_logits(logits, np.asarray(target_ids, dtype=np.int64))

    total = None
    weight_sum = np.zeros(len(plans))
    for kind, lam in (
        ("random", 1.0),
        ("descriptor_neg", factors.lambda_neg),
        ("descriptor_oth", factors.lambda_oth),
    ):
        positions = [getattr(p, kind) for p in plans]
        if not any(positions):
            continue
        # a sample without this class adds an exact zero to its sum
        part = ad.scale(ad.gather_sum(nll, positions), lam)
        total = part if total is None else ad.add(total, part)
        weight_sum += [lam * len(pos) for pos in positions]
    return ad.mul(total, ad.constant(1.0 / weight_sum, dtype=logits.data.dtype))


def loss_sr(sr_output: Tensor, target: np.ndarray, attention: np.ndarray) -> Tensor:
    """Attention-weighted MSE against the high-resolution target:
    ``sum(w (out - target)^2) / sum(w)`` per sample.

    Zero-attention pixels contribute nothing, and an all-zero map divides
    by 1, giving a term of exactly +0 with +-0 gradients, which is why
    the training step runs it only on weighted slots. A uniform all-ones
    map gives plain MSE. (H, W) arrays give a scalar, (B, H, W) arrays
    the (B,) per-sample losses.
    Negative weights raise ValueError.
    """
    if sr_output.shape != target.shape or sr_output.shape != attention.shape:
        raise ValueError(
            f"loss_sr: shapes differ, output {sr_output.shape}, "
            f"target {target.shape}, attention {attention.shape}"
        )
    if attention.min() < 0:
        raise ValueError("loss_sr: attention weights must be non-negative")
    return ad.weighted_mse(sr_output, ad.constant(target, dtype=sr_output.data.dtype), attention)


@dataclass
class LossBundle:
    mim: Tensor
    mlm: Tensor
    sr: Tensor
    total: Tensor

    def values(self) -> dict:
        """Each term's mean over the batch slots, its per-slot values added
        in slot order as Python floats; a scalar bundle is one slot."""
        terms = {"l_mim": self.mim, "l_mlm": self.mlm, "l_sr": self.sr, "total": self.total}
        return {key: sum(float(v) for v in t.data.flat) / t.data.size for key, t in terms.items()}


def loss_total(mim: Tensor, mlm: Tensor, sr: Tensor) -> LossBundle:
    """Sum the three objectives per sample, refusing silently broken terms."""
    for name, term in (("mim", mim), ("mlm", mlm), ("sr", sr)):
        bad = np.flatnonzero(~np.isfinite(term.data))
        if bad.size:
            raise FloatingPointError(f"loss_total: {name} term is {term.data.flat[bad[0]]} in batch slot {bad[0]}")
    return LossBundle(mim=mim, mlm=mlm, sr=sr, total=ad.add(ad.add(mim, mlm), sr))
