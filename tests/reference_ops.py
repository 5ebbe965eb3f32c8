"""Reference operators for the tests, replaced in the program by fused
or shorter paths.

The model builds attention as one fused ``autodiff.attention`` node. The
primitive ``matmul`` and ``softmax`` it replaced are the reference that
node is held to: ``tests/test_model.py`` rebuilds the unfused attention
from them. Each keeps its own gradient trials (c03 in
``tests/test_acceptance.py``, and ``tests/test_autodiff.py``).

``patchify_t`` cut the reconstructed image back into patch rows for the
reconstruction loss, before the decoder handed the loss its rows
directly; ``tests/test_losses.py`` holds the rows path to that round
trip. Nothing under ``src/`` imports this module.
"""

import numpy as np

from pairmask import autodiff as ad
from pairmask.autodiff import ShapeError, Tensor, _check_same_dtype, _make
from pairmask.masking import _tile_axes


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Both 2-D, or both stacked with equal leading dims."""
    _check_same_dtype("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: ranks {a.ndim} and {b.ndim}, need >= 2")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: batch dims differ, {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")
    data = a.data @ b.data
    return _make(
        data,
        (a, b),
        (
            lambda g: g @ b.data.swapaxes(-1, -2),
            lambda g: a.data.swapaxes(-1, -2) @ g,
        ),
        "matmul",
    )


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max-subtracted) along ``axis``."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g: np.ndarray) -> np.ndarray:
        dot = (g * data).sum(axis=axis, keepdims=True)
        return data * (g - dot)

    return _make(data, (x,), (vjp,), "softmax")


def patchify_t(image: ad.Tensor, patch: int) -> ad.Tensor:
    """Differentiable :func:`patchify`: (..., H, W) -> (..., N, patch*patch)."""
    if image.ndim < 2:
        raise ValueError(f"patchify_t: image {image.shape} must be (..., H, W)")
    *lead, h, w = image.shape
    if h % patch or w % patch:
        raise ValueError(f"patchify_t: image {image.shape} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    tiles = ad.transpose(ad.reshape(image, (*lead, gh, patch, gw, patch)), _tile_axes(len(lead)))
    return ad.reshape(tiles, (*lead, gh * gw, patch * patch))
