"""Reference operators for the tests, replaced in the program by fused
or shorter paths, and the finite-difference gradient check.

The model builds attention as one fused ``autodiff.attention`` node. The
primitive ``matmul`` and ``softmax`` it replaced are the reference that
node is held to: ``tests/test_model.py`` rebuilds the unfused attention
from them. Each keeps its own gradient trials (c03 in
``tests/test_acceptance.py``, and ``tests/test_autodiff.py``).

``patchify_t`` cut the reconstructed image back into patch rows for the
reconstruction loss, before the decoder handed the loss its rows
directly; ``tests/test_losses.py`` holds the rows path to that round
trip.

``scipy_gelu_gate`` is the GELU gate through ``scipy.special.erf`` that
the engine's rational float32 ``erf`` and stdlib float64 ``erf``
replaced, and ``stacked_taps`` the ``np.stack`` of nine window slices
that ``conv2d``'s one-buffer windows replaced; ``tests/test_autodiff.py``
holds the engine to both.

``mse`` is the plain mean squared error the reconstruction loss used
before it became ``weighted_mse`` with unit weights, and
``eps_weighted_mse`` is ``weighted_mse`` as it was with a
``sum(w) + 1e-8`` divisor; ``tests/test_autodiff.py`` holds the engine
to the first bit for bit and to the second within a stated tolerance.

``lbfgs_fit_logistic`` is the linear probe's fit through scipy's
L-BFGS that the engine's damped Newton solve replaced;
``tests/test_trainer.py`` holds the solve to its objective and its
per-entity accuracies.

``grad_check`` compares an op's analytic gradients with central
differences; only the tests call it. Nothing under ``src/`` imports
this module.
"""

import math
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import erf

from pairmask import autodiff as ad
from pairmask.autodiff import ShapeError, Tensor, _check_same_dtype, _make, _offsets, _sample_axes
from pairmask.masking import _tile_axes


def grad_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    max_coords: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Compare analytic gradients of scalar ``f`` against central differences.

    Inputs must be float64 leaves with ``requires_grad=True``. Returns the
    maximum relative error over all checked coordinates, with the
    denominator clamped at 1e-8 so agreeing zeros score zero. When
    ``max_coords`` is set, a random subset of coordinates per input is
    checked (needed for composite losses over whole parameter sets).
    """
    for t in inputs:
        if t.data.dtype != np.float64:
            raise ValueError("grad_check requires float64 inputs")
        if not t.requires_grad:
            raise ValueError("grad_check inputs must have requires_grad=True")
        t.zero_grad()

    loss = f(inputs)
    ad.backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    if rng is None:
        rng = np.random.default_rng(0)

    worst = 0.0
    for t, ana in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus = f(inputs).item()
            flat[c] = orig - eps
            f_minus = f(inputs).item()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = ana.reshape(-1)[c]
            denom = max(abs(a), abs(numeric), 1e-8)
            rel = abs(a - numeric) / denom
            if rel > worst:
                worst = rel
    return worst


def scipy_gelu_gate(x: np.ndarray) -> np.ndarray:
    """Phi(x), the standard normal CDF, through scipy's ``erf``."""
    phi = x * (1.0 / math.sqrt(2.0))
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return phi


def stacked_taps(a: np.ndarray, flip: bool) -> np.ndarray:
    """Zero-padded 3x3 windows of ``a`` (B, C, H, W), tap-major: (B, 9*C, H*W),
    as nine slices of a padded copy stacked by ``np.stack``."""
    b, c, h, w = a.shape
    ap = np.zeros((b, c, h + 2, w + 2), dtype=a.dtype)
    ap[..., 1 : h + 1, 1 : w + 1] = a
    return np.stack([ap[..., i : i + h, j : j + w] for i, j in _offsets(flip)], axis=1).reshape(b, 9 * c, h * w)


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


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error per sample.

    The mean runs over the last two axes; axes before them index
    samples, so (H, W) gives a scalar and (B, H, W) gives (B,).
    """
    if pred.shape != target.shape:
        raise ShapeError(f"mse: shapes {pred.shape} vs {target.shape}")
    _check_same_dtype("mse", pred, target)
    diff = pred.data - target.data
    axes = _sample_axes(diff)
    n = int(np.prod([diff.shape[a] for a in axes]))
    data = np.asarray((diff * diff).mean(axis=axes), dtype=pred.data.dtype)
    per = data.shape + (1,) * len(axes)
    return _make(
        data,
        (pred, target),
        (
            lambda g: (2.0 / n) * g.reshape(per) * diff,
            lambda g: (-2.0 / n) * g.reshape(per) * diff,
        ),
        "mse",
    )


def eps_weighted_mse(pred: Tensor, target: Tensor, weights: np.ndarray, eps: float = 1e-8) -> Tensor:
    """Weighted squared error per sample: sum(w * (pred-target)^2) / (sum(w) + eps)."""
    w = np.asarray(weights)
    if pred.shape != target.shape or w.shape != pred.shape:
        raise ShapeError(f"eps_weighted_mse: shapes {pred.shape}/{target.shape}/{w.shape}")
    dtype = pred.data.dtype
    w = w.astype(dtype, copy=False)
    axes = _sample_axes(pred.data)
    denom = w.sum(axis=axes).astype(np.float64) + eps
    diff = pred.data - target.data
    data = np.asarray((w * diff * diff).sum(axis=axes) / denom.astype(dtype), dtype=dtype)
    per = data.shape + (1,) * len(axes)
    coef = (2.0 / denom).astype(dtype)
    return _make(
        data,
        (pred, target),
        (
            lambda g: (coef * g).reshape(per) * w * diff,
            lambda g: (-coef * g).reshape(per) * w * diff,
        ),
        "eps_weighted_mse",
    )


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


def lbfgs_fit_logistic(x: np.ndarray, y: np.ndarray, l2: float = 1e-3) -> np.ndarray:
    """L2-regularized logistic regression via L-BFGS; returns [w, b]."""
    n, d = x.shape
    xb = np.hstack([x, np.ones((n, 1))])

    def objective(wb):
        z = xb @ wb
        # log(1 + exp(-y z)) with the stable split by sign
        m = np.maximum(0.0, -z)
        nll = (1.0 - y) * z + m + np.log(np.exp(-m) + np.exp(-z - m))
        reg = 0.5 * l2 * (wb[:d] @ wb[:d])
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        grad = xb.T @ (p - y) / n + l2 * np.r_[wb[:d], 0.0]
        return nll.mean() + reg, grad

    res = minimize(objective, np.zeros(d + 1), jac=True, method="L-BFGS-B")
    return res.x
