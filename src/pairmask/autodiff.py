"""Minimal dense-tensor reverse-mode autodiff engine on numpy.

Every operator records its inputs and a vector-Jacobian closure on the
output tensor; ``backward`` walks the recorded graph in reverse
topological order exactly once and accumulates gradients into leaves
that were created with ``requires_grad=True``.

Scope is deliberately small: exactly the operators the paired-pretraining
model needs, each with an analytic backward that the tests check against
central finite differences. Forward passes are pure numpy on contiguous
arrays, so identical inputs give bit-identical outputs; reductions keep
a fixed order.

``attention``'s softmax and ``layer_normalize`` reduce rows (the last
axis) without numpy's ``reduce``, which runs far below elementwise speed
on axes of tens of entries. A row max is pairwise ``np.maximum`` over
halves, equal to ``np.max`` bit for bit. A row sum is one matrix-vector
product with a ones vector per matrix, so a sample's rows get the same
bits alone or in a batch; a mean is that sum times ``1/n``. Moving to
these sums from ``np.sum`` and ``np.mean`` changed rounding once.

GELU's gate Phi(x) = (1 + erf(x / sqrt(2))) / 2 takes a float32 rational
``erf`` (Eigen's ``generic_fast_erf_float``: the argument clamped to
[-4, 4], then ``u P(u^2) / Q(u^2)``, within 4.4e-7 of the float64
``erf``) in numpy passes, and at float64 the stdlib's ``math.erf`` per
element. Moving to these from a library ``erf`` changed rounding once.
That ``erf`` and numpy's ``sum`` and ``mean`` stay in the tests as
references, held to a stated tolerance.

Two fused operators keep graphs small. ``linear`` is ``x @ w + b`` as one
node, and ``attention`` is a whole multi-head attention (four
projections, head split and join, softmax, both matmuls) as one node.
The vjps of a fused node share one backward computation, memoised on the
incoming gradient. The unfused ``matmul`` and ``softmax`` they replaced
live in ``tests/`` as references.

Batches: in ``(..., L, D)`` inputs, axis -2 holds one sample's rows and
any axes before it index samples. Every operator computes each sample's
slice with the same numpy call that sample would get on its own (stacked
matrix products, never rows folded across samples), and reduces a
weight's gradient within each sample first, then over the samples in
slot order. A batched graph therefore gives the same bits as building,
differentiating and dropping one graph per sample.

``conv2d`` and ``bilinear_upsample`` are stacked matrix products as well,
so the same holds for them. The convolution builds zero-padded 3x3
windows (im2col, tap-major) only for the side of each product with fewer
channels, keeping its transients near 9*B*H*W*min(Cin, Cout) numbers;
the upsample multiplies by separable interpolation matrices. Moving to
these forms from a per-sample einsum and a four-tap scatter changed
their rounding once; the old forms stay in the tests as references,
held to a stated tolerance.

To keep a batch's graph small in memory, cheap intermediates (the
normalized rows, the attention projections, convolution windows) are
recomputed in backward rather than saved, and ``backward`` releases each
node's edges as soon as they have run. Two nodes keep what costs more
time to rebuild than it costs memory to hold: GELU keeps its gate (an
``erf``), and attention keeps its softmax probabilities and joined
context. Each vjp takes its saved arrays out once, so they go as soon as
the node's backward has run.

Scatters (the vjps of ``take_rows``, ``embedding_lookup`` and
``gather_sum``) add into a zeroed array at flat positions, in
the C order of the gathered entries. Entries that land on one position
(duplicate indices) are added one at a time in that order, the order
``np.add.at`` uses on the equivalent multi-axis index, so the sums equal
that call's bit for bit. Flat 1-D operands take numpy's fast
``ufunc.at`` loop (numpy >= 1.25).

Memory: a train step or eval pass frees and reallocates the same
arrays, many of a few hundred KiB, every time it runs. glibc's default
thresholds are dynamic: its mmap threshold (128 KiB at start) rises
after each large free, and its heap is trimmed back to the kernel at
128 KiB of free top, so whether a step page-faulted its buffers back in
followed the order of earlier frees rather than the code. Importing this
module therefore pins both through ``mallopt``: allocations up to glibc's
32 MiB ceiling come from the heap, and free heap is returned only past
256 MiB. Setting either threshold turns the dynamic ones off. The
process's RSS stays at its high-water mark. Where the C library has no
``mallopt`` (macOS, Windows), the import changes nothing.

Inside ``with no_grad():`` operators record no parents and no vjps, so a
forward-only pass builds no graph; ``backward`` refuses such a result.

Numeric defaults are float32. Gradient checks run the same graphs at
float64 (pass 64-bit inputs; ops inherit the dtype of their arguments);
the check itself, ``grad_check``, lives in ``tests/reference_ops.py``.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _keep_freed_memory() -> None:
    """Pin glibc's mmap and trim thresholds (see the module docstring)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return      # no mallopt (macOS), or no process handle (Windows)
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD, at glibc's 64-bit ceiling
    mallopt(-1, 256 << 20)      # M_TRIM_THRESHOLD


_keep_freed_memory()


class ShapeError(ValueError):
    """Raised when operator inputs have incompatible shapes or dtypes."""


class GraphError(RuntimeError):
    """Raised on invalid graph use, e.g. backward through a spent graph."""


class Tensor:
    """A dense array plus the graph edge that produced it.

    ``data`` is treated as immutable once wrapped; in-place optimizer
    updates go through ``assign_`` which is only legal on leaves.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps", "_op", "_spent")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        # finite-difference checks perturb leaves through flat views; keep
        # leaves contiguous, and 0-d arrays 0-d (np.ascontiguousarray
        # returns at least 1-d)
        self.data: np.ndarray = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjps: tuple = ()
        self._op: str = "leaf"
        self._spent = False

    # ---- basic introspection ----
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(op={self._op}, shape={self.shape}, dtype={self.data.dtype})"

    # ---- graph helpers ----
    def zero_grad(self) -> None:
        self.grad = None

    def assign_(self, new_data: np.ndarray) -> None:
        if self._parents or self._spent:
            raise GraphError("assign_ is only legal on leaf tensors")
        new_data = np.ascontiguousarray(new_data, dtype=self.data.dtype)
        if new_data.shape != self.data.shape:
            raise ShapeError(
                f"assign_: shape {new_data.shape} != parameter shape {self.data.shape}"
            )
        self.data = new_data


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Record no graph inside the block: outputs keep no parents or vjps.

    For forward-only passes. The previous mode comes back on exit, also
    when the block raises, so nesting is safe and a graph being built
    around the block is untouched. The mode is per thread.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _make(data: np.ndarray, parents: Sequence[Tensor], vjps: Sequence[Callable], op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._spent = False
    out._op = op
    track = _grad_mode.enabled and any(p.requires_grad or p._parents for p in parents)
    out.requires_grad = track
    if track:
        out._parents = tuple(parents)
        out._vjps = tuple(vjps)
    else:
        out._parents = ()
        out._vjps = ()
    return out


def _check_same_dtype(op: str, *tensors: Tensor) -> None:
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ShapeError(f"{op}: mixed dtypes {sorted(str(d) for d in dtypes)}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _slot_sum(stack: np.ndarray, ndim: int) -> np.ndarray:
    """Sum per-sample gradients over the samples, in slot order.

    ``stack`` is (..., *shape) with ``shape`` of rank ``ndim``; the
    leading axes index samples in C order. The result equals adding the
    samples' gradients into a leaf one at a time. numpy sums the outer
    axis in that sequential order, except when each sample's gradient is
    a single number, where it sums pairwise; that case loops.
    """
    stack = stack.reshape((-1,) + stack.shape[stack.ndim - ndim :])
    if stack[0].size > 1:
        return stack.sum(axis=0)
    return _running_sum(stack)


def _running_sum(grads) -> np.ndarray:
    """``((g0 + g1) + g2) + ...``: gradients added one at a time, in order."""
    total = None
    for grad in grads:
        total = grad if total is None else total + grad
    return total


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``x^T g`` per sample, (..., L, Din) and (..., L, Dout) -> (Din, Dout)."""
    if x.ndim == 2:
        return x.T @ g
    return _slot_sum(x.swapaxes(-1, -2) @ g, 2)


def _row_sum(g: np.ndarray) -> np.ndarray:
    """Sum over each sample's rows (axis -2), then over the samples."""
    if g.ndim == 1:
        return g
    if g.ndim == 2:
        return g.sum(axis=0)
    return _slot_sum(g.sum(axis=-2), 1)


def _max_last(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)`` by pairwise ``np.maximum``.

    The rows are read as the columns of an (n, rows) view. Each pass
    takes the larger of its two halves into a new contiguous buffer, and
    folds an odd last row into row 0, until one row is left. A max is
    exact and ``np.maximum`` propagates NaN, so the result equals
    ``np.max``'s; numpy's own reduce over a short last axis runs several
    times slower than these passes over long rows.
    """
    m = a.reshape(-1, a.shape[-1]).T
    if len(m) == 1:
        m = m.copy()
    while len(m) > 1:
        n, half = len(m), len(m) // 2
        out = np.empty((half, m.shape[1]), dtype=a.dtype)
        np.maximum(m[:half], m[half : 2 * half], out=out)
        if n % 2:
            np.maximum(out[0], m[n - 1], out=out[0])
        m = out
    return m.reshape(a.shape[:-1] + (1,))


def _sum_last(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, kept as a length-1 axis: one GEMV with a
    ones vector per matrix of ``a``, so a sample's rows get the same bits
    alone or in a batch."""
    return a @ np.ones((a.shape[-1], 1), dtype=a.dtype)


def _scatter_add(out: np.ndarray, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Add ``values`` into the fresh contiguous ``out`` at flat C-order ``positions``.

    ``positions`` and ``values`` have one shape and are taken in C order;
    entries that hit one position add one at a time in that order (see
    the module docstring).
    """
    np.add.at(out.reshape(-1), positions.reshape(-1), values.reshape(-1))
    return out


def _flat_rows(idx: np.ndarray, n: int) -> np.ndarray:
    """Row numbers ``idx`` (..., K), each sample's out of its own ``n`` rows,
    as row numbers into all samples' rows stacked in C order."""
    lead = np.arange(math.prod(idx.shape[:-1]), dtype=np.int64).reshape(idx.shape[:-1] + (1,))
    return lead * n + idx


def _scatter_rows(shape: tuple, rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``np.zeros(shape)`` with ``g`` (*rows.shape, *row) added at the flat
    row numbers ``rows``, rows being the trailing axes ``shape[rows.ndim:]``."""
    width = math.prod(shape[rows.ndim :])
    positions = rows[..., None] * width + np.arange(width, dtype=np.int64)
    return _scatter_add(np.zeros(shape, dtype=g.dtype), positions, g)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype("add", a, b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from exc
    return _make(
        data,
        (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)),
        "add",
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype("mul", a, b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from exc
    return _make(
        data,
        (a, b),
        (
            lambda g: _unbroadcast(g * b.data, a.shape),
            lambda g: _unbroadcast(g * a.data, b.shape),
        ),
        "mul",
    )


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _make(a.data * np.asarray(s, dtype=a.data.dtype), (a,), (lambda g: g * s,), "scale")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of the last axis, ``x @ w + b``: (..., Din) -> (..., Dout).

    One node for a whole batch. Each sample's rows (axis -2) go through
    their own matrix product, and ``w``'s and ``b``'s gradients are
    reduced per sample, then over samples in slot order.
    """
    _check_same_dtype("linear", x, w, b)
    if w.ndim != 2:
        raise ShapeError(f"linear: weight w must be 2-D, got {w.shape}")
    din, dout = w.shape
    if x.ndim < 1 or x.shape[-1] != din:
        raise ShapeError(f"linear: input x {x.shape} does not end in weight w's {din} rows")
    if b.shape != (dout,):
        raise ShapeError(f"linear: bias b {b.shape} vs weight w {w.shape}, need ({dout},)")
    x2 = x.data if x.ndim >= 2 else x.data.reshape(1, din)
    rows = x2.shape[:-1] + (dout,)
    data = (x2 @ w.data + b.data).reshape(x.shape[:-1] + (dout,))
    return _make(
        data,
        (x, w, b),
        (
            lambda g: (g.reshape(rows) @ w.data.T).reshape(x.shape),
            lambda g: _weight_grad(x2, g.reshape(rows)),
            lambda g: _row_sum(g.reshape(rows)),
        ),
        "linear",
    )


def attention(
    query: Tensor, kv: Tensor,
    wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
    wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
    heads: int,
) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``query`` (..., Lq, D) attends over ``kv`` (..., Lk, D); pass one
    tensor twice for self-attention. Each projection is ``x @ w + b``
    with w (D, D); heads split the width into ``heads`` blocks, and the
    output is ``softmax(q k^T / sqrt(D/heads)) v`` joined and projected
    by ``wo``, ``bo``: (..., Lq, D). The node keeps the probabilities and
    the joined context, and its vjp recomputes only the three head
    projections: at sequence lengths of tens, FlashAttention's recompute
    (arXiv 2205.14135) costs more time than these arrays cost memory. The
    vjp takes them out, so they are freed once the node's backward ran.
    """
    weights = {"wq": wq, "bq": bq, "wk": wk, "bk": bk, "wv": wv, "bv": bv, "wo": wo, "bo": bo}
    _check_same_dtype("attention", query, kv, *weights.values())
    if query.ndim < 2 or kv.ndim < 2:
        raise ShapeError(f"attention: query {query.shape} and kv {kv.shape} must be (..., L, D)")
    if query.shape[:-2] != kv.shape[:-2]:
        raise ShapeError(f"attention: leading dims of query {query.shape} and kv {kv.shape} differ")
    d = query.shape[-1]
    if kv.shape[-1] != d:
        raise ShapeError(f"attention: kv {kv.shape} width differs from query {query.shape}")
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: width {d} not divisible by heads {heads}")
    for name, t in weights.items():
        want = (d, d) if name[0] == "w" else (d,)
        if t.shape != want:
            raise ShapeError(f"attention: {name} {t.shape}, need {want}")

    lead, lq, hd = query.shape[:-2], query.shape[-2], d // heads
    scale = np.asarray(1.0 / math.sqrt(hd), dtype=query.data.dtype)

    def project(x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
        """(..., L, D) -> heads (..., h, L, hd)."""
        y = x @ w.data + b.data
        return y.reshape(x.shape[:-1] + (heads, hd)).swapaxes(-3, -2)

    def join(h: np.ndarray) -> np.ndarray:
        """Heads (..., h, L, hd) -> rows (..., L, D)."""
        return h.swapaxes(-3, -2).reshape(h.shape[:-3] + (h.shape[-2], d))

    qh, kh, vh = project(query.data, wq, bq), project(kv.data, wk, bk), project(kv.data, wv, bv)
    # one (..., h, Lq, Lk) buffer goes scores -> exp -> probabilities in place
    probs = qh @ kh.swapaxes(-1, -2)
    probs *= scale
    probs -= _max_last(probs)
    np.exp(probs, out=probs)
    probs /= _sum_last(probs)
    ctx = join(probs @ vh)
    data = ctx @ wo.data + bo.data
    # the vjp takes these out once; the projections, one GEMM each, are
    # recomputed instead, which keeps a batch's saved state smaller
    saved = [(probs, ctx)]

    def grads(g: np.ndarray) -> tuple:
        probs, ctx = saved.pop()
        # with the forward's expressions, so they equal what it had
        qh, kh, vh = project(query.data, wq, bq), project(kv.data, wk, bk), project(kv.data, wv, bv)
        gctx = (g @ wo.data.T).reshape(lead + (lq, heads, hd)).swapaxes(-3, -2)
        # softmax backward in the (..., h, Lq, Lk) buffer of gctx @ vh^T
        gs = gctx @ vh.swapaxes(-1, -2)
        gs -= _sum_last(gs * probs)
        gs *= probs
        gs *= scale
        out = {"wo": _weight_grad(ctx, g), "bo": _row_sum(g)}
        dx = {}
        for tag, x, gh in (
            ("q", query, gs @ kh),
            ("k", kv, gs.swapaxes(-1, -2) @ qh),
            ("v", kv, probs.swapaxes(-1, -2) @ gctx),
        ):
            gh = join(gh)
            dx[tag] = gh @ weights[f"w{tag}"].data.T
            out[f"w{tag}"] = _weight_grad(x.data, gh)
            out[f"b{tag}"] = _row_sum(gh)
        inputs = (dx["q"] + dx["k"] + dx["v"],) if kv is query else (dx["q"], dx["k"] + dx["v"])
        return inputs + tuple(out[name] for name in weights)

    # one backward pass per incoming g serves every parent's vjp; each
    # result is dropped from the memo once handed out
    memo: list = [None, []]

    def vjp_for(i: int) -> Callable:
        def vjp(g: np.ndarray) -> np.ndarray:
            if memo[0] is not g or memo[1][i] is None:
                memo[0], memo[1] = g, list(grads(g))
            out, memo[1][i] = memo[1][i], None
            return out

        return vjp

    parents = ((query,) if kv is query else (query, kv)) + tuple(weights.values())
    return _make(data, parents, tuple(vjp_for(i) for i in range(len(parents))), "attention")


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for rank {a.ndim}")
    inverse = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), (lambda g: g.transpose(inverse),), "transpose")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: {a.shape} -> {shape}") from exc
    old = a.shape
    return _make(data, (a,), (lambda g: g.reshape(old),), "reshape")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty input list")
    _check_same_dtype("concat", *tensors)
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: shapes {[t.shape for t in tensors]} on axis {axis}") from exc
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp_for(i: int) -> Callable:
        return lambda g: np.split(g, splits, axis=axis)[i]

    return _make(data, tuple(tensors), tuple(vjp_for(i) for i in range(len(tensors))), "concat")


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows; duplicate indices accumulate in backward, in index order.

    1-D ``indices`` (K,) pick along axis 0 of ``a``. Batched ``indices``
    (B, K) pick each sample's own rows along axis 1 of ``a`` (B, N, ...):
    ``out[b] = a[b][indices[b]]``. In general the leading axes of
    ``indices`` must match those of ``a``.
    """
    idx = np.asarray(indices, dtype=np.int64)
    axis = idx.ndim - 1
    if idx.ndim < 1 or a.ndim <= axis or a.shape[:axis] != idx.shape[:-1]:
        raise ShapeError(f"take_rows: indices {idx.shape} do not index the rows of {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[axis]):
        raise ShapeError(f"take_rows: index out of range for {a.shape[axis]} rows")
    rows = _flat_rows(idx, a.shape[axis])
    shape = a.shape
    data = a.data.reshape((-1,) + shape[axis + 1 :])[rows]
    return _make(data, (a,), (lambda g: _scatter_rows(shape, rows, g),), "take_rows")


def gather_sum(x: Tensor, indices: Sequence) -> Tensor:
    """Per-sample sums of selected entries: x (..., L) -> (...).

    ``indices`` holds one index list per sample, in C order of the
    leading axes; lists may differ in length, and an empty one sums to
    0. Each sample's value is ``x[b][idx].sum()``, the sum of a gather.
    """
    idx = [np.asarray(i, dtype=np.int64).reshape(-1) for i in indices]
    if x.ndim < 1 or len(idx) != int(np.prod(x.shape[:-1])):
        raise ShapeError(f"gather_sum: {len(idx)} index lists for x {x.shape}, need one per sample")
    rows = x.data.reshape(-1, x.shape[-1])
    for i in idx:
        if i.size and (i.min() < 0 or i.max() >= rows.shape[1]):
            raise ShapeError(f"gather_sum: index out of range for {rows.shape[1]} entries")
    data = np.array([row[i].sum() for row, i in zip(rows, idx)], dtype=x.dtype).reshape(x.shape[:-1])

    def vjp(g: np.ndarray) -> np.ndarray:
        offsets = [i + r * rows.shape[1] for r, i in enumerate(idx)]
        positions = np.concatenate([np.zeros(0, dtype=np.int64)] + offsets)
        values = np.repeat(g.reshape(-1), [len(i) for i in idx])
        return _scatter_add(np.zeros(x.shape, dtype=g.dtype), positions, values)

    return _make(data, (x,), (vjp,), "gather_sum")


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Row lookup into an embedding table, shape [V, D] + ids [..., L] -> [..., L, D].

    With batched ids (..., L), each sample's table gradient is formed on
    its own and the samples' gradients are summed in slot order.
    """
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim < 1:
        raise ShapeError(f"embedding_lookup: ids must be at least 1-D, got {idx.shape}")
    if table.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"embedding_lookup: id out of range for table {table.shape}")
    shape = idx.shape[:-1] + table.shape

    def vjp(g: np.ndarray) -> np.ndarray:
        return _slot_sum(_scatter_rows(shape, _flat_rows(idx, shape[-2]), g), 2)

    return _make(table.data[idx], (table,), (vjp,), "embedding_lookup")


def layer_normalize(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """LayerNorm over the last axis with learned gain and bias.

    Saves the row means and inverse deviations only; the vjps recompute
    the centred and normalized rows with the forward's expressions.
    """
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"layer_normalize: gain/bias {gain.shape}/{bias.shape} vs last dim {n}")
    _check_same_dtype("layer_normalize", x, gain, bias)
    mu = _sum_last(x.data) * (1.0 / n)
    d = x.data - mu
    var = _sum_last(d * d) * (1.0 / n)
    inv = 1.0 / np.sqrt(var + eps)
    data = d * inv
    data *= gain.data
    data += bias.data

    def vjp_x(g: np.ndarray) -> np.ndarray:
        d = x.data - mu
        dxhat = g * gain.data
        dvar = _sum_last(dxhat * d) * (-0.5) * inv**3
        dmu = -_sum_last(dxhat) * inv
        return dxhat * inv + dvar * (2.0 / n) * d + dmu / n

    return _make(
        data,
        (x, gain, bias),
        (
            vjp_x,
            lambda g: _row_sum(g * ((x.data - mu) * inv)),
            _row_sum,
        ),
        "layer_normalize",
    )


# erf(u) = u P(u^2) / Q(u^2) on [-4, 4], where float32 erf reaches +-1:
# Eigen's generic_fast_erf_float coefficients, highest power first
_ERF_P = np.array([
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02,
], dtype=np.float32)
_ERF_Q = np.array([
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
    -1.42647390514189e-02,
], dtype=np.float32)
_erf_each = np.frompyfunc(math.erf, 1, 1)


def _horner(coeffs: np.ndarray, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The polynomial ``coeffs`` (highest power first) at ``z``, in ``out``
    or one new buffer."""
    out = np.multiply(z, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= z
    out += coeffs[-1]
    return out


def _gelu_gate(x: np.ndarray) -> np.ndarray:
    """Phi(x) = (1 + erf(x / sqrt(2))) / 2, the standard normal CDF.

    float32 clamps u = x / sqrt(2) to [-4, 4] and takes the rational
    ``u P(u^2) / Q(u^2)``; float64 calls the stdlib's ``math.erf`` per
    element (only finite-difference checks run at float64).
    """
    if x.dtype == np.float64:
        phi = np.asarray(_erf_each(x * _INV_SQRT2), dtype=np.float64)
    else:
        # the kept buffer is made before the two temporaries, so they
        # are freed together above it, as one space the next allocation
        # of their size can reuse
        phi = x * _INV_SQRT2
        np.clip(phi, -4.0, 4.0, out=phi)
        z = phi * phi
        p = _horner(_ERF_P, z)
        p *= phi
        np.divide(p, _horner(_ERF_Q, z, out=phi), out=phi)
    phi += 1.0
    phi *= 0.5
    return phi


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU, ``x * Phi(x)``.

    The node keeps the gate Phi(x), so the vjp needs no second ``erf``.
    The vjp writes its result into the gate's buffer, so it runs once, as
    ``backward`` runs every vjp.
    """
    saved = [_gelu_gate(x.data)]

    def vjp(g: np.ndarray) -> np.ndarray:
        # g * (Phi(x) + x * phi(x)), in two buffers
        t = -0.5 * x.data
        t *= x.data
        np.exp(t, out=t)
        t *= _INV_SQRT2PI
        t *= x.data
        out = saved.pop()
        out += t
        out *= g
        return out

    return _make(x.data * saved[0], (x,), (vjp,), "gelu")


def mean(x: Tensor, axis: Optional[int] = None) -> Tensor:
    if axis is None:
        n = x.data.size
        data = np.asarray(x.data.mean(), dtype=x.data.dtype)
        shape = x.shape
        return _make(data, (x,), (lambda g: np.broadcast_to(g / n, shape).copy(),), "mean")
    n = x.shape[axis]
    data = x.data.mean(axis=axis)
    ax = axis

    def vjp(g: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.expand_dims(g / n, ax), x.shape).copy()

    return _make(data, (x,), (vjp,), "mean")


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    data = np.asarray(x.data.sum(), dtype=x.data.dtype)
    return _make(data, (x,), (lambda g: np.broadcast_to(g, shape).copy(),), "sum_all")


def _sample_axes(x: np.ndarray) -> tuple:
    """The last two axes: one sample of a per-sample loss."""
    return tuple(range(max(x.ndim - 2, 0), x.ndim))


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


def weighted_mse(pred: Tensor, target: Tensor, weights: np.ndarray, eps: float = 1e-8) -> Tensor:
    """Weighted squared error per sample: sum(w * (pred-target)^2) / (sum(w) + eps).

    Sums run over the last two axes, as in ``mse``. ``weights`` is a
    constant array (no gradient path through it).
    """
    w = weights.data if isinstance(weights, Tensor) else np.asarray(weights)
    if pred.shape != target.shape or w.shape != pred.shape:
        raise ShapeError(f"weighted_mse: shapes {pred.shape}/{target.shape}/{w.shape}")
    if np.any(w < 0):
        raise ValueError("weighted_mse: negative weights")
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
            lambda g: (coef * g).reshape(per) * w * (pred.data - target.data),
            lambda g: (-coef * g).reshape(per) * w * (pred.data - target.data),
        ),
        "weighted_mse",
    )


def cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Per-row negative log likelihood, shape [..., L, V] + [..., L] ids -> [..., L].

    Uses max-subtracted logsumexp; finite logits give finite output.
    """
    if logits.ndim < 2:
        raise ShapeError(f"cross_entropy_with_logits: logits must be (..., L, V), got {logits.shape}")
    idx = np.asarray(targets, dtype=np.int64)
    if idx.shape != logits.shape[:-1]:
        raise ShapeError(
            f"cross_entropy_with_logits: targets {idx.shape} vs logits rows {logits.shape[:-1]}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= logits.shape[-1]):
        raise ShapeError("cross_entropy_with_logits: target id out of vocabulary range")
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    sumexp = e.sum(axis=-1, keepdims=True)
    lse = (np.log(sumexp) + zmax)[..., 0]
    data = lse - np.take_along_axis(z, idx[..., None], axis=-1)[..., 0]
    probs = e / sumexp

    def vjp(g: np.ndarray) -> np.ndarray:
        grad = probs * g[..., None]
        flat = grad.reshape(-1, grad.shape[-1])
        flat[np.arange(flat.shape[0]), idx.reshape(-1)] -= g.reshape(-1)
        return grad

    return _make(data, (logits,), (vjp,), "cross_entropy_with_logits")


def _offsets(flip: bool) -> list:
    """Window corners in a 1-padded plane per tap k = 3*di + dj (flipped: tap 8 - k's)."""
    return [(2 - di, 2 - dj) if flip else (di, dj) for di, dj in np.ndindex(3, 3)]


def _taps(a: np.ndarray, flip: bool) -> np.ndarray:
    """Zero-padded 3x3 windows of ``a`` (B, C, H, W), tap-major: (B, 9*C, H*W).

    Each tap's window of one padded copy is written into its plane of one
    (B, 9, C, H, W) buffer.
    """
    b, c, h, w = a.shape
    ap = np.zeros((b, c, h + 2, w + 2), dtype=a.dtype)
    ap[..., 1 : h + 1, 1 : w + 1] = a
    out = np.empty((b, 9, c, h, w), dtype=a.dtype)
    for k, (i, j) in enumerate(_offsets(flip)):
        out[:, k] = ap[..., i : i + h, j : j + w]
    return out.reshape(b, 9 * c, h * w)


def _shift_add(y: np.ndarray, h: int, w: int, flip: bool) -> np.ndarray:
    """Adjoint of ``_taps(., not flip)``: the 9 tap planes of ``y``
    (B, 9*C, H*W) shifted into place and added in tap order: (B, C, H, W)."""
    y = y.reshape(len(y), 9, -1, h, w)
    out = np.zeros((len(y), y.shape[2], h + 2, w + 2), dtype=y.dtype)
    for k, (i, j) in enumerate(_offsets(not flip)):
        out[..., i : i + h, j : j + w] += y[:, k]
    return out[..., 1 : h + 1, 1 : w + 1]


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1: [Cin,H,W] -> [Cout,H,W].

    A batch [B,Cin,H,W] -> [B,Cout,H,W] is one node of per-sample stacked
    matrix products, so a sample gets the same bits alone or in a batch.
    Windows are built for the narrower side only: the forward takes those
    of ``x`` when Cin <= Cout and otherwise reduces the channels first, then
    adds the nine shifted planes; the input vjp mirrors it with flipped
    taps; the weight vjp takes windows of the narrower of ``x`` and ``g``.
    Rounding differs, once, from the per-sample einsum this replaced.
    """
    _check_same_dtype("conv2d", x, w, *((b,) if b is not None else ()))
    if x.ndim not in (3, 4) or w.ndim != 4 or w.shape[2:] != (3, 3):
        raise ShapeError(
            f"conv2d: x {x.shape}, w {w.shape}; need [Cin,H,W] or [B,Cin,H,W] and [Cout,Cin,3,3]"
        )
    cin, h, wd = x.shape[-3:]
    cout = w.shape[0]
    if w.shape[1] != cin:
        raise ShapeError(f"conv2d: channel mismatch, x has {cin}, w expects {w.shape[1]}")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"conv2d: bias {b.shape} vs {cout} output channels")

    xs, x_rows = x.data.reshape(-1, cin, h, wd), x.data.reshape(-1, cin, h * wd)
    w9 = w.data.reshape(cout, cin, 9)
    # w_in[o, k*Cin + c] and w_out[k*Cout + o, c] both hold w[o, c, k]
    w_in, w_out = w9.transpose(0, 2, 1).reshape(cout, 9 * cin), w9.transpose(2, 0, 1).reshape(9 * cout, cin)
    data = w_in @ _taps(xs, False) if cin <= cout else _shift_add(w_out @ x_rows, h, wd, False)
    data = data.reshape(x.shape[:-3] + (cout, h, wd))
    if b is not None:
        data += b.data[:, None, None]

    # when Cout <= Cin both vjps take the flipped windows of one incoming
    # g; they are built once, and dropped by vjp_w, the last to run
    g_taps: list = [None, None]

    def flipped_taps(g: np.ndarray) -> np.ndarray:
        if g_taps[0] is not g:
            g_taps[:] = g, _taps(g.reshape(-1, cout, h, wd), True)
        return g_taps[1]

    def vjp_x(g: np.ndarray) -> np.ndarray:
        if cout <= cin:
            return (w_out.T @ flipped_taps(g)).reshape(x.shape)
        return _shift_add(w_in.T @ g.reshape(-1, cout, h * wd), h, wd, True).reshape(x.shape)

    def vjp_w(g: np.ndarray) -> np.ndarray:
        # per-sample products, summed over the samples in slot order
        if cin <= cout:
            gw = _running_sum(g.reshape(-1, cout, h * wd) @ _taps(xs, False).swapaxes(-1, -2))
            return gw.reshape(cout, 9, cin).transpose(0, 2, 1).reshape(w.shape)
        taps = flipped_taps(g)
        g_taps[:] = None, None
        gw = _running_sum(taps @ x_rows.swapaxes(-1, -2))
        return gw.reshape(9, cout, cin).transpose(1, 2, 0).reshape(w.shape)

    parents = [x, w]
    vjps = [vjp_x, vjp_w]
    if b is not None:
        parents.append(b)
        vjps.append(lambda g: _running_sum(g.reshape(-1, cout, h * wd).sum(axis=-1)))
    return _make(data, tuple(parents), tuple(vjps), "conv2d")


def _bilinear_matrix(n: int, factor: int, dtype) -> np.ndarray:
    """(factor*n, n) half-pixel-center interpolation matrix: row i blends the
    two source pixels nearest output pixel i, with weights summing to one."""
    src = np.clip((np.arange(n * factor) + 0.5) / factor - 0.5, 0.0, n - 1)
    i0, rows = np.floor(src).astype(np.int64), np.arange(n * factor)
    m = np.zeros((n * factor, n))
    m[rows, i0] = 1.0 - (src - i0)
    m[rows, np.minimum(i0 + 1, n - 1)] += src - i0
    return m.astype(dtype)


def bilinear_upsample(x: Tensor, factor: int = 2) -> Tensor:
    """Bilinear upsampling of single-channel images (..., H, W) -> (..., fH, fW).

    Half-pixel-center sampling, separable: ``R_h @ x @ R_w^T`` with the
    (fH, H) and (fW, W) interpolation matrices, and vjp ``R_h^T @ g @ R_w``,
    per sample (leading axes), so a sample gets the same bits alone or in a
    batch. Rounding differs, once, from the four-tap scatter this replaced.
    """
    if x.ndim < 2:
        raise ShapeError(f"bilinear_upsample: need (..., H, W) images, got {x.shape}")
    if factor < 1:
        raise ShapeError(f"bilinear_upsample: factor {factor} < 1")
    h, w = x.shape[-2:]
    rh, rw = _bilinear_matrix(h, factor, x.dtype), _bilinear_matrix(w, factor, x.dtype)
    data = (rh @ x.data.reshape(-1, h, w) @ rw.T).reshape(x.shape[:-2] + (h * factor, w * factor))

    def vjp(g: np.ndarray) -> np.ndarray:
        return (rh.T @ g.reshape(-1, h * factor, w * factor) @ rw).reshape(x.shape)

    return _make(data, (x,), (vjp,), "bilinear_upsample")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _topo_order(root: Tensor) -> list:
    """Iterative post-order DFS; graphs run to thousands of nodes."""
    order: list = []
    seen: set = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._spent:
            raise GraphError(
                f"backward: the graph reaches a {node._op} node whose edges an earlier "
                "backward released; rebuild the graph"
            )
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every requires_grad leaf.

    The loss must be scalar. Each graph may be walked once: as each node's
    vjps run, the node drops its parents and vjps (freeing what they
    hold) and is marked spent. A second backward through the same loss,
    or through a graph that reaches a spent node, raises ``GraphError``
    (gradients would otherwise double or silently go missing).
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GraphError("backward: loss has no graph (built under no_grad, or from constants only)")
    if loss._spent:
        raise GraphError("backward already ran on this graph; rebuild the graph or reset")

    order = _topo_order(loss)
    grads: dict = {id(loss): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        parents, vjps = node._parents, node._vjps
        if parents:
            node._parents = node._vjps = ()
            node._spent = True
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and not parents:
            node.grad = g if node.grad is None else node.grad + g
        for parent, vjp in zip(parents, vjps):
            if not parent.requires_grad:
                continue
            pg = vjp(g)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


def parameter(data, dtype=DEFAULT_DTYPE) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(np.asarray(data), requires_grad=True, dtype=dtype)


def constant(data, dtype=DEFAULT_DTYPE) -> Tensor:
    """A non-trainable tensor (targets, fixed tables)."""
    return Tensor(np.asarray(data), requires_grad=False, dtype=dtype)
