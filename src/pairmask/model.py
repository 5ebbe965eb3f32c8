"""The paired masked-autoencoding model, desk scale.

One shared trunk serves four heads: a pre-norm ViT encoder over visible
image patches, a light decoder that reconstructs every patch's low-res
pixels from encoded patches plus a learned mask token, a residual
super-resolution head over the reassembled image, and a text path that
embeds (masked) report tokens, fuses them with vision features at two
scales, and decodes token logits. All tensors flow through the autodiff
engine; every trainable array lives in ``Model.params`` under a stable
dotted name so optimizers and checkpoints can address it. Projections
are fused ``linear`` nodes and each attention is one fused ``attention``
node, for training and evaluation alike.

Every method takes a leading batch axis: ``(B, N, D)`` patch features,
``(B, L)`` token ids, ``(B, H, W)`` images; the image decoder returns
``(B, N, patch^2)`` patch rows. Visible patches can sit at
different positions in each sample (MAE's gather, arXiv 2111.06377):
``encode_image`` takes per-sample positions, and the image decoder takes
one ``PatchMaskPlan`` per sample, so one sample is a batch of one.
Because the autodiff operators keep each sample's arithmetic as it is on
its own, a batch gives the same bits as its samples one by one.

Fusion wiring: token features attend over local patch features
(cross-attention, no residual) while a linear projection of the
mean-pooled global patch feature is broadcast over positions; the fused
sequence is exactly ``f_t + local + global``, so either vision path can
be ablated without disturbing the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .masking import patchify

MODE_GLOBAL = "global"
MODE_LOCAL = "local"


@dataclass
class ModelConfig:
    image_size: int = 32        # low-res input side; SR target is 2x
    patch: int = 8
    dim: int = 64
    encoder_depth: int = 4
    decoder_depth: int = 2
    text_decoder_depth: int = 2
    heads: int = 4
    max_text_len: int = 64
    vocab_size: int = 128
    patch_mask_ratio: float = 0.75
    text_mask_ratio: float = 0.75
    sr_channels: int = 8
    sr_factor: int = 2

    def __post_init__(self):
        if self.image_size % self.patch:
            raise ValueError(f"ModelConfig: image_size {self.image_size} not divisible by patch {self.patch}")
        if self.dim % self.heads:
            raise ValueError(f"ModelConfig: dim {self.dim} not divisible by heads {self.heads}")
        if self.vocab_size < 3:
            raise ValueError("ModelConfig: vocab_size must cover pad/oov/mask")

    @property
    def n_patches(self) -> int:
        return (self.image_size // self.patch) ** 2

    @property
    def grid(self) -> int:
        return self.image_size // self.patch


def sinusoid_table(n_positions: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Fixed sin/cos position encodings, (n_positions, dim)."""
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((n_positions, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table.astype(dtype)


@dataclass
class FusionBundle:
    """All intermediate fusion features, kept for probing and tests."""

    f_t: Tensor         # (..., L, D) self-attended token features
    f_v_local: Tensor   # (..., N, D) patch features as given
    f_v_global: Tensor  # (..., D)    mean-pooled patch feature
    f_a_local: Tensor   # (..., L, D) cross-attention over patches
    f_a_global: Tensor  # (..., 1, D) projected global feature, broadcast over positions
    f_f: Tensor         # (..., L, D) fused sequence


class Model:
    """Parameter container plus the forward graphs."""

    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.params: dict = {}
        self._rng = np.random.default_rng([seed, 4])
        self._build()
        n_pos = max(cfg.n_patches, cfg.max_text_len)
        self.pos_table = sinusoid_table(n_pos, cfg.dim, dtype=dtype)

    # ---- construction ----

    def _p(self, name: str, shape: tuple, init: str = "normal") -> Tensor:
        if init == "normal":
            data = self._rng.normal(0.0, 0.02, size=shape)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            raise ValueError(init)
        t = ad.parameter(data, dtype=self.dtype)
        self.params[name] = t
        return t

    def _block_params(self, prefix: str) -> None:
        d, f = self.cfg.dim, 4 * self.cfg.dim
        self._p(f"{prefix}.ln1.g", (d,), "ones")
        self._p(f"{prefix}.ln1.b", (d,), "zeros")
        self._attn_params(f"{prefix}.attn")
        self._p(f"{prefix}.ln2.g", (d,), "ones")
        self._p(f"{prefix}.ln2.b", (d,), "zeros")
        self._p(f"{prefix}.ff.w1", (d, f))
        self._p(f"{prefix}.ff.b1", (f,), "zeros")
        self._p(f"{prefix}.ff.w2", (f, d))
        self._p(f"{prefix}.ff.b2", (d,), "zeros")

    def _attn_params(self, prefix: str) -> None:
        d = self.cfg.dim
        for name in ("wq", "wk", "wv", "wo"):
            self._p(f"{prefix}.{name}", (d, d))
        for name in ("bq", "bk", "bv", "bo"):
            self._p(f"{prefix}.{name}", (d,), "zeros")

    def _build(self) -> None:
        cfg = self.cfg
        d = cfg.dim
        self._p("patch_embed.w", (cfg.patch * cfg.patch, d))
        self._p("patch_embed.b", (d,), "zeros")
        for i in range(cfg.encoder_depth):
            self._block_params(f"enc.{i}")
        self._p("enc.norm.g", (d,), "ones")
        self._p("enc.norm.b", (d,), "zeros")

        self._p("mask_token", (1, d))
        for i in range(cfg.decoder_depth):
            self._block_params(f"dec.{i}")
        self._p("dec.norm.g", (d,), "ones")
        self._p("dec.norm.b", (d,), "zeros")
        self._p("dec.head.w", (d, cfg.patch * cfg.patch))
        self._p("dec.head.b", (cfg.patch * cfg.patch,), "zeros")

        c = cfg.sr_channels
        self._p("sr.conv1.w", (c, 1, 3, 3))
        self._p("sr.conv1.b", (c,), "zeros")
        # zero-initialized final conv: the SR head starts as exact bilinear
        self._p("sr.conv2.w", (1, c, 3, 3), "zeros")
        self._p("sr.conv2.b", (1,), "zeros")

        self._p("tok_embed.w", (cfg.vocab_size, d))
        self._p("fuse.sa.ln.g", (d,), "ones")
        self._p("fuse.sa.ln.b", (d,), "zeros")
        self._attn_params("fuse.sa.attn")
        self._p("fuse.ca.lnq.g", (d,), "ones")
        self._p("fuse.ca.lnq.b", (d,), "zeros")
        self._attn_params("fuse.ca.attn")
        self._p("fuse.global.w", (d, d))
        self._p("fuse.global.b", (d,), "zeros")

        for i in range(cfg.text_decoder_depth):
            self._block_params(f"txtdec.{i}")
        self._p("txtdec.norm.g", (d,), "ones")
        self._p("txtdec.norm.b", (d,), "zeros")
        self._p("txtdec.head.w", (d, cfg.vocab_size))
        self._p("txtdec.head.b", (cfg.vocab_size,), "zeros")

    # ---- shared pieces ----

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def _ln(self, prefix: str, x: Tensor) -> Tensor:
        return ad.layer_normalize(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    def _attention(self, prefix: str, query: Tensor, kv: Tensor) -> Tensor:
        p = self.params
        weights = (p[f"{prefix}.{name}"] for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"))
        return ad.attention(query, kv, *weights, heads=self.cfg.heads)

    def _block(self, prefix: str, x: Tensor) -> Tensor:
        p = self.params
        normed = self._ln(f"{prefix}.ln1", x)
        x = ad.add(x, self._attention(f"{prefix}.attn", normed, normed))
        h = ad.linear(self._ln(f"{prefix}.ln2", x), p[f"{prefix}.ff.w1"], p[f"{prefix}.ff.b1"])
        h = ad.linear(ad.gelu(h), p[f"{prefix}.ff.w2"], p[f"{prefix}.ff.b2"])
        return ad.add(x, h)

    def _positions(self, positions) -> Tensor:
        """Position encodings for indices of any shape: (..., D)."""
        return ad.constant(self.pos_table[np.asarray(positions, dtype=np.int64)], dtype=self.dtype)

    # ---- vision ----

    def encode_image(self, patches: np.ndarray, positions) -> Tensor:
        """Encode visible patches given their grid positions: (..., N_vis, D).

        ``patches`` is (..., N_vis, patch^2). ``positions`` is (N_vis,),
        shared by every sample, or one row per sample, (..., N_vis).
        Position encodings are looked up per given index, so the output
        is equivariant to permuting (patches, positions) together.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if patches.ndim < 2:
            raise ValueError(f"encode_image: patches {patches.shape} must be (..., N_vis, patch^2)")
        if positions.ndim < 1 or positions.shape[-1] != patches.shape[-2]:
            raise ValueError(
                f"encode_image: {patches.shape[-2]} patches vs positions {positions.shape}"
            )
        if positions.ndim > 1 and positions.shape != patches.shape[:-1]:
            raise ValueError(f"encode_image: positions {positions.shape} vs patches {patches.shape}")
        if patches.shape[-1] != self.cfg.patch * self.cfg.patch:
            raise ValueError(f"encode_image: patch rows {patches.shape[-1]} != patch^2")
        x = ad.constant(patches, dtype=self.dtype)
        x = ad.linear(x, self.params["patch_embed.w"], self.params["patch_embed.b"])
        x = ad.add(x, self._positions(positions))
        for i in range(self.cfg.encoder_depth):
            x = self._block(f"enc.{i}", x)
        return self._ln("enc.norm", x)

    def decoder_sequence(self, f_v: Tensor, plans) -> Tensor:
        """Pre-decoder rows: encoded patches scattered to their positions,
        mask token + position encoding everywhere else.

        ``f_v`` is (B, N_vis, D) and ``plans`` holds one ``PatchMaskPlan``
        per sample; every plan shows the same number of patches.
        """
        plans = list(plans)
        n = self.cfg.n_patches
        if f_v.ndim != 3 or f_v.shape[0] != len(plans):
            raise ValueError(f"decoder_sequence: f_v {f_v.shape} must be (B, N_vis, D) for {len(plans)} plans")
        n_vis = f_v.shape[-2]
        for p in plans:
            if p.n_patches != n:
                raise ValueError(f"decoder_sequence: plan has {p.n_patches} patches, config {n}")
            if len(p.visible) != n_vis:
                raise ValueError(f"decoder_sequence: {n_vis} encoded rows vs {len(p.visible)} visible")
        # perm[b, patch] is the row of [f_v[b]; mask rows] that lands at patch
        perm = np.empty((len(plans), n), dtype=np.int64)
        for row, p in zip(perm, plans):
            row[list(p.visible)] = np.arange(n_vis)
            row[list(p.masked)] = n_vis + np.arange(n - n_vis)
        # one copy of the token per sample, so its gradient is summed
        # within each sample first, then over samples in slot order
        token = ad.take_rows(self.params["mask_token"], np.zeros(len(plans), dtype=np.int64))
        token = ad.reshape(token, (len(plans), 1, self.cfg.dim))
        mask_rows = ad.take_rows(token, np.zeros((len(plans), n - n_vis), dtype=np.int64))
        ordered = ad.take_rows(ad.concat([f_v, mask_rows], axis=-2), perm)
        return ad.add(ordered, self._positions(range(n)))

    def decode_image(self, f_v: Tensor, plans) -> Tensor:
        """Reconstruct every patch's pixels from f_v (B, N_vis, D), one plan
        per sample: (B, N, patch^2) rows in ``patchify`` order."""
        x = self.decoder_sequence(f_v, plans)
        for i in range(self.cfg.decoder_depth):
            x = self._block(f"dec.{i}", x)
        x = self._ln("dec.norm", x)
        return ad.linear(x, self.params["dec.head.w"], self.params["dec.head.b"])

    def sr_head(self, low: Tensor) -> Tensor:
        """Residual super-resolution: bilinear upsampling by ``s = cfg.sr_factor``
        plus a learned correction, (..., H, W) -> (..., sH, sW)."""
        up = ad.bilinear_upsample(low, self.cfg.sr_factor)
        r = ad.reshape(up, up.shape[:-2] + (1,) + up.shape[-2:])
        hid = ad.gelu(ad.conv2d(r, self.params["sr.conv1.w"], self.params["sr.conv1.b"]))
        out = ad.conv2d(hid, self.params["sr.conv2.w"], self.params["sr.conv2.b"])
        return ad.add(up, ad.reshape(out, up.shape))

    # ---- text ----

    def embed_text(self, ids: np.ndarray) -> Tensor:
        """Token embedding plus sinusoidal position encoding: ids (..., L) -> (..., L, D)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim < 1:
            raise ValueError(f"embed_text: ids {ids.shape} must be (..., L)")
        if ids.shape[-1] > self.cfg.max_text_len:
            raise ValueError(f"embed_text: {ids.shape[-1]} tokens exceed max {self.cfg.max_text_len}")
        emb = ad.embedding_lookup(self.params["tok_embed.w"], ids)
        return ad.add(emb, self._positions(range(ids.shape[-1])))

    def mscf_fuse(self, f_v_local: Tensor, e_t: Tensor) -> FusionBundle:
        """Fuse token features e_t (..., L, D) with patch features
        f_v_local (..., N, D) at two scales; leading axes must match.

        ``f_f = f_t + cross_attention(f_t over patches) + broadcast
        (linear(mean(patches)))``; with zero patch features and zero-bias
        projections both vision terms vanish and ``f_f == f_t``.
        """
        p = self.params
        sa_in = self._ln("fuse.sa.ln", e_t)
        f_t = ad.add(e_t, self._attention("fuse.sa.attn", sa_in, sa_in))
        f_v_global = ad.mean(f_v_local, axis=-2)
        f_a_local = self._attention("fuse.ca.attn", self._ln("fuse.ca.lnq", f_t), f_v_local)
        row = ad.reshape(f_v_global, f_v_global.shape[:-1] + (1, self.cfg.dim))
        f_a_global = ad.linear(row, p["fuse.global.w"], p["fuse.global.b"])
        f_f = ad.add(ad.add(f_t, f_a_local), f_a_global)
        return FusionBundle(
            f_t=f_t,
            f_v_local=f_v_local,
            f_v_global=f_v_global,
            f_a_local=f_a_local,
            f_a_global=f_a_global,
            f_f=f_f,
        )

    def decode_text(self, f_f: Tensor) -> Tensor:
        """Token logits from fused features: (..., L, vocab). Position-free."""
        x = f_f
        for i in range(self.cfg.text_decoder_depth):
            x = self._block(f"txtdec.{i}", x)
        x = self._ln("txtdec.norm", x)
        return ad.linear(x, self.params["txtdec.head.w"], self.params["txtdec.head.b"])

    # ---- fine-tuning path ----

    def forward_finetune(self, image: np.ndarray, mode: str = MODE_GLOBAL) -> Tensor:
        """Encode full unmasked images (..., H, W): (..., N, D) patch
        features in local mode, their mean (..., D) in global mode."""
        if mode not in (MODE_GLOBAL, MODE_LOCAL):
            raise ValueError(f"forward_finetune: unknown mode {mode!r}")
        patches = patchify(image, self.cfg.patch)
        f_v = self.encode_image(patches, range(self.cfg.n_patches))
        if mode == MODE_LOCAL:
            return f_v
        return ad.mean(f_v, axis=-2)
