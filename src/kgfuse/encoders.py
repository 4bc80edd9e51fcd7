"""Toy-scale vision, text, and entity encoders sharing one transformer layer.

The attention block computes, per head m, logits (Q_m x_i)^T (K_m x_j)
scaled by 1/sqrt(d/M), normalizes each query row by softmax, mixes values
V_m x_j, and maps back through W_m.  The M heads are stacked on a leading
axis of each of Q, K, V and W.  Residual + LayerNorm wrap both the
attention sum over heads and the GELU feed-forward, and the whole layer is
one autodiff node, :func:`tensor.transformer_block`, so one implementation
serves the unimodal encoders and the fusion stack alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ValidationError
from .retriever import EntityMemory
from .tensor import Parameters, Tensor

def init_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Seeded uniform init in +-1/sqrt(fan_in); fan_in is the row count."""
    bound = 1.0 / np.sqrt(rows)
    return rng.uniform(-bound, bound, size=(rows, cols))


@dataclass
class TransformerLayerParams:
    """One pre-residual transformer layer: M attention heads plus feed-forward.

    ``wq``, ``wk`` and ``wv`` are (M, d, d/M) and ``wo`` is (M, d/M, d):
    head m reads slice m of each.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


def init_transformer_layer(params: Parameters, prefix: str,
                           rng: np.random.Generator, d: int, heads: int,
                           d_ff: int) -> TransformerLayerParams:
    if d % heads != 0:
        raise ValidationError(f"model width {d} not divisible by {heads} heads")
    dh = d // heads
    # Head by head, in wq, wk, wv, wo order: the seeded initial values
    # depend on this draw order.
    draws = [(init_matrix(rng, d, dh), init_matrix(rng, d, dh),
              init_matrix(rng, d, dh), init_matrix(rng, dh, d)) for _ in range(heads)]
    wq, wk, wv, wo = (params.add(f"{prefix}.{name}", Tensor(np.stack(mats)))
                      for name, mats in zip(("wq", "wk", "wv", "wo"), zip(*draws)))
    return TransformerLayerParams(
        wq=wq, wk=wk, wv=wv, wo=wo,
        ff_w1=params.add(f"{prefix}.ff_w1", Tensor(init_matrix(rng, d, d_ff))),
        ff_b1=params.add(f"{prefix}.ff_b1", Tensor(np.zeros(d_ff))),
        ff_w2=params.add(f"{prefix}.ff_w2", Tensor(init_matrix(rng, d_ff, d))),
        ff_b2=params.add(f"{prefix}.ff_b2", Tensor(np.zeros(d))),
        ln1_gain=params.add(f"{prefix}.ln1_gain", Tensor(np.ones(d))),
        ln1_bias=params.add(f"{prefix}.ln1_bias", Tensor(np.zeros(d))),
        ln2_gain=params.add(f"{prefix}.ln2_gain", Tensor(np.ones(d))),
        ln2_bias=params.add(f"{prefix}.ln2_bias", Tensor(np.zeros(d))))


def transformer_layer(x: Tensor, layer: TransformerLayerParams,
                      valid_mask: np.ndarray | None = None) -> Tensor:
    """Apply one layer to a (..., L, d) batch of sequences.

    The whole layer is one :func:`tensor.transformer_block` node.
    ``valid_mask`` ((..., L), boolean) is its attention's key mask: padding
    positions drop out of every softmax, and rows at padded positions are
    then meaningless and must be ignored by the caller.
    """
    return T.transformer_block(x, layer.wq, layer.wk, layer.wv, layer.wo,
                               layer.ln1_gain, layer.ln1_bias, layer.ff_w1, layer.ff_b1,
                               layer.ff_w2, layer.ff_b2, layer.ln2_gain, layer.ln2_bias,
                               valid_mask)


# ---- vision ----------------------------------------------------------------


@dataclass
class PatchSequence:
    """Row-major image patches, flattened channel-last."""

    patches: np.ndarray  # (..., N, P*P*C)

    @property
    def count(self) -> int:
        return self.patches.shape[-2]


def patchify(image: np.ndarray, patch_size: int) -> PatchSequence:
    """Cut (..., H, W, C) images into non-overlapping patches, top-left first."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim < 3:
        raise ValidationError(f"expected an H x W x C image, got shape {image.shape}")
    *lead, h, w, c = image.shape
    if h % patch_size or w % patch_size:
        raise ValidationError(
            f"image {h}x{w} not divisible by patch size {patch_size}")
    rows, cols = h // patch_size, w // patch_size
    blocks = image.reshape(*lead, rows, patch_size, cols, patch_size, c)
    patches = np.swapaxes(blocks, -4, -3).reshape(
        *lead, rows * cols, patch_size * patch_size * c)
    return PatchSequence(patches)


@dataclass
class VisionParams:
    patch_w: Tensor
    patch_b: Tensor
    pos: Tensor          # N x d learned absolute positions
    mask_vec: Tensor     # replaces the projection of a masked patch
    retrieval_w: Tensor
    retrieval_b: Tensor
    layers: list[TransformerLayerParams]


def init_vision(params: Parameters, rng: np.random.Generator, patch_dim: int,
                n_patches: int, d: int, d_e: int, depth: int, heads: int,
                d_ff: int) -> VisionParams:
    layers = [init_transformer_layer(params, f"vision.layer{i}", rng, d, heads, d_ff)
              for i in range(depth)]
    return VisionParams(
        patch_w=params.add("vision.patch_w", Tensor(init_matrix(rng, patch_dim, d))),
        patch_b=params.add("vision.patch_b", Tensor(np.zeros(d))),
        pos=params.add("vision.pos", Tensor(init_matrix(rng, n_patches, d))),
        mask_vec=params.add("vision.mask_vec", Tensor(init_matrix(rng, 1, d)[0])),
        retrieval_w=params.add("vision.retrieval_w", Tensor(init_matrix(rng, d, d_e))),
        retrieval_b=params.add("vision.retrieval_b", Tensor(np.zeros(d_e))),
        layers=layers)


def vision_encode(patches: np.ndarray, vp: VisionParams,
                  masked: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Project (..., N, P*P*C) patches, apply the stack, and emit retrieval queries.

    Where ``masked`` ((..., N), boolean) is set, the projected embedding is
    replaced by the learned mask vector before position embeddings are
    added, so the raw content of a masked patch cannot influence the output.
    """
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim < 2:
        raise ValidationError(f"expected (..., N, P*P*C) patches, got shape {patches.shape}")
    if vp.pos.shape[0] != patches.shape[-2]:
        raise ValidationError(
            f"position table rows {vp.pos.shape[0]} != patch count {patches.shape[-2]}")
    projected = T.add(T.matmul(T.constant(patches), vp.patch_w), vp.patch_b)
    if masked is not None and np.any(masked):
        keep = 1.0 - np.asarray(masked, dtype=np.float64)[..., None]
        projected = T.add(T.mul(projected, T.constant(keep)),
                          T.mul(vp.mask_vec, T.constant(1.0 - keep)))
    x = T.add(projected, vp.pos)
    for layer in vp.layers:
        x = transformer_layer(x, layer)
    queries = T.add(T.matmul(x, vp.retrieval_w), vp.retrieval_b)
    return x, queries


# ---- text ------------------------------------------------------------------


@dataclass
class TextParams:
    token_embed: Tensor  # vocab x d
    pos: Tensor          # max_len x d
    layers: list[TransformerLayerParams]


def init_text(params: Parameters, rng: np.random.Generator, vocab: int,
              max_len: int, d: int, depth: int, heads: int, d_ff: int) -> TextParams:
    layers = [init_transformer_layer(params, f"text.layer{i}", rng, d, heads, d_ff)
              for i in range(depth)]
    return TextParams(
        token_embed=params.add("text.token_embed", Tensor(init_matrix(rng, vocab, d))),
        pos=params.add("text.pos", Tensor(init_matrix(rng, max_len, d))),
        layers=layers)


def text_encode(tokens, tp: TextParams,
                valid_mask: np.ndarray | None = None) -> Tensor:
    """Encode (..., L) vocabulary indices, CLS at position 0 of each sequence.

    ``valid_mask`` ((..., L), boolean) marks the real tokens of padded
    sequences; see :func:`transformer_layer`.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim < 1 or tokens.shape[-1] == 0:
        raise ValidationError("token sequence must at least contain CLS")
    vocab = tp.token_embed.shape[0]
    outside = tokens[(tokens < 0) | (tokens >= vocab)]
    if outside.size:
        raise ValidationError(f"token id {outside[0]} outside vocabulary of {vocab}")
    length = tokens.shape[-1]
    if length > tp.pos.shape[0]:
        raise ValidationError(
            f"sequence length {length} exceeds position table {tp.pos.shape[0]}")
    x = T.add(T.take_rows(tp.token_embed, tokens),
              T.take_rows(tp.pos, np.arange(length)))
    for layer in tp.layers:
        x = transformer_layer(x, layer, valid_mask)
    return x


# ---- entities ----------------------------------------------------------------


@dataclass
class EntityParams:
    proj_w: Tensor  # d_e x d
    proj_b: Tensor


def init_entity(params: Parameters, rng: np.random.Generator, d_e: int,
                d: int) -> EntityParams:
    return EntityParams(
        proj_w=params.add("entity.proj_w", Tensor(init_matrix(rng, d_e, d))),
        proj_b=params.add("entity.proj_b", Tensor(np.zeros(d))))


def project_memory_rows(rows, memory: EntityMemory, ep: EntityParams) -> Tensor:
    """Project the frozen memory ``rows`` into model width."""
    rows = np.asarray(rows, dtype=np.int64)
    outside = rows[(rows < 0) | (rows >= len(memory))]
    if outside.size:
        raise ValidationError(f"memory row {outside[0]} outside memory of {len(memory)}")
    base = T.constant(memory.matrix[rows])
    return T.add(T.matmul(base, ep.proj_w), ep.proj_b)


def entity_encode(rows, memory: EntityMemory, weights: Tensor,
                  ep: EntityParams) -> Tensor:
    """Initial embeddings of the entities at memory ``rows``, scaled by relevance weights.

    The weights come from the retrieval scores, so the retriever's learning
    signal flows through this product into the rest of the model.
    """
    if weights.shape != (len(rows),):
        raise ValidationError(
            f"weights shape {weights.shape} does not match {len(rows)} entities")
    projected = project_memory_rows(rows, memory, ep)
    return T.mul(projected, T.reshape(weights, (len(rows), 1)))
