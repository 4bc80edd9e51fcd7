"""Toy-scale vision, text, and entity encoders sharing one transformer layer.

The attention block computes, per head m, logits (Q_m x_i)^T (K_m x_j)
scaled by 1/sqrt(d/M), normalizes each query row by softmax, mixes values
V_m x_j, and maps back through W_m.  The M heads are stacked on a leading
axis of each of Q, K, V and W, so every head runs in the same chain of
batched matmuls.  Residual + LayerNorm wrap both the attention sum and the
GELU feed-forward, so one implementation serves the unimodal encoders and
the fusion stack alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ValidationError
from .retriever import EntityMemory
from .tensor import Parameters, Tensor

NEG_ATTENTION = -1e30  # additive logit that zeroes a position out of softmax


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
    heads: int
    width: int


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
        ln2_bias=params.add(f"{prefix}.ln2_bias", Tensor(np.zeros(d))),
        heads=heads, width=d)


def transformer_layer(x: Tensor, layer: TransformerLayerParams,
                      valid_mask: np.ndarray | None = None) -> Tensor:
    """Apply one layer to an (L, d) sequence.

    ``valid_mask`` (length L, boolean) removes padding positions from every
    softmax via a large negative additive logit; rows at padded positions
    are then meaningless and must be ignored by the caller.
    """
    if x.ndim != 2 or x.shape[1] != layer.width:
        raise ValidationError(
            f"sequence shape {x.shape} does not match layer width {layer.width}")
    scale = 1.0 / np.sqrt(layer.width / layer.heads)
    additive = None
    if valid_mask is not None:
        valid_mask = np.asarray(valid_mask, dtype=bool)
        if valid_mask.shape != (x.shape[0],):
            raise ValidationError("valid_mask length does not match sequence length")
        additive = np.where(valid_mask, 0.0, NEG_ATTENTION)[None, :]

    # Heads lie on the leading axis: q, k, v are (M, L, d/M), logits (M, L, L).
    q = T.matmul(x, layer.wq)
    k = T.matmul(x, layer.wk)
    v = T.matmul(x, layer.wv)
    logits = T.mul(T.matmul(q, T.transpose(k)), scale)
    if additive is not None:
        logits = T.add(logits, T.constant(additive))
    attn = T.softmax(logits, axis=-1)
    mixed = T.tensor_sum(T.matmul(T.matmul(attn, v), layer.wo), axis=0)

    h = T.layer_norm(T.add(x, mixed), layer.ln1_gain, layer.ln1_bias)
    ff = T.add(T.matmul(T.gelu(T.add(T.matmul(h, layer.ff_w1), layer.ff_b1)),
                        layer.ff_w2), layer.ff_b2)
    return T.layer_norm(T.add(h, ff), layer.ln2_gain, layer.ln2_bias)


# ---- vision ----------------------------------------------------------------


@dataclass
class PatchSequence:
    """Row-major image patches, flattened channel-last."""

    patches: np.ndarray  # N x (P*P*C)
    grid: tuple[int, int]
    patch_size: int
    channels: int

    @property
    def count(self) -> int:
        return self.patches.shape[0]


def patchify(image: np.ndarray, patch_size: int) -> PatchSequence:
    """Cut an H x W x C array into non-overlapping patches, top-left first."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ValidationError(f"expected an H x W x C image, got shape {image.shape}")
    h, w, c = image.shape
    if h % patch_size or w % patch_size:
        raise ValidationError(
            f"image {h}x{w} not divisible by patch size {patch_size}")
    rows, cols = h // patch_size, w // patch_size
    patches = np.empty((rows * cols, patch_size * patch_size * c))
    for r in range(rows):
        for col in range(cols):
            block = image[r * patch_size:(r + 1) * patch_size,
                          col * patch_size:(col + 1) * patch_size, :]
            patches[r * cols + col] = block.reshape(-1)
    return PatchSequence(patches, (rows, cols), patch_size, c)


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


def vision_encode(seq: PatchSequence, vp: VisionParams,
                  masked_positions: list[int] | None = None
                  ) -> tuple[Tensor, Tensor]:
    """Project patches, apply the stack, and emit retrieval queries.

    Masked positions have their projected embedding replaced by the learned
    mask vector before position embeddings are added, so the raw content of
    a masked patch cannot influence the output.
    """
    if vp.pos.shape[0] != seq.count:
        raise ValidationError(
            f"position table rows {vp.pos.shape[0]} != patch count {seq.count}")
    projected = T.add(T.matmul(T.constant(seq.patches), vp.patch_w), vp.patch_b)
    if masked_positions:
        keep = np.ones((seq.count, 1))
        keep[list(masked_positions)] = 0.0
        mask_row = T.reshape(vp.mask_vec, (1, vp.mask_vec.shape[0]))
        projected = T.add(T.mul(projected, T.constant(keep)),
                          T.mul(mask_row, T.constant(1.0 - keep)))
    x = T.add(projected, vp.pos)
    for layer in vp.layers:
        x = transformer_layer(x, layer)
    queries = T.add(T.matmul(x, vp.retrieval_w), vp.retrieval_b)
    return x, queries


# ---- text ------------------------------------------------------------------


@dataclass
class TokenSequence:
    """Vocabulary indices with the leading CLS index at position 0."""

    tokens: list[int]

    def __post_init__(self):
        if not self.tokens:
            raise ValidationError("token sequence must at least contain CLS")

    @property
    def length(self) -> int:
        return len(self.tokens)


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


def text_encode(seq: TokenSequence, tp: TextParams) -> Tensor:
    vocab = tp.token_embed.shape[0]
    for tok in seq.tokens:
        if not (0 <= tok < vocab):
            raise ValidationError(f"token id {tok} outside vocabulary of {vocab}")
    if seq.length > tp.pos.shape[0]:
        raise ValidationError(
            f"sequence length {seq.length} exceeds position table {tp.pos.shape[0]}")
    x = T.add(T.take_rows(tp.token_embed, seq.tokens),
              T.take_rows(tp.pos, np.arange(seq.length)))
    for layer in tp.layers:
        x = transformer_layer(x, layer)
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


def project_memory_rows(entity_ids: list[int], memory: EntityMemory,
                        ep: EntityParams) -> Tensor:
    """Project frozen memory rows for the given ids into model width."""
    try:
        rows = [memory.row_of[e] for e in entity_ids]
    except KeyError as exc:
        raise ValidationError(f"entity {exc.args[0]} missing from memory") from None
    base = T.constant(memory.matrix[rows])
    return T.add(T.matmul(base, ep.proj_w), ep.proj_b)


def entity_encode(entity_ids: list[int], memory: EntityMemory, weights: Tensor,
                  ep: EntityParams) -> Tensor:
    """Initial embeddings of retrieved entities, scaled by relevance weights.

    The weights come from the retrieval scores, so the retriever's learning
    signal flows through this product into the rest of the model.
    """
    if weights.shape != (len(entity_ids),):
        raise ValidationError(
            f"weights shape {weights.shape} does not match {len(entity_ids)} entities")
    projected = project_memory_rows(entity_ids, memory, ep)
    return T.mul(projected, T.reshape(weights, (len(entity_ids), 1)))
