"""Cross-modal fusion over the CLS + patches + SEP + tokens + SEP + entities sequence.

Four element types (special, visual, textual, entity) each add a learned
type embedding; attention is dense across all positions so every modality
can read every other.  Padding, when batching, is excluded from softmax by
additive large-negative logits and padded rows must be sliced away by the
caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import (TransformerLayerParams, init_matrix,
                       init_transformer_layer, transformer_layer)
from .errors import ValidationError
from .tensor import Parameters, Tensor

TYPE_SPECIAL = 0
TYPE_VISUAL = 1
TYPE_TEXTUAL = 2
TYPE_ENTITY = 3


@dataclass
class SegmentSpans:
    """Half-open index spans of each segment in the fused layout (CLS is row 0)."""

    visual: tuple[int, int]
    sep1: int
    textual: tuple[int, int]
    sep2: int
    entity: tuple[int, int]


@dataclass
class FusedSequence:
    elements: Tensor            # L x d
    segment_types: np.ndarray   # L, int tags
    spans: SegmentSpans


@dataclass
class FusionParams:
    cls_vec: Tensor
    sep_vec: Tensor
    type_table: Tensor  # 4 x d
    layers: list[TransformerLayerParams]


@dataclass
class HeadParams:
    mlm_w: Tensor
    mlm_b: Tensor
    mvm_w: Tensor
    mvm_b: Tensor


@dataclass
class HeadsOutput:
    mlm_logits: Tensor   # |masked tokens| x vocab
    mvm_pred: Tensor     # |masked patches| x patch_dim


def init_fusion(params: Parameters, rng: np.random.Generator, d: int,
                depth: int, heads: int, d_ff: int) -> FusionParams:
    layers = [init_transformer_layer(params, f"fusion.layer{i}", rng, d, heads, d_ff)
              for i in range(depth)]
    return FusionParams(
        cls_vec=params.add("fusion.cls_vec", Tensor(init_matrix(rng, 1, d)[0])),
        sep_vec=params.add("fusion.sep_vec", Tensor(init_matrix(rng, 1, d)[0])),
        type_table=params.add("fusion.type_table", Tensor(init_matrix(rng, 4, d))),
        layers=layers)


def init_heads(params: Parameters, rng: np.random.Generator, d: int,
               vocab: int, patch_dim: int) -> HeadParams:
    return HeadParams(
        mlm_w=params.add("heads.mlm_w", Tensor(init_matrix(rng, d, vocab))),
        mlm_b=params.add("heads.mlm_b", Tensor(np.zeros(vocab))),
        mvm_w=params.add("heads.mvm_w", Tensor(init_matrix(rng, d, patch_dim))),
        mvm_b=params.add("heads.mvm_b", Tensor(np.zeros(patch_dim))))


def assemble(patches: Tensor, tokens: Tensor, entities: Tensor | None,
             fp: FusionParams) -> FusedSequence:
    """Concatenate the fixed layout and add per-position type embeddings.

    ``entities`` may be None or zero-row for the degenerate no-knowledge
    case; the trailing SEP stays in place and the entity span is empty.
    """
    d = fp.cls_vec.shape[0]
    for name, t in (("patches", patches), ("tokens", tokens)):
        if t.ndim != 2 or t.shape[1] != d:
            raise ValidationError(f"{name} width {t.shape} does not match model width {d}")
    n = patches.shape[0]
    n_tok = tokens.shape[0]
    k = 0 if entities is None else entities.shape[0]
    if entities is not None and k > 0 and entities.shape[1] != d:
        raise ValidationError(
            f"entities width {entities.shape} does not match model width {d}")

    cls_row = T.reshape(fp.cls_vec, (1, d))
    sep_row = T.reshape(fp.sep_vec, (1, d))
    parts = [cls_row, patches, sep_row, tokens, sep_row]
    if k > 0:
        parts.append(entities)
    base = T.concat(parts, axis=0)

    tags = np.concatenate([
        [TYPE_SPECIAL], np.full(n, TYPE_VISUAL), [TYPE_SPECIAL],
        np.full(n_tok, TYPE_TEXTUAL), [TYPE_SPECIAL], np.full(k, TYPE_ENTITY),
    ]).astype(np.int64)
    elements = T.add(base, T.take_rows(fp.type_table, tags))

    spans = SegmentSpans(
        visual=(1, 1 + n),
        sep1=1 + n,
        textual=(2 + n, 2 + n + n_tok),
        sep2=2 + n + n_tok,
        entity=(3 + n + n_tok, 3 + n + n_tok + k))
    return FusedSequence(elements, tags, spans)


def fuse(seq: FusedSequence, fp: FusionParams,
         valid_mask: np.ndarray | None = None) -> Tensor:
    """Run the dense-attention stack over the assembled sequence."""
    x = seq.elements
    for layer in fp.layers:
        x = transformer_layer(x, layer, valid_mask=valid_mask)
    return x


def heads(hidden: Tensor, seq: FusedSequence, masked_token_positions: list[int],
          masked_patch_positions: list[int], hp: HeadParams) -> HeadsOutput:
    """Apply prediction heads at the masked positions.

    Token positions are indices into the token sequence (CLS at 0); patch
    positions index the patch sequence.  Both are mapped into the fused
    layout, and an index outside its segment is an error.
    """
    spans = seq.spans
    tok_lo, tok_hi = spans.textual
    vis_lo, vis_hi = spans.visual

    tok_rows = []
    for p in masked_token_positions:
        fused = tok_lo + p
        if not (tok_lo <= fused < tok_hi):
            raise ValidationError(f"masked token position {p} outside the text segment")
        tok_rows.append(fused)
    patch_rows = []
    for p in masked_patch_positions:
        fused = vis_lo + p
        if not (vis_lo <= fused < vis_hi):
            raise ValidationError(f"masked patch position {p} outside the visual segment")
        patch_rows.append(fused)

    mlm_logits = T.add(T.matmul(T.take_rows(hidden, np.asarray(tok_rows, dtype=np.int64)),
                                hp.mlm_w), hp.mlm_b)
    mvm_pred = T.add(T.matmul(T.take_rows(hidden, np.asarray(patch_rows, dtype=np.int64)),
                              hp.mvm_w), hp.mvm_b)
    return HeadsOutput(mlm_logits, mvm_pred)
