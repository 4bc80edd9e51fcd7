"""Cross-modal fusion over the CLS + patches + SEP + tokens + SEP + entities sequence.

Four element types (special, visual, textual, entity) each add a learned
type embedding; attention is dense across all positions so every modality
can read every other.  A batch shares one padded layout: every example has
the same N patch slots, L_tok token slots and K entity slots, and the
sequence's validity mask removes the padding slots from every softmax.
Only this module knows the layout: :func:`heads` maps masked positions into
it.
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
    elements: Tensor            # (..., L, d)
    segment_types: np.ndarray   # L, int tags shared by the batch
    spans: SegmentSpans
    valid: np.ndarray           # (..., L) boolean; False at padding slots


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
             fp: FusionParams, token_valid: np.ndarray | None = None,
             entity_valid: np.ndarray | None = None) -> FusedSequence:
    """Concatenate the fixed layout and add per-position type embeddings.

    ``patches`` is (..., N, d), ``tokens`` (..., L_tok, d) and ``entities``
    (..., K, d); ``token_valid`` ((..., L_tok)) and ``entity_valid``
    ((..., K)) mark the filled slots and default to all of them.
    ``entities`` may be None or zero-row for the degenerate no-knowledge
    case; the trailing SEP stays in place and the entity span is empty.
    """
    d = fp.cls_vec.shape[0]
    for name, t in (("patches", patches), ("tokens", tokens)):
        if t.ndim < 2 or t.shape[-1] != d:
            raise ValidationError(f"{name} width {t.shape} does not match model width {d}")
    lead = patches.shape[:-2]
    n = patches.shape[-2]
    n_tok = tokens.shape[-2]
    k = 0 if entities is None else entities.shape[-2]
    if k > 0 and entities.shape[-1] != d:
        raise ValidationError(
            f"entities width {entities.shape} does not match model width {d}")

    def special(vec: Tensor) -> Tensor:  # (d,) -> one (..., 1, d) row per example
        return T.take_rows(T.reshape(vec, (1, d)), np.zeros(lead + (1,), dtype=np.int64))

    sep_row = special(fp.sep_vec)
    parts = [special(fp.cls_vec), patches, sep_row, tokens, sep_row]
    if k > 0:
        parts.append(entities)
    base = T.concat(parts, axis=-2)

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
    valid = np.ones(lead + tags.shape, dtype=bool)
    for (lo, hi), mask in ((spans.textual, token_valid), (spans.entity, entity_valid)):
        if mask is not None:
            valid[..., lo:hi] = mask
    return FusedSequence(elements, tags, spans, valid)


def fuse(seq: FusedSequence, fp: FusionParams) -> Tensor:
    """Run the dense-attention stack over the assembled sequence."""
    x = seq.elements
    for layer in fp.layers:
        x = transformer_layer(x, layer, valid_mask=seq.valid)
    return x


def _fused_rows(positions, span: tuple[int, int], valid: np.ndarray,
                what: str) -> list[int]:
    """Rows of the flattened (B*L, d) hidden states for per-example positions."""
    rows = []
    for b, example in enumerate(positions):
        for p in example:
            row = b * valid.shape[1] + span[0] + p
            if not (0 <= p < span[1] - span[0] and valid.flat[row]):
                raise ValidationError(f"masked {what} position {p} outside the {what} segment")
            rows.append(row)
    return rows


def heads(hidden: Tensor, seq: FusedSequence, masked_token_positions,
          masked_patch_positions, hp: HeadParams) -> HeadsOutput:
    """Apply prediction heads at the masked positions.

    Both position arguments hold one list per example, in batch order.
    Token positions are indices into each token sequence (CLS at 0); patch
    positions index the patch sequence.  Both are mapped into the fused
    layout, and an index outside its segment or on padding is an error.
    Output rows run example by example.
    """
    length, d = hidden.shape[-2:]
    valid = seq.valid.reshape(-1, length)
    if len(masked_token_positions) != valid.shape[0] \
            or len(masked_patch_positions) != valid.shape[0]:
        raise ValidationError(
            f"masked positions must hold one list per example ({valid.shape[0]})")
    tok_rows = _fused_rows(masked_token_positions, seq.spans.textual, valid, "token")
    patch_rows = _fused_rows(masked_patch_positions, seq.spans.visual, valid, "patch")
    flat = T.reshape(hidden, (valid.size, d))
    mlm_logits = T.add(T.matmul(T.take_rows(flat, tok_rows), hp.mlm_w), hp.mlm_b)
    mvm_pred = T.add(T.matmul(T.take_rows(flat, patch_rows), hp.mvm_w), hp.mvm_b)
    return HeadsOutput(mlm_logits, mvm_pred)
