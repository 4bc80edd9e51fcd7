"""The four self-supervised losses and their masking / corruption procedures.

Masked language modeling reconstructs span-masked tokens by cross-entropy;
masked vision modeling regresses raw patch vectors under MSE (the masked
targets are continuous, so cross-entropy is not well defined for them);
link prediction trains a DistMult scorer against sampled negatives with the
standard negative-sampling sign convention; image-text contrast is in-batch
InfoNCE with a learnable temperature, positives included in the partition
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import NumericsError, ValidationError
# sample_negatives stays importable from this module: perfbench's traced run
# looks it up here by name.
from .kg import KnowledgeGraph, Triplet, negative_indices, sample_negatives
from .tensor import Parameters, Tensor

LOSS_NAMES = ("mlm", "mvm", "linkpred", "itc")

TAU_MIN = 0.001
TAU_MAX = 0.5


@dataclass
class MaskingRecord:
    """What was masked in one example, and the originals needed as targets."""

    token_positions: list[int] = field(default_factory=list)
    original_tokens: list[int] = field(default_factory=list)
    patch_positions: list[int] = field(default_factory=list)
    original_patches: np.ndarray | None = None


@dataclass
class LossBundle:
    """The four component losses plus their weighted total (all tensors)."""

    mlm: Tensor
    mvm: Tensor
    linkpred: Tensor
    itc: Tensor
    weights: tuple[float, float, float, float]
    total: Tensor

    def values(self) -> dict[str, float]:
        return {"mlm": self.mlm.item(), "mvm": self.mvm.item(),
                "linkpred": self.linkpred.item(), "itc": self.itc.item(),
                "total": self.total.item()}


@dataclass
class ScoringTables:
    """Embeddings and scalars used by the triplet scorer.

    ``entity_matrix`` holds one row per scoreable entity and ``entity_row``
    maps global entity ids into it; relations work the same way.  ``n`` is
    the negative count and ``gamma`` the margin.
    """

    entity_matrix: Tensor
    entity_row: dict[int, int]
    relation_matrix: Tensor
    relation_row: dict[int, int]
    gamma: float = 0.0
    n: int = 128

    def __post_init__(self):
        if self.gamma < 0:
            raise ValidationError("margin gamma must be >= 0")
        if self.n < 1:
            raise ValidationError("negative count n must be >= 1")


@dataclass
class ItcParams:
    img_w: Tensor
    img_b: Tensor
    txt_w: Tensor
    txt_b: Tensor
    tau: Tensor  # shape (1,), clamped to [TAU_MIN, TAU_MAX] after each step


def init_itc(params: Parameters, rng: np.random.Generator, d: int,
             tau_init: float = 0.07) -> ItcParams:
    from .encoders import init_matrix
    return ItcParams(
        img_w=params.add("itc.img_w", Tensor(init_matrix(rng, d, d))),
        img_b=params.add("itc.img_b", Tensor(np.zeros(d))),
        txt_w=params.add("itc.txt_w", Tensor(init_matrix(rng, d, d))),
        txt_b=params.add("itc.txt_b", Tensor(np.zeros(d))),
        tau=params.add("itc.tau", Tensor(np.array([tau_init]))))


# ---- masking ------------------------------------------------------------------


def mask_spans(tokens: list[int], rate: float, mean_span: int, max_span: int,
               mask_id: int, seed: int) -> tuple[list[int], MaskingRecord]:
    """Span-mask exactly ceil(rate * N_t) non-CLS tokens.

    Span starts are uniform over maskable positions and span lengths are
    geometric with the given mean, truncated at ``max_span``.  Overlapping
    spans merge; the final span is trimmed so the masked count is exact.
    CLS (position 0) is never maskable.
    """
    if not (0.0 < rate < 1.0):
        raise ValidationError(f"masking rate must be in (0,1), got {rate}")
    if mean_span < 1 or max_span < 1:
        raise ValidationError("span lengths must be >= 1")
    n_t = len(tokens) - 1
    if n_t < 1:
        raise ValidationError("sequence too short to mask any token")
    target = math.ceil(rate * n_t)
    rng = np.random.default_rng(seed)
    masked: set[int] = set()
    while len(masked) < target:
        start = int(rng.integers(1, n_t + 1))
        length = min(int(rng.geometric(1.0 / mean_span)), max_span)
        for pos in range(start, min(start + length, n_t + 1)):
            if pos not in masked:
                masked.add(pos)
                if len(masked) == target:
                    break
    positions = sorted(masked)
    record = MaskingRecord(token_positions=positions,
                           original_tokens=[tokens[p] for p in positions])
    new_tokens = list(tokens)
    for p in positions:
        new_tokens[p] = mask_id
    return new_tokens, record


def mask_patches(patches, rate: float, seed: int) -> tuple[list[int], MaskingRecord]:
    """Choose ceil(rate * N) patch positions uniformly without replacement.

    Returns the sorted masked positions and a record holding the original
    raw patch vectors as reconstruction targets.  The sequence itself is
    not modified; the encoder substitutes its learned mask vector at these
    positions so masked content never reaches the model.
    """
    raw = patches.patches if hasattr(patches, "patches") else np.asarray(patches)
    n = raw.shape[0]
    if n == 0:
        raise ValidationError("cannot mask an empty patch sequence")
    if not (0.0 < rate < 1.0):
        raise ValidationError(f"masking rate must be in (0,1), got {rate}")
    count = math.ceil(rate * n)
    rng = np.random.default_rng(seed)
    positions = sorted(rng.choice(n, size=count, replace=False).tolist())
    record = MaskingRecord(patch_positions=positions,
                           original_patches=raw[positions].copy())
    return positions, record


# ---- losses --------------------------------------------------------------------


def mlm_loss(logits: Tensor, *records: MaskingRecord) -> Tensor:
    """Cross-entropy of masked-token predictions against the originals: the
    mean over ``records`` of each example's mean, with the ``logits`` rows
    running example by example."""
    counts = np.array([len(r.token_positions) for r in records], dtype=np.int64)
    if not (counts.size and counts.all()) or logits.ndim != 2 \
            or logits.shape[0] != counts.sum():
        raise ValidationError(
            f"{logits.shape[0]} logit rows for masked token counts {counts.tolist()}")
    targets = [t for r in records for t in r.original_tokens]
    picked = T.take_pairs(T.log_softmax(logits, axis=1), np.arange(len(targets)), targets)
    return T.neg(T.dot(picked, T.constant(np.repeat(1.0 / (len(records) * counts), counts))))


def mvm_loss(predictions: Tensor, *records: MaskingRecord) -> Tensor:
    """Mean squared error against the original raw patch vectors, rows
    running example by example; every example masks as many patches, so
    this is also the mean of the examples' means."""
    targets = [r.original_patches for r in records]
    if not targets or any(t is None for t in targets) \
            or predictions.shape[0] != sum(len(t) for t in targets):
        raise ValidationError("prediction rows do not match masked patch count")
    return T.mse(predictions, T.constant(np.concatenate(targets)))


def distmult(h: Tensor, r: Tensor, t: Tensor) -> Tensor:
    """Trilinear score sum_d h_d * r_d * t_d over the last axis, one per row;
    leading axes broadcast, and the score is symmetric in head and tail."""
    if not h.shape[-1:] == r.shape[-1:] == t.shape[-1:]:
        raise ValidationError(f"distmult width mismatch: {h.shape}, {r.shape}, {t.shape}")
    try:
        np.broadcast_shapes(h.shape, r.shape, t.shape)
    except ValueError:
        raise ValidationError(f"distmult leading axes do not broadcast: "
                              f"{h.shape}, {r.shape}, {t.shape}") from None
    return T.tensor_sum(T.mul(T.mul(h, r), t), axis=-1)


def _entity_rows(tables: ScoringTables, kg: KnowledgeGraph,
                 dense: np.ndarray) -> np.ndarray:
    """Scoring-table rows of dense entity indices, each distinct one looked up once."""
    distinct, inverse = np.unique(dense, return_inverse=True)
    ids = kg.entity_ids()
    rows = np.empty(len(distinct), dtype=np.int64)
    for k, index in enumerate(distinct.tolist()):
        e = ids[index]
        row = tables.entity_row.get(e)
        if row is None:
            raise ValidationError(f"entity {e} missing from scoring tables")
        rows[k] = row
    return rows[inverse]


def linkpred_loss(positives: list[Triplet], tables: ScoringTables,
                  kg: KnowledgeGraph, seed: int) -> Tensor:
    """Negative-sampling link prediction loss, mean over positives.

    Per positive: -log sigmoid(score + gamma) plus the mean over n sampled
    corruptions of -log sigmoid(-score' - gamma).  Negatives corrupt one
    endpoint and are rejected if they collide with a positive triplet of
    ``kg``; positive ``i`` samples with seed ``seed + i``.
    """
    if not positives:
        raise ValidationError("linkpred_loss needs at least one positive")
    gamma, n = tables.gamma, tables.n
    positives = [Triplet(*p) for p in positives]
    rel_rows = []
    for pos in positives:
        row = tables.relation_row.get(pos.relation)
        if row is None:
            raise ValidationError(f"relation {pos.relation} missing from scoring tables")
        rel_rows.append(row)
    dense = kg.index_triplets(positives)
    neg_heads, neg_tails = negative_indices(kg, positives, n, seed)
    # One row per positive: its head, the n negative heads, its tail, the n
    # negative tails.
    entity_rows = _entity_rows(tables, kg, np.concatenate(
        [dense[:, :1], neg_heads, dense[:, 2:], neg_tails], axis=1))
    # (P, 1 + n) candidate rows against one (P, 1) relation row per positive.
    h = T.take_rows(tables.entity_matrix, entity_rows[:, :1 + n])
    t = T.take_rows(tables.entity_matrix, entity_rows[:, 1 + n:])
    r = T.take_rows(tables.relation_matrix, np.asarray(rel_rows)[:, None])
    grid = distmult(h, r, t)

    pos_scores = grid[:, 0]
    neg_scores = grid[:, 1:]
    pos_term = T.neg(T.log_sigmoid(T.add(pos_scores, gamma)))
    neg_term = T.tensor_mean(T.neg(T.log_sigmoid(T.neg(T.add(neg_scores, gamma)))),
                             axis=1)
    return T.tensor_mean(T.add(pos_term, neg_term))


def itc_loss(image_cls: Tensor, text_cls: Tensor, ip: ItcParams) -> Tensor:
    """In-batch contrastive alignment of paired image and text vectors.

    Both sides pass through their learned projection heads and are
    L2-normalized; the similarity matrix is divided by the temperature and
    the loss is the mean of the image-to-text and text-to-image
    cross-entropies against the diagonal pairing.
    """
    if image_cls.ndim != 2 or text_cls.ndim != 2 or image_cls.shape != text_cls.shape:
        raise ValidationError(
            f"contrastive inputs must be matching B x d, got {image_cls.shape} "
            f"and {text_cls.shape}")
    b = image_cls.shape[0]
    if b < 2:
        raise ValidationError("contrastive loss needs a batch of at least 2")
    if float(ip.tau.data.reshape(())) <= 0.0:
        raise ValidationError("contrastive temperature must be positive")
    zi = T.l2_normalize_rows(T.add(T.matmul(image_cls, ip.img_w), ip.img_b))
    zt = T.l2_normalize_rows(T.add(T.matmul(text_cls, ip.txt_w), ip.txt_b))
    sims = T.div(T.matmul(zi, T.transpose(zt)), T.reshape(ip.tau, ()))
    diag = np.arange(b)
    i2t = T.cross_entropy(sims, diag)
    t2i = T.cross_entropy(T.transpose(sims), diag)
    return T.mul(T.add(i2t, t2i), 0.5)


def total_loss(mlm: Tensor, mvm: Tensor, linkpred: Tensor, itc: Tensor,
               weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
               ) -> LossBundle:
    """Weighted sum of the four objectives."""
    if len(weights) != 4 or any(w < 0 for w in weights):
        raise ValidationError("loss weights must be four nonnegative numbers")
    components = {"mlm": mlm, "mvm": mvm, "linkpred": linkpred, "itc": itc}
    for name, component in components.items():
        if component.size != 1:
            raise ValidationError(f"{name} loss is not a scalar")
        if not np.isfinite(component.data).all():
            raise NumericsError(f"{name} loss is non-finite")
    total = T.add(T.add(T.mul(mlm, weights[0]), T.mul(mvm, weights[1])),
                  T.add(T.mul(linkpred, weights[2]), T.mul(itc, weights[3])))
    return LossBundle(mlm=mlm, mvm=mvm, linkpred=linkpred, itc=itc,
                      weights=tuple(weights), total=total)
