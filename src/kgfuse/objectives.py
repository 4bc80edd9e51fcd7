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
    total: Tensor

    def values(self) -> dict[str, float]:
        return {name: loss.item() for name, loss in vars(self).items()}


@dataclass
class ScoringTables:
    """Embeddings and scalars of :func:`query_scores`, for training and ranking.

    Every row of ``entity_matrix`` is scored.  ``entity_row`` maps dense
    entity indices (ascending id order) to its rows: an int64 ``(E,)`` array
    shared by all positives, a ``(P, E)`` array with one map per positive,
    or a dict from entity id to row.  ``relation_row`` maps relations into
    ``relation_matrix`` as an ``(R,)`` array or a dict.  A negative row
    marks a missing one.  ``n`` is the negative count and ``gamma`` the
    margin.
    """

    entity_matrix: Tensor
    entity_row: np.ndarray | dict[int, int]
    relation_matrix: Tensor
    relation_row: np.ndarray | dict[int, int]
    gamma: float = 0.0
    n: int = 128

    def __post_init__(self):
        if not (0 <= self.gamma < math.inf):
            raise ValidationError(f"margin gamma must be finite and >= 0, got {self.gamma}")
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


def row_map(rows: np.ndarray | dict[int, int], ids: list[int]) -> np.ndarray:
    """``rows`` as an int64 array over the dense indices of ``ids``; a dict
    gives -1 for an id it lacks."""
    if isinstance(rows, dict):
        return np.array([rows.get(i, -1) for i in ids], dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


def _table_rows(rows, ids: list[int], dense: np.ndarray, what: str) -> np.ndarray:
    """Rows that the map ``rows`` (shared, or one per row of ``dense``)
    gives the dense indices ``dense``; an index without one raises."""
    rows = np.atleast_2d(row_map(rows, ids))
    if rows.shape[1] != len(ids) or len(rows) not in (1, len(dense)):
        raise ValidationError(f"{what} row map of shape {rows.shape} for "
                              f"{len(dense)} positives over {len(ids)} ids")
    found = np.take_along_axis(rows, dense, axis=1)
    if (found < 0).any():
        raise ValidationError(
            f"{what} {ids[dense[found < 0][0]]} missing from scoring tables")
    return found


def _query_rows(tables: ScoringTables, kg: KnowledgeGraph, dense: np.ndarray,
                candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(P, 1)`` relation rows of the dense triplets ``dense`` and the
    ``(P, 2 + C)`` entity rows of each triplet's head, its tail and its
    ``(P, C)`` dense ``candidates``, all read through that triplet's row
    map; an id without a row raises."""
    return (_table_rows(tables.relation_row, kg.relation_ids(), dense[:, 1:2], "relation"),
            _table_rows(tables.entity_row, kg.entity_ids(), np.concatenate(
                [dense[:, ::2], candidates], axis=1), "entity"))


def query_scores(tables: ScoringTables, kg: KnowledgeGraph, dense: np.ndarray,
                 candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DistMult scores of both endpoint queries of each dense triplet against
    every row of ``tables.entity_matrix``, by :func:`tensor.distmult_scores`,
    the scorer that training's loss node runs.

    Query ``2p`` is h * r, which scores tails, and ``2p + 1`` is t * r,
    which scores heads.  Returns the ``(2P, rows)`` scores and the
    :func:`_query_rows` entity rows.
    """
    rel_rows, entity_rows = _query_rows(tables, kg, dense, candidates)
    scores = T.distmult_scores(tables.entity_matrix.data, tables.relation_matrix.data,
                               entity_rows[:, :2], rel_rows)[1]
    return scores, entity_rows


def linkpred_loss(positives: np.ndarray | list[Triplet], tables: ScoringTables,
                  kg: KnowledgeGraph, seed) -> Tensor:
    """Negative-sampling link prediction loss, mean over positives.

    Per positive: -log sigmoid(score + gamma) plus the mean over n sampled
    corruptions of -log sigmoid(-score' - gamma).  ``positives`` are id
    triplets or ``(P, 3)`` dense triplets as
    :meth:`KnowledgeGraph.index_triplets` gives them.  Negatives corrupt one
    endpoint and are rejected if they collide with a positive triplet of
    ``kg``; all positives sample from one :func:`negative_indices` call
    with ``seed``.  Every score is DistMult's, in one
    :func:`tensor.distmult_sampling_loss` node.
    """
    dense = positives if isinstance(positives, np.ndarray) else kg.index_triplets(positives)
    if not len(dense):
        raise ValidationError("linkpred_loss needs at least one positive")
    coin, replacement = negative_indices(kg, dense, tables.n, seed)
    rel_rows, entity_rows = _query_rows(tables, kg, dense, replacement)
    return T.distmult_sampling_loss(tables.entity_matrix, tables.relation_matrix,
                                    entity_rows[:, :2], rel_rows, entity_rows[:, 2:], coin,
                                    tables.gamma)


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


def loss_weights(weights) -> tuple[float, float, float, float]:
    """``weights`` as a tuple; raises unless it is four nonnegative numbers."""
    try:
        if len(weights) == 4 and all(w >= 0 for w in weights):
            return tuple(weights)
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"loss weights must be four nonnegative numbers, got {weights!r}")


def total_loss(mlm: Tensor, mvm: Tensor, linkpred: Tensor, itc: Tensor,
               weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
               ) -> LossBundle:
    """Weighted sum of the four objectives."""
    weights = loss_weights(weights)
    components = {"mlm": mlm, "mvm": mvm, "linkpred": linkpred, "itc": itc}
    for name, component in components.items():
        if component.size != 1:
            raise ValidationError(f"{name} loss is not a scalar")
        if not np.isfinite(component.data).all():
            raise NumericsError(f"{name} loss is non-finite")
    total = T.add(T.add(T.mul(mlm, weights[0]), T.mul(mvm, weights[1])),
                  T.add(T.mul(linkpred, weights[2]), T.mul(itc, weights[3])))
    return LossBundle(mlm=mlm, mvm=mvm, linkpred=linkpred, itc=itc, total=total)
