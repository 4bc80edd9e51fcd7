"""Entity memory construction and patch-to-entity retrieval.

Entity descriptions are embedded by a deterministic feature-hashing encoder
(a frozen stand-in for a pretrained description encoder), stored as
unit-normalized rows, and scored against projected image patches by plain
inner products.  Search is exact: at desk scale brute force is both free
and directly testable against an independent oracle.
"""

from __future__ import annotations

import functools
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ValidationError
from .kg import KnowledgeGraph

HASH_BUCKETS = 4096


@functools.cache
def _projection(d_e: int, seed: int) -> np.ndarray:
    """The fixed Gaussian hashing projection, built once per (width, seed)
    and shared by every caller, so it is read-only."""
    proj = np.random.default_rng([seed, HASH_BUCKETS]).standard_normal((HASH_BUCKETS, d_e))
    proj.setflags(write=False)
    return proj


def embed_description(text: str, d_e: int, seed: int) -> np.ndarray:
    """Deterministic unit-norm embedding of a description string.

    Character trigrams of the lowercased text are feature-hashed into 4096
    buckets, projected through a fixed seeded Gaussian matrix, and
    L2-normalized.  Empty (or sub-trigram) text falls back to bucket 0.
    """
    if d_e < 2:
        raise ValidationError("embedding width must be >= 2")
    lowered = text.lower()
    counts = Counter(zlib.crc32(lowered[i:i + 3].encode("utf-8")) % HASH_BUCKETS
                     for i in range(len(lowered) - 2)) or {0: 1}
    proj = _projection(d_e, seed)
    # One axis-0 sum adds the rows in the buckets' first-seen order.
    vec = (np.fromiter(counts.values(), float)[:, None] * proj[list(counts)]).sum(axis=0)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        vec = proj[0]
        norm = np.linalg.norm(vec)
    return vec / norm


@dataclass
class EntityMemory:
    """Unit-normalized entity embeddings, one row per entity id, ids ascending."""

    ids: list[int]
    matrix: np.ndarray  # |ids| x d_e, float64, rows unit-norm
    d_e: int

    def __post_init__(self):
        # Pairwise, not np.diff, which wraps a descending uint64 pair.
        if any(a >= b for a, b in zip(self.ids, self.ids[1:])):
            raise ValidationError("entity memory ids must be strictly ascending")
        if self.matrix.shape != (len(self.ids), self.d_e):
            raise ValidationError(
                f"memory shape {self.matrix.shape} inconsistent with "
                f"{len(self.ids)} ids x width {self.d_e}")
        norms = np.linalg.norm(self.matrix, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-6):  # a NaN row fails too
            raise ValidationError("entity memory rows must be unit-normalized")

    def __len__(self) -> int:
        return len(self.ids)


def build_memory(kg: KnowledgeGraph, d_e: int, seed: int) -> EntityMemory:
    """Embed every entity description in the graph, one row per dense index."""
    if len(kg) == 0:
        raise ValidationError("cannot build memory from an empty graph")
    ids = kg.entity_ids()
    matrix = np.stack([embed_description(kg.entities[e].description, d_e, seed)
                       for e in ids])
    matrix.setflags(write=False)  # one memory serves every caller of its corpus
    return EntityMemory(ids, matrix, d_e)


@dataclass
class RetrievedEntitySet:
    """Retrieved entities, one row per (example, entity), example by example
    and within one by score (ties: ascending id).

    ``patch`` and ``column`` locate where each entity scored its maximum in
    the (example, patch, memory column) scores, so the differentiable score
    can be re-read from them.
    """

    example: np.ndarray
    patch: np.ndarray
    column: np.ndarray
    ids: list[int]
    scores: np.ndarray

    @property
    def entries(self) -> list[tuple[int, float]]:
        return list(zip(self.ids, self.scores.tolist()))

    def per_example(self) -> list[list[int]]:
        """Each example's ids; every example retrieves at least one entity."""
        ends = np.flatnonzero(np.diff(self.example)) + 1
        return [part.tolist() for part in np.split(np.asarray(self.ids), ends)]


def score_patches(patch_embeddings, memory: EntityMemory) -> T.Tensor:
    """Inner products of every patch query, (..., P, d_e), with every memory
    row, in one matmul giving (..., P, E).

    Differentiable with respect to the patch embeddings; the memory is a
    frozen constant.
    """
    queries = T.as_tensor(patch_embeddings)
    if queries.ndim < 2 or queries.shape[-1] != memory.d_e:
        raise ValidationError(
            f"patch embedding width {queries.shape} does not match memory width {memory.d_e}")
    return T.matmul(queries, T.constant(memory.matrix.T))


def retrieve(patch_embeddings, memory: EntityMemory, k_per_patch: int,
             k_final: int) -> RetrievedEntitySet:
    """:func:`retrieve_from_scores` of one image's (P, d_e) finite patch
    queries, scored by :func:`score_patches` as a batch of one."""
    queries = T.as_tensor(patch_embeddings).data[None]
    return retrieve_from_scores(score_patches(queries, memory), memory, k_per_patch, k_final)


def retrieve_from_scores(score_matrix, memory: EntityMemory, k_per_patch: int,
                         k_final: int) -> RetrievedEntitySet:
    """Each example's top-``k_per_patch`` entities per patch, pooled at their
    best score and re-ranked to the top ``k_final``, from finite
    (B, P, E) scores.

    Ties everywhere break toward the ascending entity id, and an entity that
    reaches its best score on several patches keeps the earliest.
    """
    if k_per_patch < 1 or k_final < 1:
        raise ValidationError("k_per_patch and k_final must be >= 1")
    if len(memory) == 0:
        raise ValidationError("retrieve against an empty memory")
    if isinstance(score_matrix, T.Tensor):
        scores = score_matrix.data
    else:
        scores = np.asarray(score_matrix, dtype=np.float64)
        if not np.isfinite(scores).all():
            raise ValidationError("retrieval scores must be finite")
    if scores.ndim != 3 or scores.shape[1] == 0 or scores.shape[2] != len(memory):
        raise ValidationError(
            f"score array shape {scores.shape} is not (batch, patches, {len(memory)})")

    # Each patch picks every score above its k-th largest, then the lowest
    # columns equal to it until k are picked.
    n = scores.shape[-1]
    k = min(k_per_patch, n)
    kth = np.partition(scores, n - k, axis=-1)[..., n - k, None]
    above = scores > kth
    tied = scores == kth
    room = k - above.sum(axis=-1, keepdims=True)
    picked = above | (tied & (np.cumsum(tied, axis=-1) <= room))
    pooled = np.where(picked, scores, -np.inf)
    patch = pooled.argmax(axis=1)
    best = pooled.max(axis=1)
    order = np.argsort(-best, axis=-1, kind="stable")[:, :k_final]
    # Pooled entities are finite, so they lead each row of ``order``.
    example, slot = np.nonzero(np.take_along_axis(picked.any(axis=1), order, axis=1))
    column = order[example, slot]
    return RetrievedEntitySet(example, patch[example, column], column,
                              [memory.ids[c] for c in column.tolist()], best[example, column])


def relevance_weights(scores, segments, temperature: float) -> T.Tensor:
    """Softmax of retrieval scores over each example's retrieved set.

    ``segments`` holds each score's example, in sorted runs of every example
    index.  Each example's weights sum to one and keep the retrieval scores
    on the gradient path.
    """
    if temperature <= 0:
        raise ValidationError("temperature must be positive")
    vec = T.as_tensor(scores)
    segments = np.asarray(segments, dtype=np.int64)
    if vec.ndim != 1 or segments.size == 0:
        raise ValidationError(f"relevance_weights expects a non-empty score vector, "
                              f"got shape {vec.shape}")
    return T.segment_softmax(T.mul(vec, 1.0 / temperature), segments, int(segments[-1]) + 1)
