"""Entity memory construction and patch-to-entity retrieval.

Entity descriptions are embedded by a deterministic feature-hashing encoder
(a frozen stand-in for a pretrained description encoder), stored as
unit-normalized rows, and scored against projected image patches by plain
inner products.  Search is exact: at desk scale brute force is both free
and directly testable against an independent oracle.
"""

from __future__ import annotations

import functools
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ValidationError
from .kg import KnowledgeGraph

HASH_BUCKETS = 4096
MEMORY_MAGIC = b"EMBV0001"


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
    counts: dict[int, float] = {}
    for i in range(len(lowered) - 2):
        bucket = zlib.crc32(lowered[i:i + 3].encode("utf-8")) % HASH_BUCKETS
        counts[bucket] = counts.get(bucket, 0.0) + 1.0
    if not counts:
        counts[0] = 1.0
    proj = _projection(d_e, seed)
    vec = np.zeros(d_e)
    for bucket, count in counts.items():
        vec += count * proj[bucket]
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        vec = proj[0].copy()
        norm = np.linalg.norm(vec)
    return vec / norm


@dataclass
class EntityMemory:
    """Unit-normalized entity embeddings, one row per entity id."""

    ids: list[int]
    matrix: np.ndarray  # |ids| x d_e, float64, rows unit-norm
    d_e: int

    def __post_init__(self):
        if len(self.ids) != len(set(self.ids)):
            raise ValidationError("entity memory ids must be unique")
        if self.matrix.shape != (len(self.ids), self.d_e):
            raise ValidationError(
                f"memory shape {self.matrix.shape} inconsistent with "
                f"{len(self.ids)} ids x width {self.d_e}")
        norms = np.linalg.norm(self.matrix, axis=1)
        if norms.size and np.max(np.abs(norms - 1.0)) > 1e-6:
            raise ValidationError("entity memory rows must be unit-normalized")
        self.row_of = {e: i for i, e in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)


def build_memory(kg: KnowledgeGraph, d_e: int, seed: int) -> EntityMemory:
    """Embed every entity description in the graph (ids ascending)."""
    if len(kg) == 0:
        raise ValidationError("cannot build memory from an empty graph")
    ids = kg.entity_ids()
    matrix = np.stack([embed_description(kg.entities[e].description, d_e, seed)
                       for e in ids])
    return EntityMemory(ids, matrix, d_e)


def save_memory(memory: EntityMemory, path) -> None:
    """Write the EMBV0001 little-endian binary format (f32 payload)."""
    with open(path, "wb") as fh:
        fh.write(MEMORY_MAGIC)
        fh.write(struct.pack("<II", len(memory.ids), memory.d_e))
        for ent_id, row in zip(memory.ids, memory.matrix):
            fh.write(struct.pack("<Q", ent_id))
            fh.write(row.astype("<f4").tobytes())


def load_memory(path) -> EntityMemory:
    """Read an EMBV0001 file; rows are re-normalized after f32 round-off."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MEMORY_MAGIC:
        raise ValidationError(f"bad magic bytes at offset 0: {blob[:8]!r}")
    if len(blob) < 16:
        raise ValidationError(f"truncated header at offset {len(blob)}")
    count, dim = struct.unpack_from("<II", blob, 8)
    record = 8 + 4 * dim
    expected = 16 + count * record
    if len(blob) != expected:
        raise ValidationError(
            f"payload length mismatch at offset {min(len(blob), expected)}: "
            f"expected {expected} bytes for count={count} dim={dim}, got {len(blob)}")
    ids: list[int] = []
    rows = np.empty((count, dim))
    for i in range(count):
        off = 16 + i * record
        (ent_id,) = struct.unpack_from("<Q", blob, off)
        ids.append(ent_id)
        rows[i] = np.frombuffer(blob, dtype="<f4", count=dim, offset=off + 8)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValidationError("zero-norm row in embedding file")
    return EntityMemory(ids, rows / norms, dim)


@dataclass
class RetrievedEntitySet:
    """Top-k entities for one image, sorted by score (ties: ascending id).

    ``sources[i]`` records the (patch row, memory column) where entry i
    achieved its maximum score, so the differentiable score can be re-read
    from the score matrix.
    """

    entries: list[tuple[int, float]]
    sources: list[tuple[int, int]]

    @property
    def ids(self) -> list[int]:
        return [e for e, _ in self.entries]

    @property
    def scores(self) -> list[float]:
        return [s for _, s in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def score_patches(patch_embeddings, memory: EntityMemory) -> T.Tensor:
    """Inner products of each patch query against every memory row.

    Differentiable with respect to the patch embeddings; the memory is a
    frozen constant.
    """
    queries = patch_embeddings if isinstance(patch_embeddings, T.Tensor) \
        else T.Tensor(patch_embeddings)
    if queries.ndim != 2 or queries.shape[1] != memory.d_e:
        raise ValidationError(
            f"patch embedding width {queries.shape} does not match memory width {memory.d_e}")
    return T.matmul(queries, T.constant(memory.matrix.T))


def _top_per_row(row: np.ndarray, ids: np.ndarray, k: int) -> list[int]:
    order = np.lexsort((ids, -row))
    return order[:k].tolist()


def retrieve(patch_embeddings, memory: EntityMemory, k_per_patch: int,
             k_final: int) -> RetrievedEntitySet:
    """Top-``k_per_patch`` entities per patch, pooled, deduplicated, re-ranked.

    Deduplication keeps each entity's maximum score; ties everywhere break
    toward the ascending entity id, and equal-score duplicates keep the
    earliest patch.
    """
    queries = patch_embeddings.data if isinstance(patch_embeddings, T.Tensor) \
        else np.asarray(patch_embeddings, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != memory.d_e:
        raise ValidationError(
            f"patch embedding shape {queries.shape} does not match memory width {memory.d_e}")
    if len(memory) == 0:
        raise ValidationError("retrieve against an empty memory")
    return retrieve_from_scores(queries @ memory.matrix.T, memory,
                                k_per_patch, k_final)


def retrieve_from_scores(score_matrix, memory: EntityMemory, k_per_patch: int,
                         k_final: int) -> RetrievedEntitySet:
    """Selection step of :func:`retrieve`, given the full patch-by-entity scores."""
    if k_per_patch < 1 or k_final < 1:
        raise ValidationError("k_per_patch and k_final must be >= 1")
    if len(memory) == 0:
        raise ValidationError("retrieve against an empty memory")
    scores = score_matrix.data if isinstance(score_matrix, T.Tensor) \
        else np.asarray(score_matrix, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != len(memory):
        raise ValidationError(
            f"score matrix shape {scores.shape} does not match memory size {len(memory)}")

    ids = np.asarray(memory.ids, dtype=np.int64)
    best: dict[int, tuple[float, int, int]] = {}
    for patch_idx in range(scores.shape[0]):
        row = scores[patch_idx]
        for col in _top_per_row(row, ids, k_per_patch):
            ent = int(ids[col])
            score = float(row[col])
            prev = best.get(ent)
            if prev is None or score > prev[0]:
                best[ent] = (score, patch_idx, col)
    ranked = sorted(best.items(), key=lambda kv: (-kv[1][0], kv[0]))[:k_final]
    entries = [(ent, rec[0]) for ent, rec in ranked]
    sources = [(rec[1], rec[2]) for _, rec in ranked]
    return RetrievedEntitySet(entries, sources)


def gather_retrieved_scores(score_matrix: T.Tensor,
                            retrieved: RetrievedEntitySet) -> T.Tensor:
    """Differentiable (k,) vector of the retrieved entities' winning scores."""
    if len(retrieved) == 0:
        raise ValidationError("empty retrieved set")
    rows = [r for r, _ in retrieved.sources]
    cols = [c for _, c in retrieved.sources]
    return T.take_pairs(score_matrix, rows, cols)


def relevance_weights(scores, temperature: float) -> T.Tensor:
    """Softmax of retrieval scores over the retrieved set.

    Accepts either the differentiable score vector from
    :func:`gather_retrieved_scores` or a :class:`RetrievedEntitySet` (whose
    stored float scores become a constant input).  Weights sum to one and
    keep the retrieval scores on the gradient path when given a tensor.
    """
    if temperature <= 0:
        raise ValidationError("temperature must be positive")
    if isinstance(scores, RetrievedEntitySet):
        if len(scores) == 0:
            raise ValidationError("empty retrieved set")
        vec = T.constant(np.asarray(scores.scores))
    else:
        vec = scores if isinstance(scores, T.Tensor) else T.Tensor(scores)
        if vec.size == 0:
            raise ValidationError("empty score vector")
    if vec.ndim != 1:
        raise ValidationError(f"relevance_weights expects a 1-D score vector, got {vec.shape}")
    return T.softmax(T.mul(vec, 1.0 / temperature), axis=0)
