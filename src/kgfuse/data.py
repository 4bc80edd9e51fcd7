"""Deterministic synthetic corpus: a structured toy KG plus paired images and captions.

The graph is drawn from a latent-factor model (trilinear scores over
latent entity and relation vectors, triplets sampled by a softmax over all
candidate scores), so held-out edges are genuinely predictable rather than
uniform noise.  Each example's image tiles noisy copies of its ground-truth
entities' description embeddings into patch regions, and its caption
contains the matching entity tokens among random filler, so retrieval,
contrast, and masked modeling all have learnable signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import retriever
from .config import Config
from .errors import ValidationError
from .kg import KnowledgeGraph, NamedRecord, Triplet

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
KG_LATENT_DIM = 4
KG_SCORE_TEMPERATURE = 0.5
FILLER_POOL = 32  # distinct filler token types per corpus, Zipf-weighted


def _pseudo_word(rng: np.random.Generator) -> str:
    length = int(rng.integers(3, 9))
    return "".join(_LETTERS[rng.integers(0, 26, size=length)])


def _description(rng: np.random.Generator, words: list[str]) -> str:
    picks = rng.integers(0, len(words), size=6)
    return " ".join(words[i] for i in picks)


@dataclass
class SyntheticCorpus:
    kg: KnowledgeGraph
    images: list[np.ndarray]          # H x W x C arrays
    captions: list[list[int]]         # token ids, CLS first
    ground_truth: list[list[int]]     # entity ids behind each example
    config: Config
    memory: retriever.EntityMemory    # the graph's entity descriptions, embedded

    def __len__(self) -> int:
        return len(self.images)


def entity_token(config: Config, entity_id: int) -> int:
    return Config.RESERVED_TOKENS + entity_id


def generate_kg(config: Config, rng: np.random.Generator) -> KnowledgeGraph:
    """Latent-factor toy graph with config-sized entity/relation/triplet counts."""
    n_e, n_r, n_t = (config.corpus_entities, config.corpus_relations,
                     config.corpus_triplets)
    capacity = n_e * (n_e - 1) * n_r
    if n_t > capacity:
        raise ValidationError(
            f"cannot place {n_t} triplets among {capacity} possible (h, r, t)")

    words = [_pseudo_word(rng) for _ in range(12 * max(4, int(np.sqrt(n_e))))]
    entities = {i: NamedRecord(f"ent_{words[i % len(words)]}_{i}",
                               _description(rng, words)) for i in range(n_e)}
    relations = {i: NamedRecord(f"rel_{words[(7 * i) % len(words)]}_{i}",
                                _description(rng, words)) for i in range(n_r)}

    z = rng.standard_normal((n_e, KG_LATENT_DIM))
    w = rng.standard_normal((n_r, KG_LATENT_DIM))
    # Scores of every (h, r, t) with h != t, flattened in (h, t, r) order.
    scores = np.einsum("hl,rl,tl->hrt", z, w, z)
    flat_scores = scores.transpose(0, 2, 1)[~np.eye(n_e, dtype=bool)].reshape(-1)
    logits = flat_scores / KG_SCORE_TEMPERATURE
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    chosen = np.sort(rng.choice(capacity, size=n_t, replace=False, p=probs))
    # Decode each flat position: r runs fastest, and t's column skips h.
    h, t = np.divmod(chosen // n_r, n_e - 1)
    triplets = np.stack([h, chosen % n_r, t + (t >= h)], axis=1).tolist()
    return KnowledgeGraph(entities, relations, [Triplet(*row) for row in triplets])


def generate_corpus(config: Config, seed: int | None = None) -> SyntheticCorpus:
    """Build the full corpus; identical seeds give identical corpora."""
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng([seed, 1])
    kg = generate_kg(config, rng)
    # Looked up on the module: perfbench spans retriever.build_memory by attribute.
    memory = retriever.build_memory(kg, config.d_e, seed)

    # Patch n tiles ground-truth entity n % K, entry j reading embedding
    # coordinate j % d_e, and each image is patchify's reshape undone.
    p, c = config.patch_size, config.image_c
    patch_entity = np.arange(config.n_patches) % config.entities_per_example
    columns = np.arange(config.patch_dim) % config.d_e
    grid = (config.image_h // p, config.image_w // p, p, p, c)
    entity_ids = kg.entity_ids()

    # Captions mix ground-truth entity tokens with filler drawn from a small
    # Zipf-weighted pool, so the masked-token distribution is learnable.
    filler_lo = Config.RESERVED_TOKENS + config.corpus_entities
    pool_size = min(FILLER_POOL, config.vocab - filler_lo)
    filler_pool = rng.choice(np.arange(filler_lo, config.vocab),
                             size=pool_size, replace=False)
    filler_weights = 1.0 / np.arange(1, pool_size + 1)
    filler_weights /= filler_weights.sum()

    images, captions, ground_truth = [], [], []
    for _ in range(config.corpus_examples):
        gt_idx = rng.choice(len(entity_ids), size=config.entities_per_example,
                            replace=False)
        gt = [entity_ids[i] for i in gt_idx]
        tiles = memory.matrix[gt_idx[patch_entity, None], columns]
        noisy = tiles + config.corpus_noise * rng.standard_normal(tiles.shape)
        images.append(noisy.reshape(grid).swapaxes(1, 2).reshape(
            config.image_h, config.image_w, c))

        length = int(rng.integers(config.caption_min_len, config.caption_max_len + 1))
        body = rng.choice(filler_pool, size=length, p=filler_weights).tolist()
        slots = rng.choice(length, size=min(len(gt), length), replace=False)
        for slot, ent in zip(slots, gt):
            body[slot] = entity_token(config, ent)
        captions.append([Config.CLS_ID] + [int(t) for t in body])
        ground_truth.append(gt)
    return SyntheticCorpus(kg, images, captions, ground_truth, config, memory)


def corpus_memory(corpus: SyntheticCorpus) -> retriever.EntityMemory:
    """The entity memory built with the corpus, rows in its graph's dense order."""
    return corpus.memory
