"""End-to-end model assembly: parameters, the batched forward pass, and losses.

One training step runs each stage once over the whole batch: patchify and
mask the images, encode them; encode the masked captions, padded to the
longest; retrieve entities from each example's patch queries, expand their
one-hop subgraph and hold out a fraction of its edges; message-pass over the
disjoint union of the visible subgraphs; fuse CLS + patches + SEP + tokens +
SEP + retrieved entities in one padded layout; and apply the four
objectives.  The random choices (masks, subgraph sampling, the holdout
split, negatives) stay per example, each from its own seed.  Held-out
subgraph edges are the link-prediction positives and never participate in
message passing in the same step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import tensor as T
from .config import Config
from .data import SyntheticCorpus
# project_memory_rows stays importable from this module: perfbench's traced
# run wraps it here by name.
from .encoders import (EntityParams, TextParams, VisionParams, entity_encode,
                       init_entity, init_text, init_vision, patchify,
                       project_memory_rows, text_encode, vision_encode)
from .errors import ValidationError
from .fusion import (FusionParams, HeadParams, assemble, fuse, heads,
                     init_fusion, init_heads)
from .gnn import GnnParams, forward_relation_rows, gnn_encode, init_gnn
from .kg import (KnowledgeGraph, Triplet, disjoint_union, expand_subgraph,
                 split_triplet_list)
from .objectives import (ItcParams, LossBundle, ScoringTables, init_itc,
                         itc_loss, linkpred_loss, mask_patches, mask_spans,
                         mlm_loss, mvm_loss, total_loss)
from .retriever import (EntityMemory, gather_retrieved_scores,
                        relevance_weights, retrieve_from_scores, score_patches)
from .tensor import Parameters, Tensor

ALL_LOSSES = ("mlm", "mvm", "linkpred", "itc")


@dataclass
class ModelParams:
    vision: VisionParams
    text: TextParams
    entity: EntityParams
    gnn: GnnParams
    fusion: FusionParams
    heads: HeadParams
    itc: ItcParams
    store: Parameters


def build_model(config: Config, kg: KnowledgeGraph, seed: int | None = None) -> ModelParams:
    """Initialize every weight group under one flat parameter store."""
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng([seed, 2])
    store = Parameters()
    vision = init_vision(store, rng, config.patch_dim, config.n_patches,
                         config.d, config.d_e, config.vision_layers,
                         config.heads, config.ff_dim)
    text = init_text(store, rng, config.vocab, config.max_text_len + 1,
                     config.d, config.text_layers, config.heads, config.ff_dim)
    entity = init_entity(store, rng, config.d_e, config.d)
    gnn = init_gnn(store, rng, kg, config.d, config.d_e, config.attn_width,
                   config.gnn_layers, description_seed=seed)
    fusion_params = init_fusion(store, rng, config.d, config.fusion_layers,
                                config.heads, config.ff_dim)
    head_params = init_heads(store, rng, config.d, config.vocab, config.patch_dim)
    itc = init_itc(store, rng, config.d, config.tau_init)
    return ModelParams(vision, text, entity, gnn, fusion_params, head_params,
                       itc, store)


@dataclass
class ExamplePlan:
    """Which example to use and the seeds for each of its random choices."""

    index: int
    patch_mask_seed: int
    span_mask_seed: int
    subgraph_seed: int
    holdout_seed: int
    negative_seed: int


@dataclass
class BatchPlan:
    step: int
    examples: list[ExamplePlan] = field(default_factory=list)


def make_batch_plan(config: Config, corpus_size: int, step: int) -> BatchPlan:
    """Derive one step's batch and sampling seeds from (global seed, step)."""
    rng = np.random.default_rng([config.seed, step])
    indices = rng.integers(0, corpus_size, size=config.batch_size)
    plan = BatchPlan(step=step)
    for idx in indices:
        seeds = rng.integers(0, 2 ** 62, size=5)
        plan.examples.append(ExamplePlan(
            index=int(idx),
            patch_mask_seed=int(seeds[0]),
            span_mask_seed=int(seeds[1]),
            subgraph_seed=int(seeds[2]),
            holdout_seed=int(seeds[3]),
            negative_seed=int(seeds[4])))
    return plan


def entity_fallback_table(params: ModelParams, memory: EntityMemory) -> Tensor:
    """Projected memory rows for every entity; the non-subgraph score source."""
    base = T.constant(memory.matrix)
    return T.add(T.matmul(base, params.entity.proj_w), params.entity.proj_b)


@dataclass
class StepOutput:
    bundle: LossBundle
    linkpred_positive_count: int
    retrieved: list[list[int]]


def compute_step(params: ModelParams, corpus: SyntheticCorpus,
                 memory: EntityMemory, plan: BatchPlan,
                 config: Config | None = None,
                 active: tuple[str, ...] = ALL_LOSSES) -> StepOutput:
    """Forward pass for one batch, returning the loss bundle.

    ``active`` limits which objectives are computed (the others contribute
    exact zeros); inactive stages of the pipeline are skipped entirely so
    single-loss gradient checks stay cheap.
    """
    config = corpus.config if config is None else config
    kg = corpus.kg
    need_fusion = "mlm" in active or "mvm" in active
    examples = plan.examples
    mlm = mvm = linkpred = itc = T.constant(0.0)

    patches = patchify(np.stack([corpus.images[ex.index] for ex in examples]),
                       config.patch_size).patches
    patch_records = [mask_patches(p, config.mvm_rate, ex.patch_mask_seed)[1]
                     for p, ex in zip(patches, examples)]
    masked = np.array([np.isin(np.arange(patches.shape[1]), r.patch_positions)
                       for r in patch_records])
    v_out, queries = vision_encode(patches, params.vision, masked)

    captions, token_records = zip(*(
        mask_spans(corpus.captions[ex.index], config.mlm_rate, config.mean_span,
                   config.max_span, Config.MASK_ID, ex.span_mask_seed)
        for ex in examples))
    lengths = np.array([len(c) for c in captions])
    # Padding slots read token 0 and are masked out of every softmax.
    token_valid = np.arange(lengths.max()) < lengths[:, None]
    tokens = np.zeros(token_valid.shape, dtype=np.int64)
    tokens[token_valid] = np.concatenate(captions)
    t_out = text_encode(tokens, params.text, token_valid)

    retrieved_ids, subgraphs, held_outs, node_weights = [], [], [], []
    linkpred_count = 0
    if need_fusion or "linkpred" in active:
        for i, ex in enumerate(examples):
            scores = score_patches(queries[i], memory)
            rset = retrieve_from_scores(scores, memory, config.k_per_patch,
                                        config.k_final)
            retrieved_ids.append(rset.ids)
            subgraph = expand_subgraph(kg, rset.ids, config.per_node_cap,
                                       ex.subgraph_seed)
            visible, held_out = split_triplet_list(subgraph.triplets_local,
                                                   config.edge_drop, ex.holdout_seed)
            subgraphs.append(subgraph.with_triplets(visible))
            held_outs.append(held_out)
            # Seeds are scaled by their relevance, neighbours by exactly 1.
            node_weights += [
                relevance_weights(gather_retrieved_scores(scores, rset),
                                  config.relevance_temperature),
                T.constant(np.ones(subgraph.num_nodes - len(rset.ids)))]
        union, offsets = disjoint_union(subgraphs)
        e0 = entity_encode(union.entity_ids, memory, T.concat(node_weights),
                           params.entity)
        nodes = gnn_encode(union, e0, params.gnn)

    if "linkpred" in active and any(held_outs):
        # Subgraph entities score from their GNN rows, the rest from the
        # fallback rows after them.
        table = T.concat([nodes, entity_fallback_table(params, memory)], axis=0)
        fallback_rows = {e: union.num_nodes + r for e, r in memory.row_of.items()}
        relation_rows = forward_relation_rows(params.gnn)
        parts = []
        for ex, sub, offset, held_out in zip(examples, subgraphs, offsets, held_outs):
            if not held_out:
                continue
            entity_row = {**fallback_rows,
                          **{e: offset + i for i, e in enumerate(sub.entity_ids)}}
            tables = ScoringTables(table, entity_row, params.gnn.relation_table,
                                   relation_rows, config.gamma, config.n_negatives)
            positives = [Triplet(sub.entity_ids[h], r, sub.entity_ids[t])
                         for h, r, t in held_out]
            parts.append(T.mul(linkpred_loss(positives, tables, kg, ex.negative_seed),
                               float(len(positives))))
            linkpred_count += len(positives)
        linkpred = T.mul(reduce(T.add, parts), 1.0 / linkpred_count)

    if need_fusion:
        counts = np.array([len(ids) for ids in retrieved_ids])
        entity_valid = np.arange(counts.max()) < counts[:, None]
        # Each example's seeds are the first nodes of its part of the union.
        seed_rows = np.where(entity_valid,
                             np.asarray(offsets)[:, None] + np.arange(counts.max()), 0)
        fused = assemble(v_out, t_out, T.take_rows(nodes, seed_rows), params.fusion,
                         token_valid, entity_valid)
        out = heads(fuse(fused, params.fusion), fused,
                    [r.token_positions for r in token_records],
                    [r.patch_positions for r in patch_records], params.heads)
        if "mlm" in active:
            mlm = mlm_loss(out.mlm_logits, *token_records)
        if "mvm" in active:
            mvm = mvm_loss(out.mvm_pred, *patch_records)

    if "itc" in active:
        itc = itc_loss(T.tensor_mean(v_out, axis=1), t_out[:, 0], params.itc)

    weights = (config.w_mlm if "mlm" in active else 0.0,
               config.w_mvm if "mvm" in active else 0.0,
               config.w_linkpred if "linkpred" in active else 0.0,
               config.w_itc if "itc" in active else 0.0)
    bundle = total_loss(mlm, mvm, linkpred, itc, weights)
    return StepOutput(bundle, linkpred_count, retrieved_ids)


def single_loss_objective(params: ModelParams, corpus: SyntheticCorpus,
                          memory: EntityMemory, plan: BatchPlan,
                          loss_name: str):
    """A pure function of the parameters suitable for finite differences."""
    if loss_name == "total":
        active: tuple[str, ...] = ALL_LOSSES
    elif loss_name in ALL_LOSSES:
        active = (loss_name,)
    else:
        raise ValidationError(f"unknown loss {loss_name!r}")

    def objective() -> Tensor:
        return compute_step(params, corpus, memory, plan, active=active).bundle.total

    return objective
