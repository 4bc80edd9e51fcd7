"""End-to-end model assembly: parameters, the per-step forward pass, and losses.

One training step, per example: patchify and mask the image, encode it,
retrieve entities from the patch queries, expand their one-hop subgraph,
hold out a fraction of its edges, message-pass over the visible remainder,
fuse CLS + patches + SEP + masked tokens + SEP + retrieved entities, and
apply the four objectives.  Held-out subgraph edges are the link-prediction
positives and never participate in message passing in the same step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import Config
from .data import SyntheticCorpus
from .encoders import (EntityParams, TextParams, TokenSequence, VisionParams,
                       entity_encode, init_entity, init_text, init_vision,
                       patchify, project_memory_rows, text_encode,
                       vision_encode)
from .errors import ValidationError
from .fusion import (FusionParams, HeadParams, assemble, fuse, heads,
                     init_fusion, init_heads)
from .gnn import GnnParams, forward_relation_rows, gnn_encode, init_gnn
from .kg import KnowledgeGraph, Triplet, expand_subgraph, split_triplet_list
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


def _scoring_tables(params: ModelParams, memory: EntityMemory,
                    fallback: Tensor, node_embeddings: Tensor,
                    subgraph_ids: list[int], config: Config) -> ScoringTables:
    """Score subgraph entities from their GNN rows, the rest from the table."""
    offset = len(subgraph_ids)
    entity_row = {e: offset + i for e, i in memory.row_of.items()}
    entity_row.update((e, local) for local, e in enumerate(subgraph_ids))
    return ScoringTables(entity_matrix=T.concat([node_embeddings, fallback], axis=0),
                         entity_row=entity_row,
                         relation_matrix=params.gnn.relation_table,
                         relation_row=forward_relation_rows(params.gnn),
                         gamma=config.gamma, n=config.n_negatives)


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
    need_entities = need_fusion or "linkpred" in active

    fallback = entity_fallback_table(params, memory) if "linkpred" in active else None

    mlm_parts: list[Tensor] = []
    mvm_parts: list[Tensor] = []
    linkpred_parts: list[Tensor] = []
    linkpred_count = 0
    image_vecs: list[Tensor] = []
    text_vecs: list[Tensor] = []
    retrieved_ids: list[list[int]] = []

    for ex in plan.examples:
        image = corpus.images[ex.index]
        caption = corpus.captions[ex.index]

        seq = patchify(image, config.patch_size)
        patch_positions, patch_record = mask_patches(seq, config.mvm_rate,
                                                     ex.patch_mask_seed)
        v_out, queries = vision_encode(seq, params.vision,
                                       masked_positions=patch_positions)

        masked_tokens, token_record = mask_spans(
            caption, config.mlm_rate, config.mean_span, config.max_span,
            Config.MASK_ID, ex.span_mask_seed)
        t_out = text_encode(TokenSequence(masked_tokens), params.text)

        entity_embs = None
        subgraph = None
        node_embeddings = None
        if need_entities:
            scores = score_patches(queries, memory)
            rset = retrieve_from_scores(scores, memory, config.k_per_patch,
                                        config.k_final)
            retrieved_ids.append(rset.ids)
            weight_vec = relevance_weights(gather_retrieved_scores(scores, rset),
                                           config.relevance_temperature)
            subgraph = expand_subgraph(kg, rset.ids, config.per_node_cap,
                                       ex.subgraph_seed)
            visible, held_out = split_triplet_list(subgraph.triplets_local,
                                                   config.edge_drop,
                                                   ex.holdout_seed)
            sub_visible = subgraph.with_triplets(visible)

            seed_embs = entity_encode(rset.ids, memory, weight_vec, params.entity)
            neighbor_ids = subgraph.entity_ids[len(rset.ids):]
            if neighbor_ids:
                e0 = T.concat([seed_embs,
                               project_memory_rows(neighbor_ids, memory,
                                                   params.entity)], axis=0)
            else:
                e0 = seed_embs
            node_embeddings = gnn_encode(sub_visible, e0, params.gnn)
            entity_embs = T.take_rows(node_embeddings,
                                      np.arange(len(rset.ids)))

            if "linkpred" in active and held_out:
                tables = _scoring_tables(params, memory, fallback,
                                         node_embeddings, subgraph.entity_ids,
                                         config)
                positives = [Triplet(subgraph.entity_ids[h], r,
                                     subgraph.entity_ids[t])
                             for h, r, t in held_out]
                linkpred_parts.append(
                    T.mul(linkpred_loss(positives, tables, kg,
                                        ex.negative_seed), float(len(positives))))
                linkpred_count += len(positives)

        if need_fusion:
            fused_seq = assemble(v_out, t_out, entity_embs, params.fusion)
            hidden = fuse(fused_seq, params.fusion)
            out = heads(hidden, fused_seq, token_record.token_positions,
                        patch_record.patch_positions, params.heads)
            if "mlm" in active:
                mlm_parts.append(mlm_loss(out.mlm_logits, token_record))
            if "mvm" in active:
                mvm_parts.append(mvm_loss(out.mvm_pred, patch_record))

        if "itc" in active:
            image_vecs.append(T.tensor_mean(v_out, axis=0, keepdims=True))
            text_vecs.append(t_out[0:1, :])

    zero = T.constant(0.0)
    b = len(plan.examples)
    mlm = T.mul(_sum_parts(mlm_parts), 1.0 / b) if mlm_parts else zero
    mvm = T.mul(_sum_parts(mvm_parts), 1.0 / b) if mvm_parts else zero
    if linkpred_parts:
        linkpred = T.mul(_sum_parts(linkpred_parts), 1.0 / linkpred_count)
    else:
        linkpred = zero
    if "itc" in active:
        itc = itc_loss(T.concat(image_vecs, axis=0), T.concat(text_vecs, axis=0),
                       params.itc)
    else:
        itc = zero

    weights = (config.w_mlm if "mlm" in active else 0.0,
               config.w_mvm if "mvm" in active else 0.0,
               config.w_linkpred if "linkpred" in active else 0.0,
               config.w_itc if "itc" in active else 0.0)
    bundle = total_loss(mlm, mvm, linkpred, itc, weights)
    return StepOutput(bundle, linkpred_count, retrieved_ids)


def _sum_parts(parts: list[Tensor]) -> Tensor:
    acc = parts[0]
    for p in parts[1:]:
        acc = T.add(acc, p)
    return acc


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
