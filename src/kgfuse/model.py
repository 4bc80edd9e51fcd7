"""End-to-end model assembly: parameters, the batched forward pass, and losses.

One training step runs each stage once over the whole batch: patchify and
mask the images, encode them; encode the masked captions, padded to the
longest; score every patch query against the entity memory and select
each example's entities in one pass, expand their one-hop subgraph and hold
out a fraction of its edges; message-pass over the disjoint union of the
visible subgraphs; fuse CLS + patches + SEP + tokens + SEP + retrieved
entities in one padded layout; and apply the four objectives.  The random
choices (masks, subgraph sampling, the holdout split) stay per example, each
from its own seed; the step's negatives come from one generator seeded with
every example's negative seed.  Held-out subgraph edges are the
link-prediction positives and never participate in message passing in the
same step.

A plan's host-side work, which no parameter changes, is computed once and
kept on the plan: its :class:`BatchInputs` (patches, masks and padded
tokens) and, while retrieval returns the same entities, its
:class:`GraphSample` (subgraphs, holdout split, their union and its edge
lists, and the link-prediction rows).  Every forward pass over one plan
after the first reuses them.

Under :func:`tensor.no_grad` the plan also keeps a :class:`StageMemo`:
each stage's output from the last no-grad pass, reused while the stage's
parameter groups are bitwise unchanged and the upstream outputs it read
are the same objects.  A finite-difference evaluation perturbs one
coordinate, so it reruns only the stage that owns it and the stages
downstream: a ``heads.*`` perturbation reruns fusion and heads, and
leaves vision, text, retrieval and the GNN alone.  Grad mode neither reads
nor writes the memo, so training and analytic gradients run every stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import Config
from .data import SyntheticCorpus
from .encoders import (EntityParams, TextParams, VisionParams, entity_encode,
                       init_entity, init_text, init_vision, patchify,
                       project_memory_rows, text_encode, vision_encode)
from .errors import ValidationError
from .fusion import (FusionParams, HeadParams, assemble, fuse, heads,
                     init_fusion, init_heads)
from .gnn import GnnParams, forward_relation_rows, gnn_encode, init_gnn
from .kg import (KnowledgeGraph, Subgraph, Triplet, disjoint_union,
                 expand_subgraph, split_triplet_list)
from .objectives import (ItcParams, LossBundle, MaskingRecord, ScoringTables,
                         init_itc, itc_loss, linkpred_loss, mask_patches,
                         mask_spans, mlm_loss, mvm_loss, total_loss)
from .retriever import (EntityMemory, relevance_weights, retrieve_from_scores,
                        score_patches)
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


def build_model(config: Config, kg: KnowledgeGraph) -> ModelParams:
    """Initialize every weight group under one flat parameter store."""
    rng = np.random.default_rng([config.seed, 2])
    store = Parameters()
    vision = init_vision(store, rng, config.patch_dim, config.n_patches,
                         config.d, config.d_e, config.vision_layers,
                         config.heads, config.ff_dim)
    text = init_text(store, rng, config.vocab, config.max_text_len + 1,
                     config.d, config.text_layers, config.heads, config.ff_dim)
    entity = init_entity(store, rng, config.d_e, config.d)
    gnn = init_gnn(store, rng, kg, config.d, config.d_e, config.attn_width,
                   config.gnn_layers, description_seed=config.seed)
    fusion_params = init_fusion(store, rng, config.d, config.fusion_layers,
                                config.heads, config.ff_dim)
    head_params = init_heads(store, rng, config.d, config.vocab, config.patch_dim)
    itc = init_itc(store, rng, config.d, config.tau_init)
    return ModelParams(vision, text, entity, gnn, fusion_params, head_params,
                       itc, store)


@dataclass(frozen=True)
class ExamplePlan:
    """Which example to use and the seeds for each of its random choices."""

    index: int
    patch_mask_seed: int
    span_mask_seed: int
    subgraph_seed: int
    holdout_seed: int
    negative_seed: int


@dataclass
class BatchInputs:
    """A plan's patchified images and masked, padded captions, built for one
    corpus, which keys their reuse."""

    corpus: SyntheticCorpus
    patches: np.ndarray               # (B, N, patch_dim)
    masked: np.ndarray                # (B, N) patches the vision encoder masks
    patch_records: list[MaskingRecord]
    token_records: list[MaskingRecord]
    tokens: np.ndarray                # (B, L) masked captions, padding reads 0
    token_valid: np.ndarray           # (B, L) real tokens


@dataclass
class GraphSample:
    """Each example's subgraph for one retrieval, split and joined: built for
    one ``BatchInputs``, memory and tuple of retrieved ids, which key its
    reuse.  The graph is the inputs' corpus graph."""

    inputs: BatchInputs
    memory: EntityMemory
    retrieved: tuple[tuple[int, ...], ...]
    union: Subgraph                   # the visible subgraphs side by side
    node_rows: np.ndarray             # memory row of each union node
    seed_rows: np.ndarray             # (B, K) union row of each retrieved entity
    entity_valid: np.ndarray          # (B, K) filled seed slots
    node_weight: np.ndarray           # union row -> relevance slot, last is 1
    positives: list[Triplet]          # held-out edges, example by example
    positive_rows: np.ndarray         # (P, E) entity row map of each positive


@dataclass
class BatchPlan:
    step: int
    # A tuple, so the examples cannot change under the plan's inputs.
    examples: tuple[ExamplePlan, ...] = ()
    # The host-side work of the plan's last forward pass; see compute_step.
    inputs: BatchInputs | None = field(default=None, compare=False, repr=False)
    sample: GraphSample | None = field(default=None, compare=False, repr=False)
    # Stage outputs of the plan's last no-grad forward pass; see compute_step.
    memo: StageMemo | None = field(default=None, compare=False, repr=False)


def make_batch_plan(config: Config, corpus_size: int, step: int) -> BatchPlan:
    """Derive one step's batch and sampling seeds from (global seed, step)."""
    rng = np.random.default_rng([config.seed, step])
    indices = rng.integers(0, corpus_size, size=config.batch_size)
    seeds = rng.integers(0, 2 ** 62, size=(config.batch_size, 5))
    return BatchPlan(step, tuple(ExamplePlan(idx, *row)
                                 for idx, row in zip(indices.tolist(), seeds.tolist())))


def entity_fallback_table(params: ModelParams, memory: EntityMemory) -> Tensor:
    """Projected memory rows for every entity; the non-subgraph score source."""
    return project_memory_rows(np.arange(len(memory)), memory, params.entity)


@dataclass
class StepOutput:
    bundle: LossBundle
    linkpred_positive_count: int
    retrieved: list[list[int]]


def _read_only(*arrays: np.ndarray) -> None:
    """Freeze arrays kept for reuse: a write into one raises instead of
    changing a later forward pass."""
    for array in arrays:
        array.setflags(write=False)


def batch_inputs(corpus: SyntheticCorpus, plan: BatchPlan) -> BatchInputs:
    """The plan's patches, patch masks and masked, padded tokens, computed
    on its first forward pass and kept on the plan while its corpus stays
    the same."""
    cached = plan.inputs
    if cached is not None and cached.corpus is corpus:
        return cached
    config, examples = corpus.config, plan.examples
    patches = patchify(np.stack([corpus.images[ex.index] for ex in examples]),
                       config.patch_size).patches
    patch_records = [mask_patches(p, config.mvm_rate, ex.patch_mask_seed)[1]
                     for p, ex in zip(patches, examples)]
    positions = [r.patch_positions for r in patch_records]
    masked = np.zeros(patches.shape[:2], dtype=bool)
    masked[np.repeat(np.arange(len(positions)), [len(p) for p in positions]),
           np.concatenate(positions)] = True
    captions, token_records = zip(*(
        mask_spans(corpus.captions[ex.index], config.mlm_rate, config.mean_span,
                   config.max_span, Config.MASK_ID, ex.span_mask_seed)
        for ex in examples))
    lengths = np.array([len(c) for c in captions])
    # Padding slots read token 0 and are masked out of every softmax.
    token_valid = np.arange(lengths.max()) < lengths[:, None]
    tokens = np.zeros(token_valid.shape, dtype=np.int64)
    tokens[token_valid] = np.concatenate(captions)
    _read_only(patches, masked, tokens, token_valid,
               *(r.original_patches for r in patch_records))
    plan.inputs = BatchInputs(corpus, patches, masked, patch_records,
                              list(token_records), tokens, token_valid)
    return plan.inputs


def graph_sample(inputs: BatchInputs, memory: EntityMemory,
                 retrieved_ids: list[list[int]], plan: BatchPlan) -> GraphSample:
    """Expand each example's retrieved entities into a subgraph of the
    corpus graph, hold out a fraction of its edges, and join the visible
    parts; computed on the plan's first forward pass and again only when
    the inputs, the memory or the retrieved ids change, such as on a
    parameter change that flips retrieval.  A memory whose ids are not the
    graph's raises."""
    key = tuple(map(tuple, retrieved_ids))
    cached = plan.sample
    if (cached is not None and cached.inputs is inputs and cached.memory is memory
            and cached.retrieved == key):
        return cached
    config, kg, examples = inputs.corpus.config, inputs.corpus.kg, plan.examples
    ids = kg.entity_ids()
    if memory.ids != ids:
        raise ValidationError(f"memory of {len(memory)} ids differs from the graph's {len(ids)}")
    subgraphs, held_outs = [], []
    for seeds, ex in zip(retrieved_ids, examples):
        subgraph = expand_subgraph(kg, seeds, config.per_node_cap, ex.subgraph_seed)
        visible, held_out = split_triplet_list(subgraph.triplets_local,
                                               config.edge_drop, ex.holdout_seed)
        subgraphs.append(subgraph.with_triplets(visible))
        held_outs.append(held_out)
    union, offsets = disjoint_union(subgraphs)
    # Each example's seeds are the first nodes of its part of the union.
    counts = np.array([len(ids) for ids in retrieved_ids])
    entity_valid = np.arange(counts.max()) < counts[:, None]
    seed_rows = np.where(entity_valid,
                         np.asarray(offsets)[:, None] + np.arange(counts.max()), 0)
    # Seeds are scaled by their relevance, neighbours by the appended 1.
    node_weight = np.full(union.num_nodes, counts.sum())
    node_weight[seed_rows[entity_valid]] = np.arange(counts.sum())
    # The score table holds the fallback rows, then the union's GNN rows;
    # each example scores only its own subgraph's entities from GNN rows.
    entity_row = np.tile(np.arange(len(ids)), (len(examples), 1))
    node_example = np.repeat(np.arange(len(examples)), [s.num_nodes for s in subgraphs])
    node_rows = np.searchsorted(ids, union.entity_ids)
    entity_row[node_example, node_rows] = len(memory) + np.arange(union.num_nodes)
    held = np.concatenate([h + [off, 0, off] for h, off in zip(held_outs, offsets)])
    held[:, ::2] = node_rows[held[:, ::2]]
    positives = kg.triplets_of(held)
    positive_rows = entity_row[np.repeat(np.arange(len(examples)),
                                         [len(h) for h in held_outs])]
    _read_only(node_rows, seed_rows, entity_valid, node_weight, positive_rows)
    plan.sample = GraphSample(inputs, memory, key, union, node_rows, seed_rows,
                              entity_valid, node_weight, positives, positive_rows)
    return plan.sample


# The stages of compute_step that the stage memo keeps, each with the
# parameter groups it reads; a group is the first part of a parameter name.
STAGE_GROUPS = {"vision": ("vision",), "text": ("text",), "graph": ("entity", "gnn"),
                "linkpred": ("entity", "gnn"), "fusion": ("fusion", "heads"),
                "itc": ("itc",)}


@dataclass
class StageMemo:
    """Each stage's output from a plan's last no-grad forward pass over one
    parameter store, with what it was computed from: the upstream objects
    the stage read and a copy of the flat range its groups span."""

    store: Parameters
    spans: dict[str, slice]           # stage -> flat range of its groups
    flat: np.ndarray | None = None    # the store's buffer during a pass
    entries: dict[str, tuple[tuple, np.ndarray, object]] = field(default_factory=dict)


def _stage_memo(plan: BatchPlan, store: Parameters) -> StageMemo | None:
    """The plan's memo for ``store``, or None in grad mode, which neither
    reads nor writes it."""
    if T.is_grad_enabled():
        return None
    memo = plan.memo
    if memo is None or memo.store is not store:
        bounds, start = {}, 0
        for name, t in store.items():
            group = name.split(".", 1)[0]
            bounds[group] = (bounds.get(group, (start,))[0], start + t.size)
            start += t.size
        # Groups are contiguous; were they not, a span would only cover more.
        spans = {stage: slice(min(bounds[g][0] for g in groups),
                              max(bounds[g][1] for g in groups))
                 for stage, groups in STAGE_GROUPS.items()}
        plan.memo = memo = StageMemo(store, spans)
    memo.flat = store.flat()
    return memo


def _reuse(memo: StageMemo | None, stage: str, upstream: tuple, compute):
    """``compute()``, or the stage's memo entry if that read the same
    upstream objects and its parameters are bitwise the current ones.

    The key is what the stage read, not a list of what it should depend on,
    so a key that misses an input shows as a finite-difference mismatch
    rather than hiding it."""
    if memo is None:
        return compute()
    # Compared as integers, so that a hit is bitwise: 0.0 and -0.0 differ.
    data = memo.flat[memo.spans[stage]].view(np.int64)
    entry = memo.entries.get(stage)
    if (entry is not None and all(a is b for a, b in zip(entry[0], upstream))
            and np.array_equal(entry[1], data)):
        return entry[2]
    out = compute()
    memo.entries[stage] = (upstream, data.copy(), out)
    return out


def compute_step(params: ModelParams, corpus: SyntheticCorpus,
                 memory: EntityMemory, plan: BatchPlan,
                 active: tuple[str, ...] = ALL_LOSSES) -> StepOutput:
    """Forward pass for one batch under ``corpus.config``, returning the loss
    bundle.

    ``active`` limits which objectives are computed (the others contribute
    exact zeros); inactive stages of the pipeline are skipped entirely so
    single-loss gradient checks stay cheap.  The plan's
    :func:`batch_inputs` are reused from an earlier pass over it with the
    same corpus, and its :func:`graph_sample` with the same inputs, memory
    and retrieved ids.  Under :func:`tensor.no_grad` each stage's output is
    also reused from the plan's last no-grad pass while its parameters and
    upstream outputs are unchanged.
    """
    config, kg = corpus.config, corpus.kg
    need_fusion = "mlm" in active or "mvm" in active
    mlm = mvm = linkpred = itc = T.constant(0.0)

    inputs = batch_inputs(corpus, plan)
    memo = _stage_memo(plan, params.store)
    v_out, queries = _reuse(memo, "vision", (inputs,), lambda: vision_encode(
        inputs.patches, params.vision, inputs.masked))
    if need_fusion or "itc" in active:
        t_out = _reuse(memo, "text", (inputs,), lambda: text_encode(
            inputs.tokens, params.text, inputs.token_valid))

    def encode_graph():
        scores = score_patches(queries, memory)
        found = retrieve_from_scores(scores, memory, config.k_per_patch, config.k_final)
        retrieved_ids = found.per_example()
        sample = graph_sample(inputs, memory, retrieved_ids, plan)
        b, p, e = scores.shape
        relevance = relevance_weights(
            T.take_pairs(T.reshape(scores, (b * p, e)), found.example * p + found.patch,
                         found.column),
            found.example, config.relevance_temperature)
        e0 = entity_encode(sample.node_rows, memory,
                           T.take_rows(T.concat([relevance, T.constant(np.ones(1))]),
                                       sample.node_weight),
                           params.entity)
        return retrieved_ids, sample, gnn_encode(sample.union, e0, params.gnn)

    def encode_linkpred():
        tables = ScoringTables(
            T.concat([entity_fallback_table(params, memory), nodes], axis=0),
            sample.positive_rows, params.gnn.relation_table,
            forward_relation_rows(params.gnn), config.gamma, config.n_negatives)
        return linkpred_loss(sample.positives, tables, kg,
                             [ex.negative_seed for ex in plan.examples])

    def encode_fusion():
        fused = assemble(v_out, t_out, T.take_rows(nodes, sample.seed_rows),
                         params.fusion, inputs.token_valid, sample.entity_valid)
        return heads(fuse(fused, params.fusion), fused,
                     [r.token_positions for r in inputs.token_records],
                     [r.patch_positions for r in inputs.patch_records], params.heads)

    retrieved_ids = []
    linkpred_count = 0
    if need_fusion or "linkpred" in active:
        graph = _reuse(memo, "graph", (inputs, memory, queries), encode_graph)
        retrieved_ids, sample, nodes = graph

    if "linkpred" in active and sample.positives:
        linkpred = _reuse(memo, "linkpred", (inputs, memory, graph), encode_linkpred)
        linkpred_count = len(sample.positives)

    if need_fusion:
        out = _reuse(memo, "fusion", (inputs, v_out, t_out, graph), encode_fusion)
        if "mlm" in active:
            mlm = mlm_loss(out.mlm_logits, *inputs.token_records)
        if "mvm" in active:
            mvm = mvm_loss(out.mvm_pred, *inputs.patch_records)

    if "itc" in active:
        itc = _reuse(memo, "itc", (v_out, t_out), lambda: itc_loss(
            T.tensor_mean(v_out, axis=1), t_out[:, 0], params.itc))

    bundle = total_loss(mlm, mvm, linkpred, itc,
                        (config.w_mlm, config.w_mvm, config.w_linkpred, config.w_itc))
    return StepOutput(bundle, linkpred_count, retrieved_ids)


def single_loss_objective(params: ModelParams, corpus: SyntheticCorpus,
                          memory: EntityMemory, plan: BatchPlan,
                          loss_name: str):
    """A pure function of the parameters suitable for finite differences.

    Every call runs :func:`compute_step` on the same ``plan``, so the plan's
    host-side work (patches, masks, tokens, and the graph sample while
    retrieval is unchanged) is computed on the first call and reused by the
    rest; a call whose perturbation flips retrieval rebuilds the sample.
    Calls under :func:`tensor.no_grad`, as the perturbed calls of
    :func:`tensor.finite_difference_check` are, also reuse every stage the
    perturbation cannot reach.
    """
    if loss_name == "total":
        active: tuple[str, ...] = ALL_LOSSES
    elif loss_name in ALL_LOSSES:
        active = (loss_name,)
    else:
        raise ValidationError(f"unknown loss {loss_name!r}")

    def objective() -> Tensor:
        return compute_step(params, corpus, memory, plan, active=active).bundle.total

    return objective
