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

A plan keeps one memo, and :func:`_reuse` is its one rule: a stage's last
output is reused while everything the stage read matches what it read
then.  The :class:`BatchInputs` (patches, masks, padded tokens) are keyed
on the corpus, and the :class:`GraphSample` (subgraphs, holdout split,
their union and the link-prediction rows) on the inputs, the memory and
the retrieved ids; both are reused in either mode.  Under
:func:`tensor.no_grad` the seven parameter stages (vision, text, retrieval
and GNN, link prediction, fusion, heads, ITC) are keyed on their upstream
outputs and the bits of their parameter groups, of the token embedding
only the rows the batch's tokens read; the MLM and MVM losses on the
inputs and the heads' output, and the weighted loss bundle on its four
components and the weights.  So a finite-difference evaluation reruns only
the stage a perturbation reaches and the stages and losses downstream, and
one that reaches none costs only the key checks.  Grad mode runs the
parameter stages and the losses every time, because backward consumes
their graphs.
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
from .fusion import (FusedSequence, FusionParams, HeadParams, HeadsOutput,
                     assemble, fuse, heads, init_fusion, init_heads)
from .gnn import GnnParams, forward_relation_rows, gnn_encode, init_gnn
from .kg import (KnowledgeGraph, Subgraph, disjoint_union,
                 expand_subgraph, split_triplet_list)
from .objectives import (ItcParams, LossBundle, MaskingRecord, ScoringTables,
                         init_itc, itc_loss, linkpred_loss, loss_weights,
                         mask_patches, mask_spans, mlm_loss, mvm_loss, total_loss)
from .retriever import (EntityMemory, RetrievedEntitySet, relevance_weights,
                        retrieve_from_scores, score_patches)
from .tensor import Parameters, Tensor

ALL_LOSSES = ("mlm", "mvm", "linkpred", "itc")
# A zero-weight objective's loss: one object, so that the bundle's memo key,
# which matches tensors by identity, can hit.
_ZERO = T.constant(0.0)
_ZERO.data.setflags(write=False)


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
    # Pack the store now, so a `.data` taken from here on stays the model's.
    store.flat()
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
    """A plan's patchified images and masked, padded captions."""

    patches: np.ndarray               # (B, N, patch_dim)
    masked: np.ndarray                # (B, N) patches the vision encoder masks
    patch_records: list[MaskingRecord]
    token_records: list[MaskingRecord]
    tokens: np.ndarray                # (B, L) masked captions, padding reads 0
    token_valid: np.ndarray           # (B, L) real tokens


@dataclass
class GraphSample:
    """Each example's subgraph for one retrieval, split and joined."""

    union: Subgraph                   # the visible subgraphs side by side
    node_rows: np.ndarray             # memory row of each union node
    seed_rows: np.ndarray             # (B, K) union row of each retrieved entity
    entity_valid: np.ndarray          # (B, K) filled seed slots
    node_weight: np.ndarray           # union row -> relevance slot, last is 1
    positives: np.ndarray             # (P, 3) dense held-out edges, example by example
    positive_rows: np.ndarray         # (P, E) entity row map of each positive


@dataclass(frozen=True)
class BatchPlan:
    step: int
    # Frozen and a tuple, so the examples cannot change under the memo's inputs.
    examples: tuple[ExamplePlan, ...] = ()
    # Stage -> (key, output) of the plan's last forward passes; see _reuse.
    memo: dict = field(default_factory=dict, compare=False, repr=False)


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
    """Every output of one step.  A stage that no nonzero-weight loss reads
    is skipped and leaves its fields None (``retrieved`` empty); a no-grad
    memo hit gives the memo's own objects, to be read, not written."""

    inputs: BatchInputs
    bundle: LossBundle | None = None
    vision: Tensor | None = None      # (B, N, d) vision encoder states
    queries: Tensor | None = None     # (B, N, d_e) patch retrieval queries
    text: Tensor | None = None        # (B, L, d) text encoder states
    retrieved: list[list[int]] = field(default_factory=list)
    relevance: Tensor | None = None   # weight of each retrieved entity, example by example
    sample: GraphSample | None = None
    nodes: Tensor | None = None       # GNN row of each union node
    fused: FusedSequence | None = None
    hidden: Tensor | None = None      # fusion encoder states over ``fused``
    heads: HeadsOutput | None = None


def _read_only(*arrays: np.ndarray) -> None:
    """Freeze arrays kept for reuse: a write into one raises instead of
    changing a later forward pass."""
    for array in arrays:
        array.setflags(write=False)


def batch_inputs(corpus: SyntheticCorpus,
                 examples: tuple[ExamplePlan, ...]) -> BatchInputs:
    """The examples' patches, patch masks and masked, padded tokens."""
    config = corpus.config
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
    return BatchInputs(patches, masked, patch_records, list(token_records), tokens,
                       token_valid)


def graph_sample(corpus: SyntheticCorpus, memory: EntityMemory,
                 retrieved_ids: list[list[int]],
                 examples: tuple[ExamplePlan, ...]) -> GraphSample:
    """Expand each example's retrieved entities into a subgraph of the
    corpus graph, hold out a fraction of its edges, and join the visible
    parts.  A memory whose ids are not the graph's raises."""
    config, kg = corpus.config, corpus.kg
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
    positive_rows = entity_row[np.repeat(np.arange(len(examples)),
                                         [len(h) for h in held_outs])]
    _read_only(node_rows, seed_rows, entity_valid, node_weight, held, positive_rows)
    return GraphSample(union, node_rows, seed_rows, entity_valid, node_weight,
                       held, positive_rows)


# The parameter stages of compute_step, each with the groups it reads; a
# group is the first part of a parameter name.
STAGE_GROUPS = {"vision": ("vision",), "text": ("text",), "graph": ("entity", "gnn"),
                "linkpred": ("entity", "gnn"), "fusion": ("fusion",), "heads": ("heads",),
                "itc": ("itc",)}


def _stage_spans(store: Parameters, tokens: np.ndarray) -> dict[str, slice | np.ndarray]:
    """Each parameter stage's part of the store's flat buffer: its groups'
    range, but of ``text.token_embed`` only the rows ``tokens`` reads."""
    bounds, start = {}, 0
    for name, t in store.items():
        group = name.split(".", 1)[0]
        bounds[group] = (bounds.get(group, (start,))[0], start + t.size)
        if name == "text.token_embed":
            embed = np.arange(start, start + t.size).reshape(t.shape)
        start += t.size
    # Groups are contiguous; were they not, a span would only cover more.
    spans = {stage: slice(min(bounds[g][0] for g in groups), max(bounds[g][1] for g in groups))
             for stage, groups in STAGE_GROUPS.items()}
    # np.unique would import numpy.ma; an id text_encode rejects, clipped,
    # only adds a row.
    rows = np.flatnonzero(np.bincount(np.clip(tokens, 0, len(embed) - 1).ravel()))
    text = np.arange(spans["text"].start, spans["text"].stop)
    spans["text"] = np.concatenate([text[(text < embed[0, 0]) | (text > embed[-1, -1])],
                                    embed[rows].ravel()])
    return spans


def _reuse(memo: dict, stage: str, key: tuple, compute):
    """The output ``memo`` keeps for ``stage`` if its key matches ``key``
    element by element, else ``compute()``, kept under ``key``.

    Objects match by ``is``, tuples by ``==`` and arrays by
    ``np.array_equal``; an array is copied only when kept.  The key is what
    the stage read, not a list of what it should depend on, so a key that
    misses an input shows as a finite-difference mismatch rather than
    hiding it."""
    entry = memo.get(stage)
    if entry is not None and len(entry[0]) == len(key) and all(
            kept is now or isinstance(now, tuple) and kept == now
            or isinstance(now, np.ndarray) and np.array_equal(kept, now)
            for kept, now in zip(entry[0], key)):
        return entry[1]
    out = compute()
    memo[stage] = (tuple(k.copy() if isinstance(k, np.ndarray) else k for k in key), out)
    return out


def _select(queries: Tensor, memory: EntityMemory,
            config: Config) -> tuple[Tensor, RetrievedEntitySet]:
    """Score each patch query on the memory; select each example's entities."""
    scores = score_patches(queries, memory)
    return scores, retrieve_from_scores(scores, memory, config.k_per_patch, config.k_final)


def retrieve_images(params: ModelParams, memory: EntityMemory, images: np.ndarray,
                    config: Config) -> RetrievedEntitySet:
    """The entities of (B, H, W, C) images, from their unmasked patches."""
    patches = patchify(images, config.patch_size).patches
    return _select(vision_encode(patches, params.vision)[1], memory, config)[1]


def compute_step(params: ModelParams, corpus: SyntheticCorpus,
                 memory: EntityMemory, plan: BatchPlan,
                 weights: tuple[float, float, float, float] | None = None) -> StepOutput:
    """Forward pass for one batch under ``corpus.config``, returning the
    :class:`StepOutput` record of every stage it ran.

    ``weights`` are :func:`total_loss`'s, checked by its rule before any
    stage runs; None reads the config's ``w_*``.  A zero weight skips its
    loss, an exact zero in the bundle, and every stage only zero-weight
    losses read.  Each stage goes through :func:`_reuse` on ``plan.memo``:
    the batch inputs and graph sample in either mode, and under
    :func:`tensor.no_grad` the seven parameter stages too, keyed on their
    upstream outputs and parameter bits, and the MLM loss, the MVM loss and
    the loss bundle, keyed on what each reads.
    """
    config, kg, memo = corpus.config, corpus.kg, plan.memo
    if weights is None:
        weights = (config.w_mlm, config.w_mvm, config.w_linkpred, config.w_itc)
    w_mlm, w_mvm, w_linkpred, w_itc = weights = loss_weights(weights)
    mlm = mvm = linkpred = itc = _ZERO

    inputs = _reuse(memo, "inputs", (corpus,), lambda: batch_inputs(corpus, plan.examples))
    out = StepOutput(inputs)
    # Backward consumes a grad-mode stage's graph, so only no-grad reuses one.
    grad = T.is_grad_enabled()
    if not grad:
        spans = _reuse(memo, "spans", (params.store, inputs),
                       lambda: _stage_spans(params.store, inputs.tokens))
        # Compared as integers, so that a hit is bitwise: 0.0 and -0.0 differ.
        flat = params.store.flat().view(np.int64)

    def stage(name: str, upstream: tuple, compute):
        if grad:
            return compute()
        # The losses read no parameter; a parameter stage reads its span.
        key = (*upstream, flat[spans[name]]) if name in STAGE_GROUPS else upstream
        return _reuse(memo, name, key, compute)

    out.vision, out.queries = stage("vision", (inputs,), lambda: vision_encode(
        inputs.patches, params.vision, inputs.masked))
    if w_mlm or w_mvm or w_itc:
        out.text = stage("text", (inputs,), lambda: text_encode(
            inputs.tokens, params.text, inputs.token_valid))

    def encode_graph():
        scores, found = _select(out.queries, memory, config)
        retrieved = found.per_example()
        sample = _reuse(memo, "sample", (inputs, memory, tuple(map(tuple, retrieved))),
                        lambda: graph_sample(corpus, memory, retrieved, plan.examples))
        b, p, e = scores.shape
        relevance = relevance_weights(
            T.take_pairs(T.reshape(scores, (b * p, e)), found.example * p + found.patch,
                         found.column),
            found.example, config.relevance_temperature)
        e0 = entity_encode(sample.node_rows, memory,
                           T.take_rows(T.concat([relevance, T.constant(np.ones(1))]),
                                       sample.node_weight),
                           params.entity)
        return retrieved, relevance, sample, gnn_encode(sample.union, e0, params.gnn)

    def encode_linkpred():
        tables = ScoringTables(
            T.concat([entity_fallback_table(params, memory), out.nodes], axis=0),
            out.sample.positive_rows, params.gnn.relation_table,
            forward_relation_rows(params.gnn), config.gamma, config.n_negatives)
        return linkpred_loss(out.sample.positives, tables, kg,
                             [ex.negative_seed for ex in plan.examples])

    def encode_fusion():
        fused = assemble(out.vision, out.text, T.take_rows(out.nodes, out.sample.seed_rows),
                         params.fusion, inputs.token_valid, out.sample.entity_valid)
        return fused, fuse(fused, params.fusion)

    if w_mlm or w_mvm or w_linkpred:
        out.retrieved, out.relevance, out.sample, out.nodes = stage(
            "graph", (inputs, memory, out.queries), encode_graph)

    if w_linkpred and len(out.sample.positives):
        linkpred = stage("linkpred", (memory, out.sample, out.nodes), encode_linkpred)

    if w_mlm or w_mvm:
        out.fused, out.hidden = stage(
            "fusion", (inputs, out.vision, out.text, out.sample, out.nodes), encode_fusion)
        out.heads = stage("heads", (inputs, out.fused, out.hidden), lambda: heads(
            out.hidden, out.fused, [r.token_positions for r in inputs.token_records],
            [r.patch_positions for r in inputs.patch_records], params.heads))
        if w_mlm:
            mlm = stage("mlm", (inputs, out.heads), lambda: mlm_loss(
                out.heads.mlm_logits, *inputs.token_records))
        if w_mvm:
            mvm = stage("mvm", (inputs, out.heads), lambda: mvm_loss(
                out.heads.mvm_pred, *inputs.patch_records))

    if w_itc:
        itc = stage("itc", (out.vision, out.text), lambda: itc_loss(
            T.tensor_mean(out.vision, axis=1), out.text[:, 0], params.itc))

    out.bundle = stage("total", (mlm, mvm, linkpred, itc, weights),
                       lambda: total_loss(mlm, mvm, linkpred, itc, weights))
    return out


def single_loss_objective(params: ModelParams, corpus: SyntheticCorpus,
                          memory: EntityMemory, plan: BatchPlan,
                          loss_name: str):
    """A pure function of the parameters suitable for finite differences:
    ``loss_name``'s loss at weight 1 and the others' at 0, or for ``"total"``
    the config's weighted total.

    Every call runs :func:`compute_step` on the same ``plan``, so its memo
    holds the batch inputs from the first call, and the graph sample while
    retrieval is unchanged.  Calls under :func:`tensor.no_grad`, as the
    perturbed calls of :func:`tensor.finite_difference_check` are, also
    reuse every stage the perturbation cannot reach.
    """
    if loss_name not in (*ALL_LOSSES, "total"):
        raise ValidationError(f"unknown loss {loss_name!r}")
    weights = None if loss_name == "total" else tuple(float(n == loss_name) for n in ALL_LOSSES)

    def objective() -> Tensor:
        return compute_step(params, corpus, memory, plan, weights).bundle.total

    return objective
