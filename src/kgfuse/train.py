"""Joint pretraining loop, link-prediction and retrieval evaluation.

Everything here is deterministic given (config, seed): batch composition,
masks, subgraphs, and negatives all derive their RNG streams from the
global seed and the step index, so two runs of the same build produce
bitwise-identical metrics logs and checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import Config
from .checkpoint import Checkpoint
from .data import SyntheticCorpus, corpus_memory, generate_corpus
from .encoders import patchify, vision_encode
from .errors import NumericsError, ValidationError
from .gnn import forward_relation_rows
from .kg import EdgeHoldout, KnowledgeGraph, Triplet, holdout_edges
from .model import (ALL_LOSSES, ModelParams, build_model, compute_step,
                    entity_fallback_table, make_batch_plan,
                    single_loss_objective)
from .objectives import TAU_MAX, TAU_MIN, ScoringTables, linkpred_loss
from .optim import AdamState, optimizer_step
from .retriever import EntityMemory, retrieve
from .tensor import Parameters, Tensor, backward, finite_difference_check

METRICS_HEADER = "step\tmlm\tmvm\tlinkpred\titc\ttotal"


@dataclass
class TrainResult:
    params: ModelParams
    state: AdamState
    memory: EntityMemory
    metrics: list[tuple[int, float, float, float, float, float]]
    final_step: int


def format_metrics(metrics) -> str:
    lines = [METRICS_HEADER]
    for row in metrics:
        step, rest = row[0], row[1:]
        lines.append("\t".join([str(step)] + [repr(v) for v in rest]))
    return "\n".join(lines) + "\n"


def parse_metrics(text: str) -> list[tuple[int, float, float, float, float, float]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValidationError("metrics log missing its header line")
    rows = []
    for line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != 6:
            raise ValidationError(f"malformed metrics row: {line!r}")
        rows.append((int(parts[0]),) + tuple(float(p) for p in parts[1:]))
    return rows


def _clamp_tau(params: ModelParams) -> None:
    np.clip(params.itc.tau.data, TAU_MIN, TAU_MAX, out=params.itc.tau.data)


def pretrain(config: Config, corpus: SyntheticCorpus | None = None,
             resume: Checkpoint | None = None) -> TrainResult:
    """Run the four-objective pretraining loop for ``config.steps`` steps."""
    corpus = generate_corpus(config) if corpus is None else corpus
    params = build_model(config, corpus.kg)
    memory = corpus_memory(corpus)
    state = AdamState.init(params.store)
    start_step = 0
    if resume is not None:
        if resume.config.to_text() != config.to_text():
            raise ValidationError("checkpoint config does not match the run config")
        resume.load_into(params.store, state)
        start_step = resume.step

    metrics: list[tuple[int, float, float, float, float, float]] = []
    for step in range(start_step + 1, config.steps + 1):
        plan = make_batch_plan(config, len(corpus), step)
        output = compute_step(params, corpus, memory, plan)
        bundle = output.bundle
        values = bundle.values()
        if not all(np.isfinite(v) for v in values.values()):
            norms: dict[str, float] = {}
            for name, tensor in params.store.items():
                group = name.split(".", 1)[0]
                norms[group] = norms.get(group, 0.0) + float(np.sum(tensor.data ** 2))
            norms = {g: float(np.sqrt(v)) for g, v in norms.items()}
            raise NumericsError(
                f"non-finite loss at step {step}: components {values}; "
                f"parameter group norms {norms}")
        grads = backward(bundle.total)
        optimizer_step(params.store, grads, state, config.lr,
                       config.weight_decay, (config.beta1, config.beta2),
                       config.adam_eps)
        _clamp_tau(params)
        metrics.append((step, values["mlm"], values["mvm"], values["linkpred"],
                        values["itc"], values["total"]))
    return TrainResult(params, state, memory, metrics, config.steps)


def gradient_report(config: Config, sample_count: int = 200,
                    seed: int | None = None,
                    eps: float = 3e-4) -> dict[str, float]:
    """Max finite-difference relative error for each loss and the total.

    The default step is sized for full-model losses: coordinates whose true
    gradient sits near the relative-error denominator floor (1e-8) measure
    pure float64 quantization noise, ulp(loss)/(2 eps), so eps must be large
    enough to keep that below the floor yet small enough that curvature and
    the discrete retrieval selection stay out of the difference quotient.
    """
    seed = config.seed if seed is None else seed
    corpus = generate_corpus(config)
    params = build_model(config, corpus.kg)
    memory = corpus_memory(corpus)
    plan = make_batch_plan(config, len(corpus), step=1)
    report: dict[str, float] = {}
    for i, loss_name in enumerate(ALL_LOSSES + ("total",)):
        objective = single_loss_objective(params, corpus, memory, plan, loss_name)
        report[loss_name] = finite_difference_check(
            objective, params.store, eps=eps, sample_count=sample_count,
            seed=seed + 101 * i)
    return report


# ---- link prediction evaluation --------------------------------------------


def filtered_ranks(entity_matrix: np.ndarray, relation_matrix: np.ndarray,
                   entity_row: dict[int, int], relation_row: dict[int, int],
                   held_out: list[Triplet], kg: KnowledgeGraph) -> list[int]:
    """Pessimal filtered ranks for both directions of each held-out triplet.

    Candidates that form other true triplets of ``kg`` are removed before
    ranking; within a tied score group the true entity takes the largest
    rank.
    """
    ids = sorted(entity_row)
    rows = np.array([entity_row[e] for e in ids])
    all_vecs = entity_matrix[rows]
    id_pos = {e: i for i, e in enumerate(ids)}
    true_tails: dict[tuple[int, int], set[int]] = {}
    true_heads: dict[tuple[int, int], set[int]] = {}
    for h, r, t in kg.triplets:
        true_tails.setdefault((h, r), set()).add(t)
        true_heads.setdefault((r, t), set()).add(h)

    ranks: list[int] = []
    for h, r, t in held_out:
        rel = relation_matrix[relation_row[r]]
        # Tail side: rank t among all candidates scored by phi_r(h, .); then
        # the head side.  Other true triplets are filtered out.
        for anchor, target, others in ((h, t, true_tails.get((h, r), ())),
                                       (t, h, true_heads.get((r, t), ()))):
            scores = all_vecs @ (entity_matrix[entity_row[anchor]] * rel)
            keep = np.ones(len(ids), dtype=bool)
            keep[[id_pos[other] for other in others if other != target]] = False
            ranks.append(int(np.sum(scores[keep] >= scores[id_pos[target]])))
    return ranks


def ranking_metrics(ranks: list[int]) -> dict[str, float]:
    arr = np.asarray(ranks, dtype=np.float64)
    return {"MRR": float(np.mean(1.0 / arr)),
            "Hits@1": float(np.mean(arr <= 1)),
            "Hits@10": float(np.mean(arr <= 10))}


def eval_linkpred(entity_matrix: np.ndarray, relation_matrix: np.ndarray,
                  entity_row: dict[int, int], relation_row: dict[int, int],
                  held_out: list[Triplet], kg: KnowledgeGraph) -> dict[str, float]:
    if not held_out:
        raise ValidationError("no held-out triplets to evaluate")
    return ranking_metrics(filtered_ranks(entity_matrix, relation_matrix,
                                          entity_row, relation_row, held_out, kg))


def random_baseline_mrr(kg: KnowledgeGraph, held_out: list[Triplet], d: int,
                        seeds: int = 20) -> float:
    """Monte-Carlo filtered MRR of random embedding tables."""
    totals = []
    ids = kg.entity_ids()
    rels = kg.relation_ids()
    entity_row = {e: i for i, e in enumerate(ids)}
    relation_row = {r: i for i, r in enumerate(rels)}
    for s in range(seeds):
        rng = np.random.default_rng([987, s])
        em = rng.standard_normal((len(ids), d))
        rm = rng.standard_normal((len(rels), d))
        totals.append(eval_linkpred(em, rm, entity_row, relation_row,
                                    held_out, kg)["MRR"])
    return float(np.mean(totals))


@dataclass
class KgEmbeddingResult:
    entity_matrix: np.ndarray
    relation_matrix: np.ndarray
    entity_row: dict[int, int]
    relation_row: dict[int, int]
    holdout: EdgeHoldout
    metrics: dict[str, float]


def train_kg_embeddings(kg: KnowledgeGraph, d: int = 16, steps: int = 500,
                        lr: float = 0.05, n_negatives: int = 32,
                        gamma: float = 0.0, drop_rate: float = 0.15,
                        batch: int = 32, seed: int = 0) -> KgEmbeddingResult:
    """Train free entity/relation tables with the link-prediction loss only.

    Training positives come from the visible split; evaluation reports
    filtered ranking metrics on the held-out split.
    """
    holdout = holdout_edges(kg, drop_rate, seed)
    visible = holdout.visible.triplets
    ids = kg.entity_ids()
    rels = kg.relation_ids()
    entity_row = {e: i for i, e in enumerate(ids)}
    relation_row = {r: i for i, r in enumerate(rels)}

    init_rng = np.random.default_rng([seed, 11])
    params = Parameters()
    bound = 1.0 / np.sqrt(d)
    entities = params.add("entities", Tensor(
        init_rng.uniform(-bound, bound, size=(len(ids), d))))
    relations = params.add("relations", Tensor(
        init_rng.uniform(-bound, bound, size=(len(rels), d))))
    state = AdamState.init(params)

    for step in range(1, steps + 1):
        rng = np.random.default_rng([seed, 13, step])
        picks = rng.integers(0, len(visible), size=min(batch, len(visible)))
        positives = [visible[i] for i in picks]
        tables = ScoringTables(entity_matrix=entities, entity_row=entity_row,
                               relation_matrix=relations,
                               relation_row=relation_row, gamma=gamma,
                               n=n_negatives)
        loss = linkpred_loss(positives, tables, kg,
                             seed=int(rng.integers(0, 2 ** 62)))
        grads = backward(loss)
        optimizer_step(params, grads, state, lr=lr, weight_decay=0.0)

    metrics = eval_linkpred(entities.data, relations.data, entity_row,
                            relation_row, holdout.held_out, kg)
    return KgEmbeddingResult(entities.data, relations.data, entity_row,
                             relation_row, holdout, metrics)


def model_linkpred_tables(params: ModelParams, memory: EntityMemory):
    """Entity/relation score tables of a pretrained model (projection + GNN table)."""
    return (entity_fallback_table(params, memory).data,
            params.gnn.relation_table.data, memory.row_of,
            forward_relation_rows(params.gnn))


# ---- retrieval evaluation -----------------------------------------------------


def eval_retrieval(params: ModelParams, memory: EntityMemory,
                   corpus: SyntheticCorpus, k: int | None = None,
                   k_per_patch: int | None = None) -> float:
    """Fraction of examples whose ground truth intersects the retrieved top-k.

    ``k_per_patch`` defaults to the config value; pass ``k`` for exhaustive
    coverage (e.g. k = number of entities gives recall 1 by construction).
    """
    config = corpus.config
    k = config.k_final if k is None else k
    k_per_patch = config.k_per_patch if k_per_patch is None else k_per_patch
    patches = patchify(np.stack(corpus.images), config.patch_size).patches
    _, queries = vision_encode(patches, params.vision)
    hits = sum(bool(set(retrieve(q, memory, k_per_patch, k).ids) & set(gt))
               for q, gt in zip(queries.data, corpus.ground_truth))
    return hits / len(corpus)
