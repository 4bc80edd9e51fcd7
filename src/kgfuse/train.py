"""Joint pretraining loop, link-prediction and retrieval evaluation.

Everything here is deterministic given (config, seed): batch composition,
masks, subgraphs, and negatives all derive their RNG streams from the
global seed and the step index, so two runs of the same build produce
bitwise-identical metrics logs and checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, parse_float, parse_int
from .checkpoint import Checkpoint
from .data import SyntheticCorpus, corpus_memory, generate_corpus
from .errors import ValidationError
from .gnn import forward_relation_rows
from .kg import EdgeHoldout, KnowledgeGraph, Triplet, holdout_edges
from .model import (ALL_LOSSES, ModelParams, build_model, compute_step,
                    entity_fallback_table, make_batch_plan, retrieve_images,
                    single_loss_objective)
from .objectives import TAU_MAX, TAU_MIN, ScoringTables, linkpred_loss, query_scores
from .optim import AdamState, optimizer_step
from .retriever import EntityMemory
from .tensor import Parameters, Tensor, backward, finite_difference_check

METRICS_HEADER = "step\tmlm\tmvm\tlinkpred\titc\ttotal"


@dataclass
class TrainResult:
    params: ModelParams
    state: AdamState
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
    for row, line in enumerate(lines[1:], start=1):
        parts = line.split("\t")
        try:
            if len(parts) != 6:
                raise ValueError
            rows.append((parse_int(parts[0]),) + tuple(map(parse_float, parts[1:])))
        except ValueError:
            raise ValidationError(f"malformed metrics row {row}: {line!r}") from None
    return rows


def pretrain(config: Config, corpus: SyntheticCorpus | None = None,
             resume: Checkpoint | None = None) -> TrainResult:
    """Run the four-objective pretraining loop for ``config.steps`` steps."""
    if resume is not None and resume.step > config.steps:
        raise ValidationError(
            f"checkpoint step {resume.step} is past the run's last step {config.steps}")
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
        bundle = compute_step(params, corpus, memory, plan).bundle
        values = bundle.values()   # total_loss raises NumericsError on a non-finite loss
        grads = backward(bundle.total)
        optimizer_step(params.store, grads, state, config.lr,
                       config.weight_decay, (config.beta1, config.beta2),
                       config.adam_eps)
        np.clip(params.itc.tau.data, TAU_MIN, TAU_MAX, out=params.itc.tau.data)
        metrics.append((step, values["mlm"], values["mvm"], values["linkpred"],
                        values["itc"], values["total"]))
    return TrainResult(params, state, metrics, config.steps)


# The finite-difference step of gradient_report trades rounding against
# truncation.  One ulp of the loss moves the central difference by
# ulp(loss) / (2 GRADCHECK_EPS): for a loss in [4, 8) that is about 1.5e-12,
# or 1.5e-4 relative at the 1e-8 floor of the relative-error denominator,
# above criterion 1's 1e-4 bound.  So a sampled coordinate with a gradient
# below about 1.5e-8 in magnitude passes only when its two evaluations round
# alike.  A larger step would shrink that noise but let curvature and the
# discrete retrieval selection into the difference quotient.
GRADCHECK_EPS = 3e-4


def gradient_report(config: Config, sample_count: int = 200,
                    seed: int | None = None) -> dict[str, float]:
    """Max finite-difference relative error for each loss and the total."""
    seed = config.seed if seed is None else seed
    corpus = generate_corpus(config)
    params = build_model(config, corpus.kg)
    memory = corpus_memory(corpus)
    plan = make_batch_plan(config, len(corpus), step=1)
    report: dict[str, float] = {}
    for i, loss_name in enumerate(ALL_LOSSES + ("total",)):
        objective = single_loss_objective(params, corpus, memory, plan, loss_name)
        report[loss_name] = finite_difference_check(
            objective, params.store, eps=GRADCHECK_EPS, sample_count=sample_count,
            seed=seed + 101 * i)
    return report


# ---- link prediction evaluation --------------------------------------------


def filtered_ranks(tables: ScoringTables, held_out: list[Triplet],
                   kg: KnowledgeGraph) -> list[int]:
    """Pessimal filtered ranks for both directions of each held-out triplet.

    Query ``2p`` (h * r) ranks the tail and ``2p + 1`` (t * r) the head among
    every entity of ``kg``, each scored by :func:`query_scores` through the
    triplet's own row map.  Candidates that ``kg.known_mask`` marks, the
    target apart, are filtered out, and a tie ranks the target last.  A row
    map lacking an entity of ``kg`` or a held-out relation, or a held-out id
    unknown to ``kg``, raises ``ValidationError``.
    """
    dense = kg.index_triplets(held_out)
    every = np.broadcast_to(np.arange(len(kg.entities)), (len(dense), len(kg.entities)))
    scores, rows = query_scores(tables, kg, dense, every)
    scores = np.take_along_axis(scores, np.repeat(rows[:, 2:], 2, axis=0), axis=1)
    query, target = np.arange(2 * len(dense)), dense[:, ::-2].ravel()
    filtered = kg.known_mask(dense)
    filtered[query, target] = False
    beats = scores >= scores[query, target][:, None]
    return np.sum(beats & ~filtered, axis=1).tolist()


def eval_linkpred(tables: ScoringTables, held_out: list[Triplet],
                  kg: KnowledgeGraph) -> dict[str, float]:
    if not held_out:
        raise ValidationError("no held-out triplets to evaluate")
    ranks = np.asarray(filtered_ranks(tables, held_out, kg), dtype=np.float64)
    return {"MRR": float(np.mean(1.0 / ranks)),
            "Hits@1": float(np.mean(ranks <= 1)),
            "Hits@10": float(np.mean(ranks <= 10))}


def random_baseline_mrr(kg: KnowledgeGraph, held_out: list[Triplet], d: int,
                        seeds: int = 20) -> float:
    """Monte-Carlo filtered MRR of random embedding tables."""
    if d < 1 or seeds < 1:
        raise ValidationError(f"d and seeds must be >= 1, got {d} and {seeds}")
    totals = []
    n_e, n_r = len(kg.entities), len(kg.relations)
    for s in range(seeds):
        rng = np.random.default_rng([987, s])
        tables = ScoringTables(Tensor(rng.standard_normal((n_e, d))), np.arange(n_e),
                               Tensor(rng.standard_normal((n_r, d))), np.arange(n_r))
        totals.append(eval_linkpred(tables, held_out, kg)["MRR"])
    return float(np.mean(totals))


@dataclass
class KgEmbeddingResult:
    tables: ScoringTables
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
    if d < 1:
        raise ValidationError(f"embedding width d must be >= 1, got {d}")
    holdout = holdout_edges(kg, drop_rate, seed)
    visible = kg.index_triplets(holdout.visible)
    n_e, n_r = len(kg.entities), len(kg.relations)

    init_rng = np.random.default_rng([seed, 11])
    params = Parameters()
    bound = 1.0 / np.sqrt(d)
    entities = params.add("entities", Tensor(
        init_rng.uniform(-bound, bound, size=(n_e, d))))
    relations = params.add("relations", Tensor(
        init_rng.uniform(-bound, bound, size=(n_r, d))))
    state = AdamState.init(params)
    tables = ScoringTables(entity_matrix=entities, entity_row=np.arange(n_e),
                           relation_matrix=relations, relation_row=np.arange(n_r),
                           gamma=gamma, n=n_negatives)

    for step in range(1, steps + 1):
        rng = np.random.default_rng([seed, 13, step])
        picks = rng.integers(0, len(visible), size=min(batch, len(visible)))
        loss = linkpred_loss(visible[picks], tables, kg,
                             seed=int(rng.integers(0, 2 ** 62)))
        grads = backward(loss)
        optimizer_step(params, grads, state, lr=lr, weight_decay=0.0)

    return KgEmbeddingResult(tables, holdout, eval_linkpred(tables, holdout.held_out, kg))


def model_linkpred_tables(params: ModelParams, memory: EntityMemory) -> ScoringTables:
    """Scoring tables of a pretrained model: the projected memory rows and the
    GNN's forward relation rows."""
    return ScoringTables(entity_fallback_table(params, memory), np.arange(len(memory)),
                         params.gnn.relation_table, forward_relation_rows(params.gnn))


# ---- retrieval evaluation -----------------------------------------------------


def eval_retrieval(params: ModelParams, memory: EntityMemory,
                   corpus: SyntheticCorpus) -> float:
    """Recall@k_final: the mean over images of the share of their truth in
    the top ``k_final``, retrieved as a training step retrieves, with the
    corpus config's ``k_per_patch``, from unmasked patches."""
    found = retrieve_images(params, memory, np.stack(corpus.images), corpus.config)
    recalls = [len(set(ids) & set(gt)) / len(gt)
               for ids, gt in zip(found.per_example(), corpus.ground_truth)]
    return float(np.mean(recalls))
