"""kgfuse: desk-scale retrieval-augmented vision-language pretraining.

The package retrieves knowledge-graph entities from image-patch embeddings,
encodes their one-hop subgraph with a graph attention network, fuses
vision, text, and entity sequences in a dense-attention transformer, and
trains under four self-supervised objectives, all on a small hand-rolled
autodiff core whose gradients are validated by finite differences.
"""

from .config import Config
from .data import SyntheticCorpus, corpus_memory, generate_corpus
from .errors import KgfuseError, NumericsError, ValidationError
from .kg import (KnowledgeGraph, Subgraph, Triplet, expand_subgraph,
                 holdout_edges, load_kg, sample_negatives)
from .model import BatchPlan, ModelParams, build_model, compute_step, make_batch_plan
from .objectives import LossBundle, itc_loss, linkpred_loss, mask_patches, \
    mask_spans, mlm_loss, mvm_loss, total_loss
from .retriever import (EntityMemory, RetrievedEntitySet, build_memory,
                        embed_description, relevance_weights, retrieve,
                        score_patches)
from .tensor import Parameters, Tensor, backward, finite_difference_check
from .train import (eval_linkpred, eval_retrieval, gradient_report, pretrain,
                    train_kg_embeddings)

__version__ = "0.1.0"

__all__ = [
    "Config", "SyntheticCorpus", "corpus_memory", "generate_corpus",
    "KgfuseError", "NumericsError", "ValidationError",
    "KnowledgeGraph", "Subgraph", "Triplet", "expand_subgraph", "holdout_edges",
    "load_kg", "sample_negatives",
    "BatchPlan", "ModelParams", "build_model", "compute_step", "make_batch_plan",
    "LossBundle", "itc_loss", "linkpred_loss", "mask_patches",
    "mask_spans", "mlm_loss", "mvm_loss", "total_loss",
    "EntityMemory", "RetrievedEntitySet", "build_memory", "embed_description",
    "relevance_weights", "retrieve", "score_patches",
    "Parameters", "Tensor", "backward", "finite_difference_check",
    "eval_linkpred", "eval_retrieval", "gradient_report", "pretrain",
    "train_kg_embeddings",
]
