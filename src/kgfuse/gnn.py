"""Graph-attention message passing over a retrieved entity subgraph.

For each node i the layer scores every incident edge j -> i (plus an
implicit self term) with f_q(e_i)^T f_k(e_j, r_ij) / sqrt(D), where D is the
attention width that f_q's weights have, normalizes the scores by softmax,
mixes messages f_m(e_j, r_ij), and adds the residual:

    e_i' = f_n(sum_j alpha_ij * f_m(e_j, r_ij)) + e_i

f_k and f_m read the concatenation of the node and relation vectors.  Edges
are typed and directed: every relation owns separate forward and reverse
embedding rows, and a dedicated row serves the self term.  One relation
table is shared by all layers.  Every self and edge term is one row of a
destination-sorted edge list, built once per subgraph, so the softmax and
the sum over j are reductions over that list's runs.  Each layer is one
autodiff node, :func:`tensor.graph_attention`, with a closed-form VJP: it
projects the nodes and the relation rows through the node and relation
halves of f_k and f_m first, then gathers the node terms per edge and reads
the relation terms through (node, relation row) tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ValidationError
from .kg import DIR_IN, DIR_OUT, KnowledgeGraph, Subgraph
from .retriever import embed_description
from .tensor import Parameters, Tensor

SELF_ROW = 0


@dataclass
class GnnLayerParams:
    f_q_w: Tensor
    f_q_b: Tensor
    # f_k has no bias: q_i . b would add one constant to all of node i's
    # logits, which the softmax cancels.
    f_k_w: Tensor  # (d + d) x D, over concat(node, relation)
    f_m_w: Tensor  # (d + d) x d
    f_m_b: Tensor
    f_n_w: Tensor  # d x d
    f_n_b: Tensor


@dataclass
class GnnParams:
    relation_table: Tensor  # (1 + 2 * |relations|) x d; see relation_row
    layers: list[GnnLayerParams]


def relation_row(relation, direction):
    """Relation-table row of dense relation index ``relation`` in
    ``direction``; row ``SELF_ROW`` serves the self term."""
    return 1 + 2 * relation + direction


def init_gnn_layer(params: Parameters, prefix: str, rng: np.random.Generator,
                   d: int, attn_width: int) -> GnnLayerParams:
    from .encoders import init_matrix
    return GnnLayerParams(
        f_q_w=params.add(f"{prefix}.f_q_w", Tensor(init_matrix(rng, d, attn_width))),
        f_q_b=params.add(f"{prefix}.f_q_b", Tensor(np.zeros(attn_width))),
        f_k_w=params.add(f"{prefix}.f_k_w", Tensor(init_matrix(rng, 2 * d, attn_width))),
        f_m_w=params.add(f"{prefix}.f_m_w", Tensor(init_matrix(rng, 2 * d, d))),
        f_m_b=params.add(f"{prefix}.f_m_b", Tensor(np.zeros(d))),
        f_n_w=params.add(f"{prefix}.f_n_w", Tensor(init_matrix(rng, d, d))),
        f_n_b=params.add(f"{prefix}.f_n_b", Tensor(np.zeros(d))))


def init_gnn(params: Parameters, rng: np.random.Generator, kg: KnowledgeGraph,
             d: int, d_e: int, attn_width: int, depth: int,
             description_seed: int) -> GnnParams:
    """Build the shared relation table and the layer stack.

    Forward and reverse rows of each relation start from the same projected
    description embedding and diverge during training; the self row starts
    at zero.
    """
    relation_ids = kg.relation_ids()
    rows = np.zeros((1 + 2 * len(relation_ids), d))
    proj = np.random.default_rng([description_seed, 7]).standard_normal((d_e, d))
    proj /= np.sqrt(d_e)
    for i, rid in enumerate(relation_ids):
        desc = kg.relations[rid].description
        base = embed_description(desc, d_e, description_seed) @ proj
        rows[relation_row(i, DIR_OUT)] = rows[relation_row(i, DIR_IN)] = base
    layers = [init_gnn_layer(params, f"gnn.layer{i}", rng, d, attn_width)
              for i in range(depth)]
    table = params.add("gnn.relation_table", Tensor(rows))
    return GnnParams(table, layers)


def forward_relation_rows(gp: GnnParams) -> np.ndarray:
    """Table row of each relation's DIR_OUT embedding, which scores triplets."""
    return relation_row(np.arange(gp.relation_table.shape[0] // 2), DIR_OUT)


def _edge_lists(sub: Subgraph, gp: GnnParams):
    """Flattened (dst, src, relation-row) arrays sorted by destination: each
    node's self term, then its incident edges in triplet order, where each
    triplet sends head to tail (DIR_OUT) and tail to head (DIR_IN)."""
    k = sub.num_nodes
    if k == 0:
        raise ValidationError("subgraph has no nodes")
    heads, rels, tails = sub.triplets_local.T
    missing = rels[(rels < 0) | (rels >= gp.relation_table.shape[0] // 2)]
    if missing.size:
        raise ValidationError(f"relation index {missing[0]} missing from the GNN table")
    # Self terms, then head -> tail (DIR_OUT) and tail -> head (DIR_IN) per
    # triplet; a stable sort on the destination keeps that order per node.
    nodes = np.arange(k)
    dst = np.concatenate([nodes, np.stack([tails, heads], axis=1).ravel()])
    src = np.concatenate([nodes, np.stack([heads, tails], axis=1).ravel()])
    rel = np.concatenate([np.full(k, SELF_ROW),
                          relation_row(rels[:, None], [DIR_OUT, DIR_IN]).ravel()])
    order = np.argsort(dst, kind="stable")
    edges = dst[order], src[order], rel[order]
    for array in edges:
        array.setflags(write=False)
    return edges


def _layer_inputs(embeddings: Tensor, layer: GnnLayerParams, gp: GnnParams) -> tuple:
    return (embeddings, gp.relation_table, layer.f_q_w, layer.f_q_b, layer.f_k_w,
            layer.f_m_w, layer.f_m_b, layer.f_n_w, layer.f_n_b)


def _propagate(sub: Subgraph, edges, embeddings: Tensor, layer: GnnLayerParams,
               gp: GnnParams) -> Tensor:
    """One layer over ``edges``, the :func:`_edge_lists` arrays of ``sub``."""
    k, d = sub.num_nodes, gp.relation_table.shape[1]
    if embeddings.shape != (k, d):
        raise ValidationError(
            f"embeddings shape {embeddings.shape} does not match {k} nodes x {d}")
    return T.graph_attention(*_layer_inputs(embeddings, layer, gp), edges)


def gnn_layer(sub: Subgraph, embeddings: Tensor, layer: GnnLayerParams,
              gp: GnnParams) -> Tensor:
    """One round of attention-weighted message passing with a residual."""
    return _propagate(sub, _edge_lists(sub, gp), embeddings, layer, gp)


def gnn_encode(sub: Subgraph, initial: Tensor, gp: GnnParams) -> Tensor:
    """Apply the full layer stack in order.  The edge lists are built once
    per subgraph and kept on ``sub`` for later calls."""
    if not gp.layers:
        raise ValidationError("GNN stack is empty")
    if sub.edge_lists is None:
        sub.edge_lists = _edge_lists(sub, gp)
    x = initial
    for layer in gp.layers:
        x = _propagate(sub, sub.edge_lists, x, layer, gp)
    return x


def attention_weights(sub: Subgraph, embeddings: Tensor, layer: GnnLayerParams,
                      gp: GnnParams) -> list[np.ndarray]:
    """Per-node softmax weights over self + incident edges (for invariants)."""
    edges = _edge_lists(sub, gp)
    starts, *_, alpha = T.graph_attention_terms(_layer_inputs(embeddings, layer, gp), edges)
    return np.split(alpha, starts[1:])
