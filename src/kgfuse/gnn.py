"""Graph-attention message passing over a retrieved entity subgraph.

For each node i the layer scores every incident edge j -> i (plus an
implicit self term) with f_q(e_i)^T f_k(e_j, r_ij) / sqrt(D), normalizes the
scores by softmax, mixes messages f_m(e_j, r_ij), and adds the residual:

    e_i' = f_n(sum_j alpha_ij * f_m(e_j, r_ij)) + e_i

f_k and f_m read the concatenation of the node and relation vectors.  Edges
are typed and directed: every relation owns separate forward and reverse
embedding rows, and a dedicated row serves the self term.  One relation
table is shared by all layers.
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
    f_k_w: Tensor  # (d + d) x D, over concat(node, relation)
    f_k_b: Tensor
    f_m_w: Tensor  # (d + d) x d
    f_m_b: Tensor
    f_n_w: Tensor  # d x d
    f_n_b: Tensor
    attn_width: int


@dataclass
class GnnParams:
    relation_table: Tensor  # (1 + 2 * |relations|) x d; row 0 is the self row
    relation_rows: dict[tuple[int, int], int]
    layers: list[GnnLayerParams]
    width: int


def init_gnn_layer(params: Parameters, prefix: str, rng: np.random.Generator,
                   d: int, attn_width: int) -> GnnLayerParams:
    from .encoders import init_matrix
    return GnnLayerParams(
        f_q_w=params.add(f"{prefix}.f_q_w", Tensor(init_matrix(rng, d, attn_width))),
        f_q_b=params.add(f"{prefix}.f_q_b", Tensor(np.zeros(attn_width))),
        f_k_w=params.add(f"{prefix}.f_k_w", Tensor(init_matrix(rng, 2 * d, attn_width))),
        f_k_b=params.add(f"{prefix}.f_k_b", Tensor(np.zeros(attn_width))),
        f_m_w=params.add(f"{prefix}.f_m_w", Tensor(init_matrix(rng, 2 * d, d))),
        f_m_b=params.add(f"{prefix}.f_m_b", Tensor(np.zeros(d))),
        f_n_w=params.add(f"{prefix}.f_n_w", Tensor(init_matrix(rng, d, d))),
        f_n_b=params.add(f"{prefix}.f_n_b", Tensor(np.zeros(d))),
        attn_width=attn_width)


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
    relation_rows: dict[tuple[int, int], int] = {}
    proj = np.random.default_rng([description_seed, 7]).standard_normal((d_e, d))
    proj /= np.sqrt(d_e)
    for i, rid in enumerate(relation_ids):
        desc = kg.relations[rid].description
        base = embed_description(desc, d_e, description_seed) @ proj
        rows[1 + 2 * i] = base
        rows[2 + 2 * i] = base
        relation_rows[(rid, DIR_OUT)] = 1 + 2 * i
        relation_rows[(rid, DIR_IN)] = 2 + 2 * i
    layers = [init_gnn_layer(params, f"gnn.layer{i}", rng, d, attn_width)
              for i in range(depth)]
    table = params.add("gnn.relation_table", Tensor(rows))
    return GnnParams(table, relation_rows, layers, d)


def forward_relation_rows(gp: GnnParams) -> dict[int, int]:
    """Relation id -> table row of its DIR_OUT embedding, the row that scores triplets."""
    return {rid: row for (rid, direction), row in gp.relation_rows.items()
            if direction == DIR_OUT}


def _edge_lists(sub: Subgraph, gp: GnnParams):
    """Flattened (dst, src, relation-row, slot) arrays and the widest in-degree.

    Each node's self term takes slot 0; its incident edges follow in
    :meth:`Subgraph.edges` order.
    """
    k = sub.num_nodes
    heads, rels, tails = np.asarray(sub.triplets_local, dtype=np.int64).reshape(-1, 3).T
    distinct, inverse = np.unique(rels, return_inverse=True)
    try:
        rows = np.array([[gp.relation_rows[(rel, d)] for d in (DIR_OUT, DIR_IN)]
                         for rel in distinct.tolist()], dtype=np.int64).reshape(-1, 2)
    except KeyError as exc:
        raise ValidationError(
            f"relation {exc.args[0][0]} missing from the GNN table") from None
    # Self terms, then head -> tail (DIR_OUT) and tail -> head (DIR_IN) per
    # triplet; a stable sort on the destination keeps that order per node.
    nodes = np.arange(k)
    dst = np.concatenate([nodes, np.stack([tails, heads], axis=1).ravel()])
    src = np.concatenate([nodes, np.stack([heads, tails], axis=1).ravel()])
    rel = np.concatenate([np.full(k, SELF_ROW), rows[inverse].ravel()])
    order = np.argsort(dst, kind="stable")
    degree = np.bincount(dst, minlength=k)
    slot = np.arange(len(dst)) - np.repeat(np.cumsum(degree) - degree, degree)
    return dst[order], src[order], rel[order], slot, int(degree.max())


def _attention(k: int, edges, embeddings: Tensor, layer: GnnLayerParams,
               gp: GnnParams) -> tuple[Tensor, Tensor]:
    """Each node's softmax weights over its self term and incident edges,
    padded to (k, widest in-degree), and the (node, relation) pair input of
    every edge in ``edges``, the :func:`_edge_lists` arrays."""
    dst_idx, src_idx, rel_idx, slot_idx, max_deg = edges
    pair_input = T.concat([T.take_rows(embeddings, src_idx),
                           T.take_rows(gp.relation_table, rel_idx)], axis=1)
    queries = T.add(T.matmul(embeddings, layer.f_q_w), layer.f_q_b)
    keys = T.add(T.matmul(pair_input, layer.f_k_w), layer.f_k_b)
    logits = T.mul(T.tensor_sum(T.mul(T.take_rows(queries, dst_idx), keys), axis=1),
                   1.0 / np.sqrt(layer.attn_width))
    padded = T.pairs_to_padded(logits, dst_idx, slot_idx, (k, max_deg), fill=-1e30)
    return T.softmax(padded, axis=1), pair_input


def _propagate(sub: Subgraph, edges, embeddings: Tensor, layer: GnnLayerParams,
               gp: GnnParams) -> Tensor:
    """One layer over ``edges``, the :func:`_edge_lists` arrays of ``sub``."""
    k = sub.num_nodes
    if embeddings.shape != (k, gp.width):
        raise ValidationError(
            f"embeddings shape {embeddings.shape} does not match {k} nodes x {gp.width}")
    dst_idx, _, _, slot_idx, max_deg = edges
    alpha, pair_input = _attention(k, edges, embeddings, layer, gp)

    messages = T.add(T.matmul(pair_input, layer.f_m_w), layer.f_m_b)
    # Route each message into its (node, slot) cell; padding slots point at a
    # zero row and receive zero attention.
    ext = T.concat([messages, T.constant(np.zeros((1, gp.width)))], axis=0)
    slot_map = np.full((k, max_deg), len(dst_idx), dtype=np.int64)
    slot_map[dst_idx, slot_idx] = np.arange(len(dst_idx))
    routed = T.take_rows(ext, slot_map)  # k x max_deg x d
    weighted = T.mul(routed, T.reshape(alpha, (k, max_deg, 1)))
    aggregated = T.tensor_sum(weighted, axis=1)

    return T.add(T.add(T.matmul(aggregated, layer.f_n_w), layer.f_n_b), embeddings)


def gnn_layer(sub: Subgraph, embeddings: Tensor, layer: GnnLayerParams,
              gp: GnnParams) -> Tensor:
    """One round of attention-weighted message passing with a residual."""
    return _propagate(sub, _edge_lists(sub, gp), embeddings, layer, gp)


def gnn_encode(sub: Subgraph, initial: Tensor, gp: GnnParams) -> Tensor:
    """Apply the full layer stack in order; the edge lists are built once."""
    if not gp.layers:
        raise ValidationError("GNN stack is empty")
    edges = _edge_lists(sub, gp)
    x = initial
    for layer in gp.layers:
        x = _propagate(sub, edges, x, layer, gp)
    return x


def attention_weights(sub: Subgraph, embeddings: Tensor, layer: GnnLayerParams,
                      gp: GnnParams) -> list[np.ndarray]:
    """Per-node softmax weights over self + incident edges (for invariants)."""
    edges = _edge_lists(sub, gp)
    alpha, _ = _attention(sub.num_nodes, edges, embeddings, layer, gp)
    degree = np.bincount(edges[0], minlength=sub.num_nodes)
    return [alpha.data[i, :n] for i, n in enumerate(degree)]
