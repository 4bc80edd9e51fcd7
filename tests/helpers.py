"""Independent scalar oracles used across the test suite.

Everything here is written with explicit Python loops against plain numpy
arrays, deliberately avoiding the library's own vectorized paths, so a test
comparing the two is a genuine dual-route check.  The one exception is
``reference_compute_step``: it runs the library's stages one example at a
time, the reference for the batched training step.
"""

from __future__ import annotations

import math

import numpy as np

from kgfuse.gnn import SELF_ROW


def fd_input_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. one input array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return grad


def scalar_softmax(values) -> list[float]:
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    s = sum(exps)
    return [e / s for e in exps]


def scalar_layer_norm(row, gain, bias, eps=1e-5):
    mu = sum(row) / len(row)
    var = sum((v - mu) ** 2 for v in row) / len(row)
    inv = 1.0 / math.sqrt(var + eps)
    return [(v - mu) * inv * g + b for v, g, b in zip(row, gain, bias)]


def scalar_gelu(v: float) -> float:
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * v * (1.0 + math.tanh(c * (v + 0.044715 * v ** 3)))


def scalar_transformer_layer(x: np.ndarray, layer) -> np.ndarray:
    """Loop-by-loop re-implementation of one transformer layer."""
    length, d = x.shape
    heads = layer.heads
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    attended = np.zeros((length, d))
    for i in range(length):
        acc = np.zeros(d)
        for m in range(heads):
            wq = layer.wq.data[m]
            wk = layer.wk.data[m]
            wv = layer.wv.data[m]
            wo = layer.wo.data[m]
            qi = x[i] @ wq
            logits = [scale * float(qi @ (x[j] @ wk)) for j in range(length)]
            alpha = scalar_softmax(logits)
            mixed = np.zeros(dh)
            for j in range(length):
                mixed += alpha[j] * (x[j] @ wv)
            acc += mixed @ wo
        attended[i] = acc

    h = np.zeros((length, d))
    for i in range(length):
        h[i] = scalar_layer_norm(x[i] + attended[i], layer.ln1_gain.data,
                                 layer.ln1_bias.data)
    out = np.zeros((length, d))
    for i in range(length):
        hidden = h[i] @ layer.ff_w1.data + layer.ff_b1.data
        hidden = np.array([scalar_gelu(v) for v in hidden])
        ff = hidden @ layer.ff_w2.data + layer.ff_b2.data
        out[i] = scalar_layer_norm(h[i] + ff, layer.ln2_gain.data,
                                   layer.ln2_bias.data)
    return out


def attention_rows(x, layer) -> list[np.ndarray]:
    """Per-head softmax attention matrices of one transformer layer."""
    scale = 1.0 / np.sqrt(layer.width / layer.heads)
    rows = []
    for m in range(layer.heads):
        q = x.data @ layer.wq.data[m]
        k = x.data @ layer.wk.data[m]
        logits = scale * (q @ k.T)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        rows.append(shifted / shifted.sum(axis=1, keepdims=True))
    return rows


def reassemble(patches, grid, p, c) -> np.ndarray:
    """Inverse of ``patchify`` for one image of ``grid`` (rows, cols)
    patches of p x p x c; the round-trip oracle."""
    rows, cols = grid
    image = np.empty((rows * p, cols * p, c))
    for r in range(rows):
        for col in range(cols):
            block = patches[r * cols + col].reshape(p, p, c)
            image[r * p:(r + 1) * p, col * p:(col + 1) * p, :] = block
    return image


def scalar_gnn_layer(sub, embeddings: np.ndarray, layer, gp) -> np.ndarray:
    """Adjacency-loop re-implementation of one message-passing round."""
    k = sub.num_nodes
    table = gp.relation_table.data
    candidates: list[list[tuple[int, int]]] = [[(i, SELF_ROW)] for i in range(k)]
    for src, dst, rel, direction in sub.edges():
        candidates[dst].append((src, gp.relation_rows[(rel, direction)]))

    out = np.zeros_like(embeddings)
    sqrt_d = math.sqrt(layer.attn_width)
    for i in range(k):
        query = embeddings[i] @ layer.f_q_w.data + layer.f_q_b.data
        logits = []
        messages = []
        for j, rel_row in candidates[i]:
            pair = np.concatenate([embeddings[j], table[rel_row]])
            key = pair @ layer.f_k_w.data + layer.f_k_b.data
            logits.append(float(query @ key) / sqrt_d)
            messages.append(pair @ layer.f_m_w.data + layer.f_m_b.data)
        alpha = scalar_softmax(logits)
        agg = np.zeros(embeddings.shape[1])
        for a, msg in zip(alpha, messages):
            agg += a * msg
        out[i] = agg @ layer.f_n_w.data + layer.f_n_b.data + embeddings[i]
    return out


def reference_edge_lists(sub, gp):
    """Per-node lists of (src, relation-row), self term first, flattened.

    Returns the (dst, src, relation-row, slot) arrays and the widest
    in-degree, as ``gnn._edge_lists`` does.
    """
    per_node = [[(i, SELF_ROW)] for i in range(sub.num_nodes)]
    for src, dst, rel, direction in sub.edges():
        per_node[dst].append((src, gp.relation_rows[(rel, direction)]))
    dst_idx, src_idx, rel_idx, slot_idx = [], [], [], []
    for i, entries in enumerate(per_node):
        for slot, (src, rel_row) in enumerate(entries):
            dst_idx.append(i)
            src_idx.append(src)
            rel_idx.append(rel_row)
            slot_idx.append(slot)
    max_deg = max(len(entries) for entries in per_node)
    return (np.array(dst_idx), np.array(src_idx), np.array(rel_idx),
            np.array(slot_idx), max_deg)


def exhaustive_retrieve(scores: np.ndarray, ids: list[int], k_per_patch: int,
                        k_final: int):
    """Exhaustive per-patch sort, pool, max-dedup, global sort."""
    pooled: dict[int, tuple[float, int, int]] = {}
    n_patches = scores.shape[0]
    for p in range(n_patches):
        ranked = sorted(((float(scores[p, c]), ids[c], c)
                         for c in range(len(ids))),
                        key=lambda rec: (-rec[0], rec[1]))
        for score, ent, col in ranked[:k_per_patch]:
            prev = pooled.get(ent)
            if prev is None or score > prev[0]:
                pooled[ent] = (score, p, col)
    final = sorted(pooled.items(), key=lambda kv: (-kv[1][0], kv[0]))[:k_final]
    return [(ent, rec[0]) for ent, rec in final]


def reference_sample_negatives(kg, positive, n: int, seed: int,
                               max_retries: int = 1000):
    """Scalar negative sampler: two RNG calls and one set probe per candidate.

    A fair coin ``integers(0, 2)`` (1 corrupts the head) then a uniform
    replacement over the entities in ascending id order; candidates that are
    triplets of ``kg`` are redrawn, and ``max_retries`` rejections in a row
    raise ``ValidationError``.
    """
    from kgfuse.errors import ValidationError
    from kgfuse.kg import Triplet

    if n < 1:
        raise ValidationError("negative sample count must be >= 1")
    positive = Triplet(*positive)
    triplets = set(kg.triplets)
    rng = np.random.default_rng(seed)
    ids = sorted(kg.entities)
    out = []
    for _ in range(n):
        for attempt in range(max_retries + 1):
            if attempt == max_retries:
                raise ValidationError(
                    f"no valid negative found for {positive} after {max_retries} retries")
            corrupt_head = bool(rng.integers(0, 2))
            replacement = ids[int(rng.integers(0, len(ids)))]
            if corrupt_head:
                candidate = Triplet(replacement, positive.relation, positive.tail)
            else:
                candidate = Triplet(positive.head, positive.relation, replacement)
            if candidate not in triplets:
                out.append(candidate)
                break
    return out


def reference_expand_edges(kg, nodes: list[int]) -> list[tuple[int, int, int]]:
    """Full scan of ``kg.triplets`` for the edges with both endpoints in ``nodes``."""
    local = {e: i for i, e in enumerate(nodes)}
    return [(local[h], r, local[t]) for h, r, t in kg.triplets
            if h in local and t in local]


def reference_compute_step(params, corpus, memory, plan, config=None):
    """The training step as a loop over examples, each its own chain of ops.

    Every example is encoded, message-passed over its own visible subgraph,
    fused without padding and scored on its own; the batch losses are then
    averaged as ``model.compute_step`` averages them.  Returns the loss
    bundle.
    """
    from kgfuse import tensor as T
    from kgfuse.config import Config
    from kgfuse.encoders import (entity_encode, patchify, project_memory_rows,
                                 text_encode, vision_encode)
    from kgfuse.fusion import assemble, fuse, heads
    from kgfuse.gnn import forward_relation_rows, gnn_encode
    from kgfuse.kg import Triplet, expand_subgraph, split_triplet_list
    from kgfuse.model import entity_fallback_table
    from kgfuse.objectives import (ScoringTables, itc_loss, linkpred_loss,
                                   mask_patches, mask_spans, mlm_loss, mvm_loss,
                                   total_loss)
    from kgfuse.retriever import (gather_retrieved_scores, relevance_weights,
                                  retrieve_from_scores, score_patches)

    config = corpus.config if config is None else config
    kg = corpus.kg
    fallback = entity_fallback_table(params, memory)
    mlm_parts, mvm_parts, linkpred_parts = [], [], []
    image_vecs, text_vecs = [], []
    linkpred_count = 0
    for ex in plan.examples:
        seq = patchify(corpus.images[ex.index], config.patch_size)
        positions, patch_record = mask_patches(seq, config.mvm_rate, ex.patch_mask_seed)
        masked = np.zeros(seq.count, dtype=bool)
        masked[positions] = True
        v_out, queries = vision_encode(seq.patches, params.vision, masked)
        tokens, token_record = mask_spans(
            corpus.captions[ex.index], config.mlm_rate, config.mean_span,
            config.max_span, Config.MASK_ID, ex.span_mask_seed)
        t_out = text_encode(tokens, params.text)

        scores = score_patches(queries, memory)
        rset = retrieve_from_scores(scores, memory, config.k_per_patch, config.k_final)
        weights = relevance_weights(gather_retrieved_scores(scores, rset),
                                    config.relevance_temperature)
        subgraph = expand_subgraph(kg, rset.ids, config.per_node_cap, ex.subgraph_seed)
        visible, held_out = split_triplet_list(subgraph.triplets_local,
                                               config.edge_drop, ex.holdout_seed)
        e0 = entity_encode(rset.ids, memory, weights, params.entity)
        neighbor_ids = subgraph.entity_ids[len(rset.ids):]
        if neighbor_ids:
            e0 = T.concat([e0, project_memory_rows(neighbor_ids, memory, params.entity)])
        nodes = gnn_encode(subgraph.with_triplets(visible), e0, params.gnn)

        if held_out:
            entity_row = {e: len(subgraph.entity_ids) + i for e, i in memory.row_of.items()}
            entity_row.update((e, i) for i, e in enumerate(subgraph.entity_ids))
            tables = ScoringTables(T.concat([nodes, fallback]), entity_row,
                                   params.gnn.relation_table,
                                   forward_relation_rows(params.gnn),
                                   gamma=config.gamma, n=config.n_negatives)
            positives = [Triplet(subgraph.entity_ids[h], r, subgraph.entity_ids[t])
                         for h, r, t in held_out]
            loss = linkpred_loss(positives, tables, kg, ex.negative_seed)
            linkpred_parts.append(T.mul(loss, float(len(positives))))
            linkpred_count += len(positives)

        fused = assemble(v_out, t_out, T.take_rows(nodes, np.arange(len(rset.ids))),
                         params.fusion)
        out = heads(fuse(fused, params.fusion), fused, [token_record.token_positions],
                    [patch_record.patch_positions], params.heads)
        mlm_parts.append(mlm_loss(out.mlm_logits, token_record))
        mvm_parts.append(mvm_loss(out.mvm_pred, patch_record))
        image_vecs.append(T.tensor_mean(v_out, axis=0, keepdims=True))
        text_vecs.append(t_out[0:1, :])

    def mean(parts, count):
        acc = parts[0]
        for part in parts[1:]:
            acc = T.add(acc, part)
        return T.mul(acc, 1.0 / count)

    b = len(plan.examples)
    linkpred = mean(linkpred_parts, linkpred_count) if linkpred_parts else T.constant(0.0)
    itc = itc_loss(T.concat(image_vecs), T.concat(text_vecs), params.itc)
    return total_loss(mean(mlm_parts, b), mean(mvm_parts, b), linkpred, itc,
                      (config.w_mlm, config.w_mvm, config.w_linkpred, config.w_itc))


def count_vjp_nodes(loss) -> int:
    """Autodiff nodes reachable from ``loss`` that carry a VJP."""
    seen, stack, count = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._vjp is not None
            stack.extend(node._parents)
    return count
