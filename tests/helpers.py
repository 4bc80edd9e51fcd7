"""Independent scalar oracles used across the test suite.

Everything here is written with explicit Python loops against plain numpy
arrays, deliberately avoiding the library's own vectorized paths, so a test
comparing the two is a genuine dual-route check.
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
            wq = layer.wq[m].data
            wk = layer.wk[m].data
            wv = layer.wv[m].data
            wo = layer.wo[m].data
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
