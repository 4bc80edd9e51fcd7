"""Independent scalar oracles used across the test suite.

Everything here is written with explicit Python loops against plain numpy
arrays, deliberately avoiding the library's own vectorized paths, so a test
comparing the two is a genuine dual-route check.  The exceptions are
references kept from an earlier form of a library path:
``reference_compute_step`` runs the library's stages one example at a time,
the reference for the batched training step; ``reference_layer_norm`` and
``reference_attention`` are LayerNorm and multi-head attention composed
from autodiff primitives, the latter on ``softmax``, the softmax node that
left the library with it; ``log_sigmoid`` is the log-sigmoid node that left
the library when ``reference_negative_sampling_loss``, the chain it served,
became one node; ``reference_distmult_sampling_loss`` is the seven-node
link-prediction chain that ``tensor.distmult_sampling_loss`` replaced, which
it must match bit for bit; ``attention_node`` and ``layer_norm_node`` wrap
the transformer block's attention and LayerNorm forwards as the single
nodes they once were, and ``reference_transformer_block`` chains them with
primitives into the ten nodes that the block replaced, which it must match
bit for bit; ``reference_gnn_layer`` is the graph-attention
layer composed from them, on ``segment_sum``, which left with it;
``distmult`` is the per-triplet DistMult score composed from them too;
``reference_retrieve_from_scores`` selects each patch's entities by a
stable sort; ``reference_log_sigmoid`` and ``reference_optimizer_step`` are
the masked log-sigmoid and the per-tensor AdamW loop that the branch-free
and flat forms replaced, and must match bit for bit; ``reference_backward``
is the depth-first sweep that the creation-ordered one replaced;
``reference_locate`` is the scan over the tensors that the bisection in
``Parameters.locate`` replaced;
``reference_expand_subgraph`` is the per-seed Python sampler that the one on
dense index arrays replaced, and must match it bit for bit;
``reference_corpus``, ``reference_patch_projection``,
``reference_embed_description`` and ``reference_batch_plan`` are the
per-patch, per-entry, per-bucket and per-example loops that the corpus
tiling, the oracle projection, the description embedding and the batch
plan replaced, and must match them byte for byte.
``reference_negative_indices`` is the negative sampler's earlier
array form, which its one-compaction form must match bit for bit.
``negative_ends`` spells out the corrupted triplets of a negative draw.
``write_kg_tsv`` writes graph fixtures in the TSV format that
``kgfuse.kg.load_kg`` reads.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from kgfuse import tensor as T
from kgfuse.config import Config
from kgfuse.data import FILLER_POOL, entity_token, generate_kg
from kgfuse.errors import ValidationError
from kgfuse.gnn import SELF_ROW
from kgfuse.kg import DIR_IN, DIR_OUT
from kgfuse.model import BatchPlan, ExamplePlan
from kgfuse.retriever import HASH_BUCKETS, RetrievedEntitySet, build_memory


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


def reference_log_sigmoid(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(sigmoid(x)) and its VJP ``g * sigmoid(-x)``, each side of zero
    evaluated on its own mask."""
    softplus = np.log1p(np.exp(-np.abs(x)))
    value = np.where(x >= 0, -softplus, x - softplus)
    d = -x
    sig = np.empty_like(d)
    pos = d >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    sig[~pos] = ex / (1.0 + ex)
    return value, g * sig


def reference_optimizer_step(params, grads, state, lr: float, weight_decay: float,
                             betas=(0.9, 0.999), eps: float = 1e-8) -> None:
    """One AdamW step, one parameter at a time, on ``state.m`` / ``state.v``."""
    beta1, beta2 = betas
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, tensor in params.items():
        grad = grads.get(tensor)
        if grad is None:
            grad = np.zeros_like(tensor.data)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        tensor.data -= lr * (update + weight_decay * tensor.data)


def reference_layer_norm(x, gain, bias, eps=1e-5):
    """LayerNorm as a chain of autodiff primitives: the mean, the centred
    square mean, ``(var + eps) ** -0.5`` and the affine map, each its own node."""
    x = T.as_tensor(x)
    mu = T.tensor_mean(x, axis=-1, keepdims=True)
    centered = T.sub(x, mu)
    var = T.tensor_mean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv = T.power(T.add(var, eps), -0.5)
    return T.add(T.mul(T.mul(centered, inv), gain), bias)


def softmax(a, axis: int = -1):
    """Stable softmax along ``axis`` as an autodiff node (row max subtracted
    before exponentials); ``reference_attention`` and tests use it."""
    a = T.as_tensor(a)
    if not (-a.ndim <= axis < a.ndim):
        raise ValidationError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (data * (g - (g * data).sum(axis=axis, keepdims=True)),)

    return T.Tensor._result(data, (a,), vjp, "softmax")


def log_sigmoid(a):
    """log(sigmoid(x)) as its own autodiff node, on the library's formula;
    the chain oracles and tests use it."""
    a = T.as_tensor(a)
    data, vjp = T._log_sigmoid(a.data)
    return T.Tensor._result(data, (a,), lambda g: (vjp(g),), "log_sigmoid")


def reference_negative_sampling_loss(grid, gamma):
    """The link-prediction loss of a (P, 1 + n) grid of scores whose first
    column holds the positives: the chain of narrow, add, log-sigmoid, neg
    and mean nodes that ``tensor.distmult_sampling_loss`` replaced."""
    pos_term = T.neg(log_sigmoid(T.add(grid[:, 0], gamma)))
    neg_term = T.tensor_mean(
        T.neg(log_sigmoid(T.neg(T.add(grid[:, 1:], gamma)))), axis=1)
    return T.tensor_mean(T.add(pos_term, neg_term))


def reference_distmult_sampling_loss(entity_matrix, relation_matrix, end_rows,
                                     relation_rows, candidate_rows, coins, gamma):
    """``tensor.distmult_sampling_loss`` as the chain it replaced: two
    take_rows, mul, reshape, transpose and matmul nodes score both endpoint
    queries of each positive against every table row, take_pairs reads the
    (P, 1 + n) grid, and :func:`reference_negative_sampling_loss` scores it."""
    end_rows, coins = np.asarray(end_rows), np.asarray(coins)
    p = len(end_rows)
    ends = T.take_rows(entity_matrix, end_rows)
    r = T.take_rows(relation_matrix, np.reshape(relation_rows, (-1, 1)))
    queries = T.reshape(T.mul(ends, r), (2 * p, -1))
    scores = T.matmul(queries, T.transpose(entity_matrix))
    # The positive is its tail under query 2p, a corruption its candidate
    # under query 2p + coin.
    rows = 2 * np.arange(p)[:, None] + np.concatenate(
        [np.zeros((p, 1), dtype=np.int64), coins], axis=1)
    cols = np.concatenate([end_rows[:, 1:], candidate_rows], axis=1)
    grid = T.reshape(T.take_pairs(scores, rows.ravel(), cols.ravel()), rows.shape)
    return reference_negative_sampling_loss(grid, gamma)


def reference_attention(x, wq, wk, wv, wo, valid, scale):
    """Multi-head attention as a chain of autodiff primitives: the head-axis
    reshape, three projections, transpose, scores, scale, mask, softmax, mix,
    output projection and head sum, each its own node.  ``valid`` is the
    boolean key mask or None; a False key's logit gets -1e30."""
    x = T.as_tensor(x)
    xh = T.reshape(x, x.shape[:-2] + (1,) + x.shape[-2:])
    q, k, v = T.matmul(xh, wq), T.matmul(xh, wk), T.matmul(xh, wv)
    logits = T.mul(T.matmul(q, T.transpose(k)), scale)
    if valid is not None:
        logits = T.add(logits, T.constant(np.where(valid, 0.0, -1e30)[..., None, None, :]))
    attn = softmax(logits, axis=-1)
    return T.tensor_sum(T.matmul(T.matmul(attn, v), wo), axis=-3)


def attention_node(x, wq, wk, wv, wo, valid):
    """The attention of ``tensor.transformer_block`` as its own node, as the
    library had it before the block absorbed it."""
    inputs = tuple(T.as_tensor(t) for t in (x, wq, wk, wv, wo))
    data, vjp = T._attention(*(t.data for t in inputs), valid)
    return T.Tensor._result(data, inputs, vjp, "attention")


def layer_norm_node(x, gain, bias):
    """The LayerNorm of ``tensor.transformer_block`` as its own node, as the
    library had it before the block absorbed it."""
    inputs = tuple(T.as_tensor(t) for t in (x, gain, bias))
    data, vjp = T._layer_norm(*(t.data for t in inputs))
    return T.Tensor._result(data, inputs, vjp, "layer_norm")


def reference_transformer_block(x, wq, wk, wv, wo, ln1_gain, ln1_bias, ff_w1, ff_b1,
                                ff_w2, ff_b2, ln2_gain, ln2_bias, valid):
    """``tensor.transformer_block`` as the ten-node chain it replaced:
    attention, add, LayerNorm, matmul, add, GELU, matmul, add, add and
    LayerNorm, each its own node."""
    mixed = attention_node(x, wq, wk, wv, wo, valid)
    h = layer_norm_node(T.add(x, mixed), ln1_gain, ln1_bias)
    ff = T.add(T.matmul(T.gelu(T.add(T.matmul(h, ff_w1), ff_b1)), ff_w2), ff_b2)
    return layer_norm_node(T.add(h, ff), ln2_gain, ln2_bias)


def segment_sum(values, segments, count: int):
    """Sum the rows of each segment into one of ``count`` rows as an autodiff
    node; a run is summed pairwise, so a sum can differ from ``np.add.at``'s
    in the last bits.  ``reference_gnn_layer`` and tests use it."""
    v = T.as_tensor(values)
    seg, starts = T._segment_runs(segments, count, v)
    data = np.add.reduceat(v.data, starts, axis=0)
    return T.Tensor._result(data, (v,), lambda g: (g[seg],), "segment_sum")


def reference_gnn_layer(x, table, wq, bq, wk, wm, bm, wn, bn, edges, scale):
    """``tensor.graph_attention`` as a chain of autodiff primitives: three
    gathers, the (edges, 2d) pair concat, four matmuls, four adds, three
    products, the logit sum, ``segment_softmax``, a reshape and
    ``segment_sum``, each its own node."""
    dst, src, rel = edges
    k = x.shape[0]
    pair_input = T.concat([T.take_rows(x, src), T.take_rows(table, rel)], axis=1)
    queries = T.add(T.matmul(x, wq), bq)
    keys = T.matmul(pair_input, wk)
    logits = T.mul(T.tensor_sum(T.mul(T.take_rows(queries, dst), keys), axis=1), scale)
    alpha = T.segment_softmax(logits, dst, k)
    messages = T.add(T.matmul(pair_input, wm), bm)
    aggregated = segment_sum(T.mul(messages, T.reshape(alpha, (-1, 1))), dst, k)
    return T.add(T.add(T.matmul(aggregated, wn), bn), x)


def scalar_gelu(v: float) -> float:
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * v * (1.0 + math.tanh(c * (v + 0.044715 * v ** 3)))


def scalar_transformer_layer(x: np.ndarray, layer) -> np.ndarray:
    """Loop-by-loop re-implementation of one transformer layer."""
    length, d = x.shape
    heads, _, dh = layer.wq.shape
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
    scale = 1.0 / np.sqrt(layer.wq.shape[-1])
    rows = []
    for m in range(layer.wq.shape[0]):
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


def reference_corpus(config, seed: int):
    """``generate_corpus``'s images, captions and ground truth, each patch
    tiled by ``np.resize`` and placed by ``divmod``, with its own noise draw."""
    rng = np.random.default_rng([seed, 1])
    kg = generate_kg(config, rng)
    memory = build_memory(kg, config.d_e, seed)
    p, c = config.patch_size, config.image_c
    grid_cols = config.image_w // p
    entity_ids = kg.entity_ids()
    filler_lo = Config.RESERVED_TOKENS + config.corpus_entities
    pool_size = min(FILLER_POOL, config.vocab - filler_lo)
    filler_pool = rng.choice(np.arange(filler_lo, config.vocab),
                             size=pool_size, replace=False)
    filler_weights = 1.0 / np.arange(1, pool_size + 1)
    filler_weights /= filler_weights.sum()

    images, captions, ground_truth = [], [], []
    for _ in range(config.corpus_examples):
        gt_idx = rng.choice(len(entity_ids), size=config.entities_per_example,
                            replace=False)
        gt = [entity_ids[i] for i in gt_idx]
        image = np.empty((config.image_h, config.image_w, c))
        for patch in range(config.n_patches):
            tile = np.resize(memory.matrix[gt_idx[patch % len(gt)]], p * p * c)
            noisy = tile + config.corpus_noise * rng.standard_normal(tile.shape)
            r, col = divmod(patch, grid_cols)
            image[r * p:(r + 1) * p, col * p:(col + 1) * p, :] = noisy.reshape(p, p, c)
        images.append(image)
        length = int(rng.integers(config.caption_min_len, config.caption_max_len + 1))
        body = rng.choice(filler_pool, size=length, p=filler_weights).tolist()
        slots = rng.choice(length, size=min(len(gt), length), replace=False)
        for slot, ent in zip(slots, gt):
            body[slot] = entity_token(config, ent)
        captions.append([Config.CLS_ID] + [int(t) for t in body])
        ground_truth.append(gt)
    return images, captions, ground_truth


def reference_patch_projection(config) -> np.ndarray:
    """The oracle projection, its counts and entries written one at a time."""
    rows, cols = config.patch_dim, config.d_e
    m = np.zeros((rows, cols))
    counts = np.zeros(cols)
    for j in range(rows):
        counts[j % cols] += 1
    for j in range(rows):
        m[j, j % cols] = 1.0 / counts[j % cols]
    return m


def reference_embed_description(text: str, d_e: int, seed: int) -> np.ndarray:
    """The description embedding, its projection rows added one bucket at a time."""
    proj = np.random.default_rng([seed, HASH_BUCKETS]).standard_normal((HASH_BUCKETS, d_e))
    lowered = text.lower()
    counts: dict[int, float] = {}
    for i in range(len(lowered) - 2):
        bucket = zlib.crc32(lowered[i:i + 3].encode("utf-8")) % HASH_BUCKETS
        counts[bucket] = counts.get(bucket, 0.0) + 1.0
    if not counts:
        counts[0] = 1.0
    vec = np.zeros(d_e)
    for bucket, count in counts.items():
        vec += count * proj[bucket]
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        vec = proj[0].copy()
        norm = np.linalg.norm(vec)
    return vec / norm


def reference_batch_plan(config, corpus_size: int, step: int) -> BatchPlan:
    """The batch plan with each example's five seeds drawn by its own call."""
    rng = np.random.default_rng([config.seed, step])
    indices = rng.integers(0, corpus_size, size=config.batch_size)
    examples = []
    for idx in indices:
        seeds = rng.integers(0, 2 ** 62, size=5)
        examples.append(ExamplePlan(int(idx), *(int(s) for s in seeds)))
    return BatchPlan(step, tuple(examples))


def subgraph_edges(sub) -> list[tuple[int, int, int]]:
    """Directed message edges (src_local, dst_local, relation-table row).

    Every triplet yields two entries: head-to-tail through its relation's
    DIR_OUT row and tail-to-head through its DIR_IN row, so each node sees
    all incident edges.  Relation r's rows are 1 + 2r + direction.
    """
    out = []
    for h, r, t in sub.triplets_local.tolist():
        out.append((h, t, 1 + 2 * r + DIR_OUT))
        out.append((t, h, 1 + 2 * r + DIR_IN))
    return out


def scalar_gnn_layer(sub, embeddings: np.ndarray, layer, gp) -> np.ndarray:
    """Adjacency-loop re-implementation of one message-passing round."""
    k = sub.num_nodes
    table = gp.relation_table.data
    candidates: list[list[tuple[int, int]]] = [[(i, SELF_ROW)] for i in range(k)]
    for src, dst, rel_row in subgraph_edges(sub):
        candidates[dst].append((src, rel_row))

    out = np.zeros_like(embeddings)
    sqrt_d = math.sqrt(layer.f_q_w.shape[1])
    for i in range(k):
        query = embeddings[i] @ layer.f_q_w.data + layer.f_q_b.data
        logits = []
        messages = []
        for j, rel_row in candidates[i]:
            pair = np.concatenate([embeddings[j], table[rel_row]])
            key = pair @ layer.f_k_w.data
            logits.append(float(query @ key) / sqrt_d)
            messages.append(pair @ layer.f_m_w.data + layer.f_m_b.data)
        alpha = scalar_softmax(logits)
        agg = np.zeros(embeddings.shape[1])
        for a, msg in zip(alpha, messages):
            agg += a * msg
        out[i] = agg @ layer.f_n_w.data + layer.f_n_b.data + embeddings[i]
    return out


def reference_edge_lists(sub):
    """Per-node lists of (src, relation-row), self term first, flattened.

    Returns the (dst, src, relation-row) arrays, as ``gnn._edge_lists`` does.
    """
    per_node = [[(i, SELF_ROW)] for i in range(sub.num_nodes)]
    for src, dst, rel_row in subgraph_edges(sub):
        per_node[dst].append((src, rel_row))
    dst_idx, src_idx, rel_idx = [], [], []
    for i, entries in enumerate(per_node):
        for src, rel_row in entries:
            dst_idx.append(i)
            src_idx.append(src)
            rel_idx.append(rel_row)
    return np.array(dst_idx), np.array(src_idx), np.array(rel_idx)


def exhaustive_retrieve(scores: np.ndarray, ids: list[int], k_per_patch: int,
                        k_final: int, with_sources: bool = False):
    """Exhaustive per-patch sort, pool, max-dedup, global sort.

    Returns the (id, score) entries; with ``with_sources``, also the
    (patch, column) at which each entry first reached its score.
    """
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
    entries = [(ent, rec[0]) for ent, rec in final]
    if with_sources:
        return entries, [(rec[1], rec[2]) for _, rec in final]
    return entries


def reference_retrieve_from_scores(scores, memory, k_per_patch: int,
                                   k_final: int) -> RetrievedEntitySet:
    """Batched selection with a stable per-patch sort: each patch picks the
    first ``k_per_patch`` columns of a stable descending sort, so ties go to
    the lower column, which holds the lower id."""
    scores = np.asarray(scores, dtype=np.float64)
    top = np.argsort(-scores, axis=-1, kind="stable")[..., :k_per_patch]
    picked = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(picked, top, True, axis=-1)
    pooled = np.where(picked, scores, -np.inf)
    patch = pooled.argmax(axis=1)
    best = pooled.max(axis=1)
    order = np.argsort(-best, axis=-1, kind="stable")[:, :k_final]
    example, slot = np.nonzero(np.take_along_axis(picked.any(axis=1), order, axis=1))
    column = order[example, slot]
    return RetrievedEntitySet(example, patch[example, column], column,
                              [memory.ids[c] for c in column.tolist()], best[example, column])


def reference_sample_negatives(kg, positives, n: int, seed, max_retries: int = 1000):
    """Scalar negative sampler: two RNG calls and one set probe per candidate.

    One ``default_rng(seed)`` serves all ``positives`` in rounds.  Each
    round every positive still short of ``n`` draws, in positive order,
    ``m = 5 * (largest shortfall) // 4 + 8`` candidates: a fair coin
    ``integers(0, 2)`` (1 corrupts the head) then a uniform replacement over
    the entities in ascending id order.  Candidates that are triplets of
    ``kg`` are rejected, and so are those after the n-th acceptance; a
    positive with ``max_retries`` rejections while short raises
    ``ValidationError`` at the end of the round.  Returns one list of
    negative triplets per positive.
    """
    from kgfuse.errors import ValidationError
    from kgfuse.kg import Triplet

    if n < 1:
        raise ValidationError("negative sample count must be >= 1")
    if max_retries < 1:
        raise ValidationError(f"max_retries must be >= 1, got {max_retries}")
    positives = [Triplet(*p) for p in positives]
    triplets = set(kg.triplets)
    rng = np.random.default_rng(seed)
    ids = sorted(kg.entities)
    out = [[] for _ in positives]
    rejected = [0] * len(positives)
    while True:
        short = [i for i in range(len(positives)) if len(out[i]) < n]
        if not short:
            return out
        m = 5 * max(n - len(out[i]) for i in short) // 4 + 8
        for i in short:
            positive = positives[i]
            for _ in range(m):
                corrupt_head = bool(rng.integers(0, 2))
                replacement = ids[int(rng.integers(0, len(ids)))]
                if len(out[i]) == n:
                    continue
                if corrupt_head:
                    candidate = Triplet(replacement, positive.relation, positive.tail)
                else:
                    candidate = Triplet(positive.head, positive.relation, replacement)
                if candidate in triplets:
                    rejected[i] += 1
                else:
                    out[i].append(candidate)
        for i in short:
            if rejected[i] >= max_retries:
                raise ValidationError(f"no valid negative found for {positives[i]} "
                                      f"after {max_retries} retries")


def reference_negative_indices(kg, dense, n: int, seed, max_retries: int = 1000):
    """``kg.negative_indices`` as it was before its one-compaction form: a
    running count of acceptances over every candidate, a shortfall mask
    and a scatter of each round's kept candidates into their slots.  Draws,
    rejection counts and the retry error must match it bit for bit."""
    from kgfuse.errors import ValidationError
    from kgfuse.kg import draw_candidates

    if n < 1:
        raise ValidationError("negative sample count must be >= 1")
    if max_retries < 1:
        raise ValidationError(f"max_retries must be >= 1, got {max_retries}")
    known = kg.known_mask(dense).ravel()
    count, n_e = len(dense), len(kg.entity_ids())
    rng = np.random.default_rng(seed)
    coins = np.empty(count * n, dtype=np.int64)
    picks = np.empty(count * n, dtype=np.int64)
    got = np.zeros(count, dtype=np.int64)
    rejected = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    while active.size:
        need = n - got[active]
        m = int(need.max()) * 5 // 4 + 8
        coin, pick = draw_candidates(rng, n_e, (active.size, m))
        ok = ~known[(coin * n_e + pick) + (2 * n_e) * active[:, None]]
        accepted = np.cumsum(ok, axis=1)
        kept = np.minimum(accepted[:, -1], need)
        accepted -= ok
        short = accepted < need[:, None]
        rejected[active] += np.count_nonzero(short, axis=1) - kept
        failed = active[rejected[active] >= max_retries]
        if failed.size:
            raise ValidationError(
                f"no valid negative found for {kg.triplets_of(dense[failed[:1]])[0]} "
                f"after {max_retries} retries")
        ok &= short
        at = np.flatnonzero(ok)
        start = active * n + got[active]
        slots = np.repeat(start - np.cumsum(kept) + kept, kept) + np.arange(at.size)
        coins[slots] = coin.reshape(-1)[at]
        picks[slots] = pick.reshape(-1)[at]
        got[active] += kept
        active = active[got[active] < n]
    return coins.reshape(count, n), picks.reshape(count, n)


def negative_ends(dense, coin, replacement):
    """Dense (heads, tails) of the corruptions that ``negative_indices``
    returns as ``(coin, replacement)`` for the dense positives ``dense``: a
    coin of 1 replaces the head, 0 the tail."""
    return (np.where(coin, replacement, dense[:, :1]),
            np.where(coin, dense[:, 2:], replacement))


def write_kg_tsv(kg, entities_path, relations_path, triplets_path) -> None:
    """Write ``kg`` as the three TSV files, ids ascending."""
    for path, records in ((entities_path, kg.entities), (relations_path, kg.relations)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{i}\t{records[i].name}\t{records[i].description}\n"
                          for i in sorted(records))
    with open(triplets_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in kg.triplets)


def distmult(h, r, t):
    """Trilinear score sum_d h_d * r_d * t_d over the last axis, one per row;
    leading axes broadcast, and the score is symmetric in head and tail.
    It is the per-triplet rule that ``linkpred_loss`` reproduces."""
    if not h.shape[-1:] == r.shape[-1:] == t.shape[-1:]:
        raise ValidationError(f"distmult width mismatch: {h.shape}, {r.shape}, {t.shape}")
    try:
        np.broadcast_shapes(h.shape, r.shape, t.shape)
    except ValueError:
        raise ValidationError(f"distmult leading axes do not broadcast: "
                              f"{h.shape}, {r.shape}, {t.shape}") from None
    return T.tensor_sum(T.mul(T.mul(h, r), t), axis=-1)


def reference_filtered_ranks(entity_matrix, relation_matrix, entity_row: dict,
                             relation_row: dict, held_out, kg) -> list[int]:
    """Per-triplet filtered ranking over the ids of ``entity_row``.

    For each held-out (h, r, t), the tail side scores every candidate by
    phi_r(h, .), drops the other true tails of (h, r) found in a dict of
    sets over ``kg.triplets``, and counts the candidates scoring at least
    the target's score; then the head side by phi_r(., t).
    """
    ids = sorted(entity_row)
    all_vecs = entity_matrix[np.array([entity_row[e] for e in ids])]
    id_pos = {e: i for i, e in enumerate(ids)}
    true_tails: dict[tuple[int, int], set[int]] = {}
    true_heads: dict[tuple[int, int], set[int]] = {}
    for h, r, t in kg.triplets:
        true_tails.setdefault((h, r), set()).add(t)
        true_heads.setdefault((r, t), set()).add(h)
    ranks = []
    for h, r, t in held_out:
        rel = relation_matrix[relation_row[r]]
        for anchor, target, others in ((h, t, true_tails.get((h, r), ())),
                                       (t, h, true_heads.get((r, t), ()))):
            scores = all_vecs @ (entity_matrix[entity_row[anchor]] * rel)
            keep = np.ones(len(ids), dtype=bool)
            keep[[id_pos[other] for other in others if other != target]] = False
            ranks.append(int(np.sum(scores[keep] >= scores[id_pos[target]])))
    return ranks


def reference_expand_subgraph(kg, seeds: list[int], per_node_cap: int, seed: int):
    """The per-seed Python sampler that ``kg.expand_subgraph`` replaced.

    Each distinct seed, in order, draws up to ``per_node_cap`` of its
    distinct neighbours (from :meth:`neighbors`, in ascending id order) by
    one ``rng.choice`` without replacement; new nodes join in that order.
    The edges are a full scan of ``kg.triplets`` for those with both
    endpoints in the node set.  Returns the node ids, the seed flags and the
    (head local, dense relation index, tail local) triplets, as lists.
    """
    ordered = list(dict.fromkeys(seeds))
    rng = np.random.default_rng(seed)
    nodes = list(ordered)
    for s in ordered:
        candidates = sorted({nbr for _, nbr, _ in kg.neighbors(s)})
        if len(candidates) > per_node_cap:
            picked = rng.choice(len(candidates), size=per_node_cap, replace=False)
            candidates = [candidates[i] for i in sorted(picked)]
        nodes += [nbr for nbr in candidates if nbr not in nodes]
    local = {e: i for i, e in enumerate(nodes)}
    relation = {r: i for i, r in enumerate(kg.relation_ids())}
    triplets = [(local[h], relation[r], local[t]) for h, r, t in kg.triplets
                if h in local and t in local]
    return nodes, [i < len(ordered) for i in range(len(nodes))], triplets


def reference_compute_step(params, corpus, memory, plan):
    """The training step as a loop over examples, each its own chain of ops.

    Every example is encoded, retrieves its entities through
    :func:`exhaustive_retrieve`, is message-passed over its own visible subgraph,
    fused without padding and scored on its own, with its own dict row map;
    only the link-prediction negatives come from one draw over the whole
    step.  The batch losses are then averaged as ``model.compute_step``
    averages them.  Returns the loss bundle.
    """
    from kgfuse import tensor as T
    from kgfuse.config import Config
    from kgfuse.encoders import (entity_encode, patchify, project_memory_rows,
                                 text_encode, vision_encode)
    from kgfuse.fusion import assemble, fuse, heads
    from kgfuse.gnn import forward_relation_rows, gnn_encode
    from kgfuse.kg import Triplet, expand_subgraph, negative_indices, split_triplet_list
    from kgfuse.model import entity_fallback_table
    from kgfuse.objectives import (itc_loss, mask_patches, mask_spans, mlm_loss,
                                   mvm_loss, total_loss)
    from kgfuse.retriever import score_patches

    config = corpus.config
    kg = corpus.kg
    fallback = entity_fallback_table(params, memory)
    row_of = {e: i for i, e in enumerate(memory.ids)}
    mlm_parts, mvm_parts, linkpred_parts = [], [], []
    image_vecs, text_vecs = [], []
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
        entries, sources = exhaustive_retrieve(scores.data, memory.ids, config.k_per_patch,
                                               config.k_final, with_sources=True)
        retrieved = [e for e, _ in entries]
        rows, cols = zip(*sources)
        weights = softmax(T.mul(T.take_pairs(scores, rows, cols),
                                1.0 / config.relevance_temperature), axis=0)
        subgraph = expand_subgraph(kg, retrieved, config.per_node_cap, ex.subgraph_seed)
        visible, held_out = split_triplet_list(subgraph.triplets_local,
                                               config.edge_drop, ex.holdout_seed)
        e0 = entity_encode([row_of[e] for e in retrieved], memory, weights, params.entity)
        neighbor_ids = subgraph.entity_ids[len(retrieved):]
        if neighbor_ids:
            e0 = T.concat([e0, project_memory_rows([row_of[e] for e in neighbor_ids],
                                                   memory, params.entity)])
        nodes = gnn_encode(subgraph.with_triplets(visible), e0, params.gnn)

        if len(held_out):
            fallback_rows = {e: len(subgraph.entity_ids) + i for e, i in row_of.items()}
            entity_row = {**fallback_rows,
                          **{e: i for i, e in enumerate(subgraph.entity_ids)}}
            relations = kg.relation_ids()
            positives = [Triplet(subgraph.entity_ids[h], relations[r], subgraph.entity_ids[t])
                         for h, r, t in held_out.tolist()]
            linkpred_parts.append((T.concat([nodes, fallback]), entity_row, positives))

        fused = assemble(v_out, t_out, T.take_rows(nodes, np.arange(len(retrieved))),
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
    linkpred = T.constant(0.0)
    if linkpred_parts:
        # Each example's positives score against their slice of one draw
        # over the whole step.
        ids, n, gamma = kg.entity_ids(), config.n_negatives, config.gamma
        relation_row = forward_relation_rows(params.gnn)
        dense = kg.index_triplets([p for _, _, positives in linkpred_parts
                                   for p in positives])
        heads, tails = negative_ends(dense, *negative_indices(
            kg, dense, n, [ex.negative_seed for ex in plan.examples]))
        sums, start = [], 0
        for table, entity_row, positives in linkpred_parts:
            rows = slice(start, start + len(positives))
            start += len(positives)
            head_rows = [[entity_row[p.head]] + [entity_row[ids[i]] for i in negs]
                         for p, negs in zip(positives, heads[rows].tolist())]
            tail_rows = [[entity_row[p.tail]] + [entity_row[ids[i]] for i in negs]
                         for p, negs in zip(positives, tails[rows].tolist())]
            r = T.take_rows(params.gnn.relation_table,
                            relation_row[kg.index_triplets(positives)[:, 1:2]])
            grid = T.tensor_sum(T.mul(T.mul(T.take_rows(table, head_rows), r),
                                      T.take_rows(table, tail_rows)), axis=2)
            pos_term = T.neg(log_sigmoid(T.add(grid[:, 0], gamma)))
            neg_term = T.tensor_mean(
                T.neg(log_sigmoid(T.neg(T.add(grid[:, 1:], gamma)))), axis=1)
            sums.append(T.tensor_sum(T.add(pos_term, neg_term)))
        linkpred = mean(sums, start)
    itc = itc_loss(T.concat(image_vecs), T.concat(text_vecs), params.itc)
    return total_loss(mean(mlm_parts, b), mean(mvm_parts, b), linkpred, itc,
                      (config.w_mlm, config.w_mvm, config.w_linkpred, config.w_itc))


def reference_backward(loss) -> dict:
    """The reverse-mode sweep as a depth-first topological sort and a reverse
    sweep over it, keyed by ``id()``; it leaves the graph as it found it.

    Returns the same leaf-to-gradient mapping as ``tensor.backward``, whose
    fan-in sums may differ from it in the last bits.  Like
    :func:`graph_nodes`, it must run before ``backward`` consumes the graph.
    """
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent in node._parents
                     if id(parent) not in seen)
    grads = {id(loss): np.ones_like(loss.data)}
    leaf_grads = {}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is not None:
            for parent, pg in zip(node._parents, node._vjp(g)):
                if parent.requires_grad:
                    acc = grads.get(id(parent))
                    grads[id(parent)] = pg if acc is None else acc + pg
        elif node.requires_grad:
            leaf_grads[node] = g
    return leaf_grads


def reference_locate(params, flat_index: int) -> tuple[str, int]:
    """(name, offset) of a flat index, tensor by tensor in insertion order."""
    if flat_index < 0:
        raise ValidationError("negative flat index")
    remaining = flat_index
    for name, t in params.items():
        if remaining < t.size:
            return name, remaining
        remaining -= t.size
    raise ValidationError(f"flat index {flat_index} out of range")


def graph_nodes(loss) -> list:
    """Every tensor reachable from ``loss`` through its parents.

    ``tensor.backward`` consumes the graph it sweeps, so this must run
    before it: afterwards the walk stops at ``loss``.
    """
    seen, stack, nodes = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def count_vjp_nodes(loss) -> int:
    """Autodiff nodes reachable from ``loss`` that carry a VJP; like
    :func:`graph_nodes`, it must run before ``backward``."""
    return sum(node._vjp is not None for node in graph_nodes(loss))


def checkpoint_bytes(config_text: bytes, tensors, step: int = 1) -> bytes:
    """An RVLCKPT2 file built by hand from raw parts, which may be malformed.

    ``tensors`` holds (name bytes, dims, payload bytes) triples; dims are
    written as given, whatever the payload's length.
    """
    out = [b"RVLCKPT2", struct.pack("<I", len(config_text)), config_text,
           struct.pack("<QI", step, len(tensors))]
    for name, dims, payload in tensors:
        out += [struct.pack("<I", len(name)), name, struct.pack("<I", len(dims))]
        out += [struct.pack("<Q", d) for d in dims] + [payload]
    return b"".join(out)
