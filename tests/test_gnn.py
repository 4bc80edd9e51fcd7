"""GNN encoder: scalar oracle equivalence, residual identity, equivariance."""

import numpy as np
import pytest

from kgfuse import tensor as T
from kgfuse.encoders import init_transformer_layer, transformer_layer
from kgfuse.errors import NumericsError, ValidationError
from kgfuse.gnn import (GnnParams, _edge_lists, attention_weights,
                        forward_relation_rows, gnn_encode, gnn_layer, init_gnn,
                        relation_row)
from kgfuse.kg import (DIR_IN, DIR_OUT, KnowledgeGraph, NamedRecord, Subgraph,
                       Triplet, disjoint_union, expand_subgraph, holdout_edges)
from kgfuse.tensor import Parameters, Tensor

from helpers import (fd_input_grad, layer_norm_node, reference_attention,
                     reference_edge_lists, reference_gnn_layer, scalar_gnn_layer)


def make_kg(n_entities=6, n_relations=2):
    entities = {i: NamedRecord(f"e{i}", f"thing number {i}")
                for i in range(n_entities)}
    relations = {i: NamedRecord(f"r{i}", f"connects via mode {i}")
                 for i in range(n_relations)}
    r2 = min(1, n_relations - 1)
    triplets = [Triplet(0, 0, 1), Triplet(1, r2, 2), Triplet(2, 0, 3)]
    return KnowledgeGraph(entities, relations, triplets)


def make_gnn(kg, d=4, depth=2, seed=0):
    params = Parameters()
    rng = np.random.default_rng(seed)
    gp = init_gnn(params, rng, kg, d=d, d_e=8, attn_width=4, depth=depth,
                  description_seed=seed)
    return params, gp


def random_subgraph(rng, n_nodes, n_relations, n_edges) -> Subgraph:
    triplets = set()
    while len(triplets) < n_edges:
        h, t = rng.integers(0, n_nodes, size=2)
        if h == t:
            continue
        triplets.add((int(h), int(rng.integers(0, n_relations)), int(t)))
    return Subgraph(list(range(n_nodes)), [True] * n_nodes, sorted(triplets))


def criterion_4_subgraph(rng) -> Subgraph:
    """A subgraph drawn as acceptance criterion 4 draws them: 1 to 10 nodes and
    up to 2n draws of an edge over 3 relations, self-loops dropped."""
    n = int(rng.integers(1, 11))
    triplets = set()
    for _ in range(int(rng.integers(0, 2 * n))):
        h, t = rng.integers(0, n, size=2)
        if h != t:
            triplets.add((int(h), int(rng.integers(0, 3)), int(t)))
    return Subgraph(list(range(n)), [True] * n, sorted(triplets))


def node_inputs(sub, seed, d=6, attn_width=5):
    """The nine trainable leaves of one ``graph_attention`` call on ``sub``
    (random biases, so that each gradient is exercised), its edges and the
    scale 1/sqrt(attn_width) that the chain oracle takes."""
    kg = make_kg(n_entities=12, n_relations=3)
    params, gp = make_gnn(kg, d=d, depth=1, seed=seed)
    layer = gp.layers[0]
    rng = np.random.default_rng(seed)
    for bias in (layer.f_q_b, layer.f_m_b, layer.f_n_b):
        bias.data[...] = rng.standard_normal(bias.shape)
    layer.f_q_w.data = rng.standard_normal((d, attn_width))
    layer.f_q_b.data = rng.standard_normal(attn_width)
    layer.f_k_w.data = rng.standard_normal((2 * d, attn_width))
    leaves = [Tensor(t.data, requires_grad=True) for t in (
        gp.relation_table, layer.f_q_w, layer.f_q_b, layer.f_k_w, layer.f_m_w,
        layer.f_m_b, layer.f_n_w, layer.f_n_b)]
    x = Tensor(rng.standard_normal((sub.num_nodes, d)), requires_grad=True)
    return [x, *leaves], _edge_lists(sub, gp), 1.0 / np.sqrt(attn_width)


def assert_matches_chain(leaves, edges, scale):
    """Forward and all nine gradients within 1e-12 of the largest entry of
    the chain oracle's."""
    out = T.graph_attention(*leaves, edges)
    ref = reference_gnn_layer(*leaves, edges, scale)
    assert out.op == "graph_attention"
    assert [id(p) for p in out._parents] == [id(leaf) for leaf in leaves]
    assert np.max(np.abs(out.data - ref.data)) <= 1e-12 * np.max(np.abs(ref.data))
    assert_same_gradients(out, ref, leaves)


def assert_same_gradients(out, ref, leaves):
    """The gradients of a random probe of ``out`` within 1e-12 of the largest
    entry of ``ref``'s, on every one of ``leaves``."""
    probe = T.constant(np.random.default_rng(out.shape[0]).standard_normal(out.shape))
    got = T.backward(T.tensor_sum(T.mul(out, probe)))
    want = T.backward(T.tensor_sum(T.mul(ref, probe)))
    for i, leaf in enumerate(leaves):
        assert np.max(np.abs(got[leaf] - want[leaf])) <= 1e-12 * np.max(np.abs(want[leaf])), i


def test_kernels_scale_by_the_width_of_rebound_weights():
    # The scale 1/sqrt(key width) comes from the weights a layer holds at
    # call time: a transformer layer built with 4-wide heads and rebound to
    # 3-wide ones, and a GAT layer built 4 wide and rebound to 7, each match
    # the chain oracle fed the new width's scale.
    rng = np.random.default_rng(60)
    layer = init_transformer_layer(Parameters(), "layer", rng, 8, 2, 16)
    layer.wq, layer.wk, layer.wv = (Tensor(rng.standard_normal((2, 8, 3)), requires_grad=True)
                                    for _ in range(3))
    layer.wo = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
    x = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
    valid = np.arange(5) < np.array([[5], [3]])
    mixed = reference_attention(x, layer.wq, layer.wk, layer.wv, layer.wo, valid,
                                1.0 / np.sqrt(3))
    h = layer_norm_node(T.add(x, mixed), layer.ln1_gain, layer.ln1_bias)
    ff = T.add(T.matmul(T.gelu(T.add(T.matmul(h, layer.ff_w1), layer.ff_b1)), layer.ff_w2),
               layer.ff_b2)
    want = layer_norm_node(T.add(h, ff), layer.ln2_gain, layer.ln2_bias)
    got = transformer_layer(x, layer, valid)
    assert got.data.tobytes() == want.data.tobytes()
    leaves = [x, layer.wq, layer.wk, layer.wv, layer.wo]
    assert_same_gradients(got, want, leaves)

    kg = make_kg(n_entities=12, n_relations=3)
    _, gp = make_gnn(kg, d=4, depth=1, seed=61)
    layer = gp.layers[0]
    layer.f_q_w = Tensor(rng.standard_normal((4, 7)), requires_grad=True)
    layer.f_q_b = Tensor(rng.standard_normal(7), requires_grad=True)
    layer.f_k_w = Tensor(rng.standard_normal((8, 7)), requires_grad=True)
    sub = Subgraph(list(range(5)), [True] * 5, [(0, 0, 1), (1, 2, 2), (3, 1, 1), (4, 0, 0)])
    emb = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    leaves = [emb, gp.relation_table, layer.f_q_w, layer.f_q_b, layer.f_k_w, layer.f_m_w,
              layer.f_m_b, layer.f_n_w, layer.f_n_b]
    want = reference_gnn_layer(*leaves, _edge_lists(sub, gp), 1.0 / np.sqrt(7))
    got = gnn_layer(sub, emb, layer, gp)
    assert np.max(np.abs(got.data - want.data)) <= 1e-12 * np.max(np.abs(want.data))
    assert_same_gradients(got, want, leaves)


class TestGraphAttentionNode:
    """``tensor.graph_attention`` against the chain of primitives it replaced."""

    def test_matches_chain_on_criterion_4_subgraphs(self):
        rng = np.random.default_rng(41)
        for trial in range(60):
            assert_matches_chain(*node_inputs(criterion_4_subgraph(rng), trial))

    @pytest.mark.parametrize("n,triplets", [
        (3, [(0, 0, 1)]),                        # node 2 is isolated: self term only
        (4, []),                                 # no triplets at all
        (2, [(0, 0, 1), (0, 1, 1), (0, 0, 1)]),  # parallel and repeated edges
        (3, [(0, 2, 1), (1, 2, 0), (1, 0, 2)]),  # both directions of one relation
    ])
    def test_matches_chain_on_edge_cases(self, n, triplets):
        sub = Subgraph(list(range(n)), [True] * n, triplets)
        leaves, edges, scale = node_inputs(sub, n + len(triplets))
        assert_matches_chain(leaves, edges, scale)
        alpha = T.graph_attention_terms(leaves, edges)[-1]
        np.testing.assert_allclose(np.add.reduceat(alpha, np.flatnonzero(
            np.diff(edges[0], prepend=-1))), 1.0, rtol=0, atol=1e-15)
        alone = [i for i in range(n) if not any(i in (h, t) for h, _, t in triplets)]
        assert alpha[np.isin(edges[0], alone)].tolist() == [1.0] * len(alone)

    def test_passes_finite_differences_on_every_coordinate(self):
        sub = Subgraph(list(range(4)), [True] * 4, [(0, 0, 1), (1, 2, 2), (3, 1, 1)])
        leaves, edges, _ = node_inputs(sub, 50, d=3, attn_width=2)
        probe = T.constant(np.random.default_rng(51).standard_normal((4, 3)))

        def objective():
            return T.tensor_sum(T.mul(T.graph_attention(*leaves, edges), probe))

        grads = T.backward(objective())
        for leaf in leaves:
            numeric = fd_input_grad(lambda _: objective().item(), leaf.data, eps=1e-5)
            np.testing.assert_allclose(grads[leaf], numeric, rtol=1e-6, atol=1e-9)

    def test_overflow_names_the_node(self):
        sub = Subgraph([0, 1], [True, True], [(0, 0, 1)])
        leaves, edges, _ = node_inputs(sub, 52)
        leaves[0].data[0] = 1e160   # finite projections, logits beyond float64
        with pytest.raises(NumericsError, match="graph_attention"):
            T.graph_attention(*leaves, edges)

    @pytest.mark.parametrize("which,shape", [
        (0, (3, 5)),     # x of another width
        (0, (18,)),      # x without a node axis
        (1, (7, 5)),     # relation table of another width
        (2, (6, 4)),     # f_q_w of a width unlike f_k_w
        (3, (6,)),       # f_q_b of the model width
        (4, (6, 5)),     # f_k_w over the node half only
        (5, (12, 5)),    # f_m_w of the attention width
        (6, (1, 6)),     # f_m_b with a row axis
        (7, (6, 5)),     # f_n_w not square
        (8, (5,)),       # f_n_b of the attention width
    ])
    def test_rejects_misshapen_inputs(self, which, shape):
        leaves, edges, _ = node_inputs(Subgraph([0, 1, 2], [True] * 3, [(0, 0, 1)]), 53)
        leaves[which] = Tensor(np.ones(shape))
        with pytest.raises(ValidationError, match="graph_attention shapes"):
            T.graph_attention(*leaves, edges)

    @pytest.mark.parametrize("edit,message", [
        (lambda dst, src, rel: (dst[::-1], src, rel), "sorted runs"),
        (lambda dst, src, rel: (dst[:-1], src[:-1], rel[:-1]), "sorted runs"),
        (lambda dst, src, rel: (dst, src[:-1], rel), "graph_attention edges"),
        (lambda dst, src, rel: (dst, src + 1, rel), "graph_attention edges"),
        (lambda dst, src, rel: (dst, src, rel + 7), "graph_attention edges"),
        (lambda dst, src, rel: (dst, src, -rel), "graph_attention edges"),
    ])
    def test_rejects_malformed_edges(self, edit, message):
        leaves, edges, _ = node_inputs(Subgraph([0, 1, 2], [True] * 3, [(0, 0, 1)]), 54)
        with pytest.raises(ValidationError, match=message):
            T.graph_attention(*leaves, edit(*edges))


class TestGnnLayer:
    def test_isolated_node_self_attention(self):
        kg = make_kg()
        params, gp = make_gnn(kg, depth=1)
        sub = Subgraph([0], [True], [])
        emb = np.random.default_rng(1).standard_normal((1, 4))
        weights = attention_weights(sub, Tensor(emb), gp.layers[0], gp)
        assert len(weights) == 1
        np.testing.assert_allclose(weights[0], [1.0])
        layer = gp.layers[0]
        pair = np.concatenate([emb[0], gp.relation_table.data[0]])
        message = pair @ layer.f_m_w.data + layer.f_m_b.data
        expected = message @ layer.f_n_w.data + layer.f_n_b.data + emb[0]
        out = gnn_layer(sub, Tensor(emb), layer, gp)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_residual_identity_with_zeroed_output_map(self):
        kg = make_kg()
        params, gp = make_gnn(kg, depth=2, seed=2)
        for layer in gp.layers:
            layer.f_n_w.data[...] = 0.0
            layer.f_n_b.data[...] = 0.0
        sub = Subgraph([0, 1, 2], [True, True, False],
                       [(0, 0, 1), (1, 1, 2)])
        emb = np.random.default_rng(3).standard_normal((3, 4))
        out = gnn_encode(sub, Tensor(emb), gp)
        np.testing.assert_array_equal(out.data, emb)

    def test_matches_scalar_oracle_path_graph(self):
        kg = make_kg()
        params, gp = make_gnn(kg, depth=1, seed=4)
        sub = Subgraph([0, 1, 2], [True, False, False],
                       [(0, 0, 1), (1, 1, 2)])
        emb = np.random.default_rng(5).standard_normal((3, 4))
        out = gnn_layer(sub, Tensor(emb), gp.layers[0], gp).data
        expected = scalar_gnn_layer(sub, emb, gp.layers[0], gp)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_matches_scalar_oracle_random_graphs(self):
        kg = make_kg(n_relations=3)
        params, gp = make_gnn(kg, depth=1, seed=6)
        rng = np.random.default_rng(7)
        for trial in range(25):
            n_nodes = int(rng.integers(1, 11))
            n_edges = int(rng.integers(0, max(1, n_nodes * (n_nodes - 1) // 2)))
            sub = random_subgraph(rng, n_nodes, 3, n_edges)
            emb = rng.standard_normal((n_nodes, 4))
            out = gnn_layer(sub, Tensor(emb), gp.layers[0], gp).data
            expected = scalar_gnn_layer(sub, emb, gp.layers[0], gp)
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_attention_rows_sum_to_one(self):
        kg = make_kg(n_relations=3)
        params, gp = make_gnn(kg, depth=1, seed=8)
        rng = np.random.default_rng(9)
        sub = random_subgraph(rng, 7, 3, 9)
        emb = rng.standard_normal((7, 4))
        for w in attention_weights(sub, Tensor(emb), gp.layers[0], gp):
            assert abs(w.sum() - 1.0) < 1e-9

    def test_multi_edges_get_separate_softmax_terms(self):
        kg = make_kg(n_relations=2)
        params, gp = make_gnn(kg, depth=1, seed=10)
        sub = Subgraph([0, 1], [True, True], [(0, 0, 1), (0, 1, 1)])
        emb = np.random.default_rng(11).standard_normal((2, 4))
        weights = attention_weights(sub, Tensor(emb), gp.layers[0], gp)
        assert len(weights[1]) == 3  # self + one term per parallel edge

    def test_unknown_relation_error(self):
        kg = make_kg()
        params, gp = make_gnn(kg, depth=1)
        sub = Subgraph([0, 1], [True, True], [(0, 99, 1)])
        with pytest.raises(ValidationError, match="99"):
            gnn_layer(sub, Tensor(np.zeros((2, 4))), gp.layers[0], gp)


class TestEdgeLists:
    def test_matches_per_node_loop(self):
        kg = make_kg(n_relations=3)
        params, gp = make_gnn(kg, depth=1, seed=20)
        rng = np.random.default_rng(21)
        for trial in range(30):
            parts = []
            for _ in range(int(rng.integers(1, 4))):
                n = int(rng.integers(1, 9))
                parts.append(random_subgraph(
                    rng, n, 3, int(rng.integers(0, n * (n - 1) // 2 + 1))))
            sub = parts[0] if trial % 2 else disjoint_union(parts)[0]
            got = _edge_lists(sub, gp)
            want = reference_edge_lists(sub)
            assert len(got) == 3
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
                assert g.dtype == np.int64


class TestGnnEncode:
    def test_union_equals_each_subgraph_alone(self):
        kg = make_kg(n_relations=3)
        params, gp = make_gnn(kg, depth=2, seed=22)
        rng = np.random.default_rng(23)
        parts = [random_subgraph(rng, 5, 3, 6), Subgraph([4], [True], []),
                 random_subgraph(rng, 3, 3, 0), random_subgraph(rng, 7, 3, 12)]
        union, offsets = disjoint_union(parts)
        assert offsets == [0, 5, 6, 9]
        assert union.num_nodes == 16
        embeddings = [rng.standard_normal((p.num_nodes, 4)) for p in parts]
        out = gnn_encode(union, Tensor(np.vstack(embeddings)), gp).data
        for part, offset, emb in zip(parts, offsets, embeddings):
            alone = gnn_encode(part, Tensor(emb), gp).data
            np.testing.assert_allclose(out[offset:offset + part.num_nodes], alone,
                                       atol=1e-12)

    def test_permutation_equivariance(self):
        kg = make_kg(n_relations=3)
        params, gp = make_gnn(kg, depth=2, seed=12)
        rng = np.random.default_rng(13)
        for trial in range(10):
            n = int(rng.integers(2, 9))
            sub = random_subgraph(rng, n, 3, int(rng.integers(1, 2 * n)))
            emb = rng.standard_normal((n, 4))
            base = gnn_encode(sub, Tensor(emb), gp).data

            perm = rng.permutation(n)
            relabeled = Subgraph([sub.entity_ids[i] for i in perm],
                                 [sub.seed_flags[i] for i in perm],
                                 sorted((int(np.where(perm == h)[0][0]), r,
                                         int(np.where(perm == t)[0][0]))
                                        for h, r, t in sub.triplets_local))
            permuted = gnn_encode(relabeled, Tensor(emb[perm]), gp).data
            np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_locality_after_l_layers(self):
        kg = make_kg(n_relations=1)
        params, gp = make_gnn(kg, depth=1, seed=14)
        # path 0 - 1 - 2 - 3 - 4
        sub = Subgraph(list(range(5)), [True] * 5,
                       [(i, 0, i + 1) for i in range(4)])
        rng = np.random.default_rng(15)
        emb = rng.standard_normal((5, 4))
        base = gnn_encode(sub, Tensor(emb), gp).data
        shifted = emb.copy()
        shifted[4] += 10.0  # outside the 1-hop ball of nodes 0..2
        out = gnn_encode(sub, Tensor(shifted), gp).data
        np.testing.assert_allclose(out[:3], base[:3], atol=1e-12)
        assert np.max(np.abs(out[3:] - base[3:])) > 1e-6

    def test_u64_ids_through_sampling_and_the_gnn(self):
        # Ids up to 2**64 - 1 load; past the graph they travel as dense indices.
        big = 2 ** 64 - 1
        entities = {e: NamedRecord(f"e{e}", f"thing number {e}") for e in (0, 1, 2, big)}
        relations = {0: NamedRecord("r0", "connects via mode 0"),
                     big: NamedRecord("rbig", "connects via the last mode")}
        kg = KnowledgeGraph(entities, relations, [Triplet(0, big, big), Triplet(big, 0, 1),
                                                  Triplet(1, big, 2), Triplet(2, 0, 0)])
        sub = expand_subgraph(kg, [big], per_node_cap=4, seed=0)
        assert sub.entity_ids == [big, 0, 1]
        np.testing.assert_array_equal(sub.triplets_local, [[1, 1, 0], [0, 0, 2]])
        params, gp = make_gnn(kg, depth=2, seed=24)
        out = gnn_encode(sub, Tensor(np.random.default_rng(25).standard_normal((3, 4))), gp)
        assert out.shape == (3, 4) and np.isfinite(out.data).all()
        holdout = holdout_edges(kg, 0.5, seed=0)
        assert len(holdout.held_out) == 2
        assert sorted(holdout.visible + holdout.held_out) == sorted(kg.triplets)

    def test_empty_stack_rejected(self):
        kg = make_kg()
        params, gp = make_gnn(kg, depth=1)
        gp_empty = GnnParams(gp.relation_table, [])
        with pytest.raises(ValidationError):
            gnn_encode(Subgraph([0], [True], []), Tensor(np.zeros((1, 4))),
                       gp_empty)

    def test_empty_subgraph_rejected(self):
        kg = make_kg()
        params, gp = make_gnn(kg, depth=2)
        empty, nothing = Subgraph([], [], []), Tensor(np.zeros((0, 4)))
        with pytest.raises(ValidationError, match="no nodes"):
            gnn_encode(empty, nothing, gp)
        with pytest.raises(ValidationError, match="no nodes"):
            gnn_layer(empty, nothing, gp.layers[0], gp)

    def test_gradient_through_two_layers(self):
        kg = make_kg(n_relations=2)
        params, gp = make_gnn(kg, depth=2, seed=16)
        rng = np.random.default_rng(17)
        sub = random_subgraph(rng, 5, 2, 6)
        emb = rng.standard_normal((5, 4))
        probe = T.constant(rng.standard_normal((5, 4)))

        def objective():
            return T.tensor_sum(T.mul(gnn_encode(sub, Tensor(emb), gp), probe))

        err = T.finite_difference_check(objective, params, eps=1e-4,
                                        sample_count=60, seed=3)
        assert err < 1e-4


class TestRelationEmbedding:
    def test_lookup_consistency_and_direction_independence(self):
        kg = make_kg()
        params, gp = make_gnn(kg, depth=1, seed=18)
        out_row = relation_row(0, DIR_OUT)
        in_row = relation_row(0, DIR_IN)
        assert out_row != in_row
        np.testing.assert_array_equal(forward_relation_rows(gp), [out_row, relation_row(1, DIR_OUT)])
        np.testing.assert_array_equal(gp.relation_table.data[out_row],
                                      gp.relation_table.data[in_row])
        gp.relation_table.data[out_row] += 1.0
        assert not np.array_equal(gp.relation_table.data[out_row],
                                  gp.relation_table.data[in_row])

    def test_description_init_deterministic(self):
        kg = make_kg()
        _, gp1 = make_gnn(kg, seed=19)
        _, gp2 = make_gnn(kg, seed=19)
        np.testing.assert_array_equal(gp1.relation_table.data,
                                      gp2.relation_table.data)
        # same description, same seed, same init row
        kg2 = KnowledgeGraph(kg.entities,
                             {0: kg.relations[0], 1: kg.relations[0]},
                             [Triplet(0, 0, 1), Triplet(1, 1, 2)])
        _, gp3 = make_gnn(kg2, seed=19)
        np.testing.assert_array_equal(
            gp3.relation_table.data[relation_row(0, DIR_OUT)],
            gp3.relation_table.data[relation_row(1, DIR_OUT)])

    def test_unknown_relation(self):
        kg = make_kg()
        _, gp = make_gnn(kg)
        sub = Subgraph([0, 1], [True, True], [(0, 42, 1)])
        with pytest.raises(ValidationError, match="42"):
            gnn_encode(sub, Tensor(np.zeros((2, 4))), gp)
