"""GNN encoder: scalar oracle equivalence, residual identity, equivariance."""

import numpy as np
import pytest

from kgfuse import tensor as T
from kgfuse.errors import ValidationError
from kgfuse.gnn import (GnnParams, _edge_lists, attention_weights, gnn_encode,
                        gnn_layer, init_gnn)
from kgfuse.kg import (DIR_IN, DIR_OUT, KnowledgeGraph, NamedRecord, Subgraph,
                       Triplet, disjoint_union)
from kgfuse.tensor import Parameters, Tensor

from helpers import reference_edge_lists, scalar_gnn_layer


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
            want = reference_edge_lists(sub, gp)
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

    def test_empty_stack_rejected(self):
        kg = make_kg()
        params, gp = make_gnn(kg, depth=1)
        gp_empty = GnnParams(gp.relation_table, gp.relation_rows, [], gp.width)
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
        out_row = gp.relation_rows[(0, DIR_OUT)]
        in_row = gp.relation_rows[(0, DIR_IN)]
        assert out_row != in_row
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
            gp3.relation_table.data[gp3.relation_rows[(0, DIR_OUT)]],
            gp3.relation_table.data[gp3.relation_rows[(1, DIR_OUT)]])

    def test_unknown_relation(self):
        kg = make_kg()
        _, gp = make_gnn(kg)
        sub = Subgraph([0, 1], [True, True], [(0, 42, 1)])
        with pytest.raises(ValidationError, match="42"):
            gnn_encode(sub, Tensor(np.zeros((2, 4))), gp)
