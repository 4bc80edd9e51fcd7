"""Encoders: patchify round trip, transformer layer vs scalar oracle, stacks."""

import numpy as np
import pytest

from kgfuse import tensor as T
from kgfuse.encoders import (EntityParams, entity_encode, init_entity, init_matrix, init_text,
                             init_transformer_layer, init_vision, patchify,
                             project_memory_rows, text_encode,
                             transformer_layer, vision_encode)
from kgfuse.errors import ValidationError
from kgfuse.retriever import EntityMemory
from kgfuse.tensor import Parameters, Tensor

from helpers import (attention_rows, layer_norm_node, reassemble, scalar_transformer_layer,
                     softmax)


def make_layer(seed=0, d=4, heads=2, d_ff=8):
    params = Parameters()
    rng = np.random.default_rng(seed)
    layer = init_transformer_layer(params, "layer", rng, d, heads, d_ff)
    return params, layer


class TestPatchify:
    def test_small_image_arithmetic(self):
        image = np.arange(64, dtype=float).reshape(8, 8, 1)
        seq = patchify(image, 4)
        assert seq.patches.shape == (4, 16)
        assert seq.count == 4

    def test_constant_image_identical_patches(self):
        seq = patchify(np.full((8, 8, 2), 3.0), 4)
        assert np.all(seq.patches == seq.patches[0])

    def test_reassembly_roundtrip(self):
        image = np.random.default_rng(1).standard_normal((16, 16, 3))
        seq = patchify(image, 8)
        np.testing.assert_array_equal(reassemble(seq.patches, (2, 2), 8, 3), image)

    def test_row_major_order(self):
        image = np.zeros((8, 8, 1))
        image[0:4, 4:8, 0] = 5.0  # top-right patch
        seq = patchify(image, 4)
        assert np.all(seq.patches[1] == 5.0)
        assert np.all(seq.patches[0] == 0.0)

    def test_batch_of_images_patchifies_each_alone(self):
        images = np.random.default_rng(2).standard_normal((2, 3, 8, 12, 2))
        batch = patchify(images, 4)
        assert batch.patches.shape == (2, 3, 6, 32) and batch.count == 6
        for index in np.ndindex(2, 3):
            np.testing.assert_array_equal(batch.patches[index],
                                          patchify(images[index], 4).patches)

    def test_indivisible_dimensions_error(self):
        with pytest.raises(ValidationError, match="9x8.*4"):
            patchify(np.zeros((9, 8, 1)), 4)


class TestTransformerLayer:
    def test_attention_rows_sum_to_one(self):
        _, layer = make_layer(seed=2)
        x = T.Tensor(np.random.default_rng(3).standard_normal((5, 4)))
        for rows in attention_rows(x, layer):
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_stacked_heads_keep_the_per_head_draw_order(self):
        d, heads = 6, 3
        params, layer = make_layer(seed=1, d=d, heads=heads)
        # Four attention tensors, then four feed-forward and four LayerNorm ones.
        assert params.names()[:4] == ["layer.wq", "layer.wk", "layer.wv", "layer.wo"]
        assert len(params) == 12
        assert layer.wq.shape == layer.wk.shape == layer.wv.shape == (heads, d, d // heads)
        assert layer.wo.shape == (heads, d // heads, d)
        rng = np.random.default_rng(1)
        for m in range(heads):
            for stacked in (layer.wq, layer.wk, layer.wv, layer.wo):
                np.testing.assert_array_equal(
                    stacked.data[m], init_matrix(rng, *stacked.shape[1:]))

    def test_zeroed_mixers_reduce_to_double_layernorm(self):
        _, layer = make_layer(seed=4)
        layer.wo.data[...] = 0.0
        layer.ff_w2.data[...] = 0.0
        layer.ff_b2.data[...] = 0.0
        x_val = np.random.default_rng(5).standard_normal((3, 4))
        out = transformer_layer(T.Tensor(x_val), layer).data
        expected = layer_norm_node(
            layer_norm_node(T.Tensor(x_val), layer.ln1_gain, layer.ln1_bias),
            layer.ln2_gain, layer.ln2_bias).data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_scalar_oracle(self):
        for seed in range(5):
            _, layer = make_layer(seed=seed)
            x_val = np.random.default_rng(100 + seed).standard_normal((3, 4))
            out = transformer_layer(T.Tensor(x_val), layer).data
            expected = scalar_transformer_layer(x_val, layer)
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_width_mismatch(self):
        _, layer = make_layer()
        with pytest.raises(ValidationError):
            transformer_layer(T.Tensor(np.zeros((3, 5))), layer)

    def test_padding_mask_matches_unpadded(self):
        _, layer = make_layer(seed=6)
        x_val = np.random.default_rng(7).standard_normal((4, 4))
        unpadded = transformer_layer(T.Tensor(x_val), layer).data
        padded_input = np.vstack([x_val, np.full((2, 4), 9.9)])
        mask = np.array([True, True, True, True, False, False])
        padded = transformer_layer(T.Tensor(padded_input), layer,
                                   valid_mask=mask).data
        np.testing.assert_allclose(padded[:4], unpadded, atol=1e-12)

        # A (B, L) batch with a different padding length per sequence.
        rng = np.random.default_rng(8)
        lengths = [6, 2, 4]
        batch = np.full((3, 6, 4), 9.9)
        singles = []
        for b, n in enumerate(lengths):
            singles.append(rng.standard_normal((n, 4)))
            batch[b, :n] = singles[-1]
        valid = np.arange(6) < np.array(lengths)[:, None]
        out = transformer_layer(T.Tensor(batch), layer, valid_mask=valid).data
        for b, single in enumerate(singles):
            np.testing.assert_allclose(
                out[b, :lengths[b]], transformer_layer(T.Tensor(single), layer).data,
                atol=1e-12)
        with pytest.raises(ValidationError, match="valid_mask"):
            transformer_layer(T.Tensor(batch), layer, valid_mask=valid[0])

    def test_gradients_pass_fd(self):
        params, layer = make_layer(seed=8)
        rng = np.random.default_rng(9)
        x_val = rng.standard_normal((3, 4))
        # A random linear probe: sum of squares of a LayerNorm output is
        # nearly parameter-invariant and would leave only degenerate
        # gradients to check.
        probe = T.constant(rng.standard_normal((3, 4)))

        def objective():
            return T.tensor_sum(T.mul(
                transformer_layer(T.Tensor(x_val), layer), probe))

        err = T.finite_difference_check(objective, params, eps=1e-4,
                                        sample_count=40, seed=0)
        assert err < 1e-4


class TestVisionEncode:
    def _setup(self, depth=1, seed=10):
        params = Parameters()
        rng = np.random.default_rng(seed)
        vp = init_vision(params, rng, patch_dim=16, n_patches=4, d=8, d_e=6,
                         depth=depth, heads=2, d_ff=16)
        image = np.random.default_rng(seed + 1).standard_normal((8, 8, 1))
        return params, vp, patchify(image, 4)

    def test_output_shapes(self):
        _, vp, seq = self._setup()
        x, queries = vision_encode(seq.patches, vp)
        assert x.shape == (4, 8)
        assert queries.shape == (4, 6)

    def test_zero_layer_stack_is_projection(self):
        params = Parameters()
        rng = np.random.default_rng(11)
        vp = init_vision(params, rng, 16, 4, 8, 6, depth=0, heads=2, d_ff=16)
        seq = patchify(np.random.default_rng(12).standard_normal((8, 8, 1)), 4)
        x, queries = vision_encode(seq.patches, vp)
        expected = seq.patches @ vp.patch_w.data + vp.patch_b.data + vp.pos.data
        np.testing.assert_allclose(x.data, expected, atol=1e-12)
        np.testing.assert_allclose(
            queries.data, expected @ vp.retrieval_w.data + vp.retrieval_b.data,
            atol=1e-12)

    def test_mask_substitution_hides_content(self):
        _, vp, seq = self._setup(depth=0)
        masked = np.array([False, True, False, False])
        x_masked, _ = vision_encode(seq.patches, vp, masked)
        tampered = seq.patches.copy()
        tampered[1] = 123.0
        x_tampered, _ = vision_encode(tampered, vp, masked)
        np.testing.assert_array_equal(x_masked.data, x_tampered.data)
        # unmasked rows are untouched by masking
        x_plain, _ = vision_encode(seq.patches, vp)
        np.testing.assert_array_equal(x_masked.data[[0, 2, 3]],
                                      x_plain.data[[0, 2, 3]])

    def test_batch_equals_each_image_alone(self):
        _, vp, seq = self._setup(depth=2)
        images = np.random.default_rng(13).standard_normal((3, 8, 8, 1))
        batch = patchify(images, 4).patches
        masked = np.array([[False, True, False, False], [False] * 4,
                           [True, False, False, True]])
        x, queries = vision_encode(batch, vp, masked)
        assert x.shape == (3, 4, 8) and queries.shape == (3, 4, 6)
        for b in range(3):
            x_one, q_one = vision_encode(batch[b], vp, masked[b])
            np.testing.assert_allclose(x.data[b], x_one.data, atol=1e-12)
            np.testing.assert_allclose(queries.data[b], q_one.data, atol=1e-12)

    def test_projection_gradient_passes_fd(self):
        params, vp, seq = self._setup(depth=1)

        def objective():
            _, queries = vision_encode(seq.patches, vp)
            return T.tensor_sum(T.power(queries, 2.0))

        err = T.finite_difference_check(objective, params, eps=1e-4,
                                        sample_count=40, seed=1)
        assert err < 1e-4


class TestTextEncode:
    def _setup(self, depth=1, seed=20):
        params = Parameters()
        rng = np.random.default_rng(seed)
        tp = init_text(params, rng, vocab=50, max_len=10, d=8, depth=depth,
                       heads=2, d_ff=16)
        return params, tp

    def test_cls_only(self):
        _, tp = self._setup()
        out = text_encode([0], tp)
        assert out.shape == (1, 8)

    def test_permutation_equivariance_without_positions(self):
        _, tp = self._setup(depth=2)
        tp.pos.data[...] = 0.0
        tokens = [0, 5, 9, 14, 3]
        base = text_encode(tokens, tp).data
        perm = [0, 3, 14, 5, 9]  # the same non-CLS tokens, reordered
        permuted = text_encode(perm, tp).data
        # token 5 moved to position 3, 9 to 4, 14 to 2, 3 to 1
        np.testing.assert_allclose(permuted[[0, 3, 4, 2, 1]], base, atol=1e-12)

    def test_matches_scalar_oracle(self):
        _, tp = self._setup(depth=1, seed=21)
        tokens = [0, 7, 7, 2]
        out = text_encode(tokens, tp).data
        x0 = tp.token_embed.data[tokens] + tp.pos.data[:4]
        expected = scalar_transformer_layer(x0, tp.layers[0])
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_padded_batch_equals_each_sequence_alone(self):
        _, tp = self._setup(depth=2, seed=22)
        sequences = [[0, 4, 8, 15, 16], [0, 23], [0, 42, 42]]
        valid = np.arange(5) < np.array([len(t) for t in sequences])[:, None]
        tokens = np.zeros((3, 5), dtype=np.int64)
        tokens[valid] = np.concatenate(sequences)
        out = text_encode(tokens, tp, valid).data
        for b, one in enumerate(sequences):
            np.testing.assert_allclose(out[b, :len(one)], text_encode(one, tp).data,
                                       atol=1e-12)

    def test_vocabulary_and_length_errors(self):
        _, tp = self._setup()
        with pytest.raises(ValidationError):
            text_encode([0, 51], tp)
        with pytest.raises(ValidationError):
            text_encode([0] * 12, tp)


class TestEntityEncode:
    def _memory(self):
        rows = np.random.default_rng(30).standard_normal((5, 4))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        return EntityMemory([10, 11, 12, 13, 14], rows, 4)

    def test_uniform_weights_identity_projection(self):
        memory = self._memory()
        ep = EntityParams(proj_w=Tensor(np.eye(4)), proj_b=Tensor(np.zeros(4)))
        weights = T.Tensor(np.full(4, 0.25))
        out = entity_encode([0, 1, 2, 3], memory, weights, ep)
        np.testing.assert_allclose(out.data, memory.matrix[:4] / 4.0, atol=1e-12)

    def test_zero_weight_zero_embedding(self):
        memory = self._memory()
        ep = EntityParams(proj_w=Tensor(np.eye(4)), proj_b=Tensor(np.zeros(4)))
        out = entity_encode([0, 1], memory, T.Tensor([0.0, 1.0]), ep)
        np.testing.assert_array_equal(out.data[0], np.zeros(4))

    def test_row_outside_memory_error(self):
        memory = self._memory()
        params = Parameters()
        ep = init_entity(params, np.random.default_rng(31), 4, 8)
        # A negative row would wrap to the end of the memory without the check.
        for row in (5, -1):
            with pytest.raises(ValidationError, match=f"memory row {row} outside"):
                project_memory_rows([0, row], memory, ep)

    def test_gradient_through_weights_passes_fd(self):
        memory = self._memory()
        params = Parameters()
        ep = init_entity(params, np.random.default_rng(32), 4, 8)
        raw = params.add("raw_scores", Tensor(np.array([0.3, -0.2, 0.9])))

        def objective():
            weights = softmax(raw, axis=0)
            emb = entity_encode([0, 2, 4], memory, weights, ep)
            return T.tensor_sum(T.power(emb, 2.0))

        err = T.finite_difference_check(objective, params, eps=1e-4,
                                        sample_count=30, seed=2)
        assert err < 1e-4
