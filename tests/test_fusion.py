"""Fusion: layout invariants, dense cross-attention, prediction heads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgfuse import tensor as T
from kgfuse.errors import ValidationError
from kgfuse.fusion import (TYPE_ENTITY, TYPE_SPECIAL, TYPE_TEXTUAL,
                           TYPE_VISUAL, assemble, fuse, heads, init_fusion,
                           init_heads)
from kgfuse.tensor import Parameters, Tensor

from helpers import scalar_transformer_layer


def make_fusion(d=4, depth=1, seed=0, vocab=11, patch_dim=6):
    params = Parameters()
    rng = np.random.default_rng(seed)
    fp = init_fusion(params, rng, d, depth, heads=2, d_ff=8)
    hp = init_heads(params, rng, d, vocab, patch_dim)
    return params, fp, hp


def random_inputs(rng, n, n_tok, k, d=4):
    patches = Tensor(rng.standard_normal((n, d)))
    tokens = Tensor(rng.standard_normal((n_tok, d)))
    entities = Tensor(rng.standard_normal((k, d))) if k else None
    return patches, tokens, entities


class TestAssemble:
    def test_layout_arithmetic(self):
        # 4 patches, 4 token rows (CLS + 3), 2 entities:
        # L = 1 + 4 + 1 + 4 + 1 + 2 = 13
        _, fp, _ = make_fusion()
        rng = np.random.default_rng(1)
        seq = assemble(*random_inputs(rng, 4, 4, 2), fp)
        assert seq.elements.shape == (13, 4)
        expected_tags = ([TYPE_SPECIAL] + [TYPE_VISUAL] * 4 + [TYPE_SPECIAL]
                         + [TYPE_TEXTUAL] * 4 + [TYPE_SPECIAL] + [TYPE_ENTITY] * 2)
        assert seq.segment_types.tolist() == expected_tags
        assert seq.spans.visual == (1, 5)
        assert seq.spans.textual == (6, 10)
        assert seq.spans.entity == (11, 13)

    def test_zero_entities_keeps_trailing_sep(self):
        _, fp, _ = make_fusion()
        rng = np.random.default_rng(2)
        seq = assemble(*random_inputs(rng, 2, 3, 0), fp)
        assert seq.elements.shape == (8, 4)
        assert seq.segment_types[-1] == TYPE_SPECIAL
        assert seq.spans.entity == (8, 8)

    def test_type_embeddings_added_per_segment(self):
        _, fp, _ = make_fusion(seed=3)
        rng = np.random.default_rng(4)
        patches, tokens, entities = random_inputs(rng, 3, 2, 2)
        seq = assemble(patches, tokens, entities, fp)
        table = fp.type_table.data
        lo, hi = seq.spans.visual
        np.testing.assert_allclose(
            seq.elements.data[lo:hi] - patches.data,
            np.tile(table[TYPE_VISUAL], (3, 1)), atol=1e-12)
        lo, hi = seq.spans.entity
        np.testing.assert_allclose(
            seq.elements.data[lo:hi] - entities.data,
            np.tile(table[TYPE_ENTITY], (2, 1)), atol=1e-12)
        np.testing.assert_allclose(
            seq.elements.data[0] - fp.cls_vec.data, table[TYPE_SPECIAL],
            atol=1e-12)

    def test_width_mismatch(self):
        _, fp, _ = make_fusion()
        with pytest.raises(ValidationError):
            assemble(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 4))),
                     None, fp)

    @given(n=st.integers(1, 8), n_tok=st.integers(1, 8), k=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_layout_invariant_over_random_sizes(self, n, n_tok, k):
        _, fp, _ = make_fusion()
        rng = np.random.default_rng(5)
        seq = assemble(*random_inputs(rng, n, n_tok, k), fp)
        tags = seq.segment_types
        assert seq.elements.shape[0] == 1 + n + 1 + n_tok + 1 + k
        assert tags[0] == TYPE_SPECIAL
        assert tags[seq.spans.sep1] == TYPE_SPECIAL
        assert tags[seq.spans.sep2] == TYPE_SPECIAL
        assert all(tags[i] == TYPE_VISUAL for i in range(*seq.spans.visual))
        assert all(tags[i] == TYPE_TEXTUAL for i in range(*seq.spans.textual))
        assert all(tags[i] == TYPE_ENTITY for i in range(*seq.spans.entity))


class TestFuse:
    def test_zeroed_mixers_layernorm_cascade(self):
        _, fp, _ = make_fusion(seed=6)
        layer = fp.layers[0]
        layer.wo.data[...] = 0.0
        layer.ff_w2.data[...] = 0.0
        rng = np.random.default_rng(7)
        seq = assemble(*random_inputs(rng, 2, 2, 1), fp)
        out = fuse(seq, fp).data
        expected = T.layer_norm(
            T.layer_norm(seq.elements, layer.ln1_gain, layer.ln1_bias),
            layer.ln2_gain, layer.ln2_bias).data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_entity_perturbation_reaches_text_positions(self):
        _, fp, _ = make_fusion(seed=8)
        rng = np.random.default_rng(9)
        patches, tokens, entities = random_inputs(rng, 3, 3, 2)
        base = fuse(assemble(patches, tokens, entities, fp), fp).data
        bumped = Tensor(entities.data + 0.5)
        out = fuse(assemble(patches, tokens, bumped, fp), fp).data
        lo, hi = (6, 9)
        assert np.max(np.abs(out[lo:hi] - base[lo:hi])) > 1e-8

    def test_matches_scalar_transformer_oracle(self):
        _, fp, _ = make_fusion(seed=10)
        rng = np.random.default_rng(11)
        seq = assemble(*random_inputs(rng, 2, 1, 1), fp)  # L = 6
        out = fuse(seq, fp).data
        expected = scalar_transformer_layer(seq.elements.data, fp.layers[0])
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_full_attention_reachability(self):
        _, fp, _ = make_fusion(seed=12)
        rng = np.random.default_rng(13)
        patches, tokens, entities = random_inputs(rng, 2, 2, 2)
        base = fuse(assemble(patches, tokens, entities, fp), fp).data
        for kind in range(3):
            inputs = [Tensor(patches.data.copy()), Tensor(tokens.data.copy()),
                      Tensor(entities.data.copy())]
            inputs[kind].data[0, 0] += 1e-3
            out = fuse(assemble(*inputs, fp), fp).data
            assert np.all(np.max(np.abs(out - base), axis=1) > 0)

    def test_padded_batch_equals_unbatched(self):
        _, fp, _ = make_fusion(seed=14, d=4)
        rng = np.random.default_rng(15)
        patches, tokens, entities = random_inputs(rng, 2, 2, 1)
        seq = assemble(patches, tokens, entities, fp)
        base = fuse(seq, fp).data
        length = seq.elements.shape[0]
        padded_elements = T.concat(
            [seq.elements, T.constant(np.full((3, 4), 7.7))], axis=0)
        mask = np.array([True] * length + [False] * 3)
        padded_seq = type(seq)(padded_elements, seq.segment_types, seq.spans, mask)
        padded = fuse(padded_seq, fp).data
        np.testing.assert_allclose(padded[:length], base, atol=1e-12)

        # A (B, L) batch: unequal token and entity counts share one layout.
        counts = [(3, 2), (1, 0), (2, 1)]  # (tokens, entities) per example
        singles = [random_inputs(rng, 2, n_tok, k) for n_tok, k in counts]
        n_tok, k = 3, 2

        def filled(part, width):  # one example's rows, then 9.9 up to width
            data = np.zeros((0, 4)) if part is None else part.data
            return np.vstack([data, np.full((width - len(data), 4), 9.9)])

        stacked = [Tensor(np.stack([filled(one[i], width) for one in singles]))
                   for i, width in enumerate((2, n_tok, k))]
        token_valid = np.arange(n_tok) < np.array([c[0] for c in counts])[:, None]
        entity_valid = np.arange(k) < np.array([c[1] for c in counts])[:, None]
        batch = assemble(*stacked, fp, token_valid, entity_valid)
        assert batch.valid.shape == (3, 1 + 2 + 1 + n_tok + 1 + k)
        hidden = fuse(batch, fp).data
        for b, one in enumerate(singles):
            single = assemble(*one, fp)
            expected = fuse(single, fp).data
            rows = np.flatnonzero(batch.valid[b])
            assert len(rows) == single.elements.shape[0]
            np.testing.assert_allclose(hidden[b, rows], expected, atol=1e-12)


class TestHeads:
    def test_no_masks_empty_logits_with_cls(self):
        _, fp, hp = make_fusion(seed=16)
        rng = np.random.default_rng(17)
        seq = assemble(*random_inputs(rng, 3, 3, 1), fp)
        hidden = fuse(seq, fp)
        out = heads(hidden, seq, [[]], [[]], hp)
        assert out.mlm_logits.shape == (0, 11)
        assert out.mvm_pred.shape == (0, 6)

    def test_mlm_rows_softmax_normalized(self):
        _, fp, hp = make_fusion(seed=18)
        rng = np.random.default_rng(19)
        seq = assemble(*random_inputs(rng, 3, 4, 1), fp)
        out = heads(fuse(seq, fp), seq, [[0, 2]], [[1]], hp)
        probs = T.softmax(out.mlm_logits, axis=1).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert out.mlm_logits.shape == (2, 11)
        assert out.mvm_pred.shape == (1, 6)

    def test_out_of_segment_positions_error(self):
        _, fp, hp = make_fusion(seed=20)
        rng = np.random.default_rng(21)
        seq = assemble(*random_inputs(rng, 3, 2, 1), fp)
        hidden = fuse(seq, fp)
        with pytest.raises(ValidationError, match="token position"):
            heads(hidden, seq, [[2]], [[]], hp)
        with pytest.raises(ValidationError, match="patch position"):
            heads(hidden, seq, [[]], [[3]], hp)

    def test_batch_rows_run_example_by_example(self):
        _, fp, hp = make_fusion(seed=24)
        rng = np.random.default_rng(25)
        patches = Tensor(rng.standard_normal((2, 3, 4)))
        tokens = Tensor(rng.standard_normal((2, 4, 4)))
        entities = Tensor(rng.standard_normal((2, 1, 4)))
        token_valid = np.array([[True] * 4, [True, True, False, False]])
        seq = assemble(patches, tokens, entities, fp, token_valid)
        hidden = fuse(seq, fp)
        out = heads(hidden, seq, [[1, 3], [1]], [[0], [2]], hp)
        length = seq.elements.shape[1]
        flat = hidden.data.reshape(2 * length, 4)
        tok_rows = [seq.spans.textual[0] + p for p in (1, 3)] + [length + seq.spans.textual[0] + 1]
        patch_rows = [seq.spans.visual[0], length + seq.spans.visual[0] + 2]
        np.testing.assert_allclose(
            out.mlm_logits.data, flat[tok_rows] @ hp.mlm_w.data + hp.mlm_b.data, atol=1e-12)
        np.testing.assert_allclose(
            out.mvm_pred.data, flat[patch_rows] @ hp.mvm_w.data + hp.mvm_b.data, atol=1e-12)
        with pytest.raises(ValidationError, match="token position 2"):
            heads(hidden, seq, [[], [2]], [[], []], hp)  # a padding slot
        with pytest.raises(ValidationError, match="one list per example"):
            heads(hidden, seq, [[1]], [[0]], hp)

    def test_head_gradients_pass_fd(self):
        params, fp, hp = make_fusion(seed=22)
        rng = np.random.default_rng(23)
        patches, tokens, entities = random_inputs(rng, 2, 2, 1)
        probe_l = T.constant(rng.standard_normal((1, 11)))
        probe_p = T.constant(rng.standard_normal((1, 6)))

        def objective():
            seq = assemble(patches, tokens, entities, fp)
            out = heads(fuse(seq, fp), seq, [[1]], [[0]], hp)
            return T.add(T.tensor_sum(T.mul(out.mlm_logits, probe_l)),
                         T.tensor_sum(T.mul(out.mvm_pred, probe_p)))

        err = T.finite_difference_check(objective, params, eps=1e-4,
                                        sample_count=50, seed=4)
        assert err < 1e-4
