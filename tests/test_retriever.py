"""Retriever: description embeddings, entity memory, scoring, top-k selection."""

import numpy as np
import pytest

from kgfuse import tensor as T
from kgfuse.config import Config
from kgfuse.data import generate_corpus
from kgfuse.errors import ValidationError
from kgfuse.retriever import (EntityMemory, build_memory, embed_description,
                              relevance_weights, retrieve, retrieve_from_scores,
                              score_patches)

from helpers import (exhaustive_retrieve, fd_input_grad, reference_embed_description,
                     reference_retrieve_from_scores)


def random_memory(rng, count, d_e) -> EntityMemory:
    rows = rng.standard_normal((count, d_e))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    ids = sorted(rng.choice(10 * count, size=count, replace=False).tolist())
    return EntityMemory(ids, rows, d_e)


class TestEmbedDescription:
    def test_deterministic(self):
        a = embed_description("a red fox in the snow", 16, seed=3)
        b = embed_description("a red fox in the snow", 16, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self):
        for text in ("", "x", "some longer description with words"):
            vec = embed_description(text, 12, seed=0)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_unrelated_descriptions_decorrelate(self):
        rng = np.random.default_rng(8)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz "))
        worst = 0.0
        for _ in range(1000):
            t1 = "".join(rng.choice(letters, size=30))
            t2 = "".join(rng.choice(letters, size=30))
            if t1 == t2:
                continue
            v1 = embed_description(t1, 32, seed=1)
            v2 = embed_description(t2, 32, seed=1)
            worst = max(worst, abs(float(v1 @ v2)))
        assert worst < 0.95  # distinct texts never collapse onto one ray
        # and typical pairs are far less aligned than that
        v1 = embed_description("volcanic island chain", 32, seed=1)
        v2 = embed_description("medieval trade routes", 32, seed=1)
        assert abs(float(v1 @ v2)) < 0.5

    def test_empty_text_uses_fallback_bucket(self):
        a = embed_description("", 8, seed=5)
        b = embed_description("ab", 8, seed=5)  # below trigram length
        np.testing.assert_array_equal(a, b)

    def test_equals_the_per_bucket_sum(self):
        # Long texts repeat trigrams; non-ASCII ones hash multi-byte UTF-8,
        # and "İ" lowercases to two characters.
        rng = np.random.default_rng(11)
        alphabet = np.array(list("abcdefgh ÄéßΣς中文😀İ"))
        texts = ["", "ab", "abc", "Σίσυφος", "İstanbul", "x" * 6000]
        texts += ["".join(rng.choice(alphabet, size=n)) for n in (40, 600, 6000)]
        for text in texts:
            for d_e in (2, 16, 33):
                got = embed_description(text, d_e, seed=4)
                assert got.tobytes() == reference_embed_description(text, d_e, 4).tobytes()


class TestMemoryIO:
    def test_build_shape(self):
        corpus = generate_corpus(Config(corpus_examples=2), seed=1)
        memory = build_memory(corpus.kg, 16, seed=1)
        assert memory.matrix.shape == (200, 16)
        assert memory.ids == corpus.kg.entity_ids()

    def test_ids_must_be_strictly_ascending(self):
        rows = np.eye(3)
        # The last pair descends by 2**64 - 1, which wraps to 1 in uint64.
        for ids in ([11, 3, 7], [3, 7, 7], [3, 3, 7], [0, 2**64 - 1, 0]):
            with pytest.raises(ValidationError, match="strictly ascending"):
                EntityMemory(ids, rows, 3)
        assert EntityMemory([0, 2**63, 2**64 - 1], rows, 3).ids == [0, 2**63, 2**64 - 1]

    def test_nan_row_rejected(self):
        rows = np.eye(3)
        rows[1] = np.nan
        with pytest.raises(ValidationError, match="unit-normalized"):
            EntityMemory([1, 2, 3], rows, 3)


class TestScorePatches:
    def test_orthogonal_patch_zero_row(self):
        memory = EntityMemory([1, 2], np.array([[1.0, 0.0], [0.0, 1.0]]), 2)
        scores = score_patches(np.array([[0.0, 0.0]]), memory)
        np.testing.assert_array_equal(scores.data, [[0.0, 0.0]])

    def test_identity_patch_scores_one(self):
        memory = random_memory(np.random.default_rng(5), 6, 4)
        scores = score_patches(memory.matrix[3:4], memory)
        assert abs(scores.data[0, 3] - 1.0) < 1e-12

    def test_matches_double_loop(self):
        rng = np.random.default_rng(6)
        memory = random_memory(rng, 10, 5)
        patches = rng.standard_normal((4, 5))
        scores = score_patches(patches, memory).data
        for i in range(4):
            for j in range(10):
                expected = sum(float(patches[i, c]) * float(memory.matrix[j, c])
                               for c in range(5))
                assert abs(scores[i, j] - expected) < 1e-12

    def test_width_mismatch(self):
        memory = random_memory(np.random.default_rng(7), 4, 6)
        with pytest.raises(ValidationError):
            score_patches(np.ones((2, 5)), memory)

    def test_differentiable_wrt_patches(self):
        rng = np.random.default_rng(8)
        memory = random_memory(rng, 6, 4)
        patches = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        grads = T.backward(T.tensor_sum(score_patches(patches, memory)))
        np.testing.assert_allclose(grads[patches],
                                   np.tile(memory.matrix.sum(axis=0), (3, 1)))


class TestRetrieve:
    def test_matches_bruteforce_small(self):
        rng = np.random.default_rng(9)
        memory = random_memory(rng, 5, 3)
        patches = rng.standard_normal((1, 3))
        result = retrieve(patches, memory, k_per_patch=3, k_final=3)
        expected = exhaustive_retrieve(patches @ memory.matrix.T, memory.ids, 3, 3)
        assert result.entries == expected

    def test_equal_scores_tie_to_smallest_ids(self):
        memory = EntityMemory([3, 5, 7, 11], np.eye(4), 4)
        scores = np.zeros((1, 2, 4))
        result = retrieve_from_scores(scores, memory, k_per_patch=4, k_final=3)
        assert result.ids == [3, 5, 7]

    def test_dedup_keeps_max_score(self):
        memory = EntityMemory([1, 2], np.array([[1.0, 0.0], [0.0, 1.0]]), 2)
        scores = np.array([[[0.9, 0.1], [0.4, 0.8]]])
        result = retrieve_from_scores(scores, memory, k_per_patch=2, k_final=2)
        assert result.entries == [(1, 0.9), (2, 0.8)]
        assert result.patch.tolist() == [0, 1] and result.column.tolist() == [0, 1]

    def test_non_finite_queries_rejected(self):
        memory = random_memory(np.random.default_rng(15), 4, 3)
        with pytest.raises(ValidationError, match="NaN or Inf"):
            retrieve(np.full((2, 3), np.nan), memory, 1, 1)

    def test_non_finite_scores_rejected(self):
        # Unchecked, a NaN would cost its patch one of its k picks, and +inf
        # would come back as a retrieval score.
        memory = random_memory(np.random.default_rng(16), 3, 3)
        for bad in (np.nan, np.inf, -np.inf):
            scores = np.array([[[0.5, bad, 0.2]]])
            with pytest.raises(ValidationError, match="scores must be finite"):
                retrieve_from_scores(scores, memory, k_per_patch=2, k_final=2)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            n_entities = int(rng.integers(2, 60))
            n_patches = int(rng.integers(1, 9))
            memory = random_memory(rng, n_entities, 4)
            patches = rng.standard_normal((n_patches, 4))
            k = int(rng.integers(1, 6))
            k_final = int(rng.integers(1, 10))
            result = retrieve(patches, memory, k, k_final)
            expected = exhaustive_retrieve(patches @ memory.matrix.T,
                                           memory.ids, k, k_final)
            assert result.ids == [e for e, _ in expected]
            for (_, got), (_, want) in zip(result.entries, expected):
                assert abs(got - want) <= 1e-12

    def test_scale_invariance_of_ranking(self):
        rng = np.random.default_rng(11)
        memory = random_memory(rng, 30, 6)
        patches = rng.standard_normal((5, 6))
        base = retrieve(patches, memory, 4, 8)
        scaled = retrieve(3.7 * patches, memory, 4, 8)
        assert base.ids == scaled.ids

    def test_empty_memory_rejected(self):
        memory = EntityMemory([], np.zeros((0, 3)), 3)
        with pytest.raises(ValidationError):
            retrieve(np.ones((1, 3)), memory, 1, 1)


def assert_matches_oracle(scores, memory, k_per_patch, k_final):
    """Every example of the batched selection equals the exhaustive oracle."""
    found = retrieve_from_scores(scores, memory, k_per_patch, k_final)
    assert np.all(np.diff(found.example) >= 0)
    for b, ids in enumerate(found.per_example()):
        entries, sources = exhaustive_retrieve(scores[b], memory.ids, k_per_patch,
                                               k_final, with_sources=True)
        mine = found.example == b
        assert ids == [e for e, _ in entries]
        assert found.scores[mine].tolist() == [s for _, s in entries]
        assert list(zip(found.patch[mine].tolist(), found.column[mine].tolist())) == sources
    assert len(found.per_example()) == scores.shape[0]
    return found


class TestBatchedSelection:
    def test_random_batches_match_oracle(self):
        rng = np.random.default_rng(16)
        for trial in range(60):
            memory = random_memory(rng, int(rng.integers(1, 40)), 4)
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 7)), len(memory))
            scores = rng.standard_normal(shape)
            if trial % 2:  # coarse values force ties within and across patches
                scores = np.round(scores, 1)
            assert_matches_oracle(scores, memory, int(rng.integers(1, 6)),
                                  int(rng.integers(1, 12)))

    def test_all_tied_scores(self):
        memory = random_memory(np.random.default_rng(17), 9, 3)
        found = assert_matches_oracle(np.ones((3, 4, 9)), memory, 2, 5)
        # Every patch picks the same two lowest ids, from the first patch.
        assert found.per_example() == [sorted(memory.ids)[:2]] * 3
        assert np.all(found.patch == 0)

    def test_short_pools_give_each_example_its_own_count(self):
        # Two patches pick two entities each, so no pool reaches k_final = 6;
        # the pools overlap in 0, 2 and 1 entities.
        memory = random_memory(np.random.default_rng(19), 6, 3)
        scores = np.zeros((3, 2, 6))
        scores[:, 0, :2] = [6.0, 5.0]
        scores[0, 1, 2:4] = scores[1, 1, :2] = scores[2, 1, 1:3] = [6.0, 5.0]
        found = assert_matches_oracle(scores, memory, 2, 6)
        assert [len(ids) for ids in found.per_example()] == [4, 2, 3]

    def test_equals_stable_sort_reference(self):
        # 300 batches with ties forced by rounding (and signed zeros);
        # k_final exceeds every pool, so all pooled entities are returned and
        # compared.
        rng = np.random.default_rng(23)
        for trial in range(300):
            n = int(rng.integers(1, 30))
            memory = random_memory(rng, n, 3)
            scores = np.round(rng.standard_normal(
                (int(rng.integers(1, 5)), int(rng.integers(1, 7)), n)), trial % 3)
            for k in sorted({1, 4, n}):
                want = reference_retrieve_from_scores(scores, memory, k, n + 1)
                got = retrieve_from_scores(scores, memory, k, n + 1)
                for field in ("example", "patch", "column", "scores"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
                assert got.ids == want.ids

    def test_rejects_bad_shapes_and_k(self):
        memory = random_memory(np.random.default_rng(21), 5, 3)
        for bad in (np.zeros((2, 5)), np.zeros((1, 2, 4)), np.zeros((1, 0, 5))):
            with pytest.raises(ValidationError):
                retrieve_from_scores(bad, memory, 1, 1)
        with pytest.raises(ValidationError):
            retrieve_from_scores(np.zeros((1, 2, 5)), memory, 0, 1)


class TestRelevanceWeights:
    def test_equal_scores_uniform(self):
        w = relevance_weights(T.Tensor(np.zeros(4)), [0] * 4, temperature=1.0)
        np.testing.assert_allclose(w.data, [0.25] * 4, atol=1e-15)

    def test_low_temperature_concentrates(self):
        w = relevance_weights(T.Tensor([2.0, 1.0, 0.0]), [0] * 3, temperature=1e-3)
        assert w.data[0] > 1.0 - 1e-9
        assert w.data[1] < 1e-9 and w.data[2] < 1e-9

    def test_matches_scalar_softmax(self):
        w = relevance_weights(T.Tensor([2.0, 1.0, 0.0, 3.0, 3.0]), [0, 0, 0, 1, 1],
                              temperature=1.0).data
        exps = np.exp([2.0, 1.0, 0.0])
        np.testing.assert_allclose(w[:3], exps / exps.sum(), atol=1e-12)
        np.testing.assert_allclose(w[3:], [0.5, 0.5], atol=1e-15)

    def test_sums_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(12)
        scores = rng.standard_normal(7)
        w = relevance_weights(T.Tensor(scores), [0] * 7, temperature=0.7).data
        assert abs(w.sum() - 1.0) < 1e-9
        perm = rng.permutation(7)
        w_perm = relevance_weights(T.Tensor(scores[perm]), [0] * 7, temperature=0.7).data
        np.testing.assert_allclose(w_perm, w[perm], atol=1e-12)

    def test_accepts_retrieved_set_and_rejects_empty(self):
        rng = np.random.default_rng(13)
        memory = random_memory(rng, 8, 4)
        result = retrieve(rng.standard_normal((2, 4)), memory, 2, 3)
        w = relevance_weights(T.constant(result.scores), result.example, temperature=1.0)
        assert abs(float(w.data.sum()) - 1.0) < 1e-9
        with pytest.raises(ValidationError):
            relevance_weights(T.Tensor(np.zeros(3)), [0] * 3, temperature=0.0)
        with pytest.raises(ValidationError):
            relevance_weights(T.Tensor(np.zeros(0)), [], temperature=1.0)
        with pytest.raises(ValidationError):
            relevance_weights(T.Tensor(np.zeros(3)), [1, 0, 0], temperature=1.0)

    def test_gradient_reaches_patches_through_scores(self):
        # The path compute_step takes: (B, P, E) scores, one selection, one
        # take_pairs over the (B * P, E) rows, one segment softmax.
        rng = np.random.default_rng(14)
        memory = random_memory(rng, 8, 4)
        patches = rng.standard_normal((3, 2, 4))
        found = retrieve_from_scores(patches @ memory.matrix.T, memory, 2, 3)
        probe = rng.standard_normal(len(found.ids))

        def objective(x):
            scores = T.reshape(score_patches(x, memory), (6, len(memory)))
            weights = relevance_weights(
                T.take_pairs(scores, found.example * 2 + found.patch, found.column),
                found.example, temperature=0.5)
            return T.dot(weights, T.constant(probe))

        x = T.Tensor(patches.copy(), requires_grad=True)
        grads = T.backward(objective(x))
        numeric = fd_input_grad(lambda a: objective(T.Tensor(a)).item(), patches.copy())
        assert np.any(grads[x] != 0.0)
        np.testing.assert_allclose(grads[x], numeric, atol=1e-8)
