"""Objectives: masking procedures, closed-form loss values, scalar oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgfuse import tensor as T
from kgfuse.config import Config
from kgfuse.data import generate_corpus
from kgfuse.encoders import patchify
from kgfuse.errors import NumericsError, ValidationError
from kgfuse.kg import KnowledgeGraph, NamedRecord, Triplet, negative_indices
from kgfuse.objectives import (ItcParams, MaskingRecord, ScoringTables,
                               itc_loss, linkpred_loss, mask_patches,
                               mask_spans, mlm_loss, mvm_loss, total_loss)
from kgfuse.tensor import Tensor
from kgfuse.train import train_kg_embeddings

from helpers import (count_vjp_nodes, distmult, fd_input_grad, log_sigmoid, negative_ends,
                     reference_distmult_sampling_loss, reference_negative_sampling_loss,
                     reference_sample_negatives)

MASK = 1


def identity_itc(d=4, tau=1.0) -> ItcParams:
    return ItcParams(img_w=Tensor(np.eye(d)), img_b=Tensor(np.zeros(d)),
                     txt_w=Tensor(np.eye(d)), txt_b=Tensor(np.zeros(d)),
                     tau=Tensor(np.array([tau])))


class TestMaskSpans:
    def test_exact_count_at_quarter_rate(self):
        tokens = [0] + list(range(10, 26))  # CLS + 16 tokens
        masked, record = mask_spans(tokens, 0.25, mean_span=3, max_span=6,
                                    mask_id=MASK, seed=0)
        assert len(record.token_positions) == 4
        assert sum(1 for t in masked if t == MASK) == 4
        assert masked[0] == 0  # CLS untouched

    def test_same_seed_same_mask(self):
        tokens = [0] + list(range(10, 20))
        a = mask_spans(tokens, 0.3, 3, 6, MASK, seed=5)
        b = mask_spans(tokens, 0.3, 3, 6, MASK, seed=5)
        assert a[0] == b[0]
        assert a[1].token_positions == b[1].token_positions

    def test_originals_recorded(self):
        tokens = [0, 40, 41, 42, 43]
        masked, record = mask_spans(tokens, 0.5, 2, 4, MASK, seed=1)
        for pos, orig in zip(record.token_positions, record.original_tokens):
            assert tokens[pos] == orig
            assert masked[pos] == MASK

    def test_positions_cover_sequence_roughly_uniformly(self):
        tokens = [0] + list(range(10, 22))  # 12 maskable positions
        counts = np.zeros(13)
        for seed in range(10_000):
            _, record = mask_spans(tokens, 0.25, 3, 6, MASK, seed=seed)
            for p in record.token_positions:
                counts[p] += 1
        assert counts[0] == 0
        interior = counts[1:]
        # Span starts are uniform but spans only extend rightward, so the
        # left edge is structurally under-covered; the chi-square bound is
        # a sanity check against gross bias (a never-masked position alone
        # would contribute ~2500), not a test of exact uniformity.
        expected = interior.mean()
        chi2 = float(((interior - expected) ** 2 / expected).sum())
        assert chi2 < 1200
        assert interior.min() > 0.5 * expected

    def test_too_short_to_mask(self):
        with pytest.raises(ValidationError):
            mask_spans([0], 0.25, 3, 6, MASK, seed=0)

    @given(n_t=st.integers(1, 24), rate=st.floats(0.05, 0.95), seed=st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_masked_count_is_always_exact_ceiling(self, n_t, rate, seed):
        tokens = [0] + list(range(100, 100 + n_t))
        _, record = mask_spans(tokens, rate, 3, 6, MASK, seed=seed)
        assert len(record.token_positions) == math.ceil(rate * n_t)
        assert all(1 <= p <= n_t for p in record.token_positions)


class TestMlmLoss:
    def test_uniform_logits_give_log_vocab(self):
        record = MaskingRecord(token_positions=[1, 2, 3],
                               original_tokens=[5, 6, 7])
        logits = Tensor(np.zeros((3, 1000)))
        loss = mlm_loss(logits, record)
        assert abs(loss.item() - math.log(1000)) < 1e-9

    def test_confident_correct_logits_drive_loss_to_zero(self):
        record = MaskingRecord(token_positions=[1], original_tokens=[2])
        row = np.zeros((1, 10))
        row[0, 2] = 50.0
        assert mlm_loss(Tensor(row), record).item() < 1e-9

    def test_matches_scalar_cross_entropy(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 7))
        targets = [3, 0, 6, 2]
        record = MaskingRecord(token_positions=[1, 2, 3, 4],
                               original_tokens=targets)
        loss = mlm_loss(Tensor(logits), record).item()
        expected = 0.0
        for row, target in zip(logits, targets):
            exps = np.exp(row - row.max())
            expected -= math.log(exps[target] / exps.sum())
        expected /= 4
        assert abs(loss - expected) < 1e-10

    def test_row_count_mismatch(self):
        record = MaskingRecord(token_positions=[1], original_tokens=[0])
        with pytest.raises(ValidationError):
            mlm_loss(Tensor(np.zeros((2, 5))), record)

    def test_batch_is_mean_of_example_means(self):
        rng = np.random.default_rng(3)
        records = [MaskingRecord(token_positions=list(range(1, 1 + m)),
                                 original_tokens=rng.integers(0, 7, size=m).tolist())
                   for m in (1, 4, 2)]
        logits = rng.standard_normal((7, 7))
        loss = mlm_loss(Tensor(logits), *records).item()
        starts = [0, 1, 5]
        expected = np.mean([
            mlm_loss(Tensor(logits[lo:lo + len(r.token_positions)]), r).item()
            for lo, r in zip(starts, records)])
        assert abs(loss - expected) < 1e-12
        with pytest.raises(ValidationError):
            mlm_loss(Tensor(logits[:0]), MaskingRecord())


class TestMaskPatches:
    def test_count_and_rate(self):
        seq = patchify(np.random.default_rng(3).standard_normal((16, 16, 1)), 4)
        positions, record = mask_patches(seq, 0.25, seed=0)
        assert len(positions) == 4
        assert record.patch_positions == positions

    def test_determinism_and_targets(self):
        seq = patchify(np.random.default_rng(4).standard_normal((8, 8, 1)), 4)
        p1, r1 = mask_patches(seq, 0.5, seed=9)
        p2, r2 = mask_patches(seq, 0.5, seed=9)
        assert p1 == p2
        np.testing.assert_array_equal(r1.original_patches, r2.original_patches)
        np.testing.assert_array_equal(r1.original_patches, seq.patches[p1])

    def test_raw_sequence_unmodified(self):
        seq = patchify(np.random.default_rng(5).standard_normal((8, 8, 1)), 4)
        before = seq.patches.copy()
        mask_patches(seq, 0.25, seed=1)
        np.testing.assert_array_equal(seq.patches, before)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mask_patches(np.zeros((0, 4)), 0.25, seed=0)


class TestMvmLoss:
    def test_perfect_prediction_zero(self):
        targets = np.random.default_rng(6).standard_normal((3, 8))
        record = MaskingRecord(patch_positions=[0, 1, 2],
                               original_patches=targets)
        assert mvm_loss(Tensor(targets.copy()), record).item() == 0.0

    def test_unit_offset_gives_one(self):
        targets = np.random.default_rng(7).standard_normal((2, 5))
        record = MaskingRecord(patch_positions=[0, 1], original_patches=targets)
        assert abs(mvm_loss(Tensor(targets + 1.0), record).item() - 1.0) < 1e-12

    def test_matches_scalar_mse(self):
        rng = np.random.default_rng(8)
        targets = rng.standard_normal((3, 4))
        preds = rng.standard_normal((3, 4))
        record = MaskingRecord(patch_positions=[0, 1, 2], original_patches=targets)
        loss = mvm_loss(Tensor(preds), record).item()
        expected = sum((float(preds[i, j]) - float(targets[i, j])) ** 2
                       for i in range(3) for j in range(4)) / 12
        assert abs(loss - expected) < 1e-12

    def test_count_mismatch(self):
        record = MaskingRecord(patch_positions=[0], original_patches=np.zeros((1, 4)))
        with pytest.raises(ValidationError):
            mvm_loss(Tensor(np.zeros((2, 4))), record)

    def test_batch_is_mean_of_example_means(self):
        rng = np.random.default_rng(9)
        targets = rng.standard_normal((3, 2, 4))
        preds = rng.standard_normal((6, 4))
        records = [MaskingRecord(patch_positions=[0, 1], original_patches=t)
                   for t in targets]
        loss = mvm_loss(Tensor(preds), *records).item()
        expected = np.mean([mvm_loss(Tensor(preds[2 * b:2 * b + 2]), r).item()
                            for b, r in enumerate(records)])
        assert abs(loss - expected) < 1e-12


class TestDistmult:
    def test_worked_example(self):
        score = distmult(Tensor([1.0, 2.0]), Tensor([1.0, 1.0]), Tensor([3.0, 1.0]))
        assert score.item() == 5.0  # 1*1*3 + 2*1*1

    def test_zero_vector_zero_score(self):
        z = Tensor(np.zeros(4))
        v = Tensor(np.ones(4))
        assert distmult(z, v, v).item() == 0.0
        assert distmult(v, z, v).item() == 0.0

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_head_tail_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        h, r, t = (rng.standard_normal(5) for _ in range(3))
        a = distmult(Tensor(h), Tensor(r), Tensor(t)).item()
        b = distmult(Tensor(t), Tensor(r), Tensor(h)).item()
        assert abs(a - b) < 1e-12

    def test_width_mismatch(self):
        with pytest.raises(ValidationError):
            distmult(Tensor(np.zeros(3)), Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_relation_row_broadcasts_over_candidates(self):
        rng = np.random.default_rng(8)
        h, t = rng.standard_normal((2, 3, 4, 5))
        r = rng.standard_normal((3, 1, 5))
        grid = distmult(Tensor(h), Tensor(r), Tensor(t))
        assert grid.shape == (3, 4)
        tiled = distmult(Tensor(h), Tensor(np.repeat(r, 4, axis=1)), Tensor(t))
        np.testing.assert_array_equal(grid.data, tiled.data)
        with pytest.raises(ValidationError):
            distmult(Tensor(h), Tensor(rng.standard_normal((2, 1, 5))), Tensor(t))

    def test_rows_score_like_single_vectors(self):
        rng = np.random.default_rng(7)
        h, r, t = (rng.standard_normal((6, 5)) for _ in range(3))
        rows = distmult(Tensor(h), Tensor(r), Tensor(t))
        assert rows.shape == (6,)
        for i in range(6):
            single = distmult(Tensor(h[i]), Tensor(r[i]), Tensor(t[i]))
            assert rows.data[i] == single.item()


def scoring_fixture(n_entities=6, d=4, fill=0.0, n=4, gamma=0.0):
    entities = {i: NamedRecord(f"e{i}", "desc") for i in range(n_entities)}
    relations = {0: NamedRecord("r0", "rel"), 1: NamedRecord("r1", "rel")}
    triplets = [Triplet(0, 0, 1), Triplet(2, 1, 3), Triplet(4, 0, 5)]
    kg = KnowledgeGraph(entities, relations, triplets)
    tables = ScoringTables(
        entity_matrix=Tensor(np.full((n_entities, d), fill)),
        entity_row={i: i for i in range(n_entities)},
        relation_matrix=Tensor(np.full((2, d), fill)),
        relation_row={0: 0, 1: 1},
        gamma=gamma, n=n)
    return kg, tables


def assert_close(got, want):
    """Equal within 1e-12 of the largest magnitude of ``want``."""
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def sampling_inputs(rng, p, n, rows, d, relations):
    """Random tables and indices for ``T.distmult_sampling_loss``: P positives
    with n corruptions each, over ``rows`` entity rows of width d.  Odd
    positives repeat the endpoints, relation and candidates of the first,
    each candidate row repeats within its positive, and every positive's
    first candidate is its own head, a row both endpoint and candidate."""
    entities = rng.standard_normal((rows, d)) * 10.0 ** rng.integers(-2, 1)
    relation = rng.standard_normal((relations, d))
    ends = rng.integers(0, rows, size=(p, 2))
    rel = rng.integers(0, relations, size=p)
    candidates = rng.integers(0, rows, size=(p, n))
    coins = rng.integers(0, 2, size=(p, n))
    ends[1::2], rel[1::2], candidates[1::2], coins[1::2] = ends[0], rel[0], candidates[0], coins[0]
    candidates[:, 1::2] = candidates[:, :1]
    candidates[:, 0] = ends[:, 0]
    return entities, relation, ends, rel, candidates, coins


def saturate(entities, relation, ends, rel, candidates):
    """Make the first positive score +800 against itself and its first
    corruption, and -800 against row 1, where sigmoid gradients underflow."""
    c = np.sqrt(800.0 / entities.shape[1])
    entities[0], entities[1 % len(entities)], relation[0] = c, -c, 1.0
    ends[0], rel[0] = 0, 0
    candidates[0, 0], candidates[0, -1] = 0, 1 % len(entities)


class TestNegativeSamplingNode:
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_bitwise_equals_chain(self, gamma):
        # The loss and both table gradients against the seven-node chain.
        rng = np.random.default_rng(40)
        for trial in range(60):
            p = (1, 2, 361)[trial] if trial < 3 else int(rng.integers(1, 40))
            n = (1, 7, 128)[trial] if trial < 3 else int(rng.integers(1, 70))
            rows = int(rng.integers(1, 400)) if trial != 2 else 400
            d, relations = int(rng.integers(1, 20)), int(rng.integers(1, 6))
            entities, relation, ends, rel, candidates, coins = sampling_inputs(
                rng, p, n, rows, d, relations)
            if trial % 3 == 0:
                saturate(entities, relation, ends, rel, candidates)
            # Pretraining scores a concat of two tables, a non-leaf node.
            split = int(rng.integers(0, rows + 1)) if trial % 2 else None
            scale = 1.0 if trial % 2 else 0.7   # the gradient reaching the loss
            results = []
            for build in (T.distmult_sampling_loss, reference_distmult_sampling_loss):
                leaves = [Tensor(part, requires_grad=True) for part in
                          ([entities] if split is None
                           else [entities[:split], entities[split:]])]
                table = leaves[0] if split is None else T.concat(leaves)
                relation_table = Tensor(relation, requires_grad=True)
                loss = build(table, relation_table, ends, rel, candidates, coins, gamma)
                grads = T.backward(T.mul(loss, scale))
                results.append([loss.data.tobytes(), grads[relation_table].tobytes()]
                               + [grads[leaf].tobytes() for leaf in leaves])
            assert results[0] == results[1], trial

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        entities, relation, ends, rel, candidates, coins = sampling_inputs(rng, 5, 6, 7, 3, 2)

        def loss(e, r):
            return T.distmult_sampling_loss(e, r, ends, rel, candidates, coins, 0.3)

        e, r = Tensor(entities, requires_grad=True), Tensor(relation, requires_grad=True)
        grads = T.backward(loss(e, r))
        numeric_e = fd_input_grad(lambda x: loss(Tensor(x), Tensor(relation)).item(),
                                  entities.copy())
        numeric_r = fd_input_grad(lambda x: loss(Tensor(entities), Tensor(x)).item(),
                                  relation.copy())
        np.testing.assert_allclose(grads[e], numeric_e, rtol=1e-7, atol=1e-10)
        np.testing.assert_allclose(grads[r], numeric_r, rtol=1e-7, atol=1e-10)

    def test_bad_inputs(self):
        table, relation = Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4)))
        ends, rel = np.zeros((2, 2), dtype=np.int64), np.zeros(2, dtype=np.int64)
        candidates, coins = np.ones((2, 3), dtype=np.int64), np.ones((2, 3), dtype=np.int64)
        for args in ((Tensor(np.zeros(4)), relation, ends, rel, candidates, coins),
                     (table, Tensor(np.zeros((2, 5))), ends, rel, candidates, coins),
                     (table, relation, ends[:, :1], rel, candidates, coins),
                     (table, relation, ends[:0], rel[:0], candidates[:0], coins[:0]),
                     (table, relation, ends, rel[:1], candidates, coins),
                     (table, relation, ends, rel, candidates[:, :0], coins[:, :0]),
                     (table, relation, ends, rel, candidates, coins[:, :2]),
                     (table, relation, ends, rel, candidates[:1], coins[:1])):
            with pytest.raises(ValidationError, match="distmult_sampling_loss expects"):
                T.distmult_sampling_loss(*args, 0.0)
        for bad in ((ends + 3, rel, candidates, coins), (ends - 1, rel, candidates, coins),
                    (ends, rel + 2, candidates, coins), (ends, rel - 1, candidates, coins),
                    (ends, rel, candidates + 2, coins), (ends, rel, candidates - 2, coins),
                    (ends, rel, candidates, coins + 1), (ends, rel, candidates, coins - 2)):
            with pytest.raises(ValidationError, match="index out of range"):
                T.distmult_sampling_loss(table, relation, *bad, 0.0)

    def test_non_finite_values_raise(self):
        ends, rel = np.array([[0, 1]]), np.array([0])
        candidates, coins = np.array([[1, 1]]), np.array([[0, 0]])
        relation = Tensor(np.ones((1, 1)))
        # A score plus the margin overflows, as the chain's add node did.
        overflow = Tensor(np.array([[1e154], [1.7e154]]))
        with pytest.raises(NumericsError, match="distmult_sampling_loss"):
            T.distmult_sampling_loss(overflow, relation, ends, rel, candidates, coins, 1e308)
        # Two finite negative terms of 1.5e308 overflow their sum.
        huge = Tensor(np.array([[1e154], [1.5e154]]))
        with pytest.raises(NumericsError, match="distmult_sampling_loss"):
            T.distmult_sampling_loss(huge, relation, ends, rel, candidates, coins, 0.0)
        # The tail's query overflows, as the chain's mul node did, though no
        # score reads it and every read score is finite; its VJP would
        # multiply that inf by zeros into NaN.
        with pytest.raises(NumericsError, match="distmult_sampling_loss"):
            T.distmult_sampling_loss(Tensor(np.array([[1e-300], [1e300]])),
                                     Tensor(np.array([[1e10]])), ends, rel,
                                     np.array([[0, 0]]), coins, 0.0)

    def test_linkpred_loss_is_one_node(self):
        kg, tables = scoring_fixture(n=3, gamma=0.5)
        tables.entity_matrix.requires_grad = tables.relation_matrix.requires_grad = True
        loss = linkpred_loss([Triplet(0, 0, 1), Triplet(2, 1, 3)], tables, kg, seed=0)
        assert loss.op == "distmult_sampling_loss"
        assert count_vjp_nodes(loss) == 1


class TestLinkpredLoss:
    def test_all_zero_scores_give_two_log_two(self):
        kg, tables = scoring_fixture(fill=0.0)
        loss = linkpred_loss([Triplet(0, 0, 1)], tables, kg, seed=0)
        assert abs(loss.item() - 2 * math.log(2)) < 1e-9

    def test_saturated_scores_drive_loss_to_zero(self):
        # With the indefinite form phi(x, y) = x1 y1 - x2 y2 - x3 y3 the
        # positive pair scores +30 while every corruption, including
        # self-pairings like (0, r, 0), scores exactly -30.
        kg, tables = scoring_fixture(d=3)
        s = np.sqrt(30.0)
        tables.entity_matrix.data[...] = [0.0, s, 0.0]
        tables.entity_matrix.data[0] = [s, s, s]
        tables.entity_matrix.data[1] = [s, s, -s]
        tables.relation_matrix.data[...] = [1.0, -1.0, -1.0]
        loss = linkpred_loss([Triplet(0, 0, 1)], tables, kg, seed=3)
        assert loss.item() < 1e-9

    def test_loss_decreases_as_positive_score_rises(self):
        # Geometry that pins every corruption's score while the positive's
        # score tracks a single scalar: e1 = [1,0], others = [0,1], and
        # e0 = [s,0].  Any corruption involving entity 0 as both endpoints
        # would reintroduce an s-dependence, so pick a seed that avoids it.
        kg, tables = scoring_fixture(d=2, n=4)
        from kgfuse.kg import sample_negatives
        seed = next(s for s in range(100)
                    if Triplet(0, 0, 0) not in
                    sample_negatives(kg, Triplet(0, 0, 1), 4, seed=s))
        tables.relation_matrix.data[...] = [1.0, 0.0]
        tables.entity_matrix.data[...] = [0.0, 1.0]
        tables.entity_matrix.data[1] = [1.0, 0.0]

        def loss_at(scale: float) -> float:
            tables.entity_matrix.data[0] = [scale, 0.0]
            return linkpred_loss([Triplet(0, 0, 1)], tables, kg, seed=seed).item()

        assert loss_at(2.0) < loss_at(0.5)

    def test_equals_loss_built_from_scalar_oracle(self):
        config = Config(corpus_entities=50, corpus_relations=4,
                        corpus_triplets=300, corpus_examples=4)
        kg = generate_corpus(config, seed=5).kg
        rng = np.random.default_rng(8)
        entity_ids, relation_ids = sorted(kg.entities), sorted(kg.relations)
        # Rows deliberately not in id order.
        entity_row = {e: i for i, e in enumerate(reversed(entity_ids))}
        relation_row = {r: i for i, r in enumerate(reversed(relation_ids))}
        for trial in range(5):
            positives = [kg.triplets[i] for i in
                         rng.choice(len(kg.triplets), size=9, replace=False)]
            n, seed, gamma = 16, 100 * trial, 0.5 * trial
            entities = Tensor(rng.standard_normal((len(entity_ids), 6)),
                              requires_grad=True)
            relations = Tensor(rng.standard_normal((len(relation_ids), 6)),
                               requires_grad=True)
            tables = ScoringTables(entities, entity_row, relations, relation_row,
                                   gamma=gamma, n=n)
            loss = linkpred_loss(positives, tables, kg, seed=seed)
            grads = T.backward(loss)

            ref_entities = Tensor(entities.data.copy(), requires_grad=True)
            ref_relations = Tensor(relations.data.copy(), requires_grad=True)
            head_rows, tail_rows, rel_rows = [], [], []
            oracle = reference_sample_negatives(kg, positives, n, seed)
            for pos, negatives in zip(positives, oracle):
                head_rows += [entity_row[x.head] for x in [pos] + negatives]
                tail_rows += [entity_row[x.tail] for x in [pos] + negatives]
                rel_rows.append([relation_row[pos.relation]])
            # One relation row per positive, broadcast over its 1 + n
            # candidates, so the relation gradient sums them per positive.
            shape = (len(positives), 1 + n)
            h = T.take_rows(ref_entities, np.reshape(head_rows, shape))
            t = T.take_rows(ref_entities, np.reshape(tail_rows, shape))
            r = T.take_rows(ref_relations, rel_rows)
            ref_loss = reference_negative_sampling_loss(
                T.tensor_sum(T.mul(T.mul(h, r), t), axis=2), gamma)
            ref_grads = T.backward(ref_loss)

            # The loss's matmul VJP sums each table row's candidate
            # gradients in another order than this gather's scatter does.
            assert_close(loss.data, ref_loss.data)
            assert_close(grads[entities], ref_grads[ref_entities])
            assert_close(grads[relations], ref_grads[ref_relations])

    def test_positives_outside_the_graph(self):
        # A positive that is not a triplet of kg can draw an accepted copy
        # of itself; the loss scores that copy from the side its coin names,
        # which the oracle's one DistMult product matches up to rounding.
        config = Config(corpus_entities=50, corpus_relations=4,
                        corpus_triplets=300, corpus_examples=4)
        kg = generate_corpus(config, seed=5).kg
        rng = np.random.default_rng(11)
        entity_ids, relation_ids = kg.entity_ids(), kg.relation_ids()
        positives = []
        while len(positives) < 12:
            triplet = Triplet(*(int(rng.choice(ids))
                                for ids in (entity_ids, relation_ids, entity_ids)))
            if not kg.has_triplet(triplet) and triplet not in positives:
                positives.append(triplet)
        n, seed, gamma = 16, [3, 1], 0.4
        dense = kg.index_triplets(positives)
        heads, tails = negative_ends(dense, *negative_indices(kg, dense, n, seed))
        assert ((heads == dense[:, :1]) & (tails == dense[:, 2:])).any()
        # More table rows than entities, so some rows are never scored.
        n_rows = len(entity_ids) + 5
        entities = rng.standard_normal((n_rows, 6))
        relations = rng.standard_normal((len(relation_ids), 6))
        shared = rng.permutation(n_rows)[:len(entity_ids)]
        per_positive = np.array([rng.permutation(n_rows)[:len(entity_ids)]
                                 for _ in positives])
        relation_perm = rng.permutation(len(relation_ids))
        for entity_row in (dict(zip(entity_ids, shared.tolist())), shared, per_positive):
            tables = ScoringTables(Tensor(entities, requires_grad=True), entity_row,
                                   Tensor(relations, requires_grad=True),
                                   relation_perm, gamma=gamma, n=n)
            loss = linkpred_loss(positives, tables, kg, seed)
            grads = T.backward(loss)

            maps = np.broadcast_to(per_positive if entity_row is per_positive
                                   else shared, per_positive.shape)
            ref_entities = Tensor(entities, requires_grad=True)
            ref_relations = Tensor(relations, requires_grad=True)
            h = T.take_rows(ref_entities, np.take_along_axis(
                maps, np.concatenate([dense[:, :1], heads], axis=1), axis=1))
            t = T.take_rows(ref_entities, np.take_along_axis(
                maps, np.concatenate([dense[:, 2:], tails], axis=1), axis=1))
            r = T.take_rows(ref_relations, relation_perm[dense[:, 1:2]])
            ref_loss = reference_negative_sampling_loss(distmult(h, r, t), gamma)
            ref_grads = T.backward(ref_loss)

            assert_close(loss.data, ref_loss.data)
            assert_close(grads[tables.entity_matrix], ref_grads[ref_entities])
            assert_close(grads[tables.relation_matrix], ref_grads[ref_relations])

    def test_array_row_maps_equal_dicts(self):
        config = Config(corpus_entities=50, corpus_relations=4,
                        corpus_triplets=300, corpus_examples=4)
        kg = generate_corpus(config, seed=5).kg
        rng = np.random.default_rng(9)
        entity_ids, relation_ids = sorted(kg.entities), sorted(kg.relations)
        entity_perm = rng.permutation(len(entity_ids))
        relation_perm = rng.permutation(len(relation_ids))
        positives = [kg.triplets[i] for i in rng.choice(len(kg.triplets), 7, replace=False)]
        entities = rng.standard_normal((len(entity_ids), 5))
        relations = rng.standard_normal((len(relation_ids), 5))
        as_dicts = (dict(zip(entity_ids, entity_perm.tolist())),
                    dict(zip(relation_ids, relation_perm.tolist())))
        results = []
        for entity_row, relation_row in (
                as_dicts, (entity_perm, relation_perm),
                (np.tile(entity_perm, (len(positives), 1)), relation_perm)):
            tables = ScoringTables(Tensor(entities.copy(), requires_grad=True), entity_row,
                                   Tensor(relations.copy(), requires_grad=True),
                                   relation_row, gamma=0.3, n=8)
            loss = linkpred_loss(positives, tables, kg, seed=[4, 2])
            grads = T.backward(loss)
            results.append((loss.item(), grads[tables.entity_matrix],
                            grads[tables.relation_matrix]))
        for loss, entity_grad, relation_grad in results[1:]:
            assert loss == results[0][0]
            assert np.array_equal(entity_grad, results[0][1])
            assert np.array_equal(relation_grad, results[0][2])

    def test_per_positive_row_maps(self):
        # Each positive reads its own map; entity ids equal dense indices here.
        kg, tables = scoring_fixture(n_entities=6, n=3)
        rng = np.random.default_rng(2)
        e = tables.entity_matrix.data
        r = tables.relation_matrix.data
        e[...], r[...] = rng.standard_normal((6, 4)), rng.standard_normal((2, 4))
        positives = [Triplet(0, 0, 1), Triplet(2, 1, 3)]
        maps = np.array([[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]])
        tables.entity_row = maps
        loss = linkpred_loss(positives, tables, kg, seed=[6, 0]).item()
        dense = kg.index_triplets(positives)
        heads, tails = negative_ends(dense, *negative_indices(kg, dense, 3, [6, 0]))
        terms = []
        for p, pos in enumerate(positives):
            h, t = maps[p, [pos.head, *heads[p]]], maps[p, [pos.tail, *tails[p]]]
            scores = np.sum(e[h] * r[pos.relation] * e[t], axis=1)
            terms.append(np.log1p(np.exp(-scores[0]))
                         + np.mean(np.log1p(np.exp(scores[1:]))))
        assert abs(loss - np.mean(terms)) < 1e-12
        tables.entity_row = np.vstack([maps, maps[:1]])
        with pytest.raises(ValidationError, match="entity row map"):
            linkpred_loss(positives, tables, kg, seed=0)

    def test_missing_entity_errors(self):
        kg, tables = scoring_fixture()
        del tables.entity_row[1]
        with pytest.raises(ValidationError, match="entity 1"):
            linkpred_loss([Triplet(0, 0, 1)], tables, kg, seed=0)
        del tables.relation_row[0]
        with pytest.raises(ValidationError, match="relation 0"):
            linkpred_loss([Triplet(0, 0, 1)], tables, kg, seed=0)

    def test_empty_positives(self):
        kg, tables = scoring_fixture()
        with pytest.raises(ValidationError):
            linkpred_loss([], tables, kg, seed=0)
        with pytest.raises(ValidationError):
            linkpred_loss(np.empty((0, 3), dtype=np.int64), tables, kg, seed=0)

    def test_dense_positives_equal_id_triplets(self):
        kg = generate_corpus(Config(corpus_entities=50, corpus_relations=4,
                                    corpus_triplets=300, corpus_examples=4), seed=5).kg
        rng = np.random.default_rng(12)
        positives = [kg.triplets[i] for i in rng.integers(0, len(kg.triplets), size=20)]
        entities, relations = rng.standard_normal((50, 4)), rng.standard_normal((4, 4))
        results = []
        for given in (positives, kg.index_triplets(positives)):
            tables = ScoringTables(Tensor(entities, requires_grad=True), np.arange(50),
                                   Tensor(relations, requires_grad=True), np.arange(4),
                                   gamma=0.2, n=16)
            loss = linkpred_loss(given, tables, kg, seed=[9, 1])
            grads = T.backward(loss)
            results.append((loss.data.tobytes(), grads[tables.entity_matrix].tobytes(),
                            grads[tables.relation_matrix].tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -0.5])
    def test_margin_must_be_finite_and_nonnegative(self, gamma):
        with pytest.raises(ValidationError, match="margin gamma must be finite and >= 0"):
            scoring_fixture(gamma=gamma)
        # Training rejects it before the first step, not as a loss overflow.
        kg = scoring_fixture()[0]
        with pytest.raises(ValidationError, match="margin gamma must be finite and >= 0"):
            train_kg_embeddings(kg, steps=1, gamma=gamma, drop_rate=0.4)


class TestItcLoss:
    def test_equal_similarities_give_log_batch(self):
        ip = identity_itc(d=4, tau=0.37)
        same = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (5, 1))
        loss = itc_loss(Tensor(same), Tensor(same.copy()), ip)
        assert abs(loss.item() - math.log(5)) < 1e-9

    def test_sharp_diagonal_drives_loss_to_zero(self):
        ip = identity_itc(d=4, tau=1.0 / 30.0)
        basis = np.eye(4)[:3]
        loss = itc_loss(Tensor(basis), Tensor(basis.copy()), ip)
        assert loss.item() < 1e-9

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(10)
        ip = identity_itc(d=5, tau=0.8)
        img = rng.standard_normal((3, 5))
        txt = rng.standard_normal((3, 5))
        loss = itc_loss(Tensor(img), Tensor(txt), ip).item()

        def norm_rows(m):
            return m / np.sqrt((m * m).sum(axis=1, keepdims=True) + 1e-12)

        sims = norm_rows(img) @ norm_rows(txt).T / 0.8
        expected = 0.0
        for axis_matrix in (sims, sims.T):
            for i in range(3):
                row = axis_matrix[i]
                exps = np.exp(row - row.max())
                expected -= 0.5 * math.log(exps[i] / exps.sum()) / 3
        assert abs(loss - expected) < 1e-10

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(11)
        ip = identity_itc(d=4, tau=0.5)
        img = rng.standard_normal((4, 4))
        txt = rng.standard_normal((4, 4))
        base = itc_loss(Tensor(img), Tensor(txt), ip).item()
        perm = rng.permutation(4)
        permuted = itc_loss(Tensor(img[perm]), Tensor(txt[perm]), ip).item()
        assert abs(base - permuted) < 1e-12

    def test_batch_of_one_rejected(self):
        ip = identity_itc()
        with pytest.raises(ValidationError):
            itc_loss(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))), ip)

    def test_nonpositive_temperature_rejected(self):
        ip = identity_itc(tau=0.1)
        ip.tau.data[...] = 0.0
        rng = np.random.default_rng(12)
        with pytest.raises(ValidationError, match="temperature"):
            itc_loss(Tensor(rng.standard_normal((2, 4))),
                     Tensor(rng.standard_normal((2, 4))), ip)


class TestTotalLoss:
    def _scalars(self):
        return (Tensor(np.array(1.0)), Tensor(np.array(2.0)),
                Tensor(np.array(3.0)), Tensor(np.array(4.0)))

    def test_single_component_weight(self):
        mlm, mvm, lp, itc = self._scalars()
        bundle = total_loss(mlm, mvm, lp, itc, weights=(1.0, 0.0, 0.0, 0.0))
        assert bundle.total.item() == 1.0

    def test_unit_weights_sum(self):
        ones = [Tensor(np.array(1.0)) for _ in range(4)]
        bundle = total_loss(*ones)
        assert bundle.total.item() == 4.0

    def test_gradient_is_weighted_sum(self):
        x = Tensor(np.array([0.7, -0.3]), requires_grad=True)
        mlm = T.tensor_sum(T.mul(x, x))
        mvm = T.tensor_sum(T.power(x, 3.0))
        lp = T.tensor_sum(log_sigmoid(x))
        itc = T.tensor_sum(x)
        weights = (0.5, 2.0, 1.5, 3.0)
        bundle = total_loss(mlm, mvm, lp, itc, weights)
        got = T.backward(bundle.total)[x]
        parts = []
        for component in (lambda v: v * 2, lambda v: 3 * v ** 2,
                          lambda v: 1 / (1 + np.exp(v)),
                          lambda v: np.ones_like(v)):
            parts.append(component(x.data))
        expected = sum(w * p for w, p in zip(weights, parts))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_nonfinite_component_named(self):
        good = Tensor(np.array(1.0))
        with pytest.raises(ValidationError):
            total_loss(good, good, good, good, weights=(1.0, -1.0, 1.0, 1.0))
        bad = Tensor(np.array(1.0))
        bad.data[...] = np.nan  # mutate after construction to simulate a bug
        with pytest.raises(NumericsError, match="mvm"):
            total_loss(good, bad, good, good)
