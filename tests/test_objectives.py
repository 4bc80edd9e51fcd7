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
from kgfuse.kg import KnowledgeGraph, NamedRecord, Triplet
from kgfuse.objectives import (ItcParams, MaskingRecord, ScoringTables,
                               distmult, itc_loss, linkpred_loss,
                               mask_patches, mask_spans, mlm_loss, mvm_loss,
                               total_loss)
from kgfuse.tensor import Tensor

from helpers import reference_sample_negatives

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
            for i, pos in enumerate(positives):
                negatives = reference_sample_negatives(kg, pos, n, seed + i)
                head_rows += [entity_row[x.head] for x in [pos] + negatives]
                tail_rows += [entity_row[x.tail] for x in [pos] + negatives]
                rel_rows.append([relation_row[pos.relation]])
            # One relation row per positive, broadcast over its 1 + n
            # candidates, so the relation gradient sums them per positive.
            shape = (len(positives), 1 + n)
            h = T.take_rows(ref_entities, np.reshape(head_rows, shape))
            t = T.take_rows(ref_entities, np.reshape(tail_rows, shape))
            r = T.take_rows(ref_relations, rel_rows)
            grid = T.tensor_sum(T.mul(T.mul(h, r), t), axis=2)
            pos_term = T.neg(T.log_sigmoid(T.add(grid[:, 0], gamma)))
            neg_term = T.tensor_mean(
                T.neg(T.log_sigmoid(T.neg(T.add(grid[:, 1:], gamma)))), axis=1)
            ref_loss = T.tensor_mean(T.add(pos_term, neg_term))
            ref_grads = T.backward(ref_loss)

            assert loss.item() == ref_loss.item()
            assert np.array_equal(grads[entities], ref_grads[ref_entities])
            assert np.array_equal(grads[relations], ref_grads[ref_relations])

    def test_missing_entity_errors(self):
        kg, tables = scoring_fixture()
        del tables.entity_row[1]
        with pytest.raises(ValidationError, match="entity 1"):
            linkpred_loss([Triplet(0, 0, 1)], tables, kg, seed=0)

    def test_empty_positives(self):
        kg, tables = scoring_fixture()
        with pytest.raises(ValidationError):
            linkpred_loss([], tables, kg, seed=0)


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
        lp = T.tensor_sum(T.log_sigmoid(x))
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
