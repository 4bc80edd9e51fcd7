"""Harness: config round trip, synthetic corpus, AdamW, checkpoints, training."""

import math

import numpy as np
import pytest

from kgfuse import tensor as T
from kgfuse.checkpoint import load_checkpoint, save_checkpoint
from kgfuse.config import Config
from kgfuse.data import corpus_memory, generate_corpus, oracle_patch_projection
from kgfuse.encoders import patchify
from kgfuse.errors import ValidationError
from kgfuse.kg import Triplet, expand_subgraph, holdout_edges, split_triplet_list
from kgfuse.model import build_model, compute_step, make_batch_plan
from kgfuse.optim import AdamState, optimizer_step
from kgfuse.retriever import retrieve
from kgfuse.tensor import Parameters, Tensor
from kgfuse.train import (eval_linkpred, eval_retrieval, filtered_ranks,
                          format_metrics, parse_metrics, pretrain,
                          random_baseline_mrr, train_kg_embeddings)

from helpers import count_vjp_nodes, reference_compute_step

TINY = dict(corpus_entities=40, corpus_relations=4, corpus_triplets=120,
            corpus_examples=12, batch_size=3, per_node_cap=3, n_negatives=4,
            k_final=4, steps=4, lr=1e-3)


class TestConfig:
    def test_text_roundtrip(self):
        config = Config(**TINY)
        again = Config.from_text(config.to_text())
        assert again == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key"):
            Config.from_text("nonsense = 3\n")

    def test_bad_value_and_ranges(self):
        with pytest.raises(ValidationError, match="cannot parse"):
            Config.from_text("d = sixteen\n")
        with pytest.raises(ValidationError):
            Config(mlm_rate=1.5)
        with pytest.raises(ValidationError):
            Config(d=15)  # not divisible by heads
        with pytest.raises(ValidationError):
            Config(image_h=15)

    def test_comments_and_blank_lines(self):
        config = Config.from_text("# comment\n\nd = 16  # trailing\n")
        assert config.d == 16

    def test_file_roundtrip(self, tmp_path):
        config = Config(**TINY)
        config.save(tmp_path / "run.cfg")
        assert Config.load(tmp_path / "run.cfg") == config


class TestSyntheticCorpus:
    def test_same_seed_identical(self):
        a = generate_corpus(Config(**TINY), seed=3)
        b = generate_corpus(Config(**TINY), seed=3)
        assert a.kg.triplets == b.kg.triplets
        assert a.captions == b.captions
        for x, y in zip(a.images, b.images):
            np.testing.assert_array_equal(x, y)

    def test_kg_satisfies_store_invariants(self):
        corpus = generate_corpus(Config(**TINY), seed=4)
        kg = corpus.kg
        assert len(kg.triplets) == 120
        assert len(set(kg.triplets)) == 120
        for h, r, t in kg.triplets:
            assert h in kg.entities and t in kg.entities and r in kg.relations

    def test_ground_truth_resolves_and_captions_mention_it(self):
        config = Config(**TINY)
        corpus = generate_corpus(config, seed=5)
        for caption, gt in zip(corpus.captions, corpus.ground_truth):
            assert caption[0] == Config.CLS_ID
            assert len(caption) - 1 <= config.max_text_len
            tokens = set(caption[1:])
            for ent in gt:
                assert ent in corpus.kg.entities
                assert Config.RESERVED_TOKENS + ent in tokens

    def test_zero_noise_oracle_ranks_ground_truth_first(self):
        config = Config(**TINY, corpus_noise=0.0)
        corpus = generate_corpus(config, seed=6)
        memory = corpus_memory(corpus)
        projection = oracle_patch_projection(config)
        for image, gt in zip(corpus.images[:4], corpus.ground_truth[:4]):
            seq = patchify(image, config.patch_size)
            scores = (seq.patches @ projection) @ memory.matrix.T
            for p in range(seq.count):
                best = memory.ids[int(np.argmax(scores[p]))]
                assert best == gt[p % len(gt)]

    def test_impossible_sizes_rejected(self):
        with pytest.raises(ValidationError, match="triplets"):
            generate_corpus(Config(corpus_entities=3, corpus_relations=1,
                                   corpus_triplets=50, corpus_examples=1,
                                   entities_per_example=2), seed=0)


class TestOptimizer:
    def test_zero_gradient_decay_factor_exact(self):
        params = Parameters()
        theta = params.add("w", Tensor(np.array([2.0, -3.0])))
        state = AdamState.init(params)
        start = np.array([2.0, -3.0])
        optimizer_step(params, {}, state, lr=0.1, weight_decay=0.5)
        # exactly theta - lr * wd * theta, the decoupled-decay signature
        np.testing.assert_array_equal(theta.data, start - 0.1 * (0.5 * start))
        np.testing.assert_allclose(theta.data, start * (1 - 0.1 * 0.5),
                                   rtol=1e-15)

    def test_single_step_closed_form(self):
        params = Parameters()
        theta = params.add("w", Tensor(np.array([1.0])))
        state = AdamState.init(params)
        g = np.array([0.3])
        optimizer_step(params, {theta: g}, state, lr=1e-2, weight_decay=0.0)
        # bias-corrected first step: update = g / (|g| + eps)
        expected = 1.0 - 1e-2 * (0.3 / (0.3 + 1e-8))
        np.testing.assert_allclose(theta.data, [expected], atol=1e-15)

    def test_two_runs_identical(self):
        def run():
            params = Parameters()
            theta = params.add("w", Tensor(np.arange(4.0)))
            state = AdamState.init(params)
            for step in range(5):
                g = np.sin(np.arange(4.0) + step)
                optimizer_step(params, {theta: g}, state, lr=3e-3,
                               weight_decay=0.01)
            return theta.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_nonfinite_gradient_named(self):
        params = Parameters()
        theta = params.add("w", Tensor(np.array([1.0])))
        state = AdamState.init(params)
        with pytest.raises(Exception, match="'w'"):
            optimizer_step(params, {theta: np.array([np.nan])}, state,
                           lr=1e-3, weight_decay=0.0)


class TestPretrain:
    def test_zero_steps_keeps_initialization(self):
        config = Config(**{**TINY, "steps": 0})
        corpus = generate_corpus(config)
        result = pretrain(config, corpus)
        fresh = build_model(config, corpus.kg)
        for name, tensor in result.params.store.items():
            np.testing.assert_array_equal(tensor.data, fresh.store[name].data)
        assert result.metrics == []

    def test_metrics_deterministic_across_runs(self):
        config = Config(**TINY)
        a = pretrain(config, generate_corpus(config))
        b = pretrain(config, generate_corpus(config))
        assert format_metrics(a.metrics) == format_metrics(b.metrics)

    def test_metrics_rows_monotone_and_complete(self):
        config = Config(**TINY)
        result = pretrain(config, generate_corpus(config))
        steps = [row[0] for row in result.metrics]
        assert steps == list(range(1, config.steps + 1))
        for row in result.metrics:
            assert all(math.isfinite(v) for v in row[1:])

    def test_metrics_text_roundtrip(self):
        config = Config(**TINY)
        result = pretrain(config, generate_corpus(config))
        text = format_metrics(result.metrics)
        assert parse_metrics(text) == [tuple(r) for r in result.metrics]


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        config = Config(**TINY)
        corpus = generate_corpus(config)
        result = pretrain(config, corpus)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, result.final_step, result.params.store,
                        result.state)
        loaded = load_checkpoint(path)
        assert loaded.step == config.steps
        assert loaded.config == config
        for name, tensor in result.params.store.items():
            np.testing.assert_array_equal(loaded.tensors[name], tensor.data)
            np.testing.assert_array_equal(loaded.tensors[f"opt_m.{name}"],
                                          result.state.m[name])

    def test_resume_equals_uninterrupted(self, tmp_path):
        config = Config(**{**TINY, "steps": 6})
        corpus = generate_corpus(config)
        full = pretrain(config, corpus)

        half_config = Config(**{**TINY, "steps": 3})
        half = pretrain(half_config, generate_corpus(half_config))
        path = tmp_path / "half.ckpt"
        # checkpoint the run mid-way, then resume to step 6
        save_checkpoint(path, config, 3, half.params.store, half.state)
        resumed = pretrain(config, corpus, resume=load_checkpoint(path))

        for name, tensor in full.params.store.items():
            np.testing.assert_array_equal(tensor.data,
                                          resumed.params.store[name].data)
        assert format_metrics(full.metrics[3:]) == format_metrics(resumed.metrics)

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 20)
        with pytest.raises(ValidationError, match="magic"):
            load_checkpoint(path)
        config = Config(**TINY)
        corpus = generate_corpus(config)
        result = pretrain(config, corpus)
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, config, 1, result.params.store, result.state)
        good.write_bytes(good.read_bytes()[:-9])
        with pytest.raises(ValidationError, match="offset"):
            load_checkpoint(good)

    def test_config_mismatch_on_resume(self, tmp_path):
        config = Config(**TINY)
        corpus = generate_corpus(config)
        result = pretrain(config, corpus)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config, 2, result.params.store, result.state)
        other = Config(**{**TINY, "lr": 9e-4})
        with pytest.raises(ValidationError, match="config"):
            pretrain(other, corpus, resume=load_checkpoint(path))


class TestLinkpredEval:
    def _paired_kg(self, n_pairs=4):
        from kgfuse.kg import KnowledgeGraph, NamedRecord
        entities = {i: NamedRecord(f"e{i}", "d") for i in range(2 * n_pairs)}
        relations = {0: NamedRecord("r", "d")}
        triplets = [Triplet(2 * i, 0, 2 * i + 1) for i in range(n_pairs)]
        return KnowledgeGraph(entities, relations, triplets)

    def test_oracle_embeddings_give_mrr_one(self):
        n_pairs = 4
        kg = self._paired_kg(n_pairs)
        # block-diagonal pairs: within block i, e_{2i} = (1,1), e_{2i+1} = (1,-1)
        # under r = (1,-1) the true pair scores 2, every other pairing <= 0
        d = 2 * n_pairs
        em = np.zeros((2 * n_pairs, d))
        for i in range(n_pairs):
            em[2 * i, 2 * i:2 * i + 2] = [1.0, 1.0]
            em[2 * i + 1, 2 * i:2 * i + 2] = [1.0, -1.0]
        rm = np.zeros((1, d))
        rm[0] = np.tile([1.0, -1.0], n_pairs)
        erow = {e: e for e in range(2 * n_pairs)}
        metrics = eval_linkpred(em, rm, erow, {0: 0}, kg.triplets, kg)
        assert metrics["MRR"] == 1.0
        assert metrics["Hits@1"] == 1.0

    def test_tied_scores_take_pessimal_rank(self):
        kg = self._paired_kg(2)
        em = np.ones((4, 3))
        rm = np.ones((1, 3))
        erow = {e: e for e in range(4)}
        ranks = filtered_ranks(em, rm, erow, {0: 0}, [kg.triplets[0]], kg)
        # all four candidates tie; nothing is filtered except other positives
        assert ranks == [4, 4]

    def test_random_embeddings_match_monte_carlo_baseline(self):
        config = Config(**TINY)
        corpus = generate_corpus(config, seed=8)
        holdout = holdout_edges(corpus.kg, 0.15, seed=1)
        baseline = random_baseline_mrr(corpus.kg, holdout.held_out, d=8, seeds=20)
        rng = np.random.default_rng(999)
        em = rng.standard_normal((len(corpus.kg.entities), 8))
        rm = rng.standard_normal((len(corpus.kg.relations), 8))
        erow = {e: i for i, e in enumerate(corpus.kg.entity_ids())}
        rrow = {r: i for i, r in enumerate(corpus.kg.relation_ids())}
        single = eval_linkpred(em, rm, erow, rrow, holdout.held_out, corpus.kg)
        assert 0.2 * baseline < single["MRR"] < 5.0 * baseline

    def test_training_beats_random_baseline(self):
        config = Config(**TINY)
        corpus = generate_corpus(config, seed=9)
        result = train_kg_embeddings(corpus.kg, d=8, steps=120, lr=0.05,
                                     n_negatives=4, drop_rate=0.15, seed=2)
        baseline = random_baseline_mrr(corpus.kg, result.holdout.held_out,
                                       d=8, seeds=10)
        assert result.metrics["MRR"] > baseline


class TestRetrievalEval:
    def test_full_coverage_recall_one(self):
        config = Config(**TINY)
        corpus = generate_corpus(config, seed=10)
        params = build_model(config, corpus.kg)
        memory = corpus_memory(corpus)
        n = len(corpus.kg.entities)
        assert eval_retrieval(params, memory, corpus, k=n, k_per_patch=n) == 1.0

    def test_zero_noise_oracle_projection_recall_one(self):
        config = Config(**TINY, corpus_noise=0.0)
        corpus = generate_corpus(config, seed=11)
        memory = corpus_memory(corpus)
        projection = oracle_patch_projection(config)
        hits = 0
        for image, gt in zip(corpus.images, corpus.ground_truth):
            seq = patchify(image, config.patch_size)
            rset = retrieve(seq.patches @ projection, memory,
                            config.k_per_patch, config.k_final)
            hits += bool(set(rset.ids) & set(gt))
        assert hits == len(corpus)

    def test_trained_vs_untrained_comparison_runs(self):
        config = Config(**TINY)
        corpus = generate_corpus(config)
        untrained = build_model(config, corpus.kg)
        memory = corpus_memory(corpus)
        before = eval_retrieval(untrained, memory, corpus)
        result = pretrain(config, corpus)
        after = eval_retrieval(result.params, memory, corpus)
        assert 0.0 <= before <= 1.0 and 0.0 <= after <= 1.0


class TestStepStructure:
    def test_linkpred_skips_edgeless_subgraphs(self):
        config = Config(**{**TINY, "corpus_triplets": 1, "corpus_entities": 40,
                           "edge_drop": 0.5})
        corpus = generate_corpus(config)
        params = build_model(config, corpus.kg)
        memory = corpus_memory(corpus)
        plan = make_batch_plan(config, len(corpus), step=1)
        out = compute_step(params, corpus, memory, plan)
        if out.linkpred_positive_count == 0:
            assert out.bundle.linkpred.item() == 0.0

    def test_batch_plan_derives_from_seed_and_step(self):
        config = Config(**TINY)
        a = make_batch_plan(config, 12, step=3)
        b = make_batch_plan(config, 12, step=3)
        c = make_batch_plan(config, 12, step=4)
        assert [e.index for e in a.examples] == [e.index for e in b.examples]
        assert a.examples[0].span_mask_seed == b.examples[0].span_mask_seed
        assert (a.examples[0].index != c.examples[0].index
                or a.examples[0].span_mask_seed != c.examples[0].span_mask_seed)

    def test_batched_step_matches_per_example_reference(self):
        # Captions of 4 and 9 tokens, 2 to 4 of k_final = 4 entities
        # retrieved, and a subgraph without visible edges.
        config = Config(d=8, d_e=8, attn_width=8, ff_dim=16, vision_layers=1,
                        text_layers=1, gnn_layers=2, fusion_layers=1, image_h=8,
                        image_w=8, patch_size=4, k_per_patch=1, k_final=4,
                        batch_size=4, corpus_entities=30, corpus_relations=3,
                        corpus_triplets=20, corpus_examples=8, caption_min_len=3,
                        caption_max_len=8, max_text_len=8, vocab=64,
                        per_node_cap=3, n_negatives=4, edge_drop=0.3, seed=23)
        corpus = generate_corpus(config)
        params = build_model(config, corpus.kg)
        memory = corpus_memory(corpus)
        plan = make_batch_plan(config, len(corpus), step=1)

        batched = compute_step(params, corpus, memory, plan)
        visible_edges = []
        for ex, ids in zip(plan.examples, batched.retrieved):
            sub = expand_subgraph(corpus.kg, ids, config.per_node_cap, ex.subgraph_seed)
            visible_edges.append(len(split_triplet_list(
                sub.triplets_local, config.edge_drop, ex.holdout_seed)[0]))
        assert len({len(corpus.captions[ex.index]) for ex in plan.examples}) > 1
        assert min(len(ids) for ids in batched.retrieved) < config.k_final
        assert 0 in visible_edges and batched.linkpred_positive_count > 0

        got = T.backward(batched.bundle.total)
        reference = reference_compute_step(params, corpus, memory, plan)
        want = T.backward(reference.total)
        for name, value in batched.bundle.values().items():
            expected = reference.values()[name]
            assert abs(value - expected) <= 1e-12 * abs(expected), name
        for name, tensor in params.store.items():
            g = got.get(tensor, np.zeros_like(tensor.data))
            w = want.get(tensor, np.zeros_like(tensor.data))
            # The floor covers gradients that are zero up to rounding, such
            # as the GNN key bias, which shifts a whole softmax row.
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)) + 1e-18, name

    def test_default_step_values_and_node_budget(self):
        config = Config(seed=17, lr=2e-3)
        corpus = generate_corpus(config)
        params = build_model(config, corpus.kg)
        plan = make_batch_plan(config, len(corpus), step=1)
        out = compute_step(params, corpus, corpus_memory(corpus), plan)
        expected = {"mlm": 7.131708326719035, "mvm": 0.43799786794521806,
                    "linkpred": 1.3847969503602748, "itc": 3.1984313271811704,
                    "total": 12.152934472205697}
        for name, value in out.bundle.values().items():
            assert abs(value - expected[name]) <= 1e-12 * expected[name], name
        # One chain of ops per batch, not per example (2,866 nodes before).
        assert count_vjp_nodes(out.bundle.total) <= 1000
