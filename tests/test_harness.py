"""Harness: config round trip, synthetic corpus, AdamW, checkpoints, training."""

import collections
import math
import os
import stat
import weakref

import numpy as np
import pytest

from kgfuse import checkpoint, data, gnn, model, retriever
from kgfuse import tensor as T
from kgfuse.checkpoint import load_checkpoint, save_checkpoint
from kgfuse.config import Config
from kgfuse.data import corpus_memory, generate_corpus, oracle_patch_projection
from kgfuse.encoders import patchify, vision_encode
from kgfuse.errors import NumericsError, ValidationError
from kgfuse.kg import Triplet, expand_subgraph, holdout_edges, split_triplet_list
from kgfuse.model import build_model, compute_step, make_batch_plan
from kgfuse.objectives import ScoringTables
from kgfuse.optim import AdamState, optimizer_step
from kgfuse.retriever import retrieve
from kgfuse.tensor import Parameters, Tensor
from kgfuse.train import (eval_linkpred, eval_retrieval, filtered_ranks,
                          format_metrics, parse_metrics, pretrain,
                          random_baseline_mrr, train_kg_embeddings)

from helpers import (checkpoint_bytes, count_vjp_nodes, graph_nodes, reference_backward,
                     reference_batch_plan, reference_compute_step, reference_corpus,
                     reference_filtered_ranks, reference_gnn_layer, reference_optimizer_step,
                     reference_patch_projection)

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

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError, match=r"^run\.cfg:2: duplicate key 'lr'$"):
            Config.from_text("lr = 1e-3\nlr = 2e-3\n", source="run.cfg")

    def test_negative_seed_rejected(self):
        for make in (lambda: Config(seed=-4), lambda: Config.from_text("seed = -4\n")):
            with pytest.raises(ValidationError, match="seed must be >= 0"):
                make()
        assert Config(seed=0).seed == 0

    def test_bad_value_and_ranges(self):
        with pytest.raises(ValidationError, match="cannot parse"):
            Config.from_text("d = sixteen\n")
        with pytest.raises(ValidationError):
            Config(mlm_rate=1.5)
        with pytest.raises(ValidationError):
            Config(d=15)  # not divisible by heads
        with pytest.raises(ValidationError):
            Config(image_h=15)
        for name in ("lr", "gamma", "corpus_noise", "beta2", "tau_init"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValidationError, match=f"{name} must be finite"):
                    Config(**{name: value})
        with pytest.raises(ValidationError, match="lr must be finite"):
            Config.from_text("lr = nan\n")
        for name in ("beta1", "beta2"):
            for value in (-0.1, 1.0, 1.5):
                with pytest.raises(ValidationError, match=rf"{name} must be in \[0,1\)"):
                    Config(**{name: value})
            assert getattr(Config(**{name: 0.0}), name) == 0.0
        for name in ("heads", "patch_size", "image_h", "image_w", "image_c"):
            for value in (0, -2):
                with pytest.raises(ValidationError, match=f"{name} must be positive"):
                    Config(**{name: value})

    def test_comments_and_blank_lines(self):
        config = Config.from_text("# comment\n\nd = 16  # trailing\n")
        assert config.d == 16

    def test_file_roundtrip(self, tmp_path):
        config = Config(**TINY)
        (tmp_path / "run.cfg").write_text(config.to_text(), encoding="utf-8")
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

    def test_each_entity_description_is_embedded_once(self, monkeypatch):
        # Counted per entity description: init_gnn embeds the relations' too.
        calls = collections.Counter()

        def counted(embed):
            def wrapper(text, d_e, seed):
                calls[text] += 1
                return embed(text, d_e, seed)
            return wrapper

        for module in (retriever, data, gnn):  # wherever the name is bound
            if hasattr(module, "embed_description"):
                monkeypatch.setattr(module, "embed_description",
                                    counted(module.embed_description))
        config = Config(**{**TINY, "steps": 0})
        corpus = generate_corpus(config)
        corpus_memory(corpus)
        pretrain(config, corpus=corpus)
        counts = [calls[record.description] for record in corpus.kg.entities.values()]
        assert counts == [1] * config.corpus_entities

    # 8-pixel patches of 3 channels hold 192 entries: 16 turns of 12
    # coordinates, or 19 of 10 and two over; 12x20 images cut into a 3x5
    # grid of 16 entries over 5 coordinates; 5 entities do not divide the
    # 16 patches; 2-pixel patches hold fewer entries than the 6 coordinates.
    TILINGS = [dict(patch_size=8, image_c=3, d_e=12), dict(patch_size=8, image_c=3, d_e=10),
               dict(image_h=12, image_w=20, d_e=5), dict(entities_per_example=5),
               dict(patch_size=2, d_e=6)]

    @pytest.mark.parametrize("shape", TILINGS)
    def test_corpus_equals_the_per_patch_loop(self, shape):
        # tobytes, so that a signed zero or a layout slip counts.
        config = Config(**{**TINY, **shape})
        corpus = generate_corpus(config, seed=9)
        images, captions, ground_truth = reference_corpus(config, 9)
        assert [(x.shape, x.dtype, x.tobytes()) for x in corpus.images] == \
            [(x.shape, x.dtype, x.tobytes()) for x in images]
        assert corpus.captions == captions and corpus.ground_truth == ground_truth

    @pytest.mark.parametrize("shape", TILINGS)
    def test_oracle_projection_equals_the_entry_loop(self, shape):
        config = Config(**{**TINY, **shape})
        got, want = oracle_patch_projection(config), reference_patch_projection(config)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

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

    def test_rejected_step_writes_nothing(self):
        params = Parameters()
        a = params.add("a", Tensor(np.array([1.0, 2.0])))
        b = params.add("b", Tensor(np.ones((2, 2))))
        state = AdamState.init(params)
        optimizer_step(params, {a: np.array([0.5, -0.5]), b: np.ones((2, 2))}, state,
                       lr=1e-2, weight_decay=0.1)
        before = (params.flat().copy(), state.m_flat.copy(), state.v_flat.copy(), state.t)
        bad = [({a: np.array([0.1, 0.2]), b: np.full((2, 2), np.nan)}, NumericsError, "'b'"),
               ({a: np.array([0.1, 0.2]), b: np.ones(4)}, ValidationError, "'b'"),
               ({a: np.array([np.inf, 0.2]), b: np.ones(4)}, NumericsError, "'a'"),
               ({a: np.array([0.1, 0.2]), b: np.full(4, np.nan)}, NumericsError, "'b'")]
        for grads, error, name in bad:
            with pytest.raises(error, match=name):
                optimizer_step(params, grads, state, lr=1e-2, weight_decay=0.1)
            assert a.data.tobytes() + b.data.tobytes() == before[0].tobytes()
            assert state.m_flat.tobytes() == before[1].tobytes()
            assert state.v_flat.tobytes() == before[2].tobytes()
            assert state.t == before[3]

    def test_bad_hyperparameter_writes_nothing(self):
        params = Parameters()
        a = params.add("a", Tensor(np.array([1.0, 2.0])))
        state = AdamState.init(params)
        optimizer_step(params, {a: np.array([0.5, -0.5])}, state, lr=1e-2, weight_decay=0.1)
        before = (a.data.copy(), state.m_flat.copy(), state.v_flat.copy(), state.t)
        for bad in (dict(lr=np.nan), dict(lr=np.inf), dict(lr=0.0), dict(eps=np.nan),
                    dict(eps=0.0), dict(weight_decay=np.inf), dict(weight_decay=np.nan),
                    dict(weight_decay=-0.1), dict(betas=(np.nan, 0.9)),
                    dict(betas=(1.0, 0.999)), dict(betas=(0.9, -0.1))):
            with pytest.raises(ValidationError):
                optimizer_step(params, {a: np.array([0.1, 0.2])}, state,
                               **{"lr": 1e-2, "weight_decay": 0.1, **bad})
            assert a.data.tobytes() == before[0].tobytes(), bad
            assert state.m_flat.tobytes() == before[1].tobytes(), bad
            assert state.v_flat.tobytes() == before[2].tobytes(), bad
            assert state.t == before[3], bad

    def test_equals_per_tensor_loop(self):
        def model():
            rng = np.random.default_rng(41)
            params = Parameters()
            for name, shape in (("w", (3, 4)), ("frozen", (5,)), ("b", (4,)), ("s", ())):
                params.add(name, Tensor(rng.standard_normal(shape)))
            return params

        flat, looped = model(), model()
        flat_state, looped_state = AdamState.init(flat), AdamState.init(looped)
        rng = np.random.default_rng(42)
        for _ in range(5):
            # "frozen" never gets a gradient and only decays.
            grads = {name: rng.standard_normal(flat[name].shape) * 10.0 ** rng.integers(-9, 3)
                     for name in ("w", "b", "s")}
            optimizer_step(flat, {flat[n]: g for n, g in grads.items()}, flat_state,
                           lr=3e-3, weight_decay=0.05, betas=(0.8, 0.99), eps=1e-7)
            reference_optimizer_step(looped, {looped[n]: g for n, g in grads.items()},
                                     looped_state, lr=3e-3, weight_decay=0.05,
                                     betas=(0.8, 0.99), eps=1e-7)
        assert flat_state.t == looped_state.t == 5
        for name in flat.names():
            assert flat[name].data.tobytes() == looped[name].data.tobytes()
            assert flat_state.m[name].tobytes() == looped_state.m[name].tobytes()
            assert flat_state.v[name].tobytes() == looped_state.v[name].tobytes()

    def test_parameters_and_moments_view_flat_buffers(self):
        params = Parameters()
        w = params.add("w", Tensor(np.arange(6.0).reshape(2, 3)))
        state = AdamState.init(params)
        optimizer_step(params, {w: np.ones((2, 3))}, state, lr=0.1, weight_decay=0.0)
        assert np.shares_memory(w.data, params.flat())
        assert np.shares_memory(state.m["w"], state.m_flat)
        np.testing.assert_array_equal(state.m["w"], np.full((2, 3), 1.0 - 0.9))
        # A rebound parameter is copied back into a new buffer.
        w.data = np.zeros((2, 3))
        optimizer_step(params, {}, state, lr=0.1, weight_decay=0.0)
        assert np.shares_memory(w.data, params.flat())


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

    def test_malformed_headers_raise_validation_errors(self, tmp_path):
        config_text = Config(**TINY).to_text().encode("utf-8")
        path = tmp_path / "bad.ckpt"
        cases = [
            # 2**80 cells: a wrapping size product would read 0 bytes.
            ([(b"w", (2 ** 40, 2 ** 40), b"")], config_text, "truncated"),
            ([(b"\xff\xfe", (2,), bytes(16))], config_text, "name .* not UTF-8"),
            ([(b"w", (2,), bytes(16))], b"\xc3(", "config .* not UTF-8"),
            ([(b"w", (1,) * 65, bytes(8))], config_text, "'w' has shape"),
            ([(b"w", (2 ** 64 - 1, 0), b"")], config_text, "'w' has shape"),
            ([(b"w", (2,), np.array([0.5, np.nan]).tobytes())], config_text,
             "'w' holds non-finite"),
            ([(b"w", (2,), bytes(16)), (b"opt_v.w", (1,), np.array([-np.inf]).tobytes())],
             config_text, "'opt_v.w' holds non-finite"),
        ]
        for tensors, text, message in cases:
            path.write_bytes(checkpoint_bytes(text, tensors))
            with pytest.raises(ValidationError, match=message):
                load_checkpoint(path)

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        # Read in order, the second 'w' would replace the first: {'w': [1, 1, 1]}.
        config_text = Config(**TINY).to_text().encode("utf-8")
        path = tmp_path / "dup.ckpt"
        path.write_bytes(checkpoint_bytes(config_text, [
            (b"w", (2,), np.ones(2).tobytes()), (b"w", (3,), np.ones(3).tobytes())]))
        # magic, config length and text, step, count; then the first record:
        # name length, name, ndim, one dim and two float64s.
        second = 8 + 4 + len(config_text) + 8 + 4 + (4 + 1 + 4 + 8 + 16)
        with pytest.raises(ValidationError, match=f"'w' twice, again at byte offset {second}$"):
            load_checkpoint(path)

    def test_save_syncs_the_directory_after_the_rename(self, tmp_path, monkeypatch):
        params = Parameters()
        params.add("w", Tensor(np.ones((2, 3))))
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            events.append(("fsync", stat.S_ISDIR(info.st_mode), info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(src), os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_checkpoint(tmp_path / "m.ckpt", Config(**TINY), 1, params, AdamState.init(params))
        assert [e[:2] for e in events] == [("fsync", False), ("replace", "m.ckpt.tmp"),
                                           ("fsync", True)]
        assert events[1][2] == "m.ckpt"
        assert events[2][2] == os.stat(tmp_path).st_ino
        assert load_checkpoint(tmp_path / "m.ckpt").tensors["w"].shape == (2, 3)

    def test_missing_optimizer_moments(self, tmp_path):
        config = Config(**TINY)
        params = Parameters()
        params.add("w", Tensor(np.ones((2, 3))))
        path = tmp_path / "m.ckpt"
        weights = (b"w", (2, 3), np.full(6, 0.5).tobytes())
        moment = (b"opt_m.w", (2, 3), bytes(48))
        cases = [([weights], "opt_m.w"), ([weights, moment], "opt_v.w"),
                 ([weights, moment, (b"opt_v.w", (3, 2), bytes(48))], "opt_v.w")]
        for tensors, message in cases:
            path.write_bytes(checkpoint_bytes(config.to_text().encode("utf-8"), tensors))
            loaded = load_checkpoint(path)
            loaded.load_into(params)
            np.testing.assert_array_equal(params["w"].data, np.full((2, 3), 0.5))
            params["w"].data[...] = 1.0
            state = AdamState.init(params)
            state.m["w"][...], state.v["w"][...], state.t = 2.0, 3.0, 7
            m_view = state.m["w"]
            with pytest.raises(ValidationError, match=message):
                loaded.load_into(params, state)
            # A rejected load writes nothing.
            np.testing.assert_array_equal(params["w"].data, np.ones((2, 3)))
            assert state.m["w"] is m_view
            np.testing.assert_array_equal(state.m_flat, np.full(6, 2.0))
            np.testing.assert_array_equal(state.v_flat, np.full(6, 3.0))
            assert state.t == 7

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        config = Config(**TINY)
        result = pretrain(config, generate_corpus(config))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config, 2, result.params.store, result.state)
        before = path.read_bytes()
        written = []

        def failing_write(fh, name, data):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(name)
            real_write(fh, name, data)

        real_write = checkpoint._write_tensor
        monkeypatch.setattr(checkpoint, "_write_tensor", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, config, 4, result.params.store, result.state)
        assert path.read_bytes() == before
        assert load_checkpoint(path).step == 2
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_config_mismatch_on_resume(self, tmp_path):
        config = Config(**TINY)
        corpus = generate_corpus(config)
        result = pretrain(config, corpus)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config, 2, result.params.store, result.state)
        other = Config(**{**TINY, "lr": 9e-4})
        with pytest.raises(ValidationError, match="config"):
            pretrain(other, corpus, resume=load_checkpoint(path))

    def test_resume_past_the_last_step(self, tmp_path, monkeypatch):
        # Rejected before any weight is loaded: such a run takes no step.
        config = Config(**TINY)
        corpus = generate_corpus(config)
        result = pretrain(config, corpus)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, config, config.steps + 3, result.params.store, result.state)
        resume = load_checkpoint(path)
        monkeypatch.setattr(checkpoint.Checkpoint, "load_into", None)
        with pytest.raises(ValidationError, match=f"step {config.steps + 3} .* {config.steps}$"):
            pretrain(config, corpus, resume=resume)


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
        tables = ScoringTables(Tensor(em), {e: e for e in range(2 * n_pairs)},
                               Tensor(rm), {0: 0})
        metrics = eval_linkpred(tables, kg.triplets, kg)
        assert metrics["MRR"] == 1.0
        assert metrics["Hits@1"] == 1.0

    def test_tied_scores_take_pessimal_rank(self):
        kg = self._paired_kg(2)
        tables = ScoringTables(Tensor(np.ones((4, 3))), {e: e for e in range(4)},
                               Tensor(np.ones((1, 3))), {0: 0})
        ranks = filtered_ranks(tables, [kg.triplets[0]], kg)
        # all four candidates tie; nothing is filtered except other positives
        assert ranks == [4, 4]

    @pytest.mark.parametrize("graph", ["criterion5", "default"])
    def test_filtered_ranks_equal_the_per_triplet_reference(self, graph):
        if graph == "criterion5":
            config = Config(corpus_entities=50, corpus_relations=4,
                            corpus_triplets=300, corpus_examples=4)
            kg = generate_corpus(config, seed=5).kg
        else:
            kg = generate_corpus(Config(), seed=17).kg
        held_out = holdout_edges(kg, 0.15, seed=0).held_out
        ids, rels = kg.entity_ids(), kg.relation_ids()
        # Rows out of dense order, so the maps are read, not assumed.
        perm = np.random.default_rng(1).permutation(len(ids))
        erow = {e: int(perm[i]) for i, e in enumerate(ids)}
        rrow = {r: len(rels) - 1 - i for i, r in enumerate(rels)}
        rng = np.random.default_rng(len(ids))
        pairs = [(rng.standard_normal((len(ids), 16)), rng.standard_normal((len(rels), 16)))
                 for _ in range(6)]
        for em, rm in pairs:
            assert (filtered_ranks(ScoringTables(Tensor(em), erow, Tensor(rm), rrow),
                                   held_out, kg)
                    == reference_filtered_ranks(em, rm, erow, rrow, held_out, kg))
        # All-ones tables tie every candidate, so each rank counts every
        # candidate left after filtering, the target included.
        em, rm = np.ones((len(ids), 4)), np.ones((len(rels), 4))
        ranks = filtered_ranks(ScoringTables(Tensor(em), erow, Tensor(rm), rrow),
                               held_out, kg)
        assert ranks == reference_filtered_ranks(em, rm, erow, rrow, held_out, kg)
        filtered = kg.known_mask(kg.index_triplets(held_out)).sum(axis=1)
        assert ranks == (len(ids) - filtered + 1).tolist()

    @staticmethod
    def _ones_tables(entity_row, relation_row):
        return ScoringTables(Tensor(np.ones((4, 3))), entity_row,
                             Tensor(np.ones((1, 3))), relation_row)

    def test_ranks_cover_every_entity_of_the_graph(self):
        kg = self._paired_kg(2)
        erow = {e: e for e in range(4)}
        del erow[3]
        with pytest.raises(ValidationError, match="entity 3 missing"):
            eval_linkpred(self._ones_tables(erow, {0: 0}), [kg.triplets[0]], kg)

    def test_missing_relation_row_raises(self):
        kg = self._paired_kg(2)
        erow = {e: e for e in range(4)}
        with pytest.raises(ValidationError, match="relation 0 missing"):
            eval_linkpred(self._ones_tables(erow, {5: 0}), [kg.triplets[0]], kg)

    @pytest.mark.parametrize("triplet", [Triplet(0, 0, 9), Triplet(9, 0, 1),
                                         Triplet(0, 7, 1)])
    def test_unknown_held_out_ids_raise(self, triplet):
        kg = self._paired_kg(2)
        tables = self._ones_tables({e: e for e in range(4)}, {0: 0})
        field = {Triplet(0, 0, 9): "tail entity 9", Triplet(9, 0, 1): "head entity 9",
                 Triplet(0, 7, 1): "relation 7"}[triplet]
        with pytest.raises(ValidationError, match=f"triplet 0: unknown {field}$"):
            eval_linkpred(tables, [triplet], kg)

    def test_per_positive_row_maps_rank_like_each_own_map(self):
        # Criterion 5's graph: each held-out edge ranks through its own
        # permutation of a shared table, as training reads per-positive maps.
        config = Config(corpus_entities=50, corpus_relations=4,
                        corpus_triplets=300, corpus_examples=4)
        kg = generate_corpus(config, seed=5).kg
        held_out = holdout_edges(kg, 0.3, seed=0).held_out
        ids, rels = kg.entity_ids(), kg.relation_ids()
        rng = np.random.default_rng(4)
        maps = np.array([rng.permutation(len(ids) + 3)[:len(ids)] for _ in held_out])
        em = rng.standard_normal((len(ids) + 3, 8))
        rm = rng.standard_normal((len(rels), 8))
        ranks = filtered_ranks(ScoringTables(Tensor(em), maps, Tensor(rm),
                                             np.arange(len(rels))), held_out, kg)
        rrow = dict(zip(rels, range(len(rels))))
        expected = [rank for triplet, rows in zip(held_out, maps)
                    for rank in reference_filtered_ranks(
                        em, rm, dict(zip(ids, rows.tolist())), rrow, [triplet], kg)]
        assert len(held_out) >= 80 and ranks == expected
        with pytest.raises(ValidationError, match="entity row map"):
            filtered_ranks(ScoringTables(Tensor(em), maps[1:], Tensor(rm),
                                         np.arange(len(rels))), held_out, kg)

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
        single = eval_linkpred(ScoringTables(Tensor(em), erow, Tensor(rm), rrow),
                               holdout.held_out, corpus.kg)
        assert 0.2 * baseline < single["MRR"] < 5.0 * baseline

    def test_training_beats_random_baseline(self):
        config = Config(**TINY)
        corpus = generate_corpus(config, seed=9)
        result = train_kg_embeddings(corpus.kg, d=8, steps=120, lr=0.05,
                                     n_negatives=4, drop_rate=0.15, seed=2)
        baseline = random_baseline_mrr(corpus.kg, result.holdout.held_out,
                                       d=8, seeds=10)
        assert result.metrics["MRR"] > baseline
        assert result.metrics == eval_linkpred(result.tables, result.holdout.held_out,
                                               corpus.kg)


class TestRetrievalEval:
    def test_full_coverage_recall_one(self):
        n = TINY["corpus_entities"]
        config = Config(**{**TINY, "k_final": n, "k_per_patch": n})
        corpus = generate_corpus(config, seed=10)
        params = build_model(config, corpus.kg)
        memory = corpus_memory(corpus)
        assert len(corpus.kg.entities) == n
        assert eval_retrieval(params, memory, corpus) == 1.0

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

    def test_reports_recall_not_hit_rate(self):
        config = Config(**{**TINY, "k_final": 8})
        corpus = generate_corpus(config, seed=12)
        params = build_model(config, corpus.kg)
        memory = corpus_memory(corpus)
        recall = eval_retrieval(params, memory, corpus)
        found = []
        for image, gt in zip(corpus.images, corpus.ground_truth):
            queries = vision_encode(patchify(image, config.patch_size).patches,
                                    params.vision)[1].data
            found.append(len(set(retrieve(queries, memory, config.k_per_patch, 8).ids)
                             & set(gt)) / len(gt))
        hit_rate = np.mean([f > 0 for f in found])
        assert min(len(gt) for gt in corpus.ground_truth) > 1
        assert abs(recall - np.mean(found)) < 1e-12
        assert recall < hit_rate

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

    def test_memory_of_another_graph_is_rejected_before_sampling(self, monkeypatch):
        config = Config(**TINY)
        corpus = generate_corpus(config)
        larger = generate_corpus(Config(**{**TINY, "corpus_entities": 60}))
        params = build_model(config, corpus.kg)
        plan = make_batch_plan(config, len(corpus), step=1)

        def unreachable(*args):
            raise AssertionError("sampled a subgraph")

        monkeypatch.setattr(model, "expand_subgraph", unreachable)
        with pytest.raises(ValidationError, match="memory of 60 ids differs from the graph's 40"):
            compute_step(params, corpus, corpus_memory(larger), plan)

    def test_batch_plan_derives_from_seed_and_step(self):
        config = Config(**TINY)
        a = make_batch_plan(config, 12, step=3)
        b = make_batch_plan(config, 12, step=3)
        c = make_batch_plan(config, 12, step=4)
        assert [e.index for e in a.examples] == [e.index for e in b.examples]
        assert a.examples[0].span_mask_seed == b.examples[0].span_mask_seed
        assert (a.examples[0].index != c.examples[0].index
                or a.examples[0].span_mask_seed != c.examples[0].span_mask_seed)

    def test_batch_plan_equals_per_example_draws(self):
        for seed, batch_size in [(17, 2), (3, 3), (17, 8)]:
            config = Config(**{**TINY, "seed": seed, "batch_size": batch_size})
            for corpus_size in (1, 12, 200):
                for step in range(40):
                    assert make_batch_plan(config, corpus_size, step) == \
                        reference_batch_plan(config, corpus_size, step)

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
                    "linkpred": 1.384790016053758, "itc": 3.1984313271811704,
                    "total": 12.152927537899183}
        for name, value in out.bundle.values().items():
            assert abs(value - expected[name]) <= 1e-12 * expected[name], name
        # One chain of ops per batch and one link-prediction call per step
        # (2,866 nodes per example chain, 590 with one call per example).
        assert count_vjp_nodes(out.bundle.total) <= 500
        # Link prediction scores its candidates against the whole table and
        # gathers no (P, 1 + n, d) candidate rows.
        gathered = (1 + config.n_negatives, config.d)
        assert not any(node.shape[-2:] == gathered
                       for node in graph_nodes(out.bundle.total))


class TestBackwardSweep:
    LOSSES = ("mlm", "mvm", "linkpred", "itc", "total")

    @staticmethod
    def _default_step():
        config = Config(seed=17, lr=2e-3)
        corpus = generate_corpus(config)
        params = build_model(config, corpus.kg)
        memory = corpus_memory(corpus)
        plan = make_batch_plan(config, len(corpus), step=1)
        return params, lambda: compute_step(params, corpus, memory, plan).bundle

    @pytest.mark.parametrize("name", LOSSES)
    def test_matches_depth_first_oracle(self, name):
        # Backward consumes the graph, so each loss gets a fresh one; the
        # oracle leaves it intact for the sweep under test.
        params, step = self._default_step()
        loss = getattr(step(), name)
        want = reference_backward(loss)
        got = T.backward(loss)
        assert set(got) == set(want) and want
        for pname, tensor in params.store.items():
            if tensor in want:
                g, w = got[tensor], want[tensor]
                assert g.shape == w.shape, pname
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)) + 1e-18, pname

    def test_default_step_node_count_is_pinned(self):
        # 174 nodes carry a VJP: six are one attention node per transformer
        # layer and two one graph_attention node per GAT layer.  Attention
        # as a chain of primitives made it 274, and the GAT as one 210.
        _, step = self._default_step()
        nodes = [node for node in graph_nodes(step().total) if node._vjp is not None]
        assert len(nodes) <= 174
        assert sum(node.op == "attention" for node in nodes) == 6
        assert sum(node.op == "graph_attention" for node in nodes) == Config().gnn_layers

    def test_default_step_gradients_match_the_gat_chain(self, monkeypatch):
        # The GAT as one node against the chain of primitives it replaced, on
        # every loss value and every leaf gradient of a default step.
        params, step = self._default_step()
        bundle = step()
        got = T.backward(bundle.total)
        monkeypatch.setattr(T, "graph_attention", lambda *inputs: reference_gnn_layer(
            *inputs, 1.0 / np.sqrt(inputs[2].shape[1])))
        reference = step()
        want = T.backward(reference.total)
        for name, value in bundle.values().items():
            assert abs(value - reference.values()[name]) <= 1e-12 * abs(value), name
        assert set(got) == set(want)
        for pname, tensor in params.store.items():
            g, w = got[tensor], want[tensor]
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), pname

    def test_backward_releases_the_graph(self):
        # Tensor has no weakref slot, so the test watches every intermediate
        # node's activation array instead; the node holds it while alive.
        _, step = self._default_step()
        bundle = step()
        kept = {id(getattr(bundle, name)) for name in self.LOSSES}
        activations = [weakref.ref(node.data) for node in graph_nodes(bundle.total)
                       if node._vjp is not None and id(node) not in kept]
        # Every node with a VJP is watched but the five losses the bundle keeps.
        assert len(activations) == count_vjp_nodes(bundle.total) - len(self.LOSSES) > 0
        T.backward(bundle.total)
        assert sum(ref() is not None for ref in activations) == 0
