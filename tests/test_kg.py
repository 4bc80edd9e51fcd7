"""Knowledge graph store: ingestion, adjacency, expansion, holdout, negatives."""

import re

import numpy as np
import pytest

from kgfuse.config import Config
from kgfuse.data import generate_corpus
from kgfuse.errors import ValidationError
from kgfuse.kg import (DIR_IN, DIR_OUT, KnowledgeGraph, NamedRecord, Triplet,
                       expand_subgraph, holdout_edges, load_kg,
                       negative_indices, sample_negatives, split_triplet_list)

from helpers import (negative_ends, reference_expand_subgraph, reference_sample_negatives,
                     write_kg_tsv)


def small_kg() -> KnowledgeGraph:
    entities = {i: NamedRecord(f"e{i}", f"entity {i} about topic {i % 3}")
                for i in range(6)}
    relations = {0: NamedRecord("r0", "first relation"),
                 1: NamedRecord("r1", "second relation")}
    triplets = [Triplet(0, 0, 1), Triplet(0, 1, 2), Triplet(3, 0, 0),
                Triplet(2, 1, 4), Triplet(4, 0, 2)]
    return KnowledgeGraph(entities, relations, triplets)


def toy_corpus_kg(seed=3):
    config = Config(corpus_entities=200, corpus_relations=10,
                    corpus_triplets=800, corpus_examples=2)
    return generate_corpus(config, seed=seed).kg


class TestConstruction:
    def test_adjacency_indexes_both_directions(self):
        entities = {i: NamedRecord(f"e{i}", "d") for i in range(3)}
        relations = {0: NamedRecord("r", "d")}
        kg = KnowledgeGraph(entities, relations,
                            [Triplet(0, 0, 1), Triplet(1, 0, 2)])
        total_degree = sum(len(kg.neighbors(e)) for e in kg.entity_ids())
        assert total_degree == 4

    def test_duplicate_triplets_rejected(self):
        entities = {0: NamedRecord("a", "d"), 1: NamedRecord("b", "d")}
        relations = {0: NamedRecord("r", "d")}
        with pytest.raises(ValidationError, match="duplicate"):
            KnowledgeGraph(entities, relations,
                           [Triplet(0, 0, 1), Triplet(0, 0, 1)])

    def test_dangling_reference_rejected(self):
        entities = {0: NamedRecord("a", "d")}
        relations = {0: NamedRecord("r", "d")}
        with pytest.raises(ValidationError, match="unknown tail entity 9"):
            KnowledgeGraph(entities, relations, [Triplet(0, 0, 9)])


class TestTsvRoundTrip:
    def test_load_save_load_identity(self, tmp_path):
        kg = toy_corpus_kg()
        paths = [tmp_path / n for n in ("entities.tsv", "relations.tsv", "triplets.tsv")]
        write_kg_tsv(kg, *paths)
        loaded = load_kg(*paths)
        assert loaded.entities == kg.entities
        assert loaded.relations == kg.relations
        assert loaded.triplets == kg.triplets
        write_kg_tsv(loaded, *paths)
        again = load_kg(*paths)
        assert again.triplets == kg.triplets

    def test_unknown_entity_names_line(self, tmp_path):
        (tmp_path / "entities.tsv").write_text("0\ta\tdesc\n1\tb\tdesc\n")
        (tmp_path / "relations.tsv").write_text("0\tr\tdesc\n")
        (tmp_path / "triplets.tsv").write_text("0\t0\t1\n0\t0\t99\n")
        with pytest.raises(ValidationError, match=r"triplets\.tsv:2.*99"):
            load_kg(tmp_path / "entities.tsv", tmp_path / "relations.tsv",
                    tmp_path / "triplets.tsv")

    def test_malformed_row_names_line(self, tmp_path):
        (tmp_path / "relations.tsv").write_text("0\tr\tdesc\n")
        (tmp_path / "triplets.tsv").write_text("")
        # int() would read "1_0", "+7" and " \u0663" as 10, 7 and 3.
        for bad in ("not_an_id", "1_0", "+7", " \u0663", "-1", "", str(2 ** 64), "9" * 5000):
            (tmp_path / "entities.tsv").write_text(f"0\ta\tdesc\n{bad}\tb\tdesc\n",
                                                   encoding="utf-8")
            with pytest.raises(ValidationError, match=r"entities\.tsv:2: (non-decimal|id)"):
                load_kg(tmp_path / "entities.tsv", tmp_path / "relations.tsv",
                        tmp_path / "triplets.tsv")

    def test_wrong_field_count_and_duplicate_id(self, tmp_path):
        (tmp_path / "bad.tsv").write_text("0\tname_only\n")
        (tmp_path / "relations.tsv").write_text("0\tr\tdesc\n")
        (tmp_path / "triplets.tsv").write_text("")
        with pytest.raises(ValidationError, match=r"bad\.tsv:1.*3"):
            load_kg(tmp_path / "bad.tsv", tmp_path / "relations.tsv",
                    tmp_path / "triplets.tsv")
        (tmp_path / "dup.tsv").write_text("0\ta\td\n0\tb\td\n")
        with pytest.raises(ValidationError, match=r"dup\.tsv:2.*duplicate"):
            load_kg(tmp_path / "dup.tsv", tmp_path / "relations.tsv",
                    tmp_path / "triplets.tsv")


class TestNeighbors:
    def test_isolated_entity(self):
        kg = small_kg()
        assert kg.neighbors(5) == []

    def test_single_triplet_direction(self):
        entities = {0: NamedRecord("h", "d"), 1: NamedRecord("t", "d")}
        relations = {7: NamedRecord("r", "d")}
        kg = KnowledgeGraph(entities, relations, [Triplet(0, 7, 1)])
        assert kg.neighbors(0) == [(7, 1, DIR_OUT)]
        assert kg.neighbors(1) == [(7, 0, DIR_IN)]

    def test_matches_bruteforce_scan(self):
        kg = toy_corpus_kg()
        hub = max(kg.entity_ids(), key=lambda e: len(kg.neighbors(e)))
        expected = []
        for h, r, t in kg.triplets:
            if h == hub:
                expected.append((r, t, DIR_OUT))
            if t == hub:
                expected.append((r, h, DIR_IN))
        expected.sort(key=lambda rec: (rec[1], rec[0], rec[2]))
        assert kg.neighbors(hub) == expected

    def test_unknown_entity(self):
        with pytest.raises(ValidationError):
            small_kg().neighbors(77)


class TestExpandSubgraph:
    def test_isolated_seed(self):
        sub = expand_subgraph(small_kg(), [5], per_node_cap=4, seed=0)
        assert sub.entity_ids == [5]
        assert sub.triplets_local.shape == (0, 3)
        assert sub.seed_flags == [True]

    def test_small_neighborhood_complete(self):
        kg = small_kg()
        sub = expand_subgraph(kg, [0], per_node_cap=16, seed=0)
        assert set(sub.entity_ids) == {0, 1, 2, 3}
        expected = {(h, r, t) for h, r, t in kg.triplets
                    if h in sub.entity_ids and t in sub.entity_ids}
        rels = kg.relation_ids()
        got = {(sub.entity_ids[h], rels[r], sub.entity_ids[t])
               for h, r, t in sub.triplets_local.tolist()}
        assert got == expected

    def test_cap_and_determinism(self):
        kg = toy_corpus_kg()
        hub = max(kg.entity_ids(), key=lambda e: len({n for _, n, _ in kg.neighbors(e)}))
        degree = len({n for _, n, _ in kg.neighbors(hub)})
        cap = min(16, degree - 1) if degree > 1 else 1
        sub1 = expand_subgraph(kg, [hub], per_node_cap=cap, seed=9)
        sub2 = expand_subgraph(kg, [hub], per_node_cap=cap, seed=9)
        assert sub1.entity_ids == sub2.entity_ids
        np.testing.assert_array_equal(sub1.triplets_local, sub2.triplets_local)
        assert len(sub1.entity_ids) == 1 + cap

    def test_edges_equal_bruteforce_filter(self):
        kg = toy_corpus_kg()
        rng = np.random.default_rng(4)
        ids, rels = kg.entity_ids(), kg.relation_ids()
        for trial in range(10):
            seeds = [ids[i] for i in rng.choice(len(ids), size=3, replace=False)]
            sub = expand_subgraph(kg, seeds, per_node_cap=5, seed=trial)
            nodes = set(sub.entity_ids)
            expected = {(h, r, t) for h, r, t in kg.triplets
                        if h in nodes and t in nodes}
            got = {(sub.entity_ids[h], rels[r], sub.entity_ids[t])
                   for h, r, t in sub.triplets_local.tolist()}
            assert got == expected

    def test_edge_list_equals_full_scan_in_graph_order(self):
        # Nodes, flags and the same edge list as the Python sampler's full
        # scan, not just the same set: GNN sums run in this order.
        kg = toy_corpus_kg()
        loops = KnowledgeGraph(kg.entities, kg.relations,
                               kg.triplets + [Triplet(e, 0, e) for e in kg.entity_ids()[::7]])
        rng = np.random.default_rng(5)
        for graph in (kg, loops):
            ids = graph.entity_ids()
            for trial in range(60):
                cap = int(rng.integers(1, 12))
                # Some seeds repeat, which the sampler keeps once.
                seeds = [ids[i] for i in rng.choice(len(ids), size=int(rng.integers(1, 9)))]
                sub = expand_subgraph(graph, seeds, per_node_cap=cap, seed=trial)
                nodes, flags, triplets = reference_expand_subgraph(graph, seeds, cap, trial)
                assert sub.entity_ids == nodes and sub.seed_flags == flags
                assert sub.triplets_local.dtype == np.int64
                np.testing.assert_array_equal(sub.triplets_local,
                                              np.array(triplets).reshape(-1, 3))

    def test_seeds_first_in_given_order(self):
        kg = small_kg()
        sub = expand_subgraph(kg, [4, 0], per_node_cap=2, seed=1)
        assert sub.entity_ids[:2] == [4, 0]
        assert sub.seed_flags[:2] == [True, True]
        assert not any(sub.seed_flags[2:])

    def test_unknown_seed(self):
        with pytest.raises(ValidationError):
            expand_subgraph(small_kg(), [123], per_node_cap=2, seed=0)


class TestHoldout:
    def test_exact_count_at_paper_rate(self):
        kg = toy_corpus_kg()
        assert len(kg.triplets) == 800
        holdout = holdout_edges(kg, 0.15, seed=0)
        assert len(holdout.held_out) == 120

    def test_same_seed_identical(self):
        kg = small_kg()
        a = holdout_edges(kg, 0.4, seed=3)
        b = holdout_edges(kg, 0.4, seed=3)
        assert a.held_out == b.held_out
        assert a.visible == b.visible

    def test_partition_set_algebra(self):
        kg = toy_corpus_kg()
        holdout = holdout_edges(kg, 0.15, seed=1)
        visible = set(holdout.visible)
        held = set(holdout.held_out)
        assert visible | held == set(kg.triplets)
        assert visible & held == set()
        assert len(visible) + len(held) == len(kg.triplets)

    def test_rate_out_of_range(self):
        for rate in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                holdout_edges(small_kg(), rate, seed=0)

    def test_split_triplet_list_empty_ok(self):
        kept, held = split_triplet_list(np.empty((0, 3), dtype=np.int64), 0.15, seed=0)
        assert kept.shape == held.shape == (0, 3)


class TestSampleNegatives:
    def test_count_and_non_membership(self):
        kg = toy_corpus_kg()
        positive = kg.triplets[0]
        negs = sample_negatives(kg, positive, 128, seed=5)
        assert len(negs) == 128
        assert all(not kg.has_triplet(n) for n in negs)
        assert all(n.relation == positive.relation for n in negs)
        assert all(n.head == positive.head or n.tail == positive.tail for n in negs)

    def test_dense_graph_exhausts(self):
        entities = {0: NamedRecord("a", "d"), 1: NamedRecord("b", "d")}
        relations = {0: NamedRecord("r", "d")}
        triplets = [Triplet(h, 0, t) for h in (0, 1) for t in (0, 1)]
        kg = KnowledgeGraph(entities, relations, triplets)
        with pytest.raises(ValidationError, match="retries"):
            sample_negatives(kg, Triplet(0, 0, 1), 1, seed=0)

    def test_head_tail_coin_is_fair(self):
        kg = small_kg()
        dense = kg.index_triplets([Triplet(0, 0, 1)])
        draws = 10_000
        # The retry limit is a total per positive: about one candidate in
        # six collides here, so the default 1,000 would run out.
        coin, replacement = negative_indices(kg, dense, draws, seed=11, max_retries=draws)
        # A replacement equal to the endpoint it replaces would make the
        # positive itself, which is rejected and resampled.
        assert not (replacement == np.where(coin, dense[:, :1], dense[:, 2:])).any()
        assert abs(coin.mean() - 0.5) < 0.02

    def test_determinism(self):
        kg = small_kg()
        a = sample_negatives(kg, Triplet(0, 0, 1), 16, seed=7)
        b = sample_negatives(kg, Triplet(0, 0, 1), 16, seed=7)
        assert a == b

    @pytest.mark.parametrize("graph", ["criterion5", "default"])
    def test_equals_scalar_oracle(self, graph):
        if graph == "criterion5":
            config = Config(corpus_entities=50, corpus_relations=4,
                            corpus_triplets=300, corpus_examples=4)
            kg = generate_corpus(config, seed=5).kg
        else:
            kg = generate_corpus(Config(), seed=17).kg
        for seed in range(200):
            n = (1, 5, 32, 128)[seed % 4]
            count = (1, 3, 9, 40)[seed // 4 % 4]
            positives = [kg.triplets[(7 * seed + 11 * i) % len(kg.triplets)]
                         for i in range(count)]
            assert (_as_triplets(kg, positives, n, seed)
                    == reference_sample_negatives(kg, positives, n, seed=seed))
        if graph == "default":
            # A default training step's size: 176 held-out positives, n = 128.
            positives = [kg.triplets[(7 * i) % len(kg.triplets)] for i in range(176)]
            assert (_as_triplets(kg, positives, 128, 23)
                    == reference_sample_negatives(kg, positives, 128, seed=23))

    def test_n_equals_one(self):
        kg = toy_corpus_kg()
        for seed in range(50):
            got = sample_negatives(kg, kg.triplets[seed], 1, seed=seed)
            assert len(got) == 1
            assert got == reference_sample_negatives(kg, [kg.triplets[seed]], 1, seed=seed)[0]

    def test_retry_limit_counts_total_rejections(self):
        # Three entities, one relation and every triplet but those touching
        # (20, 0, 20): most candidates collide.
        entities = {e: NamedRecord(f"e{e}", "d") for e in (10, 20, 30)}
        relations = {0: NamedRecord("r", "d")}
        triplets = [Triplet(h, 0, t) for h in (10, 20, 30) for t in (10, 20, 30)
                    if (h, t) not in ((30, 30), (30, 20), (20, 30))]
        kg = KnowledgeGraph(entities, relations, triplets)
        positive = Triplet(20, 0, 20)
        longer_than_any_run = 0
        for seed in range(40):
            n = 1 + seed % 3
            # Replay the scalar stream: rejections before the n-th acceptance,
            # and the longest run of them.
            rng = np.random.default_rng(seed)
            accepted = rejected = run = longest = 0
            while accepted < n:
                coin, pick = int(rng.integers(0, 2)), (10, 20, 30)[int(rng.integers(0, 3))]
                candidate = (pick, 0, 20) if coin else (20, 0, pick)
                if Triplet(*candidate) in triplets:
                    rejected, run = rejected + 1, run + 1
                    longest = max(longest, run)
                else:
                    accepted, run = accepted + 1, 0
            longer_than_any_run += rejected > longest
            assert (sample_negatives(kg, positive, n, seed, max_retries=rejected + 1)
                    == reference_sample_negatives(kg, [positive], n, seed,
                                                  max_retries=rejected + 1)[0])
            if rejected:
                with pytest.raises(ValidationError, match=rf"after {rejected} retries"):
                    sample_negatives(kg, positive, n, seed, max_retries=rejected)
            # Several positives: the first one to reach the limit is named.
            positives = [positive, Triplet(30, 0, 30), Triplet(20, 0, 20)]
            limit = next(k for k in range(1, 400)
                         if _survives(kg, positives, n, seed, k))
            assert (_as_triplets(kg, positives, n, seed, max_retries=limit)
                    == reference_sample_negatives(kg, positives, n, seed,
                                                  max_retries=limit))
            if limit > 1:
                with pytest.raises(ValidationError) as want:
                    reference_sample_negatives(kg, positives, n, seed, max_retries=limit - 1)
                with pytest.raises(ValidationError, match=re.escape(str(want.value))):
                    negative_indices(kg, kg.index_triplets(positives), n, seed,
                                     max_retries=limit - 1)
        assert longer_than_any_run >= 10

    def test_retry_limit_below_one(self):
        kg = small_kg()
        for limit in (0, -3):
            with pytest.raises(ValidationError, match="max_retries"):
                sample_negatives(kg, Triplet(0, 0, 1), 4, seed=0, max_retries=limit)
            with pytest.raises(ValidationError, match="max_retries"):
                reference_sample_negatives(kg, [Triplet(0, 0, 1)], 4, seed=0,
                                           max_retries=limit)

    def test_unknown_endpoint(self):
        kg = small_kg()
        for positive in (Triplet(99, 0, 1), Triplet(0, 0, 99), Triplet(0, 9, 1)):
            with pytest.raises(ValidationError, match="99|9"):
                sample_negatives(kg, positive, 4, seed=0)


def _as_triplets(kg, positives, n, seed, max_retries=1000):
    dense = kg.index_triplets(positives)
    heads, tails = negative_ends(dense, *negative_indices(kg, dense, n, seed, max_retries))
    ids = kg.entity_ids()
    return [[Triplet(ids[h], p.relation, ids[t]) for h, t in zip(hs, ts)]
            for p, hs, ts in zip(positives, heads.tolist(), tails.tolist())]


def _survives(kg, positives, n, seed, max_retries) -> bool:
    try:
        reference_sample_negatives(kg, positives, n, seed, max_retries=max_retries)
    except ValidationError:
        return False
    return True


class TestIdCaches:
    def test_sorted_copies(self):
        kg = small_kg()
        ids = kg.entity_ids()
        assert ids == sorted(kg.entities)
        ids.append(1000)
        assert kg.entity_ids() == sorted(kg.entities)
        rels = kg.relation_ids()
        rels.clear()
        assert kg.relation_ids() == [0, 1]

    @pytest.mark.parametrize("graph_seed", [3, 4])
    def test_known_mask_matches_set_probe(self, graph_seed):
        kg = toy_corpus_kg(graph_seed)
        ids, rels = kg.entity_ids(), kg.relation_ids()
        triplets = set(kg.triplets)
        rng = np.random.default_rng(graph_seed)
        # Random triplets, most not in the graph, and some of the graph's own.
        dense = np.concatenate([
            rng.integers(0, [len(ids), len(rels), len(ids)], size=(40, 3)),
            kg.index_triplets(kg.triplets[::40])])
        mask = kg.known_mask(dense)
        assert mask.shape == (2 * len(dense), len(ids)) and mask.dtype == bool
        for p, (h, r, t) in enumerate(dense.tolist()):
            for e in range(len(ids)):
                assert mask[2 * p, e] == (Triplet(ids[h], rels[r], ids[e]) in triplets)
                assert mask[2 * p + 1, e] == (Triplet(ids[e], rels[r], ids[t]) in triplets)

    def test_known_mask_of_no_triplets_is_empty(self):
        kg = small_kg()
        assert kg.known_mask(kg.index_triplets([])).shape == (0, 6)

    def test_has_triplet_of_unknown_ids_is_false(self):
        kg = small_kg()
        assert kg.has_triplet(Triplet(0, 0, 1))
        assert not kg.has_triplet(Triplet(1, 0, 0))
        assert not kg.has_triplet(Triplet(0, 5, 1))
        assert not kg.has_triplet(Triplet(77, 0, 1))
