"""Knowledge graph store: ingestion, adjacency, expansion, holdout, negatives."""

import numpy as np
import pytest

from kgfuse.config import Config
from kgfuse.data import generate_corpus
from kgfuse.errors import ValidationError
from kgfuse.kg import (DIR_IN, DIR_OUT, KnowledgeGraph, NamedRecord, Triplet,
                       expand_subgraph, holdout_edges, load_kg, neighbors,
                       sample_negatives, save_kg, split_triplet_list)

from helpers import reference_expand_edges, reference_sample_negatives


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
        save_kg(kg, *paths)
        loaded = load_kg(*paths)
        assert loaded.entities == kg.entities
        assert loaded.relations == kg.relations
        assert loaded.triplets == kg.triplets
        save_kg(loaded, *paths)
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
        (tmp_path / "entities.tsv").write_text("0\ta\tdesc\nnot_an_id\tb\tdesc\n")
        (tmp_path / "relations.tsv").write_text("0\tr\tdesc\n")
        (tmp_path / "triplets.tsv").write_text("")
        with pytest.raises(ValidationError, match=r"entities\.tsv:2"):
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
        assert neighbors(kg, 0) == [(7, 1, DIR_OUT)]
        assert neighbors(kg, 1) == [(7, 0, DIR_IN)]

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
        assert sub.triplets_local == []
        assert sub.seed_flags == [True]

    def test_small_neighborhood_complete(self):
        kg = small_kg()
        sub = expand_subgraph(kg, [0], per_node_cap=16, seed=0)
        assert set(sub.entity_ids) == {0, 1, 2, 3}
        expected = {(h, r, t) for h, r, t in kg.triplets
                    if h in sub.entity_ids and t in sub.entity_ids}
        got = {(sub.entity_ids[h], r, sub.entity_ids[t])
               for h, r, t in sub.triplets_local}
        assert got == expected

    def test_cap_and_determinism(self):
        kg = toy_corpus_kg()
        hub = max(kg.entity_ids(), key=lambda e: len({n for _, n, _ in kg.neighbors(e)}))
        degree = len({n for _, n, _ in kg.neighbors(hub)})
        cap = min(16, degree - 1) if degree > 1 else 1
        sub1 = expand_subgraph(kg, [hub], per_node_cap=cap, seed=9)
        sub2 = expand_subgraph(kg, [hub], per_node_cap=cap, seed=9)
        assert sub1.entity_ids == sub2.entity_ids
        assert sub1.triplets_local == sub2.triplets_local
        assert len(sub1.entity_ids) == 1 + cap

    def test_edges_equal_bruteforce_filter(self):
        kg = toy_corpus_kg()
        rng = np.random.default_rng(4)
        ids = kg.entity_ids()
        for trial in range(10):
            seeds = [ids[i] for i in rng.choice(len(ids), size=3, replace=False)]
            sub = expand_subgraph(kg, seeds, per_node_cap=5, seed=trial)
            nodes = set(sub.entity_ids)
            expected = {(h, r, t) for h, r, t in kg.triplets
                        if h in nodes and t in nodes}
            got = {(sub.entity_ids[h], r, sub.entity_ids[t])
                   for h, r, t in sub.triplets_local}
            assert got == expected

    def test_edge_list_equals_full_scan_in_graph_order(self):
        # Same list, not just the same set: GNN sums run in this order.
        kg = toy_corpus_kg()
        loops = KnowledgeGraph(kg.entities, kg.relations,
                               kg.triplets + [Triplet(e, 0, e) for e in kg.entity_ids()[::7]])
        rng = np.random.default_rng(5)
        for graph in (kg, loops):
            ids = graph.entity_ids()
            for trial in range(20):
                seeds = [ids[i] for i in rng.choice(len(ids), size=4, replace=False)]
                sub = expand_subgraph(graph, seeds, per_node_cap=6, seed=trial)
                assert sub.triplets_local == reference_expand_edges(graph, sub.entity_ids)

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
        assert a.visible.triplets == b.visible.triplets

    def test_partition_set_algebra(self):
        kg = toy_corpus_kg()
        holdout = holdout_edges(kg, 0.15, seed=1)
        visible = set(holdout.visible.triplets)
        held = set(holdout.held_out)
        assert visible | held == set(kg.triplets)
        assert visible & held == set()
        assert len(visible) + len(held) == len(kg.triplets)

    def test_rate_out_of_range(self):
        for rate in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                holdout_edges(small_kg(), rate, seed=0)

    def test_split_triplet_list_empty_ok(self):
        kept, held = split_triplet_list([], 0.15, seed=0)
        assert kept == [] and held == []


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
        positive = Triplet(0, 0, 1)
        head_corruptions = 0
        draws = 10_000
        negs = sample_negatives(kg, positive, draws, seed=11)
        for neg in negs:
            # A corruption that keeps both endpoints cannot occur: it would
            # equal the positive and be resampled.
            if neg.head != positive.head:
                head_corruptions += 1
            elif neg.tail == positive.tail:
                pytest.fail("negative equals the positive")
        frequency = head_corruptions / draws
        assert abs(frequency - 0.5) < 0.02

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
            positive = kg.triplets[(7 * seed) % len(kg.triplets)]
            n = (1, 5, 32, 128)[seed % 4]
            assert (sample_negatives(kg, positive, n, seed=seed)
                    == reference_sample_negatives(kg, positive, n, seed=seed))

    def test_n_equals_one(self):
        kg = toy_corpus_kg()
        for seed in range(50):
            got = sample_negatives(kg, kg.triplets[seed], 1, seed=seed)
            assert len(got) == 1
            assert got == reference_sample_negatives(kg, kg.triplets[seed], 1, seed=seed)

    def test_retry_limit_counts_consecutive_rejections(self):
        # Three entities, one relation and every triplet but those touching
        # (2, 0, 2): most candidates collide, so rejection runs are long.
        entities = {e: NamedRecord(f"e{e}", "d") for e in (10, 20, 30)}
        relations = {0: NamedRecord("r", "d")}
        triplets = [Triplet(h, 0, t) for h in (10, 20, 30) for t in (10, 20, 30)
                    if (h, t) not in ((30, 30), (30, 20), (20, 30))]
        kg = KnowledgeGraph(entities, relations, triplets)
        positive = Triplet(20, 0, 20)
        checked = 0
        for seed in range(40):
            n = 1 + seed % 3
            # The longest rejection run before the n-th acceptance is the
            # smallest limit the oracle survives, minus one.
            limit = next(k for k in range(1, 200) if _survives(kg, positive, n, seed, k))
            if limit < 3:
                continue
            checked += 1
            assert (sample_negatives(kg, positive, n, seed, max_retries=limit)
                    == reference_sample_negatives(kg, positive, n, seed, max_retries=limit))
            with pytest.raises(ValidationError,
                               match=rf"after {limit - 1} retries"):
                sample_negatives(kg, positive, n, seed, max_retries=limit - 1)
        assert checked >= 10

    def test_unknown_endpoint(self):
        kg = small_kg()
        for positive in (Triplet(99, 0, 1), Triplet(0, 0, 99), Triplet(0, 9, 1)):
            with pytest.raises(ValidationError, match="99|9"):
                sample_negatives(kg, positive, 4, seed=0)


def _survives(kg, positive, n, seed, max_retries) -> bool:
    try:
        reference_sample_negatives(kg, positive, n, seed, max_retries=max_retries)
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

    def test_has_triplet_of_unknown_ids_is_false(self):
        kg = small_kg()
        assert kg.has_triplet(Triplet(0, 0, 1))
        assert not kg.has_triplet(Triplet(1, 0, 0))
        assert not kg.has_triplet(Triplet(0, 5, 1))
        assert not kg.has_triplet(Triplet(77, 0, 1))
