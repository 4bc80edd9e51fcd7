"""Knowledge graph loading, indexing, sampling, and subgraph expansion.

The on-disk format is three UTF-8 TSV files: ``entities.tsv`` and
``relations.tsv`` with ``id<TAB>name<TAB>description`` rows, and
``triplets.tsv`` with ``head_id<TAB>relation_id<TAB>tail_id`` rows.  Ids are
decimal u64; fields must not contain tabs or newlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

# Edge direction flags as seen from an entity's adjacency list:
# OUT means the entity is the head of the triplet, IN means it is the tail.
DIR_OUT = 0
DIR_IN = 1

_MAX_U64 = 2 ** 64 - 1


class Triplet(NamedTuple):
    head: int
    relation: int
    tail: int


@dataclass(frozen=True)
class NamedRecord:
    name: str
    description: str


class KnowledgeGraph:
    """Immutable multi-relational graph with a bidirectional adjacency index.

    Entities and relations also carry dense indices, their positions in
    ascending id order, and every triplet is indexed as the int64 key
    ``(hi * R + ri) * E + ti`` of its dense indices in one sorted array.
    """

    def __init__(self, entities: dict[int, NamedRecord],
                 relations: dict[int, NamedRecord],
                 triplets: list[Triplet]):
        self.entities = dict(entities)
        self.relations = dict(relations)
        self.triplets = [Triplet(*t) for t in triplets]
        for i, t in enumerate(self.triplets):
            if t.head not in self.entities:
                raise ValidationError(f"triplet {i}: unknown head entity {t.head}")
            if t.tail not in self.entities:
                raise ValidationError(f"triplet {i}: unknown tail entity {t.tail}")
            if t.relation not in self.relations:
                raise ValidationError(f"triplet {i}: unknown relation {t.relation}")
        self._entity_ids = sorted(self.entities)
        self._relation_ids = sorted(self.relations)
        self._entity_index = {e: i for i, e in enumerate(self._entity_ids)}
        self._relation_index = {r: i for i, r in enumerate(self._relation_ids)}
        n_e, n_r = len(self._entity_ids), len(self._relation_ids)
        if n_e * n_e * n_r > np.iinfo(np.int64).max:
            raise ValidationError(
                f"{n_e} entities and {n_r} relations overflow the int64 triplet key")
        # A sentinel above every valid key ends the sorted array, so a
        # searchsorted position always indexes it.
        keys = self._triplet_keys(self.index_triplets(self.triplets))
        self._keys = np.sort(np.append(keys, np.iinfo(np.int64).max))
        if np.any(self._keys[1:] == self._keys[:-1]):
            raise ValidationError("duplicate triplets in knowledge graph")
        # Each record is (relation, neighbor, direction, triplet index).
        adjacency: dict[int, list[tuple[int, int, int, int]]] = {e: [] for e in self.entities}
        for i, t in enumerate(self.triplets):
            adjacency[t.head].append((t.relation, t.tail, DIR_OUT, i))
            adjacency[t.tail].append((t.relation, t.head, DIR_IN, i))
        for entries in adjacency.values():
            entries.sort(key=lambda rec: (rec[1], rec[0], rec[2]))
        self._adjacency = adjacency

    # ---- queries ----------------------------------------------------------

    def entity_ids(self) -> list[int]:
        return list(self._entity_ids)

    def relation_ids(self) -> list[int]:
        return list(self._relation_ids)

    def index_triplets(self, triplets) -> np.ndarray:
        """Dense (head, relation, tail) indices of ``triplets``, one int64 row each."""
        ent, rel = self._entity_index, self._relation_index
        try:
            dense = [(ent[h], rel[r], ent[t]) for h, r, t in triplets]
        except KeyError as exc:
            raise ValidationError(
                f"unknown entity or relation {exc.args[0]} in triplet") from None
        return np.array(dense, dtype=np.int64).reshape(-1, 3)

    def _triplet_keys(self, dense: np.ndarray) -> np.ndarray:
        n_e, n_r = len(self._entity_ids), len(self._relation_ids)
        return (dense[..., 0] * n_r + dense[..., 1]) * n_e + dense[..., 2]

    def _known(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask of the keys that are triplets of the graph."""
        return self._keys[np.searchsorted(self._keys, keys)] == keys

    def has_triplet(self, triplet: Triplet) -> bool:
        try:
            dense = self.index_triplets([triplet])
        except ValidationError:
            return False
        return bool(self._known(self._triplet_keys(dense))[0])

    def neighbors(self, entity: int) -> list[tuple[int, int, int]]:
        """All (relation, neighbor, direction) records incident to ``entity``.

        Sorted by neighbor id, then relation id, then direction, so the
        order is deterministic; both outgoing and incoming edges appear.
        """
        if entity not in self.entities:
            raise ValidationError(f"unknown entity {entity}")
        return [rec[:3] for rec in self._adjacency[entity]]

    def __len__(self) -> int:
        return len(self.entities)


@dataclass
class Subgraph:
    """A locally indexed neighborhood extracted around seed entities.

    ``entity_ids[i]`` is the global id of local node ``i``; seeds come
    first, in their given order.  ``triplets_local`` lists each contained
    triplet once as (head_local, relation_id, tail_local).  Self-loops are
    never stored; message passing adds an implicit self term instead.
    """

    entity_ids: list[int]
    seed_flags: list[bool]
    triplets_local: list[tuple[int, int, int]]

    @property
    def num_nodes(self) -> int:
        return len(self.entity_ids)

    def edges(self) -> list[tuple[int, int, int, int]]:
        """Directed message edges (src_local, dst_local, relation, direction).

        Every triplet yields two entries: head-to-tail tagged DIR_OUT and
        tail-to-head tagged DIR_IN, so each node sees all incident edges.
        """
        out = []
        for h, r, t in self.triplets_local:
            out.append((h, t, r, DIR_OUT))
            out.append((t, h, r, DIR_IN))
        return out

    def with_triplets(self, triplets_local: list[tuple[int, int, int]]) -> "Subgraph":
        """Same nodes, different edge set (used to drop held-out edges)."""
        return Subgraph(self.entity_ids, self.seed_flags, list(triplets_local))


def disjoint_union(parts: list[Subgraph]) -> tuple[Subgraph, list[int]]:
    """``parts`` side by side in one graph, where node ``i`` of part ``b`` is
    node ``offsets[b] + i``, and the offsets; triplets keep their order."""
    offsets = np.cumsum([0] + [p.num_nodes for p in parts[:-1]]).tolist()
    return Subgraph([e for p in parts for e in p.entity_ids],
                    [f for p in parts for f in p.seed_flags],
                    [(h + off, r, t + off) for p, off in zip(parts, offsets)
                     for h, r, t in p.triplets_local]), offsets


@dataclass
class EdgeHoldout:
    """A disjoint split of a graph's triplets into visible and held-out sets."""

    visible: KnowledgeGraph
    held_out: list[Triplet]


# ---- TSV ingestion -----------------------------------------------------------


def _parse_id(text: str, path: str, line_no: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValidationError(f"{path}:{line_no}: non-integer id {text!r}") from None
    if not (0 <= value <= _MAX_U64):
        raise ValidationError(f"{path}:{line_no}: id {value} outside u64 range")
    return value


def _load_records(path: str | Path) -> dict[int, NamedRecord]:
    records: dict[int, NamedRecord] = {}
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValidationError(
                    f"{path}:{line_no}: expected 3 tab-separated fields, got {len(parts)}")
            rec_id = _parse_id(parts[0], str(path), line_no)
            if rec_id in records:
                raise ValidationError(f"{path}:{line_no}: duplicate id {rec_id}")
            records[rec_id] = NamedRecord(parts[1], parts[2])
    return records


def load_kg(entities_path, relations_path, triplets_path) -> KnowledgeGraph:
    """Load and fully index a knowledge graph from three TSV files."""
    entities = _load_records(entities_path)
    relations = _load_records(relations_path)

    triplets: list[Triplet] = []
    seen: set[Triplet] = set()
    tpath = Path(triplets_path)
    with open(tpath, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValidationError(
                    f"{tpath}:{line_no}: expected 3 tab-separated fields, got {len(parts)}")
            h = _parse_id(parts[0], str(tpath), line_no)
            r = _parse_id(parts[1], str(tpath), line_no)
            t = _parse_id(parts[2], str(tpath), line_no)
            if h not in entities:
                raise ValidationError(f"{tpath}:{line_no}: unknown head entity {h}")
            if r not in relations:
                raise ValidationError(f"{tpath}:{line_no}: unknown relation {r}")
            if t not in entities:
                raise ValidationError(f"{tpath}:{line_no}: unknown tail entity {t}")
            trip = Triplet(h, r, t)
            if trip in seen:
                raise ValidationError(f"{tpath}:{line_no}: duplicate triplet {trip}")
            seen.add(trip)
            triplets.append(trip)
    return KnowledgeGraph(entities, relations, triplets)


def _check_field(text: str, what: str) -> str:
    if "\t" in text or "\n" in text or "\r" in text:
        raise ValidationError(f"{what} contains a tab or newline: {text!r}")
    return text


def save_kg(kg: KnowledgeGraph, entities_path, relations_path, triplets_path) -> None:
    """Write a graph back to the three-file TSV format (ids ascending)."""
    with open(entities_path, "w", encoding="utf-8") as fh:
        for eid in sorted(kg.entities):
            rec = kg.entities[eid]
            fh.write(f"{eid}\t{_check_field(rec.name, 'entity name')}\t"
                     f"{_check_field(rec.description, 'entity description')}\n")
    with open(relations_path, "w", encoding="utf-8") as fh:
        for rid in sorted(kg.relations):
            rec = kg.relations[rid]
            fh.write(f"{rid}\t{_check_field(rec.name, 'relation name')}\t"
                     f"{_check_field(rec.description, 'relation description')}\n")
    with open(triplets_path, "w", encoding="utf-8") as fh:
        for h, r, t in kg.triplets:
            fh.write(f"{h}\t{r}\t{t}\n")


# ---- sampling operations -------------------------------------------------------


def expand_subgraph(kg: KnowledgeGraph, seeds: list[int], per_node_cap: int,
                    seed: int) -> Subgraph:
    """Seeds plus up to ``per_node_cap`` sampled one-hop neighbors per seed.

    Neighbors are sampled without replacement per seed with the given RNG
    seed; the edge set is every graph triplet whose endpoints both landed in
    the node set.  Local indices follow insertion order, seeds first.
    """
    if not seeds:
        raise ValidationError("expand_subgraph requires at least one seed")
    if per_node_cap < 1:
        raise ValidationError("per_node_cap must be >= 1")
    ordered: list[int] = []
    for s in seeds:
        if s not in kg.entities:
            raise ValidationError(f"unknown seed entity {s}")
        if s not in ordered:
            ordered.append(s)

    rng = np.random.default_rng(seed)
    nodes = list(ordered)
    node_set = set(nodes)
    for s in ordered:
        candidates = sorted({rec[1] for rec in kg._adjacency[s]})
        if len(candidates) > per_node_cap:
            picked_idx = rng.choice(len(candidates), size=per_node_cap, replace=False)
            picked = [candidates[i] for i in sorted(picked_idx)]
        else:
            picked = candidates
        for nbr in picked:
            if nbr not in node_set:
                node_set.add(nbr)
                nodes.append(nbr)

    # Triplet indices from the nodes' own adjacency records, sorted so the
    # edges keep the order of ``kg.triplets``.
    inside = sorted({index for e in nodes for _, nbr, _, index in kg._adjacency[e]
                     if nbr in node_set})
    local = {e: i for i, e in enumerate(nodes)}
    triplets_local = [(local[h], r, local[t])
                      for h, r, t in (kg.triplets[i] for i in inside)]
    flags = [i < len(ordered) for i in range(len(nodes))]
    return Subgraph(nodes, flags, triplets_local)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def holdout_edges(kg: KnowledgeGraph, drop_rate: float, seed: int) -> EdgeHoldout:
    """Uniformly hold out round(drop_rate * |triplets|) edges from the graph."""
    visible, held = split_triplet_list(kg.triplets, drop_rate, seed)
    return EdgeHoldout(KnowledgeGraph(kg.entities, kg.relations, visible), held)


def split_triplet_list(triplets: list, drop_rate: float, seed: int):
    """(kept, held_out) split of an arbitrary triplet list at the same rate rule."""
    if not (0.0 < drop_rate < 1.0):
        raise ValidationError(f"drop_rate must be in (0,1), got {drop_rate}")
    n = len(triplets)
    k = _round_half_up(drop_rate * n)
    if n == 0 or k == 0:
        return list(triplets), []
    rng = np.random.default_rng(seed)
    chosen = set(rng.choice(n, size=k, replace=False).tolist())
    kept = [t for i, t in enumerate(triplets) if i not in chosen]
    held = [triplets[i] for i in sorted(chosen)]
    return kept, held


def negative_indices(kg: KnowledgeGraph, positives: list[Triplet], n: int,
                     seed: int, max_retries: int = 1000
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Dense head and tail indices, each ``(len(positives), n)``, of the
    corruptions that :func:`sample_negatives` returns for each positive.

    Positive ``i`` draws from its own ``default_rng(seed + i)``.  Candidates
    are drawn in chunks with array bounds, which consume the generator
    exactly as the one-coin-then-one-replacement scalar calls do, and are
    checked against the graph's triplet keys in one ``searchsorted`` per
    chunk for all positives.  Drawing past the n-th acceptance is harmless:
    each generator is discarded afterwards.
    """
    if n < 1:
        raise ValidationError("negative sample count must be >= 1")
    positives = [Triplet(*p) for p in positives]
    dense = kg.index_triplets(positives)
    count, n_e = len(positives), len(kg._entity_ids)
    rngs = [np.random.default_rng(int(seed) + i) for i in range(count)]
    heads = np.empty((count, n), dtype=np.int64)
    tails = np.empty((count, n), dtype=np.int64)
    got = np.zeros(count, dtype=np.int64)
    run = np.zeros(count, dtype=np.int64)   # rejections since the last acceptance
    failed = np.full(count, max_retries < 1)
    active = np.flatnonzero(~failed)
    while active.size:
        need = n - got[active]
        # 1.25 candidates per missing negative cover the 6-13% rejection
        # rates of the synthetic graphs in one round; rarer shortfalls redraw.
        m = int(need.max()) * 5 // 4 + 8
        bounds = np.tile([2, n_e], m)
        draws = np.stack([rngs[i].integers(0, bounds) for i in active]).reshape(-1, m, 2)
        coin, pick = draws[..., 0] == 1, draws[..., 1]
        h, r, t = (dense[active, k, None] for k in range(3))
        cand_h = np.where(coin, pick, h)
        cand_t = np.where(coin, t, pick)
        ok = ~kg._known(kg._triplet_keys(np.stack(
            [cand_h, np.broadcast_to(r, cand_h.shape), cand_t], axis=-1)))
        accepted = np.cumsum(ok, axis=1)
        # Length of the rejection run ending at each candidate.
        position = np.arange(m)
        last = np.maximum.accumulate(np.where(ok, position, -1 - run[active, None]), axis=1)
        streak = position - last
        # A run of max_retries rejections fails only if it comes before the
        # n-th acceptance.
        before = accepted - ok < need[:, None]
        failed[active] = np.any(before & (streak >= max_retries), axis=1)
        keep = ok & (accepted <= need[:, None]) & ~failed[active, None]
        rows, cols = np.nonzero(keep)
        slots = got[active[rows]] + accepted[rows, cols] - 1
        heads[active[rows], slots] = cand_h[rows, cols]
        tails[active[rows], slots] = cand_t[rows, cols]
        got[active] += accepted[:, -1]
        run[active] = streak[:, -1]
        # Positives after the first failed one are never sampled.
        stop = np.flatnonzero(failed)[0] if failed.any() else count
        active = np.flatnonzero((got < n) & ~failed & (np.arange(count) < stop))
    if failed.any():
        first = positives[int(np.flatnonzero(failed)[0])]
        raise ValidationError(
            f"no valid negative found for {first} after {max_retries} retries")
    return heads, tails


def sample_negatives(kg: KnowledgeGraph, positive: Triplet, n: int,
                     seed: int, max_retries: int = 1000) -> list[Triplet]:
    """Corrupt head or tail (fair coin each sample) with a uniform entity.

    The stream of ``default_rng(seed)`` is read as one candidate after
    another: a coin ``integers(0, 2)`` (1 corrupts the head), then a
    replacement ``integers(0, E)`` indexing the entities in ascending id
    order.  A candidate that is a triplet of ``kg`` is rejected; the result
    is the first ``n`` accepted candidates in stream order.  If
    ``max_retries`` consecutive candidates are rejected before the n-th
    acceptance, the graph is deemed too dense and ``ValidationError`` is
    raised; ``max_retries < 1`` always raises.  The relation is never
    touched.
    """
    positive = Triplet(*positive)
    heads, tails = negative_indices(kg, [positive], n, seed, max_retries)
    ids = kg._entity_ids
    return [Triplet(ids[h], positive.relation, ids[t])
            for h, t in zip(heads[0].tolist(), tails[0].tolist())]
