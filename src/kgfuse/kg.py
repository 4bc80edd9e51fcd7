"""Knowledge graph loading, indexing, sampling, and subgraph expansion.

The on-disk format is three UTF-8 TSV files: ``entities.tsv`` and
``relations.tsv`` with ``id<TAB>name<TAB>description`` rows, and
``triplets.tsv`` with ``head_id<TAB>relation_id<TAB>tail_id`` rows.  Ids are
decimal u64; fields must not contain tabs or newlines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import read_utf8
from .errors import ValidationError

# Edge direction flags as seen from an entity: OUT means the entity is the
# head of the triplet, IN means it is the tail.
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
    """Immutable multi-relational graph.

    Entities and relations also carry dense indices, their positions in
    ascending id order, and ``dense`` holds each triplet of ``triplets`` as
    one read-only int64 row of (head, relation, tail) dense indices.  Every
    triplet is indexed twice in one sorted int64 array: by its h-major key
    ``(hi * R + ri) * E + ti`` and, above all of those, by its t-major key
    ``E * R * E + (ti * R + ri) * E + hi``.  The triplets sharing a head and
    relation, or a tail and relation, are thus one run of keys within an
    E-wide range, which :meth:`known_mask` reads; it is the one membership
    rule.
    """

    def __init__(self, entities: dict[int, NamedRecord],
                 relations: dict[int, NamedRecord],
                 triplets: list[Triplet]):
        self.entities = dict(entities)
        self.relations = dict(relations)
        self.triplets = [Triplet(*t) for t in triplets]
        self._entity_ids = sorted(self.entities)
        self._relation_ids = sorted(self.relations)
        self._entity_index = {e: i for i, e in enumerate(self._entity_ids)}
        self._relation_index = {r: i for i, r in enumerate(self._relation_ids)}
        n_e, n_r = len(self._entity_ids), len(self._relation_ids)
        if 2 * n_e * n_e * n_r > np.iinfo(np.int64).max:
            raise ValidationError(
                f"{n_e} entities and {n_r} relations overflow the int64 triplet key")
        self.dense = self.index_triplets(self.triplets)
        self.dense.setflags(write=False)
        h, r, t = self.dense.T
        self._keys = np.sort(np.concatenate(
            [(h * n_r + r) * n_e + t, ((n_e + t) * n_r + r) * n_e + h]))
        if np.any(np.diff(self._keys) == 0):
            raise ValidationError("duplicate triplets in knowledge graph")
        # Neighbour CSR: entity e's distinct neighbours, in ascending dense
        # index order, are _neighbors[_neighbor_start[e]:_neighbor_start[e + 1]].
        pairs = np.sort(np.concatenate([h * n_e + t, t * n_e + h]))
        # Distinct pairs without np.unique, whose first call imports numpy.ma.
        pairs = pairs[np.diff(pairs, prepend=-1) > 0]
        self._neighbors = pairs % n_e
        self._neighbor_start = np.searchsorted(pairs, np.arange(n_e + 1) * n_e)

    # ---- queries ----------------------------------------------------------

    def entity_ids(self) -> list[int]:
        return list(self._entity_ids)

    def relation_ids(self) -> list[int]:
        return list(self._relation_ids)

    def index_triplets(self, triplets: list[Triplet]) -> np.ndarray:
        """Dense (head, relation, tail) indices of ``triplets``, one int64 row
        each; the first id the graph lacks raises, naming its triplet."""
        ent, rel = self._entity_index, self._relation_index
        try:
            dense = [(ent[h], rel[r], ent[t]) for h, r, t in triplets]
        except KeyError:
            for i, (h, r, t) in enumerate(triplets):
                for what, value, known in (("head entity", h, ent), ("relation", r, rel),
                                           ("tail entity", t, ent)):
                    if value not in known:
                        raise ValidationError(f"triplet {i}: unknown {what} {value}") from None
            raise
        return np.array(dense, dtype=np.int64).reshape(-1, 3)

    def triplets_of(self, dense: np.ndarray) -> list[Triplet]:
        """The id triplets of the ``(P, 3)`` dense triplets ``dense``."""
        ent, rel = self._entity_ids, self._relation_ids
        return [Triplet(ent[h], rel[r], ent[t]) for h, r, t in dense.tolist()]

    def known_mask(self, dense: np.ndarray) -> np.ndarray:
        """``(2P, E)`` bool mask of the graph's triplets around the ``(P, 3)``
        dense triplets ``dense``: row ``2p`` marks every tail ``t'`` with
        ``(h_p, r_p, t')`` in the graph, row ``2p + 1`` every head ``h'`` with
        ``(h', r_p, t_p)``.  Columns are dense entity indices."""
        n_e, n_r = len(self._entity_ids), len(self._relation_ids)
        start = (((dense[:, ::2] + [0, n_e]) * n_r + dense[:, 1:2]) * n_e).ravel()
        lo, hi = np.searchsorted(self._keys, np.stack([start, start + n_e]))
        counts = hi - lo
        # Position of every key in every run, run after run.
        at = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        mask = np.zeros((len(start), n_e), dtype=bool)
        mask[np.repeat(np.arange(len(start)), counts), self._keys[at] % n_e] = True
        return mask

    def has_triplet(self, triplet: Triplet) -> bool:
        try:
            dense = self.index_triplets([triplet])
        except ValidationError:
            return False
        return bool(self.known_mask(dense)[0, dense[0, 2]])

    def neighbors(self, entity: int) -> list[tuple[int, int, int]]:
        """All (relation, neighbor, direction) records incident to ``entity``.

        Sorted by neighbor id, then relation id, then direction, so the
        order is deterministic; both outgoing and incoming edges appear.
        """
        if entity not in self.entities:
            raise ValidationError(f"unknown entity {entity}")
        records = [(r, t, DIR_OUT) for h, r, t in self.triplets if h == entity]
        records += [(r, h, DIR_IN) for h, r, t in self.triplets if t == entity]
        return sorted(records, key=lambda rec: (rec[1], rec[0], rec[2]))

    def __len__(self) -> int:
        return len(self.entities)


@dataclass(eq=False)
class Subgraph:
    """A locally indexed neighborhood extracted around seed entities.

    ``entity_ids[i]`` is the global id of local node ``i``; seeds come
    first, in their given order.  ``triplets_local`` is an ``(n, 3)`` int64
    array holding each contained triplet once as (head local, dense relation
    index, tail local); a list of such rows is converted.  Message passing
    adds an implicit self term to every node.  A subgraph is not changed
    once built: :func:`gnn.gnn_encode` keeps its edge lists on it.
    """

    entity_ids: list[int]
    seed_flags: list[bool]
    triplets_local: np.ndarray
    edge_lists: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        self.triplets_local = np.asarray(self.triplets_local, dtype=np.int64).reshape(-1, 3)

    @property
    def num_nodes(self) -> int:
        return len(self.entity_ids)

    def with_triplets(self, triplets_local: np.ndarray) -> "Subgraph":
        """Same nodes, different edge set (used to drop held-out edges)."""
        return Subgraph(self.entity_ids, self.seed_flags, triplets_local)


def disjoint_union(parts: list[Subgraph]) -> tuple[Subgraph, list[int]]:
    """``parts`` side by side in one graph, where node ``i`` of part ``b`` is
    node ``offsets[b] + i``, and the offsets; triplets keep their order."""
    offsets = np.cumsum([0] + [p.num_nodes for p in parts[:-1]])
    return Subgraph([e for p in parts for e in p.entity_ids],
                    [f for p in parts for f in p.seed_flags],
                    np.concatenate([p.triplets_local + [off, 0, off]
                                    for p, off in zip(parts, offsets)])), offsets.tolist()


@dataclass
class EdgeHoldout:
    """A disjoint split of a graph's triplets into visible and held-out sets."""

    visible: list[Triplet]
    held_out: list[Triplet]


# ---- TSV ingestion -----------------------------------------------------------


def _parse_id(text: str, path: str, line_no: int) -> int:
    # ASCII digits only: int() also takes signs, spaces, underscores and
    # non-ASCII digits.
    if not (text.isascii() and text.isdigit()):
        raise ValidationError(f"{path}:{line_no}: non-decimal id {text!r}")
    digits = text.lstrip("0") or "0"   # int() reads at most 4,300 digits
    if len(digits) > 20 or int(digits) > _MAX_U64:
        raise ValidationError(f"{path}:{line_no}: id {digits} outside u64 range")
    return int(digits)


def _tsv_rows(path: str | Path):
    """(line number, fields) of each non-empty line of a three-field TSV file."""
    for line_no, line in enumerate(read_utf8(path).split("\n"), start=1):
        if line:
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValidationError(
                    f"{path}:{line_no}: expected 3 tab-separated fields, got {len(parts)}")
            yield line_no, parts


def _load_records(path: str | Path) -> dict[int, NamedRecord]:
    records: dict[int, NamedRecord] = {}
    for line_no, (text, name, description) in _tsv_rows(path):
        rec_id = _parse_id(text, str(path), line_no)
        if rec_id in records:
            raise ValidationError(f"{path}:{line_no}: duplicate id {rec_id}")
        records[rec_id] = NamedRecord(name, description)
    return records


def load_kg(entities_path, relations_path, triplets_path) -> KnowledgeGraph:
    """Load and fully index a knowledge graph from three TSV files."""
    entities = _load_records(entities_path)
    relations = _load_records(relations_path)
    triplets: list[Triplet] = []
    seen: set[Triplet] = set()
    for line_no, parts in _tsv_rows(triplets_path):
        trip = Triplet(*(_parse_id(part, str(triplets_path), line_no) for part in parts))
        for value, known, what in ((trip.head, entities, "head entity"),
                                   (trip.relation, relations, "relation"),
                                   (trip.tail, entities, "tail entity")):
            if value not in known:
                raise ValidationError(f"{triplets_path}:{line_no}: unknown {what} {value}")
        if trip in seen:
            raise ValidationError(f"{triplets_path}:{line_no}: duplicate triplet {trip}")
        seen.add(trip)
        triplets.append(trip)
    return KnowledgeGraph(entities, relations, triplets)


# ---- sampling operations -------------------------------------------------------


def expand_subgraph(kg: KnowledgeGraph, seeds: list[int], per_node_cap: int,
                    seed: int) -> Subgraph:
    """Seeds plus up to ``per_node_cap`` sampled one-hop neighbors per seed.

    Each seed's distinct neighbors, in ascending id order, are sampled
    without replacement with the given RNG seed; the edge set is every graph
    triplet whose endpoints both landed in the node set, in the order of
    ``kg.triplets``.  Local indices follow insertion order, seeds first.
    """
    if not seeds:
        raise ValidationError("expand_subgraph requires at least one seed")
    if per_node_cap < 1:
        raise ValidationError("per_node_cap must be >= 1")
    for s in seeds:
        if s not in kg.entities:
            raise ValidationError(f"unknown seed entity {s}")
    ordered = np.array([kg._entity_index[s] for s in dict.fromkeys(seeds)], dtype=np.int64)

    rng = np.random.default_rng(seed)
    member = np.zeros(len(kg), dtype=bool)
    member[ordered] = True
    nodes = [ordered]
    for s in ordered.tolist():
        candidates = kg._neighbors[kg._neighbor_start[s]:kg._neighbor_start[s + 1]]
        if len(candidates) > per_node_cap:
            candidates = candidates[np.sort(
                rng.choice(len(candidates), size=per_node_cap, replace=False))]
        fresh = candidates[~member[candidates]]
        member[fresh] = True
        nodes.append(fresh)
    nodes = np.concatenate(nodes)

    local = np.zeros(len(kg), dtype=np.int64)
    local[nodes] = np.arange(len(nodes))
    triplets_local = kg.dense[member[kg.dense[:, 0]] & member[kg.dense[:, 2]]]
    triplets_local[:, ::2] = local[triplets_local[:, ::2]]
    flags = [i < len(ordered) for i in range(len(nodes))]
    return Subgraph([kg._entity_ids[i] for i in nodes.tolist()], flags, triplets_local)


def holdout_edges(kg: KnowledgeGraph, drop_rate: float, seed: int) -> EdgeHoldout:
    """Uniformly hold out round(drop_rate * |triplets|) edges from the graph."""
    visible, held = split_triplet_list(kg.dense, drop_rate, seed)
    return EdgeHoldout(kg.triplets_of(visible), kg.triplets_of(held))


def split_triplet_list(triplets: np.ndarray, drop_rate: float, seed: int):
    """(kept, held_out) split of the rows of a triplet array at the same rate
    rule; both keep the rows' order."""
    if not (0.0 < drop_rate < 1.0):
        raise ValidationError(f"drop_rate must be in (0,1), got {drop_rate}")
    n = len(triplets)
    k = int(np.floor(drop_rate * n + 0.5))  # rounded half up
    held = np.zeros(n, dtype=bool)
    held[np.random.default_rng(seed).choice(n, size=k, replace=False)] = True
    return triplets[~held], triplets[held]


def draw_candidates(rng: np.random.Generator, n_e: int, shape: tuple[int, ...]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Coins and replacements, each an int64 array of ``shape``: the values of
    ``rng.integers(0, [2, n_e], size=shape + (2,))``, with ``rng`` left in
    the same state, for ``1 <= n_e < 2**32``.

    numpy draws each value from one 32-bit word by Lemire's multiply-shift
    (arXiv 1805.10941), so this draws the words in one call and decodes them
    in place: the coin is ``w >> 31`` and the replacement
    ``(w * n_e) >> 32``.  Lemire rejects a replacement word whose product's
    low half is below ``2**32 % n_e``, and a one-value range reads no word;
    for ``n_e == 1``, or when any word would be rejected, the generator is
    rewound and numpy's own draw is returned.
    """
    state = rng.bit_generator.state
    count = math.prod(shape)
    words = rng.integers(0, 2 ** 32, size=(count, 2), dtype=np.uint64)
    words[:, 1] *= np.uint64(n_e)
    if n_e == 1 or (words[:, 1].astype(np.uint32) < 2 ** 32 % n_e).any():
        rng.bit_generator.state = state
        pairs = rng.integers(0, [2, n_e], size=shape + (2,))
        return pairs[..., 0], pairs[..., 1]
    # (2w) >> 32 is w >> 31: one shift of every word decodes both columns.
    words[:, 0] <<= 1
    words >>= 32
    pairs = words.view(np.int64).reshape(shape + (2,))
    return pairs[..., 0], pairs[..., 1]


def negative_indices(kg: KnowledgeGraph, dense: np.ndarray, n: int,
                     seed, max_retries: int = 1000
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The coins and replacements, each ``(len(dense), n)`` int64, of ``n``
    corruptions of each positive of the ``(P, 3)`` dense triplets ``dense``
    (as :meth:`KnowledgeGraph.index_triplets` gives), all drawn from one
    ``default_rng(seed)``.

    A candidate is a coin (1 replaces the head) and a replacement indexing
    the entities in ascending id order; the relation is never touched.  Each
    round draws one ``(short, m)`` block of (coin, replacement) pairs for the
    positives still short of ``n``, in positive order, by
    :func:`draw_candidates`: the values and stream of
    ``rng.integers(0, [2, E], size=(short, m, 2))``.  It rejects the
    candidates that are triplets of ``kg``: row ``2p + coin`` of
    ``kg.known_mask`` at the replacement.  Each positive keeps its first
    ``n`` accepted candidates in stream order.  A positive that is still
    short after ``max_retries`` rejections in total is on a graph too dense
    to sample, and ``ValidationError`` is raised.
    """
    if n < 1:
        raise ValidationError("negative sample count must be >= 1")
    if max_retries < 1:
        raise ValidationError(f"max_retries must be >= 1, got {max_retries}")
    known = kg.known_mask(dense).ravel()
    count, n_e = len(dense), len(kg._entity_ids)
    rng = np.random.default_rng(seed)
    coins = np.empty(count * n, dtype=np.int64)
    picks = np.empty(count * n, dtype=np.int64)
    got = np.zeros(count, dtype=np.int64)
    rejected = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    while active.size:
        need = n - got[active]
        # 1.25 candidates per missing negative cover the 6-13% rejection
        # rates of the synthetic graphs in one round; rarer shortfalls redraw.
        m = int(need.max()) * 5 // 4 + 8
        coin, pick = draw_candidates(rng, n_e, (active.size, m))
        cells = coin * n_e
        cells += pick
        cells += (2 * n_e) * active[:, None]
        ok = known.take(cells)
        np.logical_not(ok, out=ok)
        # Accepted candidates, row after row; row i's are at[first[i]:].
        at = np.flatnonzero(ok)
        found = np.count_nonzero(ok, axis=1)
        first = np.cumsum(found) - found
        kept = np.minimum(found, need)
        # Rejections count up to a row's last kept candidate: candidates past
        # the n-th acceptance are drawn but neither kept nor counted.
        filled = found >= need
        seen = np.full(active.size, m)
        seen[filled] = at[(first + need - 1)[filled]] % m + 1
        rejected[active] += seen - kept
        failed = active[rejected[active] >= max_retries]
        if failed.size:
            raise ValidationError(
                f"no valid negative found for {kg.triplets_of(dense[failed[:1]])[0]} "
                f"after {max_retries} retries")
        # take would first copy the strided views whole; reshape keeps views.
        coin, pick = coin.reshape(-1), pick.reshape(-1)
        if filled.all() and not got.any():
            # One round filled every row: each keeps its first n.
            chosen = at[first[:, None] + np.arange(n)]
            return coin[chosen], pick[chosen]
        # Row i fills slots got[i] onward with its first kept[i].
        offset = np.arange(kept.sum()) - np.repeat(np.cumsum(kept) - kept, kept)
        chosen = at[np.repeat(first, kept) + offset]
        slots = np.repeat(active * n + got[active], kept) + offset
        coins[slots] = coin[chosen]
        picks[slots] = pick[chosen]
        got[active] += kept
        active = active[got[active] < n]
    return coins.reshape(count, n), picks.reshape(count, n)


def sample_negatives(kg: KnowledgeGraph, positive: Triplet, n: int,
                     seed, max_retries: int = 1000) -> list[Triplet]:
    """The :func:`negative_indices` corruptions of one positive, as triplets."""
    dense = kg.index_triplets([positive])
    (coin,), (pick,) = negative_indices(kg, dense, n, seed, max_retries)
    h, r, t = dense[0]
    return kg.triplets_of(np.stack(
        [np.where(coin, pick, h), np.full(n, r), np.where(coin, t, pick)], axis=1))
