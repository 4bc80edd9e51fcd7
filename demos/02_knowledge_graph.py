"""Generate a toy knowledge graph, inspect neighborhoods, split edges.

Run:  python demos/02_knowledge_graph.py
"""

from kgfuse import Config, generate_corpus
from kgfuse.kg import expand_subgraph, holdout_edges, sample_negatives

config = Config(corpus_entities=50, corpus_relations=4, corpus_triplets=200,
                corpus_examples=4)
corpus = generate_corpus(config, seed=11)
kg = corpus.kg
print(f"graph: {len(kg.entities)} entities, {len(kg.relations)} relations, "
      f"{len(kg.triplets)} triplets")

hub = max(kg.entity_ids(), key=lambda e: len(kg.neighbors(e)))
print(f"\nbusiest entity {hub} ({kg.entities[hub].name}):")
for relation, neighbor, direction in kg.neighbors(hub)[:6]:
    arrow = "->" if direction == 0 else "<-"
    print(f"  {arrow} {kg.entities[neighbor].name} via {kg.relations[relation].name}")

sub = expand_subgraph(kg, [hub], per_node_cap=8, seed=0)
print(f"\n1-hop subgraph around it: {sub.num_nodes} nodes, "
      f"{len(sub.triplets_local)} internal triplets")

holdout = holdout_edges(kg, drop_rate=0.15, seed=0)
print(f"\n15% edge holdout: {len(holdout.held_out)} held out, "
      f"{len(holdout.visible)} visible")

positive = kg.triplets[0]
negatives = sample_negatives(kg, positive, n=5, seed=0)
print(f"\npositive {tuple(positive)} and 5 corruptions:")
for neg in negatives:
    changed = "head" if neg.head != positive.head else "tail"
    print(f"  {tuple(neg)}   ({changed} corrupted)")
