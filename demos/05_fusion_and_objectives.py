"""One full forward step: encode, retrieve, fuse, and score all four losses.

Run:  python demos/05_fusion_and_objectives.py
"""

from kgfuse import Config, corpus_memory, generate_corpus
from kgfuse.model import build_model, compute_step, make_batch_plan
from kgfuse.tensor import backward

config = Config(corpus_entities=60, corpus_relations=5, corpus_triplets=240,
                corpus_examples=12, batch_size=4, per_node_cap=4,
                n_negatives=8, k_final=6)
corpus = generate_corpus(config, seed=3)
memory = corpus_memory(corpus)
params = build_model(config, corpus.kg)
print(f"model: {len(params.store)} parameter tensors, "
      f"{params.store.flat_size():,} scalars")

plan = make_batch_plan(config, len(corpus), step=1)
out = compute_step(params, corpus, memory, plan)

# The step's record holds every stage's output, not only the losses.
print("\nper-example retrieved entity ids : relevance weights:")
weights = iter(out.relevance.data.tolist())   # example by example
for ids in out.retrieved:
    print("  " + "  ".join(f"{e}:{next(weights):.3f}" for e in ids))
print(f"\nfused sequence: {out.fused.elements.shape[-2]} positions per example")
print(f"link-prediction positives this step: {len(out.sample.positives)}")

print("\nlosses at initialization:")
for name, value in out.bundle.values().items():
    print(f"  {name:9s} {value:.4f}")

grads = backward(out.bundle.total)
print(f"\nbackward produced gradients for {len(grads)} of "
      f"{len(params.store)} parameter tensors")
