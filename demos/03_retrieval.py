"""Score image patches against the entity memory and pull the top-k entities.

Run:  python demos/03_retrieval.py
"""

from kgfuse import Config, corpus_memory, generate_corpus
from kgfuse import tensor as T
from kgfuse.encoders import patchify
from kgfuse.retriever import relevance_weights, retrieve

config = Config(corpus_entities=80, corpus_triplets=320, corpus_examples=6,
                corpus_noise=0.05)
corpus = generate_corpus(config, seed=2)
memory = corpus_memory(corpus)
print(f"memory: {len(memory)} entities x {memory.d_e} dims, rows unit-norm")

# Each synthetic image tiles noisy copies of its entities' embeddings, and
# here a patch holds exactly one embedding's width (patch_dim == d_e), so a
# raw patch already makes a decent retrieval query.
image, gt = corpus.images[0], corpus.ground_truth[0]
seq = patchify(image, config.patch_size)
result = retrieve(seq.patches, memory, k_per_patch=4, k_final=8)
print(f"\nground truth entities: {sorted(gt)}")
print("retrieved (id, score):")
for entity_id, score in result.entries:
    marker = "  <- ground truth" if entity_id in gt else ""
    print(f"  {entity_id:4d}  {score:+.4f}{marker}")

weights = relevance_weights(T.constant(result.scores), result.example, temperature=1.0)
print(f"\nrelevance weights (sum {weights.data.sum():.6f}):")
print("  " + "  ".join(f"{w:.3f}" for w in weights.data))
