"""Inspect a trained model: representations, retrieval, clustering.

Run demos/01_train_toy_corpus.py first; this script loads its outputs
from demo_out/ and walks through the evaluation tools: posterior-mean
representations, a precision-recall curve, the internal clustering
indices, and nearest words in the learned embedding spaces.
"""

import numpy as np

from savae import corpus, evaluation, inference, training

split = corpus.load_corpus_file("demo_out/toy_corpus.savc")
params, model_config = training.load_checkpoint("demo_out/toy_model.savm")

# ---------------------------------------------------------------------
# Each document is represented by its posterior mean mu. Documents from
# the same topic should land near each other under cosine distance.
# ---------------------------------------------------------------------

reps = inference.represent_batch(split.train, params, model_config)
vectors = np.stack([r.vector for r in reps])
labels = [min(r.labels) for r in reps]

print("pairwise cosine distances (rows ordered by topic):")
order = np.argsort(labels)
dists = evaluation.cosine_distances(vectors[order], vectors[order])
for i, row in zip(order, dists):
    print(f"  {labels[i]:>10s}  {' '.join(f'{d:4.2f}' for d in row)}")

# ---------------------------------------------------------------------
# Retrieval: every document queries the rest of the corpus; relevance
# is a shared label. Precision is read off at fixed recall levels.
# ---------------------------------------------------------------------

label_sets = [r.labels for r in reps]
curve = evaluation.retrieval_pr(vectors, label_sets, vectors, label_sets, "exact")
print("\nrecall -> precision (exact relevance):")
for rho, prec in zip(curve.recall, curve.precision):
    if rho in (0.1, 0.3, 0.5, 0.8, 1.0):
        print(f"  {rho:4.1f} -> {prec:.3f}")

# ---------------------------------------------------------------------
# Internal clustering indices over the label-induced clusters. Lower
# Davies-Bouldin and higher Dunn / silhouette mean tighter topics.
# ---------------------------------------------------------------------

db_mean, db_std = evaluation.davies_bouldin(vectors, labels)
sil_mean, sil_std = evaluation.silhouette(vectors, labels)
print(f"\ndavies_bouldin = {db_mean:.3f} (std {db_std:.3f})")
print(f"dunn           = {evaluation.dunn(vectors, labels):.3f}")
print(f"silhouette     = {sil_mean:.3f} (std {sil_std:.3f})")

# ---------------------------------------------------------------------
# Word neighborhoods. The global space (decoder rows against z) captures
# topical similarity; the local space (window embeddings) is syntactic.
# ---------------------------------------------------------------------

spaces = evaluation.embedding_spaces(params, model_config)
for name, emb in sorted(spaces.items()):
    print(f"\nnearest words, {name} space:")
    for word in ("cat", "orbit"):
        if word in split.vocabulary:
            nbrs = evaluation.nearest_words(word, split.vocabulary, emb, n=4)
            print(f"  {word:>6s}: {', '.join(nbrs)}")
