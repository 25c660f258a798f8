"""Evaluation protocols over exported document representations: retrieval
precision-recall, internal clustering indices, word-embedding neighbor
inspection and a logistic-regression linear probe.

All distances are cosine distances; clusters are given by gold labels, no
clustering algorithm is run.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCentroids,
    DegenerateClusters,
    DegenerateLabels,
    UnknownToken,
)
from .numerics import RngStream, sigmoid
from .training import AdamState, adam_step

__all__ = [
    "ClusterMetrics",
    "DEFAULT_RECALL_GRID",
    "PrCurve",
    "cosine_distances",
    "davies_bouldin",
    "dunn",
    "embedding_spaces",
    "linear_probe",
    "nearest_words",
    "retrieval_pr",
    "silhouette",
]

DEFAULT_RECALL_GRID = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.2,
    0.3,
    0.4,
    0.5,
    0.6,
    0.7,
    0.8,
    0.9,
    1.0,
)


# the linear probe's Adam rate, minibatch size and passes over the data
PROBE_LEARNING_RATE = 1e-3
PROBE_BATCH_SIZE = 256
PROBE_EPOCHS = 100

# query rows ranked together by retrieval_pr
_QUERY_BLOCK = 256


def cosine_distances(A, B):
    """1 - cos between each row of A and each row of B; zero-norm rows give 1."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    na = np.linalg.norm(A, axis=1)
    nb = np.linalg.norm(B, axis=1)
    dots = A @ B.T
    denom = np.outer(na, nb)
    out = np.ones_like(dots)
    ok = denom > 0
    np.divide(dots, denom, out=dots, where=ok)
    return np.subtract(1.0, dots, out=out, where=ok)


def _rank_rows(x):
    """``np.argsort(x, axis=1, kind="stable")`` of a 2-D float array: numpy's
    default (SIMD) sort, then only the runs of equal sorted values (-0.0 ==
    0.0, NaN with NaN) put back in index order."""
    order = np.argsort(x, axis=1)
    s = np.take_along_axis(x, order, axis=1)
    link = np.pad(s[:, 1:] == s[:, :-1], ((0, 0), (1, 0)))  # equal to its left neighbour
    if np.isnan(s[:, -1:]).any():  # NaNs sort last
        link[:, 1:] |= np.isnan(s[:, 1:]) & np.isnan(s[:, :-1])
    flat = np.flatnonzero(link | np.roll(link, -1, axis=1))  # link[:, 0] is False
    run = np.cumsum(~link.reshape(-1)[flat])
    # each run holds at least 2 positions, so at _QUERY_BLOCK rows of n
    # columns key < (128 n + 1) n, below 2**63 for any n under 2e8
    key = run * x.shape[1] + order.reshape(-1)[flat]
    order.reshape(-1)[flat] = np.sort(key) - run * x.shape[1]
    return order


@dataclass
class PrCurve:
    recall: tuple
    precision: np.ndarray
    n_queries: int
    skipped: int

    def to_csv(self):
        lines = ["recall,precision"]
        for r, p in zip(self.recall, self.precision):
            lines.append(f"{r},{p:.6f}")
        return "\n".join(lines) + "\n"


@dataclass
class ClusterMetrics:
    davies_bouldin: tuple
    dunn: float
    silhouette: tuple

    def report(self):
        db_m, db_s = self.davies_bouldin
        sil_m, sil_s = self.silhouette
        return (
            f"davies_bouldin_mean={db_m:.6f}\n"
            f"davies_bouldin_std={db_s:.6f}\n"
            f"dunn={self.dunn:.6f}\n"
            f"silhouette_mean={sil_m:.6f}\n"
            f"silhouette_std={sil_s:.6f}\n"
        )


def _incidence(label_sets, column):
    """0/1 matrix: row i has a 1 in ``column[label]`` for each of its labels."""
    rows = [i for i, labels in enumerate(label_sets) for label in labels if label in column]
    cols = [column[label] for labels in label_sets for label in labels if label in column]
    out = np.zeros((len(label_sets), len(column)))
    out[rows, cols] = 1.0
    return out


def _recall_ranks(recall, levels):
    """Per row of ``recall``, the count of entries below each level; a row
    never decreases, so that count is the level's insertion point."""
    ranks = [np.searchsorted(row, levels) for row in recall]
    return np.array(ranks, dtype=np.intp).reshape(len(recall), len(levels))


def retrieval_pr(query_reps, query_labels, index_reps, index_labels, relevance="exact"):
    """Average per-query precision at the recall levels of DEFAULT_RECALL_GRID.

    Index documents are ranked per query by descending cosine similarity
    (ties by index order). In ``exact`` mode a ranked document counts as a
    hit when its label set intersects the query's, and the precision at
    recall level rho is the hit fraction among the top ceil(rho * R) where
    R is the number of relevant index documents. In ``jaccard`` mode each
    ranked document contributes a graded gain Jaccard(query labels, doc
    labels); precision at rank r is cumulative gain / r and recall is
    cumulative gain over the total achievable gain.

    Queries with no relevant document (R = 0, or zero total gain) are
    skipped and counted in ``skipped``; non-finite input is a ValueError.

    Label overlaps come from one product of 0/1 (documents x shared labels)
    incidence matrices, exact in float64. Queries are ranked in blocks of
    ``_QUERY_BLOCK`` rows, so beyond the inputs and the incidence matrices
    the working memory is a few (_QUERY_BLOCK, n_index) arrays: it grows
    with the index, not with the number of queries.
    """
    if relevance not in ("exact", "jaccard"):
        raise ValueError(f"unknown relevance mode: {relevance}")
    query_reps = np.asarray(query_reps, dtype=np.float64)
    index_reps = np.asarray(index_reps, dtype=np.float64)
    if len(query_reps) == 0 or len(index_reps) == 0:
        raise ValueError("queries and index must be non-empty")
    for side, reps, labels in (
        ("query", query_reps, query_labels),
        ("index", index_reps, index_labels),
    ):
        if len(labels) != len(reps):
            raise ValueError(f"{len(reps)} {side} representations but {len(labels)} label sets")
        bad = np.flatnonzero(~np.isfinite(reps).all(axis=1))
        if len(bad):
            raise ValueError(f"{side} representation in row {bad[0]} is not finite")
    grid = np.array(DEFAULT_RECALL_GRID)
    n_index = len(index_reps)
    # a label on one side only adds to no intersection, so it needs no column;
    # the column order cannot change the products, which are exact integers
    shared = set().union(*query_labels) & set().union(*index_labels)
    column = {label: j for j, label in enumerate(shared)}
    index_inc = _incidence(index_labels, column).T
    query_inc = _incidence(query_labels, column)
    if relevance == "jaccard":
        query_sizes = np.array([len(set(ls)) for ls in query_labels], dtype=np.float64)
        index_sizes = np.array([len(set(ls)) for ls in index_labels], dtype=np.float64)

    def precisions(block):
        """Precision at each grid level for the block's queries that have a
        relevant document; every (block, n_index) array dies on return."""
        order = _rank_rows(cosine_distances(query_reps[block], index_reps))
        gains = query_inc[block] @ index_inc  # intersection sizes, then gains in place
        if relevance == "exact":
            np.minimum(gains, 1.0, out=gains)
        else:
            union = query_sizes[block, None] + index_sizes - gains
            np.divide(gains, union, out=gains, where=gains > 0)
        gains = np.take_along_axis(gains, order, axis=1)
        total = gains.sum(axis=1)
        keep = total > 0.0
        total = total[keep]
        cum = np.cumsum(gains[keep], axis=1)
        if relevance == "exact":
            ranks = np.clip(np.ceil(grid * total[:, None]).astype(int), 1, n_index) - 1
        else:
            # the slack absorbs round-off when a rational recall sits exactly
            # on a level (0.5 as 0.49999999999999994)
            ranks = _recall_ranks(cum / total[:, None], grid - 1e-9)
            ranks = np.minimum(ranks, n_index - 1)
        return np.take_along_axis(cum, ranks, axis=1) / (ranks + 1)

    acc = np.zeros(len(grid))
    used = 0
    for start in range(0, len(query_reps), _QUERY_BLOCK):
        block_precisions = precisions(slice(start, start + _QUERY_BLOCK))
        acc += block_precisions.sum(axis=0)
        used += len(block_precisions)
    if used == 0:
        raise DegenerateLabels("every query was skipped (no relevant documents)")
    return PrCurve(DEFAULT_RECALL_GRID, acc / used, used, skipped=len(query_reps) - used)


def _cluster_geometry(reps, labels):
    """Each point's cluster index, the (n, C) point-centroid cosine distances,
    each cluster's dispersion (the mean distance of its members to its
    centroid) and the (C, C) centroid distances; clusters are in
    ``sorted(set(labels), key=str)`` order, centroids the means of rows.
    Raises ValueError on a representation that is not finite."""
    reps = np.asarray(reps, dtype=np.float64)
    if len(reps) != len(labels):
        raise ValueError("representation/label count mismatch")
    bad = np.flatnonzero(~np.isfinite(reps).all(axis=1))
    if len(bad):
        raise ValueError(f"representation in row {bad[0]} is not finite")
    order = sorted(set(labels), key=str)
    if len(order) < 2:
        raise DegenerateClusters("need at least 2 clusters")
    index = {lab: i for i, lab in enumerate(order)}
    cluster = np.array([index[lab] for lab in labels], dtype=np.intp)
    sizes = np.bincount(cluster)
    members = np.split(np.argsort(cluster, kind="stable"), np.cumsum(sizes)[:-1])
    centroids = np.stack([reps[rows].mean(axis=0) for rows in members])
    d = cosine_distances(reps, centroids)
    dispersions = np.bincount(cluster, d[np.arange(len(d)), cluster]) / sizes
    return cluster, d, dispersions, cosine_distances(centroids, centroids)


def davies_bouldin(reps, labels):
    """(mean, std over clusters) of the Davies-Bouldin per-cluster scores."""
    _, _, pi, cd = _cluster_geometry(reps, labels)
    off = ~np.eye(len(pi), dtype=bool)
    if np.any(cd[off] == 0.0):
        raise DegenerateCentroids("coincident cluster centroids")
    ratios = np.divide(pi[:, None] + pi, cd, out=np.full_like(cd, -np.inf), where=off)
    scores = ratios.max(axis=1)
    return float(scores.mean()), float(scores.std())


def dunn(reps, labels):
    """Smallest centroid separation over largest cluster dispersion."""
    _, _, pi, cd = _cluster_geometry(reps, labels)
    if pi.max() == 0.0:
        raise DegenerateClusters("all clusters have zero dispersion")
    min_sep = cd[np.triu_indices_from(cd, k=1)].min()
    return float(min_sep / pi.max())


def silhouette(reps, labels):
    """(mean, std over clusters) of cluster-balanced silhouette scores.

    Per point: (distance to closest wrong centroid - distance to own
    centroid) / max of the two; points coinciding with both centroids
    score 0. Per-cluster scores are the means over members.
    """
    cluster, d, _, _ = _cluster_geometry(reps, labels)
    own = (np.arange(len(d)), cluster)
    a = d[own]
    d[own] = np.inf
    bmin = d.min(axis=1)
    denom = np.maximum(a, bmin)
    s = np.where(denom > 0, (bmin - a) / np.where(denom > 0, denom, 1.0), 0.0)
    cluster_scores = np.bincount(cluster, s) / np.bincount(cluster)
    return float(cluster_scores.mean()), float(cluster_scores.std())


def embedding_spaces(params, config):
    """Word-embedding matrices available for neighbor inspection."""
    spaces = {"global": params.X[:, : config.d]}
    if config.mode == "savae":
        spaces["local"] = params.V_local
    return spaces


def nearest_words(query, vocab, embeddings, n=5):
    """``n`` nearest vocabulary tokens to ``query`` by cosine distance.

    The query itself is excluded; ties break by vocabulary id.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if query not in vocab:
        raise UnknownToken(f"token not in vocabulary: {query!r}")
    qid = vocab.index[query]
    dists = cosine_distances(embeddings[qid : qid + 1], embeddings)[0]
    order = _rank_rows(dists[None, :])[0]
    out = []
    for j in order:
        if j == qid:
            continue
        out.append(vocab.tokens[j])
        if len(out) == n:
            break
    return out


def linear_probe(train_reps, train_labels, test_reps, test_labels, seed=0):
    """Logistic-regression probe on frozen representations; test accuracy.

    Trained by Adam on the mean log-likelihood of binary labels, for
    ``PROBE_EPOCHS`` epochs.
    """
    X = np.asarray(train_reps, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.float64)
    Xt = np.asarray(test_reps, dtype=np.float64)
    yt = np.asarray(test_labels, dtype=np.float64)
    classes = set(np.unique(y).tolist())
    if not classes <= {0.0, 1.0}:
        raise DegenerateLabels(f"labels must be binary 0/1, got {sorted(classes)}")
    if len(classes) < 2:
        raise DegenerateLabels("training set contains a single class")
    params = {"w": np.zeros(X.shape[1]), "b": np.zeros(1)}
    state = AdamState(params)
    rng = RngStream(seed)
    n = len(X)
    for epoch in range(PROBE_EPOCHS):
        perm = rng.substream(epoch).permutation(n)
        for start in range(0, n, PROBE_BATCH_SIZE):
            idx = perm[start : start + PROBE_BATCH_SIZE]
            xb, yb = X[idx], y[idx]
            p = sigmoid(xb @ params["w"] + params["b"][0])
            resid = yb - p
            grads = {
                "w": xb.T @ resid / len(idx),
                "b": np.array([resid.mean()]),
            }
            adam_step(params, grads, state, PROBE_LEARNING_RATE)
    pred = sigmoid(Xt @ params["w"] + params["b"][0]) >= 0.5
    return float(np.mean(pred == (yt >= 0.5)))
