import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import random_model, tiny_config
from savae.corpus import Vocabulary
from savae.errors import (
    DegenerateCentroids,
    DegenerateClusters,
    DegenerateLabels,
    UnknownToken,
)
from savae.evaluation import (
    _QUERY_BLOCK,
    DEFAULT_RECALL_GRID,
    cosine_distances,
    davies_bouldin,
    dunn,
    embedding_spaces,
    linear_probe,
    nearest_words,
    retrieval_pr,
    silhouette,
)


def cosine_distance(a, b):
    """``cosine_distances`` of two vectors as 1-row matrices."""
    d = cosine_distances([a], [b])
    assert d.shape == (1, 1)
    return d[0, 0]


class TestCosineDistance:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_distance(v, 2 * v) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal(self):
        assert cosine_distance([1, 0], [0, 1]) == 1.0

    def test_antiparallel(self):
        assert cosine_distance([1.0, 1.0], [-2.0, -2.0]) == pytest.approx(2.0)

    def test_zero_norm_gives_one(self):
        assert cosine_distance([0, 0], [1, 2]) == 1.0
        assert cosine_distance([0, 0], [0, 0]) == 1.0


def random_clustered_data(rng, n_clusters=None, n_points=None, d=5):
    n_clusters = n_clusters or int(rng.integers(2, 9))
    n_points = n_points or int(rng.integers(n_clusters * 2, 201))
    centers = rng.normal(size=(n_clusters, d)) * 3
    labels = [int(rng.integers(n_clusters)) for _ in range(n_points)]
    # guarantee every cluster is non-empty
    for c in range(n_clusters):
        labels[c] = c
    reps = np.stack([centers[l] + rng.normal(size=d) * 0.5 for l in labels])
    return reps, labels


class TestClusteringIndices:
    def test_tight_orthogonal_clusters(self):
        reps = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3)
        labels = ["a"] * 3 + ["b"] * 3
        db_mean, db_std = davies_bouldin(reps, labels)
        assert db_mean == 0.0 and db_std == 0.0
        sil_mean, _ = silhouette(reps, labels)
        assert sil_mean == 1.0
        with pytest.raises(DegenerateClusters):
            dunn(reps, labels)

    def test_duplication_invariance(self, np_rng):
        reps, labels = random_clustered_data(np_rng, n_clusters=3, n_points=30)
        dup_reps = np.concatenate([reps, reps])
        dup_labels = labels + labels
        assert davies_bouldin(dup_reps, dup_labels) == pytest.approx(
            davies_bouldin(reps, labels), rel=1e-10
        )
        assert dunn(dup_reps, dup_labels) == pytest.approx(dunn(reps, labels), rel=1e-10)
        assert silhouette(dup_reps, dup_labels) == pytest.approx(
            silhouette(reps, labels), rel=1e-10
        )

    def test_cluster_id_permutation_invariance(self, np_rng):
        reps, labels = random_clustered_data(np_rng, n_clusters=4, n_points=40)
        renamed = [f"renamed_{l}" for l in labels]
        assert davies_bouldin(reps, labels)[0] == pytest.approx(
            davies_bouldin(reps, renamed)[0], rel=1e-12
        )
        assert dunn(reps, labels) == pytest.approx(dunn(reps, renamed), rel=1e-12)
        assert silhouette(reps, labels)[0] == pytest.approx(
            silhouette(reps, renamed)[0], rel=1e-12
        )

    def test_positive_scaling_invariance(self, np_rng):
        reps, labels = random_clustered_data(np_rng, n_clusters=3, n_points=24)
        for metric in (davies_bouldin, dunn, silhouette):
            assert metric(reps * 7.5, labels) == pytest.approx(metric(reps, labels), rel=1e-10)

    def test_shrinking_clusters_raises_dunn(self, np_rng):
        reps, labels = random_clustered_data(np_rng, n_clusters=3, n_points=30)
        order = sorted(set(labels), key=str)
        centroids = {l: reps[[i for i, x in enumerate(labels) if x == l]].mean(axis=0) for l in order}
        shrunk = np.stack(
            [centroids[l] + 0.3 * (r - centroids[l]) for r, l in zip(reps, labels)]
        )
        assert dunn(shrunk, labels) > dunn(reps, labels)

    def test_coincident_centroids_rejected(self):
        # both clusters have centroid [2, 0] -> cosine distance exactly 0
        reps = np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
        labels = ["a", "a", "b", "b"]
        with pytest.raises(DegenerateCentroids):
            davies_bouldin(reps, labels)

    def test_matches_oracle_on_random_instances(self, np_rng):
        for _ in range(10):
            reps, labels = random_clustered_data(np_rng)
            np.testing.assert_allclose(
                davies_bouldin(reps, labels), oracles.davies_bouldin(reps, labels), rtol=1e-10
            )
            np.testing.assert_allclose(dunn(reps, labels), oracles.dunn(reps, labels), rtol=1e-10)
            np.testing.assert_allclose(
                silhouette(reps, labels), oracles.silhouette(reps, labels), rtol=1e-10
            )


class TestRetrievalPr:
    def test_all_same_label_perfect_precision(self, np_rng):
        index = np_rng.normal(size=(10, 4))
        queries = np_rng.normal(size=(3, 4))
        curve = retrieval_pr(queries, [{"x"}] * 3, index, [{"x"}] * 10, "exact")
        np.testing.assert_array_equal(curve.precision, np.ones(len(DEFAULT_RECALL_GRID)))

    def test_jaccard_gain_value(self):
        queries = np.array([[1.0, 0.0]])
        index = np.array([[1.0, 0.0]])
        curve = retrieval_pr(queries, [{"a", "b"}], index, [{"b", "c"}], "jaccard")
        np.testing.assert_allclose(curve.precision, 1 / 3)

    def test_unmatched_query_skipped(self, np_rng):
        index = np_rng.normal(size=(5, 3))
        queries = np_rng.normal(size=(2, 3))
        curve = retrieval_pr(
            queries, [{"x"}, {"zzz"}], index, [{"x"}] * 5, "exact"
        )
        assert curve.skipped == 1 and curve.n_queries == 1

    def test_matches_oracle_exact_and_jaccard(self, np_rng):
        label_pool = ["a", "b", "c", "d"]
        for _ in range(5):
            nq, ni = int(np_rng.integers(2, 6)), int(np_rng.integers(5, 30))
            queries = np_rng.normal(size=(nq, 4))
            index = np_rng.normal(size=(ni, 4))
            qlabels = [
                set(np_rng.choice(label_pool, size=np_rng.integers(1, 3), replace=False))
                for _ in range(nq)
            ]
            ilabels = [
                set(np_rng.choice(label_pool, size=np_rng.integers(1, 3), replace=False))
                for _ in range(ni)
            ]
            for mode in ("exact", "jaccard"):
                curve = retrieval_pr(queries, qlabels, index, ilabels, mode)
                expected, used, skipped = oracles.retrieval_pr(
                    queries, qlabels, index, ilabels, mode, DEFAULT_RECALL_GRID
                )
                np.testing.assert_allclose(curve.precision, expected, atol=1e-10)
                assert (curve.n_queries, curve.skipped) == (used, skipped)

    def test_scaling_invariance(self, np_rng):
        queries = np_rng.normal(size=(3, 4))
        index = np_rng.normal(size=(12, 4))
        labels = [{"a"} if i % 2 else {"b"} for i in range(12)]
        qlabels = [{"a"}, {"b"}, {"a"}]
        a = retrieval_pr(queries, qlabels, index, labels, "exact")
        b = retrieval_pr(queries * 3.7, qlabels, index * 0.2, labels, "exact")
        np.testing.assert_array_equal(a.precision, b.precision)

    def test_random_labels_approach_label_frequency(self, np_rng):
        # with random index labels, precision converges to the label frequency
        index = np_rng.normal(size=(800, 3))
        ilabels = [{"a"} if np_rng.random() < 0.3 else {"b"} for _ in range(800)]
        queries = np_rng.normal(size=(30, 3))
        curve = retrieval_pr(queries, [{"a"}] * 30, index, ilabels, "exact")
        # at high recall the whole index is consumed, precision -> frequency
        assert curve.precision[-1] == pytest.approx(
            sum("a" in l for l in ilabels) / 800, abs=0.02
        )

    @pytest.mark.parametrize("side", ["query", "index"])
    def test_label_count_mismatch(self, np_rng, side):
        queries, index = np_rng.normal(size=(3, 2)), np_rng.normal(size=(4, 2))
        qlabels, ilabels = [{"a"}] * 3, [{"a"}] * 4
        if side == "query":
            qlabels = qlabels[:2]
        else:
            ilabels = ilabels[:3]
        with pytest.raises(ValueError, match=f"{side} representations"):
            retrieval_pr(queries, qlabels, index, ilabels, "exact")

    @staticmethod
    def _integer_case(seed, n_queries, n_index):
        """Small-integer vectors, so the package and the oracle compute every
        cosine alike and ties are exact; with a zero-norm query and index
        row, a duplicated index row and empty label sets on both sides."""
        rng = np.random.default_rng(seed)
        pool = ["a", "b", "c", "d"]

        def label_sets(n):
            return [set(rng.choice(pool, size=rng.integers(0, 3), replace=False))
                    for _ in range(n)]

        queries = rng.integers(-2, 3, size=(n_queries, 3)).astype(np.float64)
        index = rng.integers(-2, 3, size=(n_index, 3)).astype(np.float64)
        qlabels, ilabels = label_sets(n_queries), label_sets(n_index)
        queries[-1] = 0.0
        index[-1] = 0.0
        if n_index > 2:
            index[1] = index[0]
            ilabels[0], ilabels[1] = {"a"}, {"b"}
        # the first query always has a relevant document
        qlabels[0], ilabels[-1] = {"a"}, ilabels[-1] | {"a"}
        return queries, qlabels, index, ilabels

    @pytest.mark.parametrize("mode", ["exact", "jaccard"])
    @pytest.mark.parametrize("n_index", [1, 20])
    @pytest.mark.parametrize(
        "n_queries",
        [1, _QUERY_BLOCK - 1, _QUERY_BLOCK, _QUERY_BLOCK + 1, 2 * _QUERY_BLOCK + 3],
    )
    def test_matches_oracle_across_query_blocks(self, mode, n_index, n_queries):
        queries, qlabels, index, ilabels = self._integer_case(n_queries, n_queries, n_index)
        curve = retrieval_pr(queries, qlabels, index, ilabels, mode)
        expected, used, skipped = oracles.retrieval_pr(
            queries.tolist(), qlabels, index.tolist(), ilabels, mode, DEFAULT_RECALL_GRID
        )
        np.testing.assert_allclose(curve.precision, expected, atol=1e-10)
        assert (curve.n_queries, curve.skipped) == (used, skipped)

    @pytest.mark.parametrize("mode", ["exact", "jaccard"])
    def test_every_query_skipped(self, np_rng, mode):
        n = _QUERY_BLOCK + 1
        queries, index = np_rng.normal(size=(n, 3)), np_rng.normal(size=(5, 3))
        qlabels = [{"x"}] * (n - 1) + [set()]
        with pytest.raises(DegenerateLabels):
            retrieval_pr(queries, qlabels, index, [{"a"}, set(), {"b"}, {"a"}, {"c"}], mode)

    @pytest.mark.parametrize("mode", ["exact", "jaccard"])
    def test_peak_memory_independent_of_query_count(self, np_rng, mode):
        index = np_rng.normal(size=(1000, 8))
        ilabels = [{"a"} if i % 3 else {"a", "b"} for i in range(1000)]
        peaks = []
        for n_queries in (_QUERY_BLOCK, 4 * _QUERY_BLOCK):
            queries = np_rng.normal(size=(n_queries, 8))
            qlabels = [{"b"} if i % 2 else {"a", "c"} for i in range(n_queries)]
            tracemalloc.start()
            try:
                retrieval_pr(queries, qlabels, index, ilabels, mode)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_csv_output(self, np_rng):
        queries = np_rng.normal(size=(2, 3))
        index = np_rng.normal(size=(4, 3))
        curve = retrieval_pr(queries, [{"x"}] * 2, index, [{"x"}] * 4, "exact")
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "recall,precision"
        assert len(lines) == len(DEFAULT_RECALL_GRID) + 1


class TestNearestWords:
    def _vocab(self):
        return Vocabulary(tokens=["aa", "bb", "cc", "dd"], counts=[4, 3, 2, 1])

    def test_query_excluded(self):
        emb = np.eye(4)
        out = nearest_words("aa", self._vocab(), emb, n=3)
        assert "aa" not in out and len(out) == 3

    def test_duplicate_row_ranked_first(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [-1.0, 0.5]])
        assert nearest_words("aa", self._vocab(), emb, n=1) == ["cc"]

    def test_tie_broken_by_vocab_id(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        # bb, cc, dd all at distance 1 from aa
        assert nearest_words("aa", self._vocab(), emb, n=3) == ["bb", "cc", "dd"]

    def test_query_row_rescaling_invariance(self):
        emb = np.array([[1.0, 0.2], [0.3, 1.0], [0.9, 0.1], [-1.0, 0.5]])
        a = nearest_words("bb", self._vocab(), emb, n=3)
        emb2 = emb.copy()
        emb2[1] *= 50.0
        assert nearest_words("bb", self._vocab(), emb2, n=3) == a

    def test_oov_rejected(self):
        with pytest.raises(UnknownToken):
            nearest_words("zzz", self._vocab(), np.eye(4), n=2)

    @pytest.mark.parametrize("n", [0, -2])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            nearest_words("aa", self._vocab(), np.eye(4), n=n)

    def test_spaces_by_mode(self):
        cfg_s = tiny_config("savae")
        cfg_n = tiny_config("nvdm")
        assert set(embedding_spaces(random_model(cfg_s), cfg_s)) == {"global", "local"}
        assert set(embedding_spaces(random_model(cfg_n), cfg_n)) == {"global"}


class TestLinearProbe:
    def _blobs(self, rng, n=200, sep=6.0):
        X0 = rng.normal(size=(n // 2, 2)) + [-sep / 2, 0]
        X1 = rng.normal(size=(n // 2, 2)) + [sep / 2, 0]
        X = np.concatenate([X0, X1])
        y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
        return X, y

    def test_separable_blobs_perfect(self, np_rng):
        X, y = self._blobs(np_rng, sep=12.0)
        acc = linear_probe(X, y, X, y)
        assert acc == 1.0

    def test_shuffled_labels_chance_level(self, np_rng):
        X, y = self._blobs(np_rng, n=400)
        y_shuffled = np_rng.permutation(y)
        Xt, yt = self._blobs(np_rng, n=400)
        yt = np_rng.permutation(yt)
        acc = linear_probe(X, y_shuffled, Xt, yt)
        assert abs(acc - 0.5) <= 0.05

    def test_single_class_rejected(self, np_rng):
        X, _ = self._blobs(np_rng)
        with pytest.raises(DegenerateLabels):
            linear_probe(X, np.zeros(len(X)), X, np.zeros(len(X)))
