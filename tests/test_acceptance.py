"""Acceptance suite: one test per numbered criterion.

Each test prints a single machine-readable pass/fail line of the form
``criterion N (name): PASS|FAIL|SKIP - detail``. Criteria that need the
full 20 Newsgroups or IMDB datasets skip with an explicit reason when
the data cannot be obtained in the test environment; a synthetic
determinism check covering the same code path lives in test_cli.py.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import random_doc, random_model, tiny_config, zero_model
from savae import corpus as corpus_mod
from savae import evaluation, inference, model, training
from savae.corpus import Document
from savae.evaluation import DEFAULT_RECALL_GRID, linear_probe
from savae.model import ModelConfig
from savae.numerics import RngStream, kl_standard_normal


def _line(num, name, status, detail=""):
    msg = f"criterion {num} ({name}): {status}"
    if detail:
        msg += f" - {detail}"
    print(msg)


def _fetch_newsgroup_subset():
    """Four-group 20 Newsgroups subset, or None when not obtainable."""
    categories = ["comp.graphics", "rec.sport.hockey", "sci.space", "talk.politics.mideast"]
    try:
        from sklearn.datasets import fetch_20newsgroups
    except ImportError:
        return None, "scikit-learn not installed"
    try:
        train = fetch_20newsgroups(subset="train", categories=categories)
        test = fetch_20newsgroups(subset="test", categories=categories)
    except Exception as err:
        return None, f"20 Newsgroups download failed ({type(err).__name__})"
    return (train, test), ""


class TestCriterion1GradientGate:
    def _check_mode(self, config, n_instances=20):
        worst = 0.0
        rng = np.random.default_rng(1000 + hash(config.mode) % 1000)
        for i in range(n_instances):
            params = random_model(config, seed=100 + i)
            stream = RngStream(200 + i)
            doc = random_doc(stream, config.m, min_len=1, max_len=7)
            eps = stream.normal((1, config.d))
            _, grads = model.batch_elbo_gradients([doc], params, config, eps)
            fd = oracles.finite_difference_grads(
                [doc], params, config, eps, oracles.elbo_with_fixed_eps, h=1e-5
            )
            for name, g in grads.items():
                diff = np.abs(g - fd[name])
                bound = np.maximum(1e-4 * np.abs(fd[name]), 1e-8)
                assert np.all(diff <= bound), (config.mode, i, name)
                with np.errstate(divide="ignore", invalid="ignore"):
                    rel = diff / np.maximum(np.abs(fd[name]), 1e-8)
                worst = max(worst, float(rel.max()))
        return worst

    def test_gradients_match_finite_differences(self):
        start = time.time()
        worst_s = self._check_mode(tiny_config("savae", m=6, d=2, k=2))
        worst_n = self._check_mode(tiny_config("nvdm", m=8, d=3))
        elapsed = time.time() - start
        assert elapsed < 60.0
        _line(1, "gradient gate", "PASS",
              f"worst rel err savae={worst_s:.2e} nvdm={worst_n:.2e}, {elapsed:.1f}s")


class TestCriterion2KlOracle:
    def test_analytic_kl_within_monte_carlo_error(self):
        start = time.time()
        rng = np.random.default_rng(8)
        worst_sigma = 0.0
        for _ in range(10):
            d = int(rng.integers(1, 6))
            mu = rng.normal(size=d)
            lv = rng.normal(scale=0.7, size=d)
            analytic = kl_standard_normal(mu, lv)
            mc, se = oracles.mc_kl_standard_normal(mu, lv, 10**6, rng)
            assert abs(analytic - mc) < 3 * se
            worst_sigma = max(worst_sigma, abs(analytic - mc) / se)
        elapsed = time.time() - start
        assert elapsed < 60.0
        _line(2, "KL oracle", "PASS",
              f"10 posteriors, worst deviation {worst_sigma:.2f} SE, {elapsed:.1f}s")


class TestCriterion3BoundProperty:
    def test_elbo_below_importance_sampling_estimate(self):
        start = time.time()
        config = tiny_config("savae", m=5, d=2, k=2)
        params = random_model(config, seed=3)
        stream = RngStream(33)
        rng = np.random.default_rng(42)
        holds = 0
        for i in range(20):
            doc = random_doc(stream, config.m, min_len=2, max_len=8)
            est = model.elbo(doc, params, config, stream.substream(5, i), samples=20)
            ll = oracles.prior_sampling_log_likelihoods(
                doc.ids, params, config, 10**4, rng
            )
            if est.total <= ll:
                holds += 1
        elapsed = time.time() - start
        assert elapsed < 120.0
        ok = holds >= 19
        _line(3, "bound property", "PASS" if ok else "FAIL",
              f"ELBO <= IS estimate on {holds}/20 documents, {elapsed:.1f}s")
        assert ok

    def test_package_likelihood_agrees_with_naive_oracle(self):
        # ties the IS oracle and the package to the same quantity
        for mode in ("savae", "nvdm"):
            config = tiny_config(mode, m=5, d=2, k=2)
            params = random_model(config, seed=9)
            stream = RngStream(90)
            doc = random_doc(stream, config.m, min_len=3, max_len=8)
            Z = stream.normal((4, config.d))
            theirs = oracles.naive_doc_log_likelihoods(doc.ids, Z, params, config)
            ours = oracles.doc_log_likelihoods(doc.ids, Z, params, config)
            np.testing.assert_allclose(ours, theirs, rtol=1e-12)


class TestCriterion4MetricOracles:
    def test_metrics_match_naive_references(self):
        start = time.time()
        rng = np.random.default_rng(101)
        label_pool = ["a", "b", "c", "d", "e"]
        for _ in range(50):
            n_clusters = int(rng.integers(2, 9))
            n_points = int(rng.integers(n_clusters * 2, 201))
            centers = rng.normal(size=(n_clusters, 4)) * 3
            labels = [int(rng.integers(n_clusters)) for _ in range(n_points)]
            for c in range(n_clusters):
                labels[c] = c
            reps = np.stack([centers[l] + rng.normal(size=4) * 0.5 for l in labels])
            np.testing.assert_allclose(
                evaluation.davies_bouldin(reps, labels),
                oracles.davies_bouldin(reps, labels), atol=1e-10, rtol=1e-10,
            )
            np.testing.assert_allclose(
                evaluation.dunn(reps, labels), oracles.dunn(reps, labels),
                atol=1e-10, rtol=1e-10,
            )
            np.testing.assert_allclose(
                evaluation.silhouette(reps, labels),
                oracles.silhouette(reps, labels), atol=1e-10, rtol=1e-10,
            )
            nq, ni = int(rng.integers(2, 6)), int(rng.integers(5, 40))
            queries = rng.normal(size=(nq, 3))
            index = rng.normal(size=(ni, 3))
            qlabels = [set(rng.choice(label_pool, size=rng.integers(1, 3), replace=False))
                       for _ in range(nq)]
            ilabels = [set(rng.choice(label_pool, size=rng.integers(1, 3), replace=False))
                       for _ in range(ni)]
            for mode in ("exact", "jaccard"):
                curve = evaluation.retrieval_pr(queries, qlabels, index, ilabels, mode)
                expected, used, skipped = oracles.retrieval_pr(
                    queries, qlabels, index, ilabels, mode, DEFAULT_RECALL_GRID
                )
                np.testing.assert_allclose(curve.precision, expected, atol=1e-10)
                assert (curve.n_queries, curve.skipped) == (used, skipped)
        elapsed = time.time() - start
        assert elapsed < 60.0
        _line(4, "metric oracles", "PASS",
              f"50 instances, all metrics within 1e-10, {elapsed:.1f}s")


class TestCriterion5UniformModelIdentities:
    # "exactly" is read at the resolution float64 admits: the NVDM ELBO
    # identity holds bit for bit, while the sequential SAVAE sum and
    # exp(log m) in the perplexity round in the last ulp (for instance
    # exp(log 2000) = 1999.9999999999998), so those are asserted at
    # 1e-12 relative tolerance.
    def test_zero_model_is_uniform(self):
        m = 2000
        stream = RngStream(55)
        for mode in ("savae", "nvdm"):
            config = ModelConfig(mode=mode, m=m, d=3, k=2, encoder_layers=(4,))
            params = zero_model(config)
            docs = [random_doc(stream, m, min_len=1, max_len=40) for _ in range(5)]
            for doc in docs:
                est = model.elbo(doc, params, config, stream.substream(1), samples=1)
                assert est.kl == 0.0
                expected = -(doc.length * np.log(m))
                if mode == "nvdm":
                    assert est.total == expected
                else:
                    assert est.total == pytest.approx(expected, rel=1e-12)
            _, ppl = inference.evaluate_bound(docs, params, config, samples=1, seed=2)
            assert ppl == pytest.approx(m, rel=1e-12)
        _line(5, "uniform-model identities", "PASS",
              "ELBO = -l ln m (NVDM bit-exact) and perplexity = m at 1e-12, m=2000")


class TestCriterion6AblationDirection:
    def test_savae_beats_nvdm_on_newsgroup_subset(self, tmp_path):
        data, why = _fetch_newsgroup_subset()
        if data is None:
            _line(6, "ablation direction", "SKIP",
                  f"{why}; no network access to the dataset host in this environment")
            pytest.skip(f"20 Newsgroups unavailable: {why}")
        train_raw, test_raw = data
        start = time.time()
        train_docs = [
            (corpus_mod.strip_newsgroup_metadata(t), {train_raw.target_names[y]})
            for t, y in zip(train_raw.data, train_raw.target)
        ]
        test_docs = [
            (corpus_mod.strip_newsgroup_metadata(t), {test_raw.target_names[y]})
            for t, y in zip(test_raw.data, test_raw.target)
        ]
        wins = 0
        for seed in (1, 2, 3):
            scores = {}
            for mode, lr in (("savae", 1e-5), ("nvdm", 1e-4)):
                split = corpus_mod.build_split(train_docs, test_docs, 2000, seed)
                mcfg = ModelConfig(mode=mode, m=len(split.vocabulary), d=50, k=5)
                tcfg = training.TrainConfig(
                    learning_rate=lr, epochs=200, batch_size=64, seed=seed,
                )
                params, _ = training.train(split, mcfg, tcfg)
                reps_tr = inference.represent_batch(split.train, params, mcfg)
                reps_te = inference.represent_batch(split.test, params, mcfg)
                qv = np.stack([r.vector for r in reps_te])
                ql = [r.labels for r in reps_te]
                iv = np.stack([r.vector for r in reps_tr])
                il = [r.labels for r in reps_tr]
                curve = evaluation.retrieval_pr(qv, ql, iv, il, "exact")
                mask = [i for i, r in enumerate(curve.recall) if 0.01 <= r <= 0.5]
                prec = float(np.mean(curve.precision[mask]))
                db, _ = evaluation.davies_bouldin(iv, [min(l) for l in il])
                scores[mode] = (prec, db)
            if (scores["savae"][0] > scores["nvdm"][0]
                    and scores["savae"][1] < scores["nvdm"][1]):
                wins += 1
        elapsed = time.time() - start
        ok = wins >= 2
        _line(6, "ablation direction", "PASS" if ok else "FAIL",
              f"SAVAE beats NVDM in {wins}/3 seeds, {elapsed / 60:.0f}min")
        assert ok


class TestCriterion7LinearProbe:
    def test_probe_sanity(self):
        rng = np.random.default_rng(77)
        n = 400
        X0 = rng.normal(size=(n // 2, 5)) + np.array([4.0, 0, 0, 0, 0])
        X1 = rng.normal(size=(n // 2, 5)) - np.array([4.0, 0, 0, 0, 0])
        X = np.concatenate([X0, X1])
        y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
        acc = linear_probe(X, y, X, y)
        assert acc == 1.0
        y_shuf = rng.permutation(y)
        yt_shuf = rng.permutation(y)
        acc_shuf = linear_probe(X, y_shuf, X, yt_shuf)
        assert abs(acc_shuf - 0.5) <= 0.05
        _line(7, "linear probe sanity", "PASS",
              f"separable blobs 100%, shuffled labels {acc_shuf:.3f}")

    def test_imdb_subsample_pipeline(self, tmp_path):
        root = os.environ.get("SAVAE_IMDB_DIR")
        if not root or not Path(root, "train").is_dir():
            _line(7, "IMDB probe pipeline", "SKIP",
                  "SAVAE_IMDB_DIR not set and the dataset host is unreachable "
                  "from this environment")
            pytest.skip("IMDB data unavailable (set SAVAE_IMDB_DIR to an aclImdb tree)")
        start = time.time()
        rng = np.random.default_rng(5)
        pairs = []
        for sentiment in ("pos", "neg"):
            files = sorted(Path(root, "train", sentiment).glob("*.txt"))
            picks = rng.choice(len(files), size=1000, replace=False)
            pairs += [(files[i].read_text(encoding="utf-8"), {sentiment}) for i in picks]
        split = corpus_mod.build_split(pairs[:1600], pairs[1600:], 2000, 2)
        mcfg = ModelConfig(mode="savae", m=len(split.vocabulary), d=50, k=5)
        tcfg = training.TrainConfig(learning_rate=1e-4, epochs=50, batch_size=64,
                                    seed=2)
        params, _ = training.train(split, mcfg, tcfg)
        reps_tr = inference.represent_batch(split.train, params, mcfg)
        reps_te = inference.represent_batch(split.test, params, mcfg)
        Xtr = np.stack([r.vector for r in reps_tr])
        ytr = np.array([1.0 if "pos" in r.labels else 0.0 for r in reps_tr])
        Xte = np.stack([r.vector for r in reps_te])
        yte = np.array([1.0 if "pos" in r.labels else 0.0 for r in reps_te])
        acc = linear_probe(Xtr, ytr, Xte, yte)
        elapsed = time.time() - start
        ok = acc > 0.60
        _line(7, "IMDB probe pipeline", "PASS" if ok else "FAIL",
              f"accuracy {acc:.3f} on 2000-review subsample, {elapsed / 60:.0f}min")
        assert ok


class TestCriterion8Determinism:
    def test_full_runs_byte_identical(self):
        data, why = _fetch_newsgroup_subset()
        if data is None:
            _line(8, "determinism", "SKIP",
                  f"{why}; the synthetic-corpus determinism check in "
                  "test_cli.py::TestPipeline::test_train_is_deterministic covers "
                  "the identical code path")
            pytest.skip(f"20 Newsgroups unavailable: {why}")
        train_raw, test_raw = data
        pairs = [
            (corpus_mod.strip_newsgroup_metadata(t), {train_raw.target_names[y]})
            for t, y in zip(train_raw.data, train_raw.target)
        ]
        blobs = []
        for run in range(2):
            split = corpus_mod.build_split(pairs, [], 2000, 1)
            mcfg = ModelConfig(mode="nvdm", m=len(split.vocabulary), d=50, k=5)
            tcfg = training.TrainConfig(learning_rate=1e-4, epochs=200, batch_size=64,
                                        seed=1)
            params, _ = training.train(split, mcfg, tcfg)
            blobs.append(b"".join(a.tobytes() for a in params.named_arrays().values()))
        ok = blobs[0] == blobs[1]
        _line(8, "determinism", "PASS" if ok else "FAIL", "two seeded runs compared")
        assert ok
