import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model, tiny_config, zero_model
from oracles import encoder_posterior, naive_doc_log_likelihoods
from savae.corpus import Document
from savae.errors import AllDocumentsEmpty, ParseError
from savae.inference import (
    DocRepresentation,
    evaluate_bound,
    read_representations,
    represent_batch,
    write_representations,
)
from savae.model import ModelConfig
from savae.numerics import RngStream


@st.composite
def block_cases(draw):
    """More documents than one 256-document encoder block, some empty."""
    mode = draw(st.sampled_from(["savae", "nvdm"]))
    m = draw(st.integers(1, 7))
    n = draw(st.integers(257, 600))
    empty_share = draw(st.sampled_from([0.0, 0.05, 0.5]))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n):
        length = 0 if rng.uniform() < empty_share else int(rng.integers(1, 7))
        docs.append(Document(ids=rng.integers(0, m, size=length).tolist(), labels={f"l{i % 3}"}))
    config = ModelConfig(mode=mode, m=m, d=2, k=2, encoder_layers=(5, 4))
    return config, random_model(config, seed=seed % 1000), docs


class TestRepresent:
    def test_zero_encoder_zero_vector(self):
        cfg = tiny_config()
        rep = represent_batch([Document(ids=[0, 1])], zero_model(cfg), cfg)[0]
        np.testing.assert_array_equal(rep.vector, np.zeros(cfg.d))

    def test_deterministic(self):
        cfg = tiny_config()
        params = random_model(cfg)
        doc = Document(ids=[2, 4, 1], labels={"x"})
        a = represent_batch([doc], params, cfg)[0]
        b = represent_batch([doc], params, cfg)[0]
        np.testing.assert_array_equal(a.vector, b.vector)
        assert a.labels == {"x"}

    def test_word_order_irrelevant(self):
        cfg = tiny_config()
        params = random_model(cfg)
        a = represent_batch([Document(ids=[1, 2, 3])], params, cfg)[0]
        b = represent_batch([Document(ids=[3, 1, 2])], params, cfg)[0]
        np.testing.assert_array_equal(a.vector, b.vector)

    def test_empty_rejected(self, tmp_path):
        cfg = tiny_config()
        rep = represent_batch([Document(ids=[])], random_model(cfg), cfg)[0]
        assert rep.empty
        with pytest.raises(AllDocumentsEmpty):
            write_representations([rep], tmp_path / "reps.csv")


class TestRepresentBatch:
    @given(block_cases())
    @settings(max_examples=15, deadline=None)
    def test_matches_oracle_and_preserves_order(self, case):
        config, params, docs = case
        reps = represent_batch(docs, params, config)
        assert [r.doc_id for r in reps] == list(range(len(docs)))
        assert [r.empty for r in reps] == [doc.is_empty for doc in docs]
        assert [r.labels for r in reps] == [doc.labels for doc in docs]
        kept = [i for i, doc in enumerate(docs) if not doc.is_empty]
        got = np.array([reps[i].vector for i in kept])
        want = np.array([encoder_posterior(docs[i].ids, params).mu for i in kept])
        # entries that cancel to near zero carry the rounding of their terms
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        # blocks start at the first non-empty document, so dropping the
        # empty ones leaves every GEMM, and so every bit, as it was
        alone = represent_batch([docs[i] for i in kept], params, config)
        assert np.array_equal(np.array([r.vector for r in alone]), got)
        for i, doc in enumerate(docs):
            if doc.is_empty:
                np.testing.assert_array_equal(reps[i].vector, np.zeros(config.d))

    def test_empty_docs_flagged(self):
        cfg = tiny_config()
        params = random_model(cfg)
        reps = represent_batch([Document(ids=[]), Document(ids=[1])], params, cfg)
        assert reps[0].empty and not reps[1].empty
        np.testing.assert_array_equal(reps[0].vector, np.zeros(cfg.d))

    def test_no_and_all_empty_documents(self):
        cfg = tiny_config()
        params = random_model(cfg)
        assert represent_batch([], params, cfg) == []
        reps = represent_batch([Document(ids=[], labels={"a"})] * 300, params, cfg)
        assert [r.doc_id for r in reps] == list(range(300))
        assert all(r.empty and r.labels == {"a"} and not r.vector.any() for r in reps)


class TestEvaluateBound:
    def test_uniform_model_perplexity(self):
        cfg = tiny_config("nvdm", m=6)
        params = zero_model(cfg)
        docs = [Document(ids=[0, 1, 2]), Document(ids=[4])]
        mean_total, perp = evaluate_bound(docs, params, cfg, samples=3, seed=0)
        assert perp == pytest.approx(cfg.m, rel=1e-12)
        assert mean_total == pytest.approx(-2 * np.log(cfg.m), rel=1e-12)

    def test_seeded_reproducibility(self):
        cfg = tiny_config()
        params = random_model(cfg)
        docs = [Document(ids=[0, 3]), Document(ids=[2, 5, 1])]
        a = evaluate_bound(docs, params, cfg, samples=5, seed=9)
        b = evaluate_bound(docs, params, cfg, samples=5, seed=9)
        assert a == b

    def test_all_empty_rejected(self):
        cfg = tiny_config()
        with pytest.raises(AllDocumentsEmpty):
            evaluate_bound([Document(ids=[])], random_model(cfg), cfg)
        with pytest.raises(AllDocumentsEmpty):
            evaluate_bound([Document(ids=[])] * 300, random_model(cfg), cfg)
        with pytest.raises(AllDocumentsEmpty):
            evaluate_bound([], random_model(cfg), cfg)

    @given(block_cases(), st.integers(1, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_naive_oracle(self, case, samples, seed):
        config, params, docs = case
        totals, words = [], 0
        for i, doc in enumerate(docs):
            if doc.is_empty:
                continue
            q = encoder_posterior(doc.ids, params)
            eps = RngStream(seed).substream(i).normal((samples, config.d))
            Z = q.mu + np.exp(0.5 * q.log_var) * eps
            ll = naive_doc_log_likelihoods(doc.ids, Z, params, config)
            kl = 0.5 * np.sum(q.mu**2 + np.exp(q.log_var) - q.log_var - 1.0)
            totals.append(ll.mean() - kl)
            words += doc.length
        mean_total, perp = evaluate_bound(docs, params, config, samples=samples, seed=seed)
        assert mean_total == pytest.approx(np.mean(totals), rel=1e-9)
        assert perp == pytest.approx(np.exp(-np.sum(totals) / words), rel=1e-9)

    def test_multisample_mean_not_below_single_sample(self):
        cfg = tiny_config()
        params = random_model(cfg, seed=21)
        docs = [Document(ids=[0, 2, 4, 1])]
        singles = [evaluate_bound(docs, params, cfg, samples=1, seed=s)[0] for s in range(100)]
        twenties = [
            evaluate_bound(docs, params, cfg, samples=20, seed=1000 + s)[0]
            for s in range(100)
        ]
        assert np.mean(twenties) >= np.mean(singles) - 2 * np.std(singles) / 10


class TestRepresentationCsv:
    def test_round_trip(self, tmp_path):
        reps = [
            DocRepresentation(vector=np.array([0.5, -1.25]), labels={"a", "b"}, doc_id=0),
            DocRepresentation(vector=np.array([1e-17, 3.0]), labels=set(), doc_id=1),
        ]
        path = tmp_path / "reps.csv"
        write_representations(reps, path)
        header = path.read_text().splitlines()[0]
        assert header == "id,labels,v0,v1"
        ids, labels, mat = read_representations(path)
        assert ids == [0, 1]
        assert labels == [{"a", "b"}, set()]
        np.testing.assert_array_equal(mat, np.array([[0.5, -1.25], [1e-17, 3.0]]))

    def test_empty_reps_skipped(self, tmp_path):
        reps = [
            DocRepresentation(vector=np.zeros(2), labels=set(), doc_id=0, empty=True),
            DocRepresentation(vector=np.ones(2), labels={"x"}, doc_id=1),
        ]
        path = tmp_path / "reps.csv"
        write_representations(reps, path)
        ids, _, mat = read_representations(path)
        assert ids == [1] and mat.shape == (1, 2)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "reps.csv"
        write_representations([DocRepresentation(vector=np.ones(2), labels={"x"})], path)
        before = path.read_bytes()
        reps = [
            DocRepresentation(vector=np.zeros(2), labels={"y"}, doc_id=0),
            DocRepresentation(vector=np.array(["oops", "1"]), labels={"y"}, doc_id=1),
        ]
        with pytest.raises(ValueError):
            write_representations(reps, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["reps.csv"]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "reps.csv"
        path.write_text("nope,labels,v0\n1,a,0.5\n")
        with pytest.raises(ParseError):
            read_representations(path)
