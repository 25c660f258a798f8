import numpy as np
import pytest

from conftest import random_model, tiny_config, zero_model
from savae.corpus import Document
from savae.errors import AllDocumentsEmpty, EmptyDocument, ParseError
from savae.inference import (
    DocRepresentation,
    evaluate_bound,
    read_representations,
    represent,
    represent_batch,
    write_representations,
)


class TestRepresent:
    def test_zero_encoder_zero_vector(self):
        cfg = tiny_config()
        rep = represent(Document(ids=[0, 1]), zero_model(cfg), cfg)
        np.testing.assert_array_equal(rep.vector, np.zeros(cfg.d))

    def test_deterministic(self):
        cfg = tiny_config()
        params = random_model(cfg)
        doc = Document(ids=[2, 4, 1], labels={"x"})
        a = represent(doc, params, cfg)
        b = represent(doc, params, cfg)
        np.testing.assert_array_equal(a.vector, b.vector)
        assert a.labels == {"x"}

    def test_word_order_irrelevant(self):
        cfg = tiny_config()
        params = random_model(cfg)
        a = represent(Document(ids=[1, 2, 3]), params, cfg)
        b = represent(Document(ids=[3, 1, 2]), params, cfg)
        np.testing.assert_array_equal(a.vector, b.vector)

    def test_empty_rejected(self):
        cfg = tiny_config()
        with pytest.raises(EmptyDocument):
            represent(Document(ids=[]), random_model(cfg), cfg)


class TestRepresentBatch:
    def test_matches_single_and_preserves_order(self):
        cfg = tiny_config()
        params = random_model(cfg)
        docs = [Document(ids=[3, 1]), Document(ids=[0]), Document(ids=[5, 5, 2])]
        reps = represent_batch(docs, params, cfg)
        assert [r.doc_id for r in reps] == [0, 1, 2]
        for doc, rep in zip(docs, reps):
            np.testing.assert_array_equal(rep.vector, represent(doc, params, cfg).vector)

    def test_empty_docs_flagged(self):
        cfg = tiny_config()
        params = random_model(cfg)
        reps = represent_batch([Document(ids=[]), Document(ids=[1])], params, cfg)
        assert reps[0].empty and not reps[1].empty
        np.testing.assert_array_equal(reps[0].vector, np.zeros(cfg.d))


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
