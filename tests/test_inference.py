import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model, tiny_config, zero_model
from oracles import (
    encoder_posterior,
    naive_doc_log_likelihoods,
    read_representations_csv,
    write_representations_csv,
)
from savae import inference
from savae.corpus import Document
from savae.errors import AllDocumentsEmpty, ParseError
from savae.inference import (
    DocRepresentation,
    evaluate_bound,
    read_representations,
    represent_batch,
    write_representations,
)
from savae.model import ElboEstimate, ModelConfig, elbo
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


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-17, 1e16, 1e22, 0.1 + 0.2, 2 / 3,
    1.7976931348623157e308, np.inf, -np.inf, np.nan,
]
# pieces the csv module must quote, escape or keep, and a blank line
# (loadtxt skips one) and a 0x1c byte (loadtxt strips one around a number)
# inside a quoted label
LABEL_PIECES = [",", '"', "\r\n", "\r", "\n", "\n\n", "#", " ", "x", "yz", "é", "猫", "\x1c"]


@st.composite
def representation_lists(draw):
    d = draw(st.integers(0, 5))
    n = draw(st.integers(1, 6))
    floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
    labels = st.lists(st.sampled_from(LABEL_PIECES), max_size=4).map("".join) | st.text(max_size=4)
    return [
        DocRepresentation(
            vector=np.array(draw(st.lists(floats, min_size=d, max_size=d)), dtype=np.float64),
            labels=draw(st.sets(labels, max_size=3)),
            doc_id=draw(st.integers(-(2**63), 2**63 - 1)),
        )
        for _ in range(n)
    ]


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
        reps = represent_batch([Document(ids=[])], random_model(cfg), cfg)
        assert reps == []
        with pytest.raises(AllDocumentsEmpty):
            write_representations(reps, tmp_path / "reps.csv")


class TestRepresentBatch:
    @given(block_cases())
    @settings(max_examples=15, deadline=None)
    def test_matches_oracle_and_preserves_order(self, case):
        config, params, docs = case
        reps = represent_batch(docs, params, config)
        kept = [i for i, doc in enumerate(docs) if not doc.is_empty]
        assert [r.doc_id for r in reps] == kept
        assert [r.labels for r in reps] == [docs[i].labels for i in kept]
        got = np.array([r.vector for r in reps])
        want = np.array([encoder_posterior(docs[i].ids, params).mu for i in kept])
        # entries that cancel to near zero carry the rounding of their terms
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        # blocks start at the first non-empty document, so dropping the
        # empty ones leaves every GEMM, and so every bit, as it was
        alone = represent_batch([docs[i] for i in kept], params, config)
        assert np.array_equal(np.array([r.vector for r in alone]), got)

    def test_empty_docs_flagged(self):
        cfg = tiny_config()
        params = random_model(cfg)
        docs = [Document(ids=[]), Document(ids=[1], labels={"a"}), Document(ids=[]),
                Document(ids=[2, 1], labels={"b"})]
        reps = represent_batch(docs, params, cfg)
        assert [(r.doc_id, r.labels) for r in reps] == [(1, {"a"}), (3, {"b"})]

    def test_no_and_all_empty_documents(self):
        cfg = tiny_config()
        params = random_model(cfg)
        assert represent_batch([], params, cfg) == []
        assert represent_batch([Document(ids=[], labels={"a"})] * 300, params, cfg) == []


class TestEvaluateBound:
    def test_needs_a_sample(self):
        cfg = tiny_config("nvdm", m=6)
        with pytest.raises(ValueError, match="^samples must be >= 1$"):
            evaluate_bound([Document(ids=[0, 1])], zero_model(cfg), cfg, samples=0)

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

    def test_perplexity_past_exp_overflow(self, monkeypatch):
        cfg = tiny_config()
        docs = [Document(ids=[0, 3]), Document(ids=[]), Document(ids=[2, 5, 1])]

        def huge_loss(docs, params, config, eps):
            return [ElboEstimate(-800.0 * doc.length, 0.0) for doc in docs]

        monkeypatch.setattr(inference, "elbo_estimates", huge_loss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean_total, perp = evaluate_bound(docs, random_model(cfg), cfg)
        assert mean_total == -2000.0
        assert perp == np.inf

    @given(block_cases(), st.integers(1, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_naive_oracle(self, case, samples, seed):
        config, params, docs = case
        kept = [doc for doc in docs if not doc.is_empty]
        # the k-th non-empty document takes row k of one draw
        draws = RngStream(seed).substream(0).normal((len(kept), samples, config.d))
        totals, words = [], 0
        for doc, eps in zip(kept, draws):
            q = encoder_posterior(doc.ids, params)
            Z = q.mu + np.exp(0.5 * q.log_var) * eps
            ll = naive_doc_log_likelihoods(doc.ids, Z, params, config)
            kl = 0.5 * np.sum(q.mu**2 + np.exp(q.log_var) - q.log_var - 1.0)
            totals.append(ll.mean() - kl)
            words += doc.length
        mean_total, perp = evaluate_bound(docs, params, config, samples=samples, seed=seed)
        assert mean_total == pytest.approx(np.mean(totals), rel=1e-9)
        # past ~709 nats per word the reference perplexity is inf, as is perp
        with np.errstate(over="ignore"):
            want_perp = np.exp(-np.sum(totals) / words)
        assert perp == pytest.approx(want_perp, rel=1e-9)

    @pytest.mark.parametrize("mode", ["savae", "nvdm"])
    def test_one_document_draws_what_elbo_draws(self, mode):
        cfg = tiny_config(mode)
        params = random_model(cfg, seed=5)
        doc = Document(ids=[0, 2, 4, 1, 3])
        mean_total, _ = evaluate_bound([Document(ids=[]), doc], params, cfg, samples=7, seed=0)
        assert mean_total == elbo(doc, params, cfg, RngStream(0).substream(0), 7).total

    def test_draws_through_rng_stream_normal(self, monkeypatch):
        # the benchmark's tracer counts the draws by wrapping this attribute
        calls = []
        normal = RngStream.normal

        def counting(self, shape=()):
            calls.append(shape)
            return normal(self, shape)

        monkeypatch.setattr(RngStream, "normal", counting)
        cfg = tiny_config()
        docs = [Document(ids=[0, 1]), Document(ids=[]), Document(ids=[2, 3, 4])]
        evaluate_bound(docs, random_model(cfg), cfg, samples=3)
        assert calls == [(2, 3, cfg.d)]

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
        cfg = tiny_config()
        docs = [Document(ids=[]), Document(ids=[1], labels={"x"})]
        path = tmp_path / "reps.csv"
        write_representations(represent_batch(docs, random_model(cfg), cfg), path)
        ids, _, mat = read_representations(path)
        assert ids == [1] and mat.shape == (1, cfg.d)

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

    @given(representation_lists())
    @settings(max_examples=150, deadline=None)
    def test_matches_csv_module_oracle(self, tmp_path_factory, reps):
        tmp = tmp_path_factory.mktemp("reps")
        ours, oracle = tmp / "ours.csv", tmp / "oracle.csv"
        write_representations(reps, ours)
        write_representations_csv(reps, oracle)
        assert ours.read_bytes() == oracle.read_bytes()
        ids, labels, mat = read_representations(oracle)
        want_ids, want_labels, want_mat = read_representations_csv(oracle)
        assert ids == want_ids and labels == want_labels
        assert mat.dtype == np.float64 and mat.shape == want_mat.shape
        assert mat.tobytes() == want_mat.tobytes()

    def test_bare_carriage_return_ends_a_line(self, tmp_path):
        path = tmp_path / "reps.csv"
        path.write_bytes(b"id,labels,v0\r0,a,1.0\r1,b,2.0\n")
        ids, labels, mat = read_representations(path)
        assert ids == [0, 1] and labels == [{"a"}, {"b"}]
        np.testing.assert_array_equal(mat, [[1.0], [2.0]])

    @pytest.mark.parametrize(
        "content, error, message",
        [
            pytest.param(
                b"id,labels,v0\n0,a,1.0\n1,b,2.0,3.0\n",
                ParseError, "line 3: expected 3 fields, got 4", id="extra-field",
            ),
            pytest.param(
                b"id,labels,v0,v1\r\n0,a,1.0,2.0\r\n1,b,2.0\r\n",
                ParseError, "line 3: expected 4 fields, got 3", id="missing-field",
            ),
            pytest.param(
                b"id,labels,v0\n0,a,0.5\n1,a,notanumber\n",
                ParseError,
                "line 3: non-numeric field in {path}: could not convert string to float: "
                "'notanumber'",
                id="non-numeric-vector-field",
            ),
            pytest.param(
                b"id,labels,v0\n0,a,0.5\n1.0,a,1.5\n",
                ParseError,
                "line 3: non-numeric field in {path}: invalid literal for int() with base 10: "
                "'1.0'",
                id="non-integer-id",
            ),
            pytest.param(
                b"id,labels,v0\n0,a,0.5\n\n1,a,1.5\n",
                ParseError, "line 3: expected 3 fields, got 0", id="blank-line",
            ),
            pytest.param(
                b"id,labels,v0\r\n0,a,0.5\r\n\r\n1,a,1.5\r\n",
                ParseError, "line 3: expected 3 fields, got 0", id="blank-crlf-line",
            ),
            pytest.param(
                b"id,labels,v0\r\n\r\n0,a,0.5\r\n",
                ParseError, "line 2: expected 3 fields, got 0", id="blank-line-after-header",
            ),
            pytest.param(
                b"id,labels,v0\n0,a,0.5\n\n",
                ParseError, "line 3: expected 3 fields, got 0", id="trailing-blank-line",
            ),
            pytest.param(
                b"id,labels,v0\n0,a,0.5\n \n",
                ParseError, "line 3: expected 3 fields, got 1", id="whitespace-line",
            ),
            pytest.param(
                b'id,labels,v0\n0,"a,1.0\n1,b,2.0\n',
                ParseError, "line 2: expected 3 fields, got 2", id="unterminated-quote",
            ),
            # lines are counted as rows, so a quoted line end does not count
            pytest.param(
                b'id,labels,v0\n0,"a\nb",1.0\n1,b,2.0,3.0\n',
                ParseError, "line 3: expected 3 fields, got 4", id="quoted-line-end",
            ),
            pytest.param(
                b"id,labels,v0\r\n",
                AllDocumentsEmpty, "no representations in {path}", id="header-only",
            ),
            pytest.param(
                b"id,labels,v0",
                AllDocumentsEmpty, "no representations in {path}",
                id="header-only-without-line-end",
            ),
            pytest.param(
                b"id,labels,v0\n0,a,1.0\n1,b\xff,0.5\n",
                ParseError, "line 3: invalid UTF-8 in {path}", id="invalid-utf8",
            ),
            # a bare "\r" ends a row, as it does for the non-numeric field
            # of the next case
            pytest.param(
                b"id,labels,v0\r0,a,1.0\r\n1,b,\xff\r\n",
                ParseError, "line 3: invalid UTF-8 in {path}", id="invalid-utf8-after-bare-cr",
            ),
            pytest.param(
                b"id,labels,v0\r0,a,1.0\r\n1,b,x\r\n",
                ParseError,
                "line 3: non-numeric field in {path}: could not convert string to float: 'x'",
                id="non-numeric-after-bare-cr",
            ),
            pytest.param(
                b"id,labels,v0\n0,a,x\n1,b\xff,0.5\n",
                ParseError,
                "line 2: non-numeric field in {path}: could not convert string to float: 'x'",
                id="bad-line-before-invalid-utf8",
            ),
            pytest.param(
                b"id,lab\xffels,v0\n0,a,1.0\n",
                ParseError, "line 1: invalid UTF-8 in {path}", id="invalid-utf8-in-header",
            ),
            pytest.param(
                b"nope,labels,v0\n1,a,0.5\n",
                ParseError, "line 1: bad representation header in {path}", id="bad-header",
            ),
            pytest.param(
                b"",
                ParseError, "line 1: bad representation header in {path}", id="empty-file",
            ),
            pytest.param(
                b"id,labels,v0\n0,a,\x1c1.0\n",
                ParseError,
                "line 2: non-numeric field in {path}: could not convert string to float: "
                "'\\x1c1.0'",
                id="separator-byte-in-number",
            ),
            # float() and int() accept these; numpy's parser does not
            pytest.param(
                b"id,labels,v0\n0,a,1.0\n1,a,1_0\n",
                ParseError, "line 3: number '1_0' in {path} has a '_' or a non-ASCII character",
                id="digit-separator-in-vector",
            ),
            pytest.param(
                b"id,labels,v0\n1_0,a,1.0\n",
                ParseError, "line 2: number '1_0' in {path} has a '_' or a non-ASCII character",
                id="digit-separator-in-id",
            ),
            pytest.param(
                "id,labels,v0\n0,a,٣\n".encode(),
                ParseError,
                "line 2: number '٣' in {path} has a '_' or a non-ASCII character",
                id="non-ascii-digit",
            ),
            pytest.param(
                b"id,labels,v0\n0,a,1.0\n99999999999999999999,a,1.0\n",
                ParseError, "line 3: id 99999999999999999999 outside the int64 range in {path}",
                id="id-past-int64",
            ),
        ],
    )
    def test_malformed_file_error(self, tmp_path, content, error, message):
        path = tmp_path / "reps.csv"
        path.write_bytes(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as info:
                read_representations(path)
        assert str(info.value) == message.format(path=path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "reps.csv"
        path.write_text("nope,labels,v0\n1,a,0.5\n")
        with pytest.raises(ParseError):
            read_representations(path)
