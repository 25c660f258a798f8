import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import overflowing_log_variance, random_doc, random_model, tiny_config, zero_model
from oracles import (
    bow_counts,
    dense_batch_elbo_gradients,
    doc_log_likelihoods,
    elbo_with_fixed_eps,
    encoder_posterior,
    exact_doc_log_likelihoods,
    finite_difference_grads,
    local_context,
    naive_doc_log_likelihoods,
    next_word_log_prob,
    prior_sampling_log_likelihoods,
)
from savae import model
from savae.corpus import Document
from savae.errors import EmptyDocument, NonFiniteGradient
from savae.model import (
    ModelConfig,
    batch_elbo_gradients,
    elbo,
    elbo_estimates,
    encode,
    expected_shapes,
    init_params,
)
from savae.errors import ConfigError
from savae.inference import evaluate_bound
from savae.numerics import RngStream, sigmoid


class TestConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigError) as exc:
            ModelConfig(mode="bogus", m=0, d=0, encoder_layers=())
        assert len(exc.value.violations) >= 3

    @pytest.mark.parametrize("layers", [(16, 0), (-3,)])
    def test_rejects_encoder_layer_width_below_1(self, layers):
        with pytest.raises(ConfigError, match="encoder_layers must all be >= 1"):
            ModelConfig("nvdm", 10, 2, encoder_layers=layers)

    def test_from_dict_takes_defaults_and_ignores_other_keys(self):
        data = {"mode": "nvdm", "m": 10, "d": 2, "sample_count_train": 1,
                "sample_count_eval": 7, "dtypes": {}}
        assert ModelConfig.from_dict(data) == ModelConfig("nvdm", 10, 2)
        assert ModelConfig.from_dict({**data, "k": 3, "encoder_layers": [4]}) == ModelConfig(
            "nvdm", 10, 2, k=3, encoder_layers=(4,)
        )
        for key, value in (("k", 3.0), ("m", True), ("encoder_layers", [4, "5"])):
            with pytest.raises(ValueError, match="must be integers"):
                ModelConfig.from_dict({**data, key: value})

    def test_rejects_k_0_in_savae_mode_only(self):
        with pytest.raises(ConfigError, match="^k must be >= 1 in savae mode$"):
            ModelConfig("savae", 10, 2, k=0, encoder_layers=(4,))
        assert ModelConfig("nvdm", 10, 2, k=0, encoder_layers=(4,)).k == 0

    def test_decoder_dim(self):
        assert tiny_config("savae", d=3).decoder_dim == 6
        assert tiny_config("nvdm", d=3).decoder_dim == 3


class TestInitParams:
    def test_biases_zero(self):
        params = random_model(tiny_config())
        for name, arr in params.named_arrays().items():
            if arr.ndim == 1:
                assert np.all(arr == 0.0), name

    def test_deterministic(self):
        cfg = tiny_config()
        a = init_params(cfg, RngStream(3)).named_arrays()
        b = init_params(cfg, RngStream(3)).named_arrays()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_xavier_bound(self):
        cfg = ModelConfig(mode="nvdm", m=500, d=50, encoder_layers=(20,))
        params = init_params(cfg, RngStream(0))
        assert np.max(np.abs(params.X)) <= np.sqrt(6 / 550)

    def test_shapes(self):
        cfg = tiny_config("savae", m=6, d=2, k=2, layers=(4, 3))
        params = random_model(cfg)
        for name, arr in params.named_arrays().items():
            assert arr.shape == expected_shapes(cfg)[name], name

    @pytest.mark.parametrize("mode", ["savae", "nvdm"])
    def test_copy_is_equal_and_shares_no_memory(self, mode):
        params = random_model(tiny_config(mode, m=6, d=2, k=2, layers=(4, 3)), seed=5)
        original, copied = params.named_arrays(), params.copy().named_arrays()
        assert list(copied) == list(original)
        for name, arr in original.items():
            np.testing.assert_array_equal(copied[name], arr)
            assert not np.shares_memory(copied[name], arr), name


@st.composite
def encoder_blocks(draw):
    """(config, params, docs, kinds): blocks of ``_ENCODER_BLOCK`` documents,
    the last one partial, each of a drawn kind. An "all" block holds every
    word of the vocabulary, so it takes the dense product; a "single" block
    repeats one word, 0 or m - 1; a "sparse" block draws from at most half
    of the words, 0 and m - 1 among them. Restricted blocks come first,
    then an "all" block, then up to five blocks of any kind, some of which
    the widened dense block takes in. Documents have 1 to 12 tokens, so
    words repeat."""
    m = draw(st.integers(4, 40))
    seed = draw(st.integers(0, 2**16))
    kinds = draw(st.permutations(["single", "sparse"]))
    kinds += draw(st.lists(st.sampled_from(["single", "sparse"]), max_size=1)) + ["all"]
    kinds += draw(st.lists(st.sampled_from(["all", "single", "sparse"]), max_size=5))
    tail = draw(st.integers(1, model._ENCODER_BLOCK - 1))
    rng = np.random.default_rng(seed)
    docs = []
    for i, kind in enumerate(kinds):
        n = tail if i == len(kinds) - 1 else model._ENCODER_BLOCK
        if kind == "all":
            vocab = np.arange(m)
        elif kind == "single":
            vocab = np.array([rng.choice([0, m - 1])])
        else:
            vocab = np.concatenate([[0, m - 1], rng.choice(np.arange(1, m - 1), m // 2 - 2)])
        block = [rng.choice(vocab, rng.integers(1, 13)) for _ in range(n)]
        block[0] = np.concatenate([block[0], vocab, vocab[:1]])
        rng.shuffle(block)
        docs += [Document(ids=ids.tolist()) for ids in block]
    config = ModelConfig(mode="nvdm", m=m, d=2, encoder_layers=(5, 4))
    return config, random_model(config, seed=seed), docs, kinds


class TestEncode:
    def test_zero_params_zero_posterior(self):
        cfg = tiny_config()
        mu, log_var = encode(Document(ids=[0, 1, 2]), zero_model(cfg), cfg)
        assert np.all(mu == 0) and np.all(log_var == 0)

    def test_bag_of_words_invariance_exact(self):
        cfg = tiny_config()
        params = random_model(cfg)
        ids = [0, 3, 1, 5, 1]
        mu1, lv1 = encode(Document(ids=ids), params, cfg)
        mu2, lv2 = encode(Document(ids=list(reversed(ids))), params, cfg)
        np.testing.assert_array_equal(mu1, mu2)
        np.testing.assert_array_equal(lv1, lv2)

    def test_doubled_counts_double_preactivation(self):
        cfg = tiny_config()
        params = random_model(cfg)
        ids = [0, 2, 4]
        a1 = bow_counts(ids, cfg.m) @ params.enc_W[0]
        a2 = bow_counts(ids * 2, cfg.m) @ params.enc_W[0]
        np.testing.assert_allclose(a2, 2 * a1, rtol=1e-12)

    def test_empty_document(self):
        cfg = tiny_config()
        with pytest.raises(EmptyDocument):
            encode(Document(ids=[]), random_model(cfg), cfg)

    @given(encoder_blocks())
    @settings(max_examples=20, deadline=None)
    def test_blocks_match_the_oracle_mlp(self, case):
        config, params, docs, kinds = case
        block = model._ENCODER_BLOCK
        for i, kind in enumerate(kinds):  # each block on the side of the rule it was built for
            ids, lengths = model._pack(docs[i * block : (i + 1) * block])
            words, _ = model._encoder_forward(ids, lengths, params)[2]
            assert (words is None) == (kind == "all"), kind
        calls = []
        forward = model._encoder_forward

        def spy(ids, lengths, params):
            out = forward(ids, lengths, params)
            calls.append((len(lengths), out[2][0] is None))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_encoder_forward", spy)
            mu, log_var = model.encode_docs(docs, params, config)
        assert {dense for _, dense in calls} == {False, True}
        assert all(n <= (model._ROW_BLOCK if dense else block) for n, dense in calls)
        assert sum(n for n, _ in calls) == len(docs)
        ref = [encoder_posterior(doc.ids, params) for doc in docs]
        for got, want in ((mu, [q.mu for q in ref]), (log_var, [q.log_var for q in ref])):
            want = np.array(want)
            # entries that cancel to near zero carry the rounding of their largest terms
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_restricted_block_allocates_no_dense_counts(self):
        # a dense (64, 50 000) count block would be 25.6 MB
        config = ModelConfig(mode="nvdm", m=50_000, d=2, encoder_layers=(8,))
        params = random_model(config)
        rng = np.random.default_rng(0)
        docs = [Document(ids=rng.integers(0, config.m, 10).tolist()) for _ in range(64)]
        tracemalloc.start()
        try:
            model.encode_docs(docs, params, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.56e6


class TestLocalContext:
    def test_empty_window_zero_bias(self):
        cfg = tiny_config()
        params = zero_model(cfg)
        np.testing.assert_array_equal(local_context([], params), 0.5 * np.ones(cfg.d))

    def test_order_invariant(self):
        cfg = tiny_config()
        params = random_model(cfg)
        np.testing.assert_array_equal(local_context([1, 4], params), local_context([4, 1], params))

    def test_hand_computed(self):
        cfg = tiny_config()
        params = zero_model(cfg)
        params.V_local[1] = [0.5, -1.0]
        params.V_local[4] = [0.25, 2.0]
        params.c_local[:] = [0.1, 0.2]
        expected = sigmoid(np.array([0.1 + 0.5 + 0.25, 0.2 - 1.0 + 2.0]))
        np.testing.assert_allclose(local_context([1, 4], params), expected, rtol=1e-15)


@st.composite
def packed_batches(draw):
    """(config, params, ids, lengths) of a savae model: up to 8 packed
    documents of 1 to k + 3 tokens, so shorter and longer than k, among them
    single tokens."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 9))
    lengths = draw(st.lists(st.integers(1, k + 3), min_size=1, max_size=8))
    ids = draw(st.lists(st.integers(0, m - 1), min_size=sum(lengths), max_size=sum(lengths)))
    config = ModelConfig(mode="savae", m=m, d=draw(st.integers(1, 3)), k=k, encoder_layers=(3,))
    return config, random_model(config, seed=draw(st.integers(0, 2**16))), ids, lengths


class TestWindowIndex:
    @given(packed_batches())
    @example((tiny_config(k=3), random_model(tiny_config(k=3)), [5], [1]))
    @settings(max_examples=60, deadline=None)
    def test_index_and_windows_match_the_oracle(self, case):
        config, params, ids, lengths = case
        T, k = len(ids), config.k
        H, source = model._local_contexts(ids, lengths, params, config)
        assert source.shape == (T, k)
        start = np.repeat(np.cumsum(lengths) - lengths, lengths)
        for t in range(T):
            for o in range(1, k + 1):
                assert source[t, k - o] == (T if t - o < start[t] else t - o)
            window = ids[max(start[t], t - k) : t]
            np.testing.assert_allclose(H[t], local_context(window, params), rtol=1e-15)


class TestNextWordLogProb:
    def test_uniform_at_zero_params(self):
        cfg = tiny_config()
        params = zero_model(cfg)
        h = local_context([], params)
        for w in range(cfg.m):
            lp = next_word_log_prob(w, np.zeros(cfg.d), h, params, cfg)
            assert lp == pytest.approx(-np.log(cfg.m), rel=1e-15)

    def test_bias_shift_invariance(self):
        cfg = tiny_config()
        params = random_model(cfg)
        z = np.array([0.3, -0.2])
        h = local_context([2], params)
        before = next_word_log_prob(3, z, h, params, cfg)
        params.b += 7.5
        after = next_word_log_prob(3, z, h, params, cfg)
        assert before == pytest.approx(after, abs=1e-10)

    def test_hand_computed_scalar(self):
        cfg = ModelConfig(mode="nvdm", m=3, d=1, encoder_layers=(2,))
        params = zero_model(cfg)
        params.X[:, 0] = [1.0, -1.0, 0.5]
        params.b[:] = [0.1, 0.0, -0.2]
        z = np.array([2.0])
        logits = np.array([1.0 * 2 + 0.1, -1.0 * 2 + 0.0, 0.5 * 2 - 0.2])
        expected = logits[1] - np.log(np.exp(logits).sum())
        got = next_word_log_prob(1, z, None, params, cfg)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_distribution_normalizes(self):
        cfg = tiny_config()
        params = random_model(cfg, seed=4)
        z = RngStream(1).normal((cfg.d,))
        h = local_context([0, 5], params)
        total = sum(
            np.exp(next_word_log_prob(w, z, h, params, cfg)) for w in range(cfg.m)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


class TestDocLogLikelihood:
    def test_uniform_decoder(self):
        cfg = tiny_config()
        params = zero_model(cfg)
        ll = doc_log_likelihoods([0, 1, 2], np.zeros(cfg.d)[None], params, cfg)[0]
        assert ll == pytest.approx(-3 * np.log(cfg.m), rel=1e-14)

    def test_single_word_matches_empty_window_term(self):
        cfg = tiny_config()
        params = random_model(cfg)
        z = RngStream(2).normal((cfg.d,))
        ll = doc_log_likelihoods([3], z[None], params, cfg)[0]
        h = local_context([], params)
        assert ll == pytest.approx(next_word_log_prob(3, z, h, params, cfg), rel=1e-12)

    def test_matches_term_by_term(self):
        cfg = tiny_config("savae", m=6, d=2, k=5)
        params = random_model(cfg, seed=8)
        ids = [4, 0, 2]
        z = RngStream(3).normal((cfg.d,))
        expected = 0.0
        for t in range(len(ids)):
            window = ids[max(0, t - cfg.k) : t]
            expected += next_word_log_prob(ids[t], z, local_context(window, params), params, cfg)
        got = doc_log_likelihoods(ids, z[None], params, cfg)[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_savae_is_sequence_sensitive(self):
        cfg = tiny_config("savae")
        params = random_model(cfg, seed=5)
        z = RngStream(4).normal((cfg.d,))
        a = doc_log_likelihoods([0, 1, 2, 3], z[None], params, cfg)[0]
        b = doc_log_likelihoods([3, 2, 1, 0], z[None], params, cfg)[0]
        assert a != b

    def test_nvdm_is_permutation_invariant_exactly(self):
        cfg = tiny_config("nvdm", m=8, d=3)
        params = random_model(cfg, seed=6)
        z = RngStream(5).normal((cfg.d,))
        ids = [0, 7, 3, 3, 1, 6, 2]
        perm = [3, 1, 6, 0, 2, 3, 7]
        a = doc_log_likelihoods(ids, z[None], params, cfg)[0]
        b = doc_log_likelihoods(perm, z[None], params, cfg)[0]
        assert a == b


@st.composite
def likelihood_cases(draw, max_scale=1.0):
    """(config, params, ids, Z): small random shapes; the weights, the bias
    and the samples drawn at up to ``max_scale`` times init scale, and the
    local half of X at up to its square, so that the position part of a
    logit can rival the z part."""
    mode = draw(st.sampled_from(["savae", "savae", "nvdm"]))
    m = draw(st.integers(1, 9))
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    # a small id range makes repeated words within a window likely
    ids = draw(st.lists(st.integers(0, min(m, 3) - 1), min_size=1, max_size=10))
    seed = draw(st.integers(0, 2**16))
    scale = draw(st.floats(0.25, max_scale))
    config = ModelConfig(mode=mode, m=m, d=d, k=k, encoder_layers=(3,))
    params = random_model(config, seed=seed)
    for arr in params.named_arrays().values():
        arr *= scale
    params.b[:] = RngStream(seed).normal((m,)) * scale
    params.X[:, d:] *= draw(st.floats(1.0, max_scale))
    Z = RngStream(seed + 1).normal((draw(st.integers(1, 5)), d)) * scale
    return config, params, ids, Z


def _case(m, d, k, ids, samples, seed=0):
    config = ModelConfig(mode="savae", m=m, d=d, k=k, encoder_layers=(3,))
    Z = RngStream(seed + 1).normal((samples, d))
    return config, random_model(config, seed=seed), ids, Z


class TestFactoredLikelihood:
    @given(likelihood_cases())
    @example(_case(m=1, d=2, k=2, ids=[0, 0, 0], samples=3))
    @example(_case(m=5, d=1, k=3, ids=[4], samples=2))
    @example(_case(m=4, d=2, k=6, ids=[1, 3], samples=1))
    @example(_case(m=6, d=2, k=4, ids=[2, 2, 5, 2, 2, 0], samples=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle(self, case):
        # at up to init scale no softmax is peaked enough to put a
        # log-likelihood near 0, where a relative tolerance stops making
        # sense (see the next test); m = 1 gives exactly 0 on both sides
        config, params, ids, Z = case
        ours = doc_log_likelihoods(ids, Z, params, config)
        theirs = naive_doc_log_likelihoods(ids, Z, params, config)
        np.testing.assert_allclose(ours, theirs, rtol=1e-12)

    @given(likelihood_cases(max_scale=60.0))
    @settings(max_examples=30, deadline=None)
    def test_large_logits_within_rounding_of_exact(self, case):
        # Logits of hundreds of nats put the two argmaxes of many pairs far
        # apart, on both sides of the fallback threshold. A nearly certain
        # word has log p close to 0, where any two summation orders differ
        # by an ulp of the largest logit, so the error is bounded absolutely:
        # a few ulps of the a-priori logit magnitude per position.
        config, params, ids, Z = case
        ours = doc_log_likelihoods(ids, Z, params, config)
        exact = exact_doc_log_likelihoods(ids, Z, params, config)
        d = config.d
        magnitude = np.abs(Z).max() * np.abs(params.X[:, :d]).sum(axis=1).max()
        if config.mode == "savae":
            magnitude += np.abs(params.X[:, d:]).sum(axis=1).max()
        magnitude += np.abs(params.b).max() + 1.0
        tol = 32 * np.finfo(np.float64).eps * len(ids) * magnitude
        np.testing.assert_allclose(ours, exact, rtol=0, atol=tol)

    @pytest.mark.parametrize("gap", [1000.0, 740.0])
    def test_underflowing_pairs_recomputed_directly(self, gap, monkeypatch):
        # sample 0 puts word 0 ``gap`` nats above word 1 and every position
        # (local context 0.5) does the opposite, so the factored sum
        # exp(z_part - zmax) @ exp(pos_part - pmax).T is 2 exp(-gap) for
        # sample 0 although its logits are all 0: exactly 0 at 1000 nats, a
        # subnormal with a few significant bits at 740
        config = ModelConfig(mode="savae", m=2, d=1, k=2, encoder_layers=(2,))
        params = zero_model(config)
        params.X[:, 0] = [gap / 2, -gap / 2]
        params.X[:, 1] = [-gap, gap]
        ids = [0, 1, 1, 0, 1]
        Z = np.array([[1.0], [0.0]])
        direct = model._logsumexp_rows
        direct_rows = []

        def spy(logits):
            direct_rows.append(len(logits))
            return direct(logits)

        monkeypatch.setattr(model, "_logsumexp_rows", spy)
        ours = doc_log_likelihoods(ids, Z, params, config)
        assert direct_rows == [len(ids)]  # the pairs of sample 0, and only those
        assert np.all(np.isfinite(ours))
        theirs = naive_doc_log_likelihoods(ids, Z, params, config)
        np.testing.assert_allclose(ours, theirs, rtol=1e-12)
        assert ours[0] == pytest.approx(-len(ids) * np.log(2.0), rel=1e-15)

    @pytest.mark.parametrize(
        "gap,lead",
        [(1000.0, 1), (740.0, 1), (1000.0, 100), (740.0, 100)],
        ids=["1000.0", "740.0", "1000.0-second-slice", "740.0-second-slice"],
    )
    def test_underflowing_pairs_recomputed_inside_a_block(self, gap, lead, monkeypatch):
        # the same underflowing document, now second of three in one group,
        # after 3 or 300 positions: in the group's first position slice or
        # wholly in its second. The others take z = 0, whose pairs never
        # underflow
        config = ModelConfig(mode="savae", m=2, d=1, k=2, encoder_layers=(2,))
        params = zero_model(config)
        params.X[:, 0] = [gap / 2, -gap / 2]
        params.X[:, 1] = [-gap, gap]
        docs = [[1, 0, 0] * lead, [0, 1, 1, 0, 1], [1, 1]]
        Z = np.array([[0.0], [0.0], [1.0], [0.0], [0.0], [0.0]])
        assert model._ROW_BLOCK // 2 >= 3  # one group of documents at S = 2
        assert 3 * lead // model._ROW_BLOCK == (3 * lead + 4) // model._ROW_BLOCK  # one slice
        direct = model._logsumexp_rows
        direct_rows = []

        def spy(logits):
            direct_rows.append(len(logits))
            return direct(logits)

        monkeypatch.setattr(model, "_logsumexp_rows", spy)
        ours = model._packed_log_likelihoods(
            np.concatenate(docs), [len(ids) for ids in docs], np.zeros((3, 1)), np.ones((3, 1)),
            Z.reshape(3, 2, 1), params, config,
        ).ravel()
        assert direct_rows == [len(docs[1])]  # the second document's sample 0 only
        theirs = np.concatenate(
            [naive_doc_log_likelihoods(ids, Z[2 * i : 2 * i + 2], params, config)
             for i, ids in enumerate(docs)]
        )
        np.testing.assert_allclose(ours, theirs, rtol=1e-12)
        assert ours[2] == pytest.approx(-len(docs[1]) * np.log(2.0), rel=1e-15)


def _shifted_exps_and_logsumexp(logits):
    """The row maxima, the shifted exps and the log-sum-exps of ``logits``
    as one whole-array max, shifted copy, exp, sum and log compute them."""
    shift = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - shift)
    return shift[..., 0], e, np.log(e.sum(axis=-1)) + shift[..., 0]


class TestRowExps:
    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (5, 3), (model._EXP_ROWS, 2000), (77, 2000), (3, 70001), (12, 20, 2000),
         (2, 3 * model._EXP_ROWS // 2 + 1, 7)],
        ids=["m-1", "few-narrow-rows", "one-block", "uneven-blocks", "rows-wider-than-a-block",
             "3-d", "3-d-uneven"],
    )
    def test_match_the_whole_array_formula_bitwise(self, shape):
        # row 0 is all equal: its exps are all 1, and at m = 1 its lse is its
        # one logit exactly, so log p = 0 there
        logits = np.random.default_rng(len(shape)).normal(scale=30.0, size=shape)
        logits.reshape(-1, shape[-1])[0] = 4.25
        want_max, want_exps, want_lse = _shifted_exps_and_logsumexp(logits)
        rows = logits.reshape(-1, shape[-1]).copy()
        got_max = model._exp_rows_in_place(rows)
        assert got_max.tobytes() == want_max.tobytes()
        assert rows.tobytes() == want_exps.tobytes()
        inplace = logits.copy()
        got_lse = model._logsumexp_rows(inplace)
        assert got_lse.shape == shape[:-1]
        assert got_lse.tobytes() == want_lse.tobytes()
        assert inplace.tobytes() == want_exps.tobytes()  # overwritten with the exps
        if shape[-1] == 1:
            assert (got_lse == logits[..., 0]).all()


@st.composite
def document_lists(draw):
    """(config, params, docs, samples, seed) in either mode: up to 30 short
    documents plus an empty one, a single token and one longer than
    ``_ROW_BLOCK``, in a drawn order. Lengths up to k + 3 give documents
    shorter and longer than k; 90 samples make groups of two documents, and
    257 give a group of one document more z rows than ``_ROW_BLOCK``."""
    mode = draw(st.sampled_from(["savae", "nvdm"]))
    m = draw(st.integers(1, 9))
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    words = st.integers(0, m - 1)
    docs = draw(st.lists(st.lists(words, max_size=k + 3), max_size=30))
    long = np.random.default_rng(seed).integers(0, m, model._ROW_BLOCK + 1 + seed % 40)
    docs = draw(st.permutations(docs + [[], [draw(words)], long.tolist()]))
    config = ModelConfig(mode=mode, m=m, d=d, k=k, encoder_layers=(3,))
    params = random_model(config, seed=seed)
    # the encoder reads raw counts, so at init scale the long document's
    # log-variance can pass log(float max), which elbo_estimates rejects
    # (TestElbo); keep the encoder input at short-document scale
    params.enc_W[0] /= len(long)
    samples = draw(st.sampled_from([1, 3, 20, 90, 257]))
    return config, params, [Document(ids=ids) for ids in docs], samples, seed


def _slice_boundaries_case():
    """A savae ``document_lists`` case: one group of four documents of 250,
    10, 300 and 5 tokens at S = 2, whose position slices of ``_ROW_BLOCK``
    = 256 end inside the second and the third document."""
    config = ModelConfig(mode="savae", m=7, d=2, k=3, encoder_layers=(3,))
    params = random_model(config, seed=4)
    params.enc_W[0] /= 300
    rng = np.random.default_rng(4)
    docs = [Document(ids=rng.integers(0, 7, n).tolist()) for n in (250, 10, 300, 5)]
    return config, params, docs, 2, 4


class TestBlockComposition:
    @given(document_lists())
    @example(_slice_boundaries_case())
    @settings(max_examples=25, deadline=None)
    def test_results_do_not_depend_on_the_other_documents(self, case):
        config, params, docs, samples, seed = case
        kept = [i for i, doc in enumerate(docs) if not doc.is_empty]
        eps = RngStream(seed).substream(0).normal((len(kept), samples, config.d))
        together = elbo_estimates([docs[i] for i in kept], params, config, eps)
        alone = [elbo_estimates([docs[i]], params, config, e[None])[0] for i, e in zip(kept, eps)]
        np.testing.assert_allclose(
            [e.reconstruction for e in together], [e.reconstruction for e in alone], rtol=1e-12
        )
        # the encoder's last bits can change with its block, so KL may too
        np.testing.assert_allclose(
            [e.kl for e in together], [e.kl for e in alone], rtol=1e-12, atol=1e-14
        )
        for i, e, est in zip(kept, eps, alone):
            mu, log_var = model.encode_docs([docs[i]], params, config)
            Z = mu + np.exp(0.5 * log_var) * e
            want = naive_doc_log_likelihoods(docs[i].ids, Z, params, config).mean()
            assert est.reconstruction == pytest.approx(want, rel=1e-12)
        # the bound gives the k-th non-empty document row k of the same draw
        mean_total, _ = evaluate_bound(docs, params, config, samples=samples, seed=seed)
        assert mean_total == pytest.approx(np.mean([e.total for e in alone]), rel=1e-12)


class TestElbo:
    def test_log_variance_overflow_is_named(self):
        config, params, docs = overflowing_log_variance()
        with pytest.raises(NonFiniteGradient) as info:
            evaluate_bound(docs, params, config, samples=2)
        assert str(info.value) == (
            "non-finite gradient in encoder log-variance (evaluation): entry 741.302 "
            "exceeds log(float64 max) = 709.783, where exp overflows"
        )

    def test_zero_params_identity(self):
        for mode in ("savae", "nvdm"):
            cfg = tiny_config(mode)
            params = zero_model(cfg)
            doc = Document(ids=[0, 1, 2, 3, 4])
            est = elbo(doc, params, cfg, RngStream(0), samples=3)
            assert est.kl == 0.0
            assert est.total == pytest.approx(-doc.length * np.log(cfg.m), rel=1e-14)

    def test_decomposition(self):
        cfg = tiny_config()
        params = random_model(cfg)
        est = elbo(Document(ids=[1, 2]), params, cfg, RngStream(1), samples=2)
        assert est.total == est.reconstruction - est.kl
        assert est.kl >= 0.0

    def test_more_samples_lower_variance(self):
        cfg = tiny_config()
        params = random_model(cfg, seed=9)
        doc = Document(ids=[0, 2, 4, 1])
        one = [elbo(doc, params, cfg, RngStream(i), samples=1).total for i in range(100)]
        twenty = [
            elbo(doc, params, cfg, RngStream(1000 + i), samples=20).total
            for i in range(100)
        ]
        assert np.var(twenty) < np.var(one)
        assert np.mean(one) == pytest.approx(np.mean(twenty), abs=5 * np.std(one) / 10)

    def test_bounded_by_importance_sampling(self, np_rng):
        cfg = ModelConfig(mode="savae", m=5, d=2, k=2, encoder_layers=(3,))
        params = random_model(cfg, seed=10)
        doc = Document(ids=[0, 4, 2, 1])
        est = elbo(doc, params, cfg, RngStream(2), samples=20)
        ll = prior_sampling_log_likelihoods(doc.ids, params, cfg, 10**4, np_rng)
        assert est.total <= ll + 0.05

    @pytest.mark.parametrize("mode", ["savae", "nvdm"])
    @pytest.mark.parametrize(
        "shape",
        [(2, 0, 2), (2, 3, 3), (2, 3, 1), (1, 3, 2), (3, 3, 2), (2, 2)],
        ids=["S-0", "d-3", "d-1", "N-1", "N-3", "rank-2"],
    )
    def test_eps_of_another_shape_is_rejected(self, mode, shape):
        cfg = tiny_config(mode)
        docs = [Document(ids=[0, 1, 2]), Document(ids=[3])]
        with pytest.raises(ValueError, match=r"eps must have shape \(2, S >= 1, 2\)"):
            elbo_estimates(docs, random_model(cfg), cfg, np.zeros(shape))

    def test_no_documents_no_estimates(self):
        cfg = tiny_config()
        assert elbo_estimates([], random_model(cfg), cfg, np.zeros((0, 3, cfg.d))) == []

    def test_empty_document_is_rejected(self):
        cfg = tiny_config()
        docs = [Document(ids=[0, 1]), Document(ids=[])]
        with pytest.raises(EmptyDocument, match="^cannot evaluate an empty document$"):
            elbo_estimates(docs, random_model(cfg), cfg, np.zeros((2, 1, cfg.d)))

    def test_elbo_needs_a_sample(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="^samples must be >= 1$"):
            elbo(Document(ids=[0, 1]), random_model(cfg), cfg, RngStream(0), samples=0)

    @staticmethod
    def _nvdm_group_peak():
        """The traced peak of the bound of one nvdm group of 12 documents of
        20 tokens at S = 20 and m = 2000, so 240 z rows of 3.84 MB."""
        config = ModelConfig(mode="nvdm", m=2000, d=10, encoder_layers=(8,))
        params = random_model(config)
        rng = np.random.default_rng(0)
        docs = [Document(ids=rng.integers(0, config.m, 20).tolist()) for _ in range(12)]
        eps = RngStream(0).normal((12, 20, config.d))
        assert model._ROW_BLOCK // 20 == 12  # one group of documents at S = 20
        tracemalloc.start()
        try:
            elbo_estimates(docs, params, config, eps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_nvdm_bound_block_repeats_no_counts(self):
        # z parts, their shifted copy and its exps take 3.84 MB each, and a
        # per-row copy of the (12, m) counts would be a fourth
        assert self._nvdm_group_peak() < 13e6

    def test_nvdm_bound_group_copies_no_z_parts(self):
        # a shifted copy of the z parts for the log-sum-exp took the peak to
        # 8.1 MB; the count dot products run first, then the log-sum-exp in
        # place
        assert self._nvdm_group_peak() < 1.5 * 240 * 2000 * 8

    def test_savae_bound_memory_does_not_grow_with_document_length(self):
        # one 4000-token document at S = 20: its position parts run in
        # (256, m) slices of 4.1 MB, where a (4000, m) buffer took the
        # traced peak to 67.8 MB
        config = ModelConfig(mode="savae", m=2000, d=10, encoder_layers=(8,))
        params = random_model(config)
        params.enc_W[0] /= 4000  # keep the log-variance at short-document scale
        doc = Document(ids=np.random.default_rng(0).integers(0, config.m, 4000).tolist())
        eps = RngStream(0).normal((1, 20, config.d))
        tracemalloc.start()
        try:
            elbo_estimates([doc], params, config, eps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_savae_bound_memory_does_not_grow_with_document_count(self):
        # 48 and 480 documents of 100 tokens at S = 20: each group of 12
        # documents builds its own local contexts, so the 432 more documents
        # add only their (N, S, d) draws and packed ids, a few copies of
        # 0.77 and 0.38 MB; local contexts built over the whole split took
        # the peak from 2.7 MB at 48 documents to 25.7 MB at 480
        config = ModelConfig(mode="savae", m=50, d=10, encoder_layers=(8,))
        params = random_model(config)
        rng = np.random.default_rng(0)
        peaks = []
        for n in (48, 480):
            docs = [Document(ids=rng.integers(0, config.m, 100).tolist()) for _ in range(n)]
            tracemalloc.start()
            try:
                evaluate_bound(docs, params, config, samples=20)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 5e6

    def test_bound_holds_its_draws_about_once(self):
        # each added document brings its (S, d) draw, 8 kB at S = 20, d = 50,
        # and a little more (its ids, mu, sd): 1.21 draws per document, where
        # a list of the draws stacked into an array and a split-wide Z beside
        # them took 3.11
        config = ModelConfig(mode="savae", m=50, d=50, encoder_layers=(8,))
        params = random_model(config)
        rng = np.random.default_rng(0)
        samples, counts, peaks = 20, (100, 800), []
        for n in counts:
            docs = [Document(ids=rng.integers(0, config.m, 30).tolist()) for _ in range(n)]
            tracemalloc.start()
            try:
                evaluate_bound(docs, params, config, samples=samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_doc = (peaks[1] - peaks[0]) / (counts[1] - counts[0])
        assert per_doc < 1.5 * samples * config.d * 8

    def test_logsumexp_exponentiates_in_place(self):
        # the z parts of that block: the shifted copy takes 3.84 MB, and an
        # array of its exps besides it would take the peak past 7.6 MB
        logits = np.random.default_rng(0).normal(size=(12, 20, 2000))
        tracemalloc.start()
        try:
            model._logsumexp_rows(logits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6


def _gradient_case(mode, m, k, batch, d=2, seed=0):
    config = ModelConfig(mode=mode, m=m, d=d, k=k, encoder_layers=(4, 3))
    eps = RngStream(seed + 1).normal((len(batch), d))
    return config, random_model(config, seed=seed), [Document(ids=ids) for ids in batch], eps


def _two_word_case(seed, *docs):
    """A savae case at m = 2, k = 1 and d = 1 of documents written as strings of 0s and 1s."""
    batch = [list(map(int, doc)) for doc in docs]
    return _gradient_case("savae", m=2, k=1, d=1, seed=seed, batch=batch)


@st.composite
def gradient_cases(draw):
    """(config, params, docs, eps): 1-6 documents of 1-40 tokens, k up to 6
    (so often longer than a document), and ids drawn either from the whole
    vocabulary or from its first three words, which repeats words inside
    windows."""
    mode = draw(st.sampled_from(["savae", "nvdm"]))
    m = draw(st.sampled_from([1, 2, 7, 50]))
    words = draw(st.sampled_from([min(m, 3), m]))
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    batch = [draw(st.lists(st.integers(0, words - 1), min_size=n, max_size=n)) for n in lengths]
    return _gradient_case(
        mode,
        m,
        k=draw(st.integers(1, 6)),
        batch=batch,
        d=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestGradients:
    def _check(self, cfg, docs, seed, tol=1e-4):
        params = random_model(cfg, seed=seed)
        eps = RngStream(seed + 100).normal((len(docs), cfg.d))
        _, grads = batch_elbo_gradients(docs, params, cfg, eps)
        fd = finite_difference_grads(docs, params, cfg, eps, elbo_with_fixed_eps)
        for name in grads:
            denom = np.maximum(np.abs(fd[name]), 1e-8)
            rel = np.abs(grads[name] - fd[name]) / denom
            assert rel.max() < tol, f"{name}: {rel.max()}"

    def test_savae_finite_differences(self):
        cfg = tiny_config("savae", m=6, d=2, k=2)
        self._check(cfg, [Document(ids=[0, 3, 1, 5])], seed=1)

    def test_nvdm_finite_differences(self):
        cfg = tiny_config("nvdm", m=8, d=3)
        self._check(cfg, [Document(ids=[2, 2, 7, 4])], seed=2)

    @given(
        st.sampled_from(["savae", "nvdm"]),
        st.integers(1, 7),
        st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=11), min_size=1, max_size=5),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_totals_match_oracle_forward(self, mode, k, batch, seed):
        # windows must stop at document boundaries inside a packed batch
        cfg = tiny_config(mode, m=5, d=2, k=k)
        params = random_model(cfg, seed=seed)
        docs = [Document(ids=ids) for ids in batch]
        eps = RngStream(seed + 1).normal((len(docs), cfg.d))
        estimates, _ = batch_elbo_gradients(docs, params, cfg, eps)
        want = elbo_with_fixed_eps(docs, params, cfg, eps)
        np.testing.assert_allclose([e.total for e in estimates], want, rtol=1e-12)

    @pytest.mark.parametrize("block", [1, 3, 7, model._ROW_BLOCK])
    @given(gradient_cases())
    @example(_gradient_case("savae", m=1, k=3, batch=[[0], [0, 0]]))
    @example(_gradient_case("savae", m=7, k=6, batch=[[2], [5, 5, 5, 1, 5], [0, 6]]))
    @example(_gradient_case("nvdm", m=2, k=1, batch=[[1]]))
    # the whole of b, c_local or V_local cancels to near zero
    @example(_two_word_case(1416, "100001010111010010", "11101110011010110000"))
    @example(_two_word_case(2128, "1111010010110000111", "000010010010001110110000"))
    @example(_two_word_case(2824, "01000101010001110111100111", "100111001010000011011110010"))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_oracle(self, block, case):
        # blocks of 1, 3 and 7 rows put document boundaries inside and at
        # the edges of blocks. Entries that cancel to near zero carry the
        # rounding of their largest terms, so each array is held to 1e-10
        # of its largest entry as well as to rtol 1e-10. A whole array can
        # cancel too (b at m = 2 is [x, -x], and 1 - H cancels where the
        # sigmoid saturates), so b, X, c_local and V_local also get 16 eps
        # times each entry's term scale; beyond the 1e-10 terms, the worst
        # error over 3000 random two-word batches was 0.74 eps times it.
        config, params, docs, eps = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_ROW_BLOCK", block)
            estimates, grads = batch_elbo_gradients(docs, params, config, eps)
        recon, kl, want, scale = dense_batch_elbo_gradients(docs, params, config, eps)
        np.testing.assert_allclose([e.reconstruction for e in estimates], recon, rtol=1e-10)
        # the oracle's exp(lv) - 1 carries an absolute error of an ulp of 1
        np.testing.assert_allclose([e.kl for e in estimates], kl, rtol=1e-10, atol=1e-14)
        assert list(grads) == list(expected_shapes(config))
        for name, arr in grads.items():
            ref = want[name]
            assert arr.shape == ref.shape, name
            err = np.abs(arr - ref)
            bound = 1e-10 * (np.abs(ref) + np.abs(ref).max())
            bound += 16 * np.finfo(float).eps * scale.get(name, 0.0)
            i = np.argmax(err - bound)  # the worst entry
            assert err.flat[i] <= bound.flat[i], (name, i, err.flat[i], bound.flat[i])

    @pytest.mark.parametrize("mode", ["savae", "nvdm"])
    @pytest.mark.parametrize("present", [4, 7], ids=["restricted", "dense"])
    def test_either_encoder_product_matches_dense_oracle(self, mode, present):
        # 4 of 10 words are under the rule's share of m, 7 over it
        config = ModelConfig(mode=mode, m=10, d=2, k=2, encoder_layers=(4, 3))
        params = random_model(config, seed=present)
        rng = np.random.default_rng(present)
        vocab = rng.choice(config.m, present, replace=False)
        docs = [Document(ids=rng.choice(vocab, n).tolist()) for n in (9, 3, 14)]
        docs[0].ids += vocab.tolist()
        eps = RngStream(present).normal((len(docs), config.d))
        words = model._encoder_forward(*model._pack(docs), params)[2][0]
        assert (words is None) == (present > config.m * model._RESTRICTED_MAX_SHARE)
        estimates, grads = batch_elbo_gradients(docs, params, config, eps)
        recon, kl, want, _ = dense_batch_elbo_gradients(docs, params, config, eps)
        np.testing.assert_allclose([e.reconstruction for e in estimates], recon, rtol=1e-10)
        np.testing.assert_allclose([e.kl for e in estimates], kl, rtol=1e-10, atol=1e-14)
        for name, arr in grads.items():
            np.testing.assert_allclose(
                arr, want[name], rtol=1e-10, atol=1e-10 * np.abs(want[name]).max(), err_msg=name
            )
        absent = np.setdiff1d(np.arange(config.m), vocab)
        assert np.all(grads["enc_W_0"][absent] == 0.0)

    def test_nvdm_is_permutation_invariant_exactly(self):
        cfg = tiny_config("nvdm", m=8, d=3)
        params = random_model(cfg, seed=12)
        eps = RngStream(13).normal((2, cfg.d))
        other = Document(ids=[5, 1, 1])
        ids = [0, 7, 3, 3, 1, 6, 2, 7, 7, 4]
        perm = [7, 3, 1, 7, 0, 2, 4, 3, 6, 7]
        a_est, a = batch_elbo_gradients([Document(ids=ids), other], params, cfg, eps)
        b_est, b = batch_elbo_gradients([Document(ids=perm), other], params, cfg, eps)
        assert [(e.reconstruction, e.kl) for e in a_est] == [
            (e.reconstruction, e.kl) for e in b_est
        ]
        for name in a:
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)

    def test_batch_matches_sum_of_singles(self):
        cfg = tiny_config("savae")
        params = random_model(cfg, seed=3)
        docs = [Document(ids=[0, 1]), Document(ids=[5, 2, 3])]
        eps = RngStream(7).normal((2, cfg.d))
        _, batch = batch_elbo_gradients(docs, params, cfg, eps)
        singles = [
            batch_elbo_gradients([doc], params, cfg, eps[i : i + 1])[1]
            for i, doc in enumerate(docs)
        ]
        for name in batch:
            np.testing.assert_allclose(
                batch[name], singles[0][name] + singles[1][name], rtol=1e-9, atol=1e-12
            )

    def test_bias_gradient_at_zero_params(self):
        cfg = tiny_config("savae", m=6)
        params = zero_model(cfg)
        doc = Document(ids=[0, 0, 3])
        eps = np.zeros((1, cfg.d))
        _, grads = batch_elbo_gradients([doc], params, cfg, eps)
        counts = bow_counts(doc.ids, cfg.m)
        np.testing.assert_allclose(grads["b"], counts - doc.length / cfg.m, atol=1e-12)

    def test_unused_words_get_zero_local_gradient(self):
        cfg = tiny_config("savae", m=6, d=2, k=2)
        params = random_model(cfg, seed=11)
        doc = Document(ids=[1, 2, 1])
        eps = RngStream(0).normal((1, cfg.d))
        _, grads = batch_elbo_gradients([doc], params, cfg, eps)
        for w in (0, 3, 4, 5):
            assert np.all(grads["V_local"][w] == 0.0)

    @pytest.mark.parametrize("mode", ["savae", "nvdm"])
    def test_reused_buffers_equal_fresh_arrays(self, mode):
        # a restricted batch, a dense one, then a restricted one with other
        # words, all through one dict of gradient arrays
        config = ModelConfig(mode=mode, m=10, d=2, k=2, encoder_layers=(4, 3))
        params = random_model(config, seed=3)
        rng = np.random.default_rng(3)
        batches = []
        for vocab in ([0, 2, 5, 9], [0, 1, 3, 4, 6, 7, 8], [1, 3, 4, 8]):
            docs = [Document(ids=rng.choice(vocab, n).tolist() + vocab) for n in (6, 2, 9)]
            batches.append((docs, vocab))
        out = {}
        for i, (docs, vocab) in enumerate(batches):
            words = model._encoder_forward(*model._pack(docs), params)[2][0]
            assert (words is None) == (i == 1)
            eps = RngStream(i).normal((len(docs), config.d))
            estimates, grads = batch_elbo_gradients(docs, params, config, eps, out=out)
            fresh_estimates, fresh = batch_elbo_gradients(docs, params, config, eps)
            if i == 0:
                arrays = dict(out)
            assert estimates == fresh_estimates
            assert list(grads) == list(fresh) == list(expected_shapes(config))
            for name, arr in grads.items():
                assert arr is out[name] is arrays[name], name
                assert arr.tobytes() == fresh[name].tobytes(), name
        absent = np.setdiff1d(np.arange(config.m), vocab)
        assert np.all(out["enc_W_0"][absent] == 0.0)

    def test_empty_document_rejected(self):
        cfg = tiny_config()
        eps = np.zeros((1, cfg.d))
        with pytest.raises(EmptyDocument):
            batch_elbo_gradients([Document(ids=[])], random_model(cfg), cfg, eps)

    def test_empty_batch_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="^empty batch$"):
            batch_elbo_gradients([], random_model(cfg), cfg, np.zeros((0, cfg.d)))

    @staticmethod
    def _news_batch(mode):
        """A batch shaped like the first 64 savae-news training documents of
        seed 1201: T = 9302 tokens, m = 2000, d = 50, k = 5, encoder 500-500."""
        cfg = ModelConfig(mode, m=2000, d=50, k=5, encoder_layers=(500, 500))
        params = random_model(cfg, seed=5)
        rng = np.random.default_rng(3)
        lengths = np.diff(np.sort(rng.choice(np.arange(1, 9302), 63, replace=False)),
                          prepend=0, append=9302)
        docs = [Document(ids=rng.integers(0, cfg.m, n).tolist()) for n in lengths]
        assert sum(doc.length for doc in docs) == 9302
        return docs, params, cfg, rng.standard_normal((64, cfg.d))

    def test_local_channel_is_freed_before_the_encoder_backward(self):
        # The bound lies between the traced peaks on the real batch when the
        # local channel's (T, d) arrays lived through the encoder's backward
        # (33.8 MB) and when they were freed before it (26.5 MB).
        docs, params, cfg, eps = self._news_batch("savae")
        tracemalloc.start()
        try:
            batch_elbo_gradients(docs, params, cfg, eps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    @pytest.mark.parametrize("mode,bound", [("nvdm", 5.4e6), ("savae", 22.4e6)])
    def test_warm_step_memory(self, mode, bound):
        # A training run passes one gradient dict to every step, so a warm
        # step allocates only its temporaries. Traced peaks of the second
        # call: 4.85 MB nvdm and 20.3 MB savae, against 15.6 and 26.7 MB
        # with a fresh gradient set per call and the local channel's
        # sigmoid, dS and window sums out of place. The bounds allow about
        # 10% over the measured peaks.
        docs, params, cfg, eps = self._news_batch(mode)
        out = {}
        batch_elbo_gradients(docs, params, cfg, eps, out=out)
        tracemalloc.start()
        try:
            batch_elbo_gradients(docs, params, cfg, eps, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound
