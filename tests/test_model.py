import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_doc, random_model, tiny_config, zero_model
from oracles import (
    elbo_with_fixed_eps,
    exact_doc_log_likelihoods,
    finite_difference_grads,
    local_context,
    naive_doc_log_likelihoods,
    next_word_log_prob,
    prior_sampling_log_likelihoods,
)
from savae import model
from savae.corpus import Document
from savae.errors import EmptyDocument
from savae.model import (
    ModelConfig,
    batch_elbo_gradients,
    bow_counts,
    doc_log_likelihoods,
    elbo,
    encode,
    expected_shapes,
    init_params,
)
from savae.errors import ConfigError
from savae.numerics import RngStream, sigmoid


class TestConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigError) as exc:
            ModelConfig(mode="bogus", m=0, d=0, encoder_layers=())
        assert len(exc.value.violations) >= 3

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


class TestEncode:
    def test_zero_params_zero_posterior(self):
        cfg = tiny_config()
        q = encode(Document(ids=[0, 1, 2]), zero_model(cfg), cfg)
        assert np.all(q.mu == 0) and np.all(q.log_var == 0)

    def test_bag_of_words_invariance_exact(self):
        cfg = tiny_config()
        params = random_model(cfg)
        ids = [0, 3, 1, 5, 1]
        q1 = encode(Document(ids=ids), params, cfg)
        q2 = encode(Document(ids=list(reversed(ids))), params, cfg)
        np.testing.assert_array_equal(q1.mu, q2.mu)
        np.testing.assert_array_equal(q1.log_var, q2.log_var)

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


class TestElbo:
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

    def test_empty_document_rejected(self):
        cfg = tiny_config()
        eps = np.zeros((1, cfg.d))
        with pytest.raises(EmptyDocument):
            batch_elbo_gradients([Document(ids=[])], random_model(cfg), cfg, eps)
