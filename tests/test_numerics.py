import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import log_softmax, mc_kl_standard_normal, sample_reparameterized
from savae.numerics import RngStream, kl_standard_normal, relu, sigmoid

finite_vectors = hnp.arrays(
    np.float64,
    st.integers(1, 6),
    elements=st.floats(-1000, 1000, allow_nan=False),
)


class TestLogSoftmax:
    def test_uniform(self):
        out = log_softmax(np.zeros(4))
        np.testing.assert_allclose(out, np.log(1 / 4), atol=1e-15)

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 4.0])
        np.testing.assert_allclose(log_softmax(x), log_softmax(x + 123.456), atol=1e-12)

    def test_no_overflow(self):
        out = log_softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, -1000.0], atol=1e-12)

    @given(finite_vectors)
    @settings(max_examples=100)
    def test_exp_sums_to_one(self, x):
        assert abs(np.exp(log_softmax(x)).sum() - 1.0) < 1e-12


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-3.0, 2.0, 0.0])), [0.0, 2.0, 0.0])

    def test_sigmoid_half(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_extreme_negative(self):
        v = sigmoid(np.array([-710.0]))[0]
        assert 0.0 < v <= 1e-300

    def test_sigmoid_extreme_positive(self):
        assert sigmoid(np.array([710.0]))[0] == 1.0

    def test_sigmoid_symmetry(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_sigmoid_matches_the_two_branch_formula_bitwise(self):
        edges = np.array([0.0, 5e-324, 1e-300, 36.7, 709.8, 745.2, 800.0, np.inf])
        drawn = np.random.default_rng(5).standard_normal((9318, 50))
        for x in (np.concatenate([edges, -edges]), drawn):
            e = np.exp(-np.abs(x))
            want = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
            got = sigmoid(x)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        assert np.isnan(sigmoid(np.array([np.nan]))).all()


class TestReparameterization:
    def test_zero_eps_gives_mu(self):
        mu, lv = np.array([1.0, -2.0]), np.array([0.3, -0.7])
        np.testing.assert_array_equal(sample_reparameterized(mu, lv, np.zeros(2)), mu)

    def test_unit_variance(self):
        mu = np.array([1.0, 2.0])
        e = np.array([0.5, -0.25])
        np.testing.assert_array_equal(sample_reparameterized(mu, np.zeros(2), e), mu + e)

    def test_moments_match(self):
        mu, lv = np.array([0.7, -1.1, 2.0]), np.array([0.5, -0.5, 0.0])
        eps = RngStream(11).normal((10**6, 3))
        z = sample_reparameterized(mu, lv, eps)
        np.testing.assert_allclose(z.mean(axis=0), mu, rtol=0.01, atol=0.01)
        np.testing.assert_allclose(z.var(axis=0), np.exp(lv), rtol=0.01)

    def test_affine_jacobian_by_finite_differences(self):
        mu, lv = np.array([0.2, -0.4]), np.array([0.1, 0.6])
        eps = np.array([1.3, -0.8])
        h = 1e-6
        for i in range(2):
            dmu = np.zeros(2)
            dmu[i] = h
            fd = (
                sample_reparameterized(mu + dmu, lv, eps)
                - sample_reparameterized(mu - dmu, lv, eps)
            ) / (2 * h)
            expected = np.zeros(2)
            expected[i] = 1.0
            np.testing.assert_allclose(fd, expected, rtol=1e-6, atol=1e-9)
            dlv = np.zeros(2)
            dlv[i] = h
            fd = (
                sample_reparameterized(mu, lv + dlv, eps)
                - sample_reparameterized(mu, lv - dlv, eps)
            ) / (2 * h)
            expected = np.zeros(2)
            expected[i] = 0.5 * np.exp(0.5 * lv[i]) * eps[i]
            np.testing.assert_allclose(fd, expected, rtol=1e-6, atol=1e-9)


class TestKl:
    def test_prior_equals_zero(self):
        assert kl_standard_normal(np.zeros(5), np.zeros(5)) == 0.0

    def test_unit_mean_shift(self):
        mu = np.zeros(4)
        mu[0] = 1.0
        assert kl_standard_normal(mu, np.zeros(4)) == 0.5

    def test_against_monte_carlo(self, np_rng):
        mu = np_rng.normal(size=3)
        lv = np_rng.normal(scale=0.5, size=3)
        analytic = kl_standard_normal(mu, lv)
        mc, se = mc_kl_standard_normal(mu, lv, 10**6, np_rng)
        assert abs(analytic - mc) < 3 * se

    def test_nonnegative_next_to_the_prior(self):
        # exp(lv) - lv - 1 rounds to -5.55e-17 here
        assert kl_standard_normal(np.array([0.0]), np.array([6.265404784005448e-10])) >= 0.0

    @given(finite_vectors.flatmap(
        lambda mu: st.tuples(
            st.just(mu),
            hnp.arrays(np.float64, len(mu), elements=st.floats(-20, 20)),
        )
    ))
    @settings(max_examples=100)
    def test_nonnegative(self, mu_lv):
        mu, lv = mu_lv
        kl = kl_standard_normal(mu, lv)
        assert kl >= 0.0
        # strict positivity away from the prior (float cancellation makes
        # the iff-zero statement exact-arithmetic only)
        if np.any(np.abs(mu) > 1e-6) or np.any(np.abs(lv) > 1e-6):
            assert kl > 0.0


class TestRngStream:
    def test_same_seed_same_normals(self):
        a = RngStream(42).normal((1000,))
        b = RngStream(42).normal((1000,))
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ(self):
        base = RngStream(5)
        a = base.substream(1).normal((100,))
        b = base.substream(2).normal((100,))
        assert not np.array_equal(a, b)

    def test_nested_substreams_differ(self):
        base = RngStream(5)
        a = base.substream(1, 2).uniform((50,))
        b = base.substream(2, 1).uniform((50,))
        assert not np.array_equal(a, b)

    def test_normal_statistics(self):
        z = RngStream(9).normal((10**6,))
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.01

    def test_uniform_range(self):
        u = RngStream(3).uniform((10000,))
        assert np.all((u >= 0) & (u < 1))

    def test_permutation_is_bijection(self):
        perm = RngStream(17).permutation(100)
        assert sorted(perm) == list(range(100))
