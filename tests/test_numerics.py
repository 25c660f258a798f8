import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from oracles import log_softmax, mc_kl_standard_normal, sample_reparameterized
from savae import numerics
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

    @pytest.mark.parametrize(
        "x",
        [
            np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 1e-300, -1e-300]),
            np.random.default_rng(8).standard_normal((257, 50)) * 40.0,
            np.random.default_rng(9).standard_normal((3, 4, 5)).T,  # not C-contiguous
            np.array(-0.0),
            np.array(np.nan),
            np.array(745.0),
            np.float64(-1e-300),
            -745.0,
            0.5,
            -0.0,
        ],
    )
    def test_sigmoid_equals_the_two_exp_oracle_bitwise(self, x):
        before = np.array(x, copy=True)
        got, want = sigmoid(x), oracles.sigmoid(x)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.array(x).tobytes() == before.tobytes()


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
    @pytest.mark.parametrize("draw", ["normal", "uniform"])
    def test_empty_draw(self, draw):
        rng = RngStream(3)
        for shape in [(0, 4), (4, 0), (3, 0, 2), (2, 3, 0)]:
            empty = getattr(rng, draw)(shape)
            assert empty.shape == shape and empty.dtype == np.float64
        # an empty draw consumes nothing from the stream
        np.testing.assert_array_equal(getattr(rng, draw)((5,)), getattr(RngStream(3), draw)((5,)))

    def test_same_seed_same_normals(self):
        a = RngStream(42).normal((1000,))
        b = RngStream(42).normal((1000,))
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ(self):
        base = RngStream(5)
        a = base.substream(1).normal((100,))
        b = base.substream(2).normal((100,))
        assert not np.array_equal(a, b)
        # keys of at least 2^63 that differ only in bit 0
        a, b = RngStream(9).substream(0), RngStream(9).substream(1)
        assert a._key >= 2**63 and a._key ^ b._key == 1
        assert not np.array_equal(a.normal((8,)), b.normal((8,)))

    def test_nested_substreams_differ(self):
        base = RngStream(5)
        a = base.substream(1, 2).uniform((50,))
        b = base.substream(2, 1).uniform((50,))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "shape,r",
        [((9, 5), 4), ((400, 50), 200), ((7, 3, 5), 2)],
        ids=["odd", "chunks", "3d"],
    )
    def test_first_rows_are_a_shorter_draw(self, shape, r):
        # an odd row drops its last sine; 400 rows of 50 span three chunks
        # of Box-Muller, and the first 200 end inside the second
        assert shape[-1] % 2 or shape[0] * shape[-1] > 2 * numerics._NORMALS_CHUNK
        whole = RngStream(7).substream(3).normal(shape)
        assert whole.shape == shape and whole.dtype == np.float64
        assert whole[:r].tobytes() == RngStream(7).substream(3).normal((r, *shape[1:])).tobytes()

    @pytest.mark.parametrize("seed,key", [(2**64 - 1, 12345), (-1, 12345), (5, 2**64 - 1)])
    def test_key_keeps_all_64_bits(self, seed, key):
        # seed -1 keys its stream as 2^64 - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rng = RngStream(seed, _key=key)
        state_key = rng._bg.state["state"]["key"]
        assert state_key.dtype == np.uint64
        assert state_key.tolist() == [seed & (2**64 - 1), key]

    def test_stream_is_pinned(self):
        # the first draws of each kind, frozen; a change to the key, the
        # Philox stream or the Box-Muller layout fails here
        rng = RngStream(2)
        assert rng.uniform((3,)).tolist() == [
            0.6695949188895677, 0.20721507955809682, 0.5639560886205469
        ]
        assert rng.normal((3,)).tolist() == [
            0.36255320856750467, 1.3983228528426288, -0.5475932275215529
        ]
        assert rng.normal((2, 3)).tolist() == [
            [-0.11297259575060269, -0.3140905943105287, -0.5595959255410904],
            [-0.497430102745682, -0.44144661872108937, -0.19428935685854165],
        ]
        sub = RngStream(2).substream(2, 0, 1)  # a training eps substream
        assert sub._key >= 2**63
        assert sub.normal((2, 3)).tolist() == [
            [0.5019433966513562, 0.18455811947170747, -0.14590287135372484],
            [0.3383013505259093, -1.4139930965256362, -1.2215597563575444],
        ]

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
