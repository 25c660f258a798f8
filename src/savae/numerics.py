"""Dense numeric kernel: activations, the analytic KL of a diagonal Gaussian
against a standard normal, perplexity, and a portable seeded RNG.

All arrays are 64-bit floats. The RNG is built on the Philox 4x64
counter-based generator so that a given seed reproduces the same stream
bit-for-bit on every platform; normal draws use Box-Muller on top of the
uniform stream instead of the host library's ziggurat sampler.
"""

import numpy as np

__all__ = [
    "RngStream",
    "kl_standard_normal",
    "perplexity",
    "relu",
    "sigmoid",
]

# splitmix-style multiplier used to fold substream ids into a 64-bit key
_MIX_MULT = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF

# 2^-53, converts the top 53 bits of a uint64 into a double in [0, 1)
_U53 = 1.0 / (1 << 53)


class RngStream:
    """Deterministic random stream with derivable substreams.

    Uniform doubles come straight from Philox counter output; normals are
    produced with Box-Muller. ``substream(*ids)`` derives an independent
    stream as a pure function of (seed, ids), which is how per-epoch and
    per-(epoch, batch) reproducibility is achieved.
    """

    def __init__(self, seed, _key=None):
        self.seed = int(seed)
        self._key = self.seed & _MASK64 if _key is None else _key
        self._bg = np.random.Philox(key=[self.seed & _MASK64, self._key])

    def substream(self, *ids):
        key = self._key
        for i in ids:
            key = (key * _MIX_MULT + (int(i) & _MASK64) + 1) & _MASK64
        return RngStream(self.seed, _key=key)

    def _raw(self, n):
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        return np.asarray(self._bg.random_raw(n), dtype=np.uint64)

    def uniform(self, shape=()):
        """Uniform doubles in [0, 1)."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _U53
        return u.reshape(shape) if shape else float(u[0])

    def normal(self, shape=()):
        """Standard normal draws via Box-Muller."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        pairs = (n + 1) // 2
        raw = self._raw(2 * pairs)
        # u1 in (0, 1] so the log is finite
        u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * _U53
        u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * _U53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape) if shape else float(z[0])

    def permutation(self, n):
        """Fisher-Yates permutation of range(n), driven by the uniform stream."""
        idx = np.arange(n)
        if n < 2:
            return idx
        u = self.uniform((n - 1,))
        for i in range(n - 1, 0, -1):
            j = min(int(u[n - 1 - i] * (i + 1)), i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx


def relu(x):
    return np.maximum(x, 0.0)


def sigmoid(x):
    """Numerically stable elementwise logistic function: with e = exp(-|x|),
    which never overflows, 1 / (1 + e) for x >= 0 and e / (1 + e) below."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def kl_standard_normal(mu, log_var):
    """Analytic KL(q || N(0, I)) for the diagonal Gaussian q of means ``mu``
    and log-variances ``log_var``, summed over the last axis: a scalar for
    one posterior, shape (B,) for a batch of them.

    Each term is written ``expm1(lv) - lv``: expm1(x) >= x holds after
    rounding too, so the result is never negative, where
    ``exp(lv) - lv - 1`` cancels to a few ulps below zero near lv = 0.
    """
    return 0.5 * np.sum(mu**2 + np.expm1(log_var) - log_var, axis=-1)


def perplexity(nats_per_word):
    """exp(nats per word); ``inf``, without a warning, past ~709 nats per word."""
    with np.errstate(over="ignore"):
        return float(np.exp(nats_per_word))
