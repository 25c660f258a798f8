"""Dense numeric kernel: activations, the analytic KL of a diagonal Gaussian
against a standard normal, perplexity, and a portable seeded RNG.

All arrays are 64-bit floats. The RNG is built on the Philox 4x64
counter-based generator so that a given seed reproduces the same stream
bit-for-bit on every platform; normal draws use Box-Muller on top of the
uniform stream instead of the host library's ziggurat sampler.
``RngStream.substream_normals`` draws the normals of many substreams at
once, with the bits that each substream's own ``normal`` gives.
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


# ids per Box-Muller of RngStream.substream_normals. On a 2-vCPU Xeon VM,
# 300 draws of (20, 50) took 10.7 ms in chunks of 32 ids, 11.4 in chunks of
# 64, 13.9 in chunks of 128 and 17.1 in one chunk, against 20.2 drawn one id
# at a time. One Box-Muller over all ids held 35 kB per (20, 50) draw at
# its peak, the draw's 8 kB and its temporaries; chunks of 32 hold at most
# 1.8 MB of temporaries whatever their number.
_NORMALS_CHUNK = 32


def _fold(key, ids):
    """The key of the substream ``ids`` of a stream keyed ``key``."""
    for i in ids:
        key = (key * _MIX_MULT + (int(i) & _MASK64) + 1) & _MASK64
    return key


def _box_muller(raw, out):
    """Fill each row of the (R, n) ``out`` with the standard normals that
    Box-Muller makes of that row of the (R, 2 * ((n + 1) // 2)) raw Philox
    draws: the cosine halves first, then the sine halves, the last sine
    dropped when n is odd."""
    pairs = raw.shape[1] // 2
    n = out.shape[1]
    # u1 in (0, 1] so the log is finite
    u1 = ((raw[:, :pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * _U53
    u2 = (raw[:, pairs:] >> np.uint64(11)).astype(np.float64) * _U53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    np.multiply(r, np.cos(theta), out=out[:, :pairs])
    np.multiply(r[:, : n - pairs], np.sin(theta)[:, : n - pairs], out=out[:, pairs:])


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
        return RngStream(self.seed, _key=_fold(self._key, ids))

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
        z = np.empty((1, n))
        _box_muller(self._raw(2 * ((n + 1) // 2))[None], z)
        return z.reshape(shape) if shape else float(z[0, 0])

    def substream_normals(self, ids, shape):
        """``np.stack([self.substream(i).normal(shape) for i in ids])`` bit for
        bit, as one (len(ids), *shape) array. One Philox serves every id, its
        key reset per id, and one Box-Muller serves ``_NORMALS_CHUNK`` ids."""
        n = int(np.prod(shape, dtype=np.int64))
        out = np.empty((len(ids), n))
        width = 2 * ((n + 1) // 2)
        bg = np.random.Philox(0)
        state = bg.state  # a fresh state, zero counter and empty buffer; its key is set per id
        raw = np.empty((min(_NORMALS_CHUNK, len(ids)), width), dtype=np.uint64)
        for c0 in range(0, len(ids), _NORMALS_CHUNK):
            chunk = ids[c0 : c0 + _NORMALS_CHUNK]
            for row, i in enumerate(chunk):
                # the key array as Philox(key=[...]) builds it, through float64
                # when an entry is at least 2^63
                key = [self.seed & _MASK64, _fold(self._key, (i,))]
                state["state"]["key"] = np.asarray(key).astype(np.uint64)
                bg.state = state
                raw[row] = bg.random_raw(width)
            _box_muller(raw[: len(chunk)], out[c0 : c0 + len(chunk)])
        return out.reshape((len(ids), *shape))

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
