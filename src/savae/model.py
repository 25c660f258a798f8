"""Sequence-aware VAE document model and its bag-of-words ablation.

The model reconstructs a document word by word. The decoder conditions on
a per-document latent vector z (sampled from a diagonal Gaussian inferred
by a feedforward encoder over raw word counts) and, in "savae" mode, on a
local context vector h: the sigmoid of the summed local embeddings of the
previous k words. In "nvdm" mode the local channel is absent and the
decoder sees z alone.

All gradients of the single-sample ELBO estimator are derived by hand and
checked against central finite differences in the test suite.

Every decoder logit splits into a z part, shared by all positions of a
document, and a position part from the local context (absent in nvdm
mode). Training and evaluation both use the split:

- Evaluation scores each document under S posterior samples, on the
  packed layout that training uses: concatenated ids plus lengths, with
  one local-context pass over all documents. Consecutive documents are
  grouped into blocks of at most ``_ROW_BLOCK`` positions and z rows, and
  each block takes its z parts and position parts from one GEMM each. In
  savae mode a document's S x l softmax normalisers come from one GEMM of
  exponentials rather than from an (S, l, m) logit tensor; pairs whose
  factored sum underflows are recomputed directly (see
  ``_packed_log_likelihoods``).
- Training (``batch_elbo_gradients``) needs the z half's gradients only
  through their per-document sums, a (B, m) array. The savae softmax runs
  over fixed blocks of positions in one reused buffer, so no (T, m) array
  of a batch's T tokens is formed.
- In nvdm mode the position part is absent, so both go through word
  counts (``_bag_of_words_log_likelihoods``) and are exactly invariant to the order
  of a document's words.

Training, evaluation and representation share the packed layout and one
encoder forward (``_encoder_forward``); training and evaluation also share
one log-variance check (``_posterior_sd``), one local channel
(``_local_contexts``, whose window-source index training's backward
scatters through) and one KL (``numerics.kl_standard_normal``). The
encoder runs over blocks of packed documents: a whole batch in training,
``_ENCODER_BLOCK`` documents in ``encode_docs``. A block whose distinct
words are few next to m multiplies only their rows of the first layer's
weights; a block that holds most of the vocabulary takes the dense
product, which is faster there.
"""

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, EmptyDocument, NonFiniteGradient
from .numerics import kl_standard_normal, relu, sigmoid

__all__ = [
    "ElboEstimate",
    "ModelConfig",
    "ModelParams",
    "batch_elbo_gradients",
    "elbo",
    "elbo_estimates",
    "encode",
    "encode_docs",
    "init_params",
]

SAVAE = "savae"
NVDM = "nvdm"

# rows per block: of the savae training softmax, of the bound's documents and
# of the encoder's dense blocks
_ROW_BLOCK = 256

# documents per block of the encoder (encode_docs), widened to _ROW_BLOCK
# when the block takes the dense product. With one BLAS thread, over the
# 1194 savae-short-multilabel training documents of seed 1201, blocks of 64
# held 422-592 of the 2000 words and took 49 ms, against 62 ms restricted
# and 99 ms dense in blocks of 256 (1025-1298 words). News blocks of 64
# hold 1608-1710 words, and their 192 documents took 16.1 ms in dense
# blocks of 64 against 14.1 ms in one block.
_ENCODER_BLOCK = 64

# The encoder's first layer multiplies only the rows of enc_W_0 of a block's
# distinct words when they number at most this share of m, and all of it
# otherwise. Measured with one BLAS thread on blocks of 64 documents at
# m = 2000 and width 500, restricted against dense: the forward took 2.4
# against 3.5 ms at a share of 0.5 and broke even at about 0.75; forward
# plus backward took 5.1 against 6.9 ms at 0.5, broke even at 0.65-0.7
# and took 11.3 against 6.8 ms at 0.8, where news blocks lie.
_RESTRICTED_MAX_SHARE = 0.5

# exp and expm1 overflow above this argument
_LOG_FLOAT_MAX = float(np.log(np.finfo(np.float64).max))


@dataclass
class ModelConfig:
    mode: str
    m: int
    d: int
    k: int = 5
    encoder_layers: tuple = (500, 500)

    def __post_init__(self):
        self.encoder_layers = tuple(self.encoder_layers)
        problems = []
        if self.mode not in (SAVAE, NVDM):
            problems.append(f"mode must be '{SAVAE}' or '{NVDM}', got {self.mode!r}")
        if self.m < 1:
            problems.append("m must be >= 1")
        if self.d < 1:
            problems.append("d must be >= 1")
        if self.mode == SAVAE and self.k < 1:
            problems.append("k must be >= 1 in savae mode")
        if not self.encoder_layers:
            problems.append("encoder_layers must be non-empty")
        elif min(self.encoder_layers) < 1:
            problems.append(f"encoder_layers must all be >= 1, got {list(self.encoder_layers)}")
        if problems:
            raise ConfigError(problems)

    @property
    def decoder_dim(self):
        """Width of the vector the decoder embeddings are dotted with."""
        return 2 * self.d if self.mode == SAVAE else self.d

    @classmethod
    def from_dict(cls, data):
        """Inverse of ``dataclasses.asdict``; ignores ``sample_count_train`` and
        ``sample_count_eval``, which older checkpoints carry (training always
        draws one sample, and the bound takes its sample count as an argument).
        Raises ValueError if m, d, k or a layer width is not an int."""
        ints = [data["m"], data["d"], data.get("k", 5), *data["encoder_layers"]]
        if not all(type(v) is int for v in ints):
            raise ValueError(f"m, d, k and encoder_layers must be integers, got {ints}")
        return cls(
            mode=data["mode"],
            m=data["m"],
            d=data["d"],
            k=data.get("k", 5),
            encoder_layers=tuple(data["encoder_layers"]),
        )


@dataclass
class ModelParams:
    """All trainable arrays. ``V_local``/``c_local`` are None in nvdm mode."""

    X: np.ndarray
    b: np.ndarray
    V_local: np.ndarray
    c_local: np.ndarray
    enc_W: list
    enc_b: list
    W_mu: np.ndarray
    b_mu: np.ndarray
    W_logvar: np.ndarray
    b_logvar: np.ndarray

    def named_arrays(self):
        """Ordered (name, array) pairs; the canonical parameter flattening."""
        out = OrderedDict()
        out["X"] = self.X
        out["b"] = self.b
        if self.V_local is not None:
            out["V_local"] = self.V_local
            out["c_local"] = self.c_local
        for i, (W, b) in enumerate(zip(self.enc_W, self.enc_b)):
            out[f"enc_W_{i}"] = W
            out[f"enc_b_{i}"] = b
        out["W_mu"] = self.W_mu
        out["b_mu"] = self.b_mu
        out["W_logvar"] = self.W_logvar
        out["b_logvar"] = self.b_logvar
        return out

    def copy(self):
        return ModelParams.from_named({n: a.copy() for n, a in self.named_arrays().items()})

    @classmethod
    def from_named(cls, named):
        """Inverse of named_arrays."""
        n_layers = sum(name.startswith("enc_W_") for name in named)
        return cls(
            X=named["X"],
            b=named["b"],
            V_local=named.get("V_local"),
            c_local=named.get("c_local"),
            enc_W=[named[f"enc_W_{i}"] for i in range(n_layers)],
            enc_b=[named[f"enc_b_{i}"] for i in range(n_layers)],
            W_mu=named["W_mu"],
            b_mu=named["b_mu"],
            W_logvar=named["W_logvar"],
            b_logvar=named["b_logvar"],
        )


@dataclass
class ElboEstimate:
    reconstruction: float
    kl: float

    @property
    def total(self):
        return self.reconstruction - self.kl


def expected_shapes(config):
    """name -> shape map for every parameter array of a model."""
    shapes = OrderedDict()
    shapes["X"] = (config.m, config.decoder_dim)
    shapes["b"] = (config.m,)
    if config.mode == SAVAE:
        shapes["V_local"] = (config.m, config.d)
        shapes["c_local"] = (config.d,)
    fan_in = config.m
    for i, width in enumerate(config.encoder_layers):
        shapes[f"enc_W_{i}"] = (fan_in, width)
        shapes[f"enc_b_{i}"] = (width,)
        fan_in = width
    shapes["W_mu"] = (fan_in, config.d)
    shapes["b_mu"] = (config.d,)
    shapes["W_logvar"] = (fan_in, config.d)
    shapes["b_logvar"] = (config.d,)
    return shapes


def init_params(config, rng):
    """Xavier-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""

    def xavier(shape):
        s = np.sqrt(6.0 / (shape[0] + shape[1]))
        return (rng.uniform(shape) * 2.0 - 1.0) * s

    named = OrderedDict()
    for name, shape in expected_shapes(config).items():
        named[name] = xavier(shape) if len(shape) == 2 else np.zeros(shape)
    return ModelParams.from_named(named)


def _pack(docs):
    """The packed layout of ``docs``: their concatenated ids, and lengths."""
    lengths = np.array([doc.length for doc in docs], dtype=np.intp)
    ids = np.fromiter(chain.from_iterable(doc.ids for doc in docs), np.intp, lengths.sum())
    return ids, lengths


def _packed_counts(ids, lengths, width):
    """(B, width) word counts of B packed documents whose ids are below ``width``."""
    doc = np.repeat(np.arange(len(lengths)), lengths)
    counts = np.bincount(doc * width + ids, minlength=len(lengths) * width)
    return counts.reshape(len(lengths), width).astype(np.float64)


def _restricted_words(ids, m):
    """The sorted distinct words of ``ids`` when they number at most
    ``_RESTRICTED_MAX_SHARE`` of m, else None: the encoder's choice between
    its restricted and dense first layer."""
    present = np.zeros(m, dtype=bool)
    present[ids] = True
    words = np.flatnonzero(present)
    return words if len(words) <= _RESTRICTED_MAX_SHARE * m else None


def _encoder_forward(ids, lengths, params):
    """MLP forward over the word counts of B packed documents.

    Returns mu, log_var (each (B, d)) and the caches ``(words, acts, pre)``.
    When the documents' distinct words U number at most
    ``_RESTRICTED_MAX_SHARE`` of m, the first layer is
    ``counts_U @ enc_W_0[U] + b`` over their (B, |U|) counts, ``words`` is
    U and ``acts[0]`` holds those counts; otherwise it is the dense product
    over all m columns and ``words`` is None. A row's last bits can change
    with the other documents of its block.
    """
    m = params.enc_W[0].shape[0]
    words = _restricted_words(ids, m)
    if words is not None:
        column = np.empty(m, dtype=np.intp)
        column[words] = np.arange(len(words))
        counts = _packed_counts(column[ids], lengths, len(words))
        weights = [params.enc_W[0][words], *params.enc_W[1:]]
    else:
        counts = _packed_counts(ids, lengths, m)
        weights = params.enc_W
    acts = [counts]
    pre = []
    h = counts
    for W, b in zip(weights, params.enc_b):
        a = h @ W + b
        pre.append(a)
        h = relu(a)
        acts.append(h)
    mu = h @ params.W_mu + params.b_mu
    log_var = h @ params.W_logvar + params.b_logvar
    return mu, log_var, (words, acts, pre)


def _posterior_sd(log_var, context=""):
    """exp(log_var / 2); raises ``NonFiniteGradient`` naming the encoder
    log-variance, with ``context`` in its message, when an entry is not
    finite or so large that its ``exp`` would overflow."""
    if not np.isfinite(log_var).all():
        raise NonFiniteGradient(
            "encoder log-variance", context=context, detail="an entry is not finite"
        )
    if log_var.max() > _LOG_FLOAT_MAX:
        raise NonFiniteGradient(
            "encoder log-variance",
            context=context,
            detail=f"entry {log_var.max():.6g} exceeds log(float64 max) = "
            f"{_LOG_FLOAT_MAX:.6g}, where exp overflows",
        )
    return np.exp(0.5 * log_var)


def encode_docs(docs, params, config):
    """Posterior means and log-variances, each (N, d), of N documents, in
    blocks of ``_ENCODER_BLOCK`` consecutive documents; a block that takes
    the dense first layer (see ``_encoder_forward``) is widened to
    ``_ROW_BLOCK`` documents, whose wider GEMMs run faster per row."""
    return _encode_packed(*_pack(docs), params, config)


def _encode_packed(ids, lengths, params, config):
    """``encode_docs`` of the packed documents ``ids`` and ``lengths``."""
    n = len(lengths)
    t_end = np.cumsum(lengths)
    mu = np.empty((n, config.d))
    log_var = np.empty_like(mu)
    a = 0
    while a < n:
        t0 = t_end[a] - lengths[a]
        b = min(a + _ENCODER_BLOCK, n)
        if _restricted_words(ids[t0 : t_end[b - 1]], config.m) is None:
            b = min(a + _ROW_BLOCK, n)
        mu[a:b], log_var[a:b], _ = _encoder_forward(ids[t0 : t_end[b - 1]], lengths[a:b], params)
        a = b
    return mu, log_var


def encode(doc, params, config):
    """Mean and log-variance, each (d,), of the posterior q(z|w) from the
    document's bag-of-words counts."""
    if doc.length == 0:
        raise EmptyDocument("cannot encode an empty document")
    mu, log_var = encode_docs([doc], params, config)
    return mu[0], log_var[0]


def _local_contexts(ids, lengths, params, config):
    """Local context vectors of concatenated documents of ``lengths`` tokens.

    Returns H (T, d) and the (T, k) window-source index: column ``k - o`` of
    row t holds t - o while that position lies in t's document, and T
    otherwise. H sums the local embeddings of the window's words, farthest
    first; an empty slot reads word m, a zero row appended to V_local (a
    (T + 1, d) copy of the rows to read would raise the peak memory).
    """
    ids = np.asarray(ids, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    T = len(ids)
    doc_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    source = np.arange(T)[:, None] - np.arange(config.k, 0, -1)
    source[source < doc_start[:, None]] = T
    table = np.concatenate([params.V_local, np.zeros((1, config.d))])
    summed = np.zeros((T, config.d))
    for column in np.append(ids, config.m)[source].T:
        summed += table[column]
    return sigmoid(summed + params.c_local), source


def _logsumexp_rows(logits):
    """Stable log-sum-exp of each row of a 2-D array."""
    shift = logits.max(axis=1, keepdims=True)
    return np.log(np.exp(logits - shift).sum(axis=1)) + shift[:, 0]


def _bag_of_words_log_likelihoods(logits, counts, length):
    """nvdm log-likelihoods of the rows of ``logits``, and their log-sum-exps.

    Every position of a document shares the logits of its row, so
    ``log p = counts . logits - length * lse(logits)``.
    """
    lse = _logsumexp_rows(logits)
    return np.vecdot(logits, counts) - length * lse, lse


def _doc_blocks(lengths, samples):
    """(first, stop) ranges of consecutive documents, each with at most
    ``_ROW_BLOCK`` positions and ``_ROW_BLOCK`` z rows; a document over
    either limit is a block of its own."""
    blocks = []
    first = positions = rows = 0
    for i, (length, s) in enumerate(zip(lengths, samples)):
        if i > first and (positions + length > _ROW_BLOCK or rows + s > _ROW_BLOCK):
            blocks.append((first, i))
            first, positions, rows = i, 0, 0
        positions += length
        rows += s
    blocks.append((first, len(lengths)))
    return blocks


def _packed_log_likelihoods(ids, lengths, Z, samples, params, config):
    """log p(doc | z) for every row of Z, over concatenated documents.

    ``ids`` holds documents of ``lengths`` tokens back to back, and document
    i owns the next ``samples[i]`` rows of Z. Documents are scored in the
    blocks of ``_doc_blocks``, and a row's last bits can change with the
    other documents of its block.

    In savae mode every logit splits into a sample part and a position
    part, ``logits[s, t] = z_part[s] + pos_part[t]`` with
    ``z_part = Z X_z^T + b`` and ``pos_part = H X_local^T``, so with the
    row maxima ``zmax[s]`` and ``pmax[t]`` as shifts

        sum_j exp(logits[s, t, j] - zmax[s] - pmax[t])
            = (exp(z_part - zmax) @ exp(pos_part - pmax).T)[s, t]:

    a block takes its z parts and its position parts from one GEMM each,
    exps them in place, and each document's S x l softmax normalisers come
    from one (S, m) x (m, l) GEMM; the (S, l, m) logits are never formed.
    The shared shifts can underflow the product for a pair whose two
    argmaxes disagree by hundreds of nats; those pairs, and only those,
    are recomputed by the direct log-sum-exp over their m logits.

    In nvdm mode the position dimension collapses, so the likelihood
    accumulates through word counts; this makes the result exactly
    invariant to permutations of a document's ids.
    """
    ids = np.asarray(ids, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    samples = np.asarray(samples, dtype=np.intp)
    m, d = config.m, config.d
    t_start = np.cumsum(lengths) - lengths
    z_start = np.cumsum(samples) - samples
    blocks = _doc_blocks(lengths, samples)
    rows_max = max(samples[a:b].sum() for a, b in blocks)
    # the GEMMs run faster on a contiguous copy of X^T
    X_T = np.ascontiguousarray(params.X.T)
    X_z_T = X_T[:d]
    z_part_buf = np.empty((rows_max, m))
    out = np.empty(len(Z))
    if config.mode == SAVAE:
        H, _ = _local_contexts(ids, lengths, params, config)
        X_local_T = X_T[d:]
        pos_part_buf = np.empty((max(lengths[a:b].sum() for a, b in blocks), m))
    f64 = np.finfo(np.float64)
    for a, b in blocks:
        r0, r1 = z_start[a], z_start[b - 1] + samples[b - 1]
        t0, t1 = t_start[a], t_start[b - 1] + lengths[b - 1]
        z_part = np.matmul(Z[r0:r1], X_z_T, out=z_part_buf[: r1 - r0])
        z_part += params.b  # rows * m adds here, positions * m on pos_part
        targets = ids[t0:t1]
        if config.mode == NVDM:
            counts = _packed_counts(targets, lengths[a:b], m)
            out[r0:r1] = _bag_of_words_log_likelihoods(
                z_part,
                np.repeat(counts, samples[a:b], axis=0),
                np.repeat(lengths[a:b], samples[a:b]),
            )[0]
            continue
        pos_part = np.matmul(H[t0:t1], X_local_T, out=pos_part_buf[: t1 - t0])
        # pair (s, t) of each document at row-major offsets within the block:
        # z row s of the block owns the next ``row_len[s]`` pairs from row_first[s]
        row_len = np.repeat(lengths[a:b], samples[a:b])
        row_first = np.cumsum(row_len) - row_len
        pair_z = np.repeat(np.arange(r1 - r0), row_len)
        pair_t = np.arange(len(pair_z)) + np.repeat(
            np.repeat(t_start[a:b] - t0, samples[a:b]) - row_first, row_len
        )
        # the picked logits, gathered before both parts become their exps
        picked = np.take(z_part, pair_z * m + targets[pair_t])
        picked += pos_part[np.arange(t1 - t0), targets][pair_t]
        zmax = z_part.max(axis=1)
        pmax = pos_part.max(axis=1)
        np.exp(np.subtract(z_part, zmax[:, None], out=z_part), out=z_part)
        np.exp(np.subtract(pos_part, pmax[:, None], out=pos_part), out=pos_part)
        sums = np.empty(len(pair_z))
        for i in range(a, b):
            zs = z_start[i] - r0
            ts = t_start[i] - t0
            pairs = sums[row_first[zs] : row_first[zs] + samples[i] * lengths[i]]
            np.matmul(
                z_part[zs : zs + samples[i]],
                pos_part[ts : ts + lengths[i]].T,
                out=pairs.reshape(samples[i], lengths[i]),
            )
        shift = zmax[pair_z] + pmax[pair_t]
        # Each of the m products exp(a_j) * exp(b_j) loses at most tiny to
        # underflow, even where subnormals are flushed to zero, so a sum of
        # at least m * tiny / eps has lost at most one ulp. Smaller sums mean
        # a term far below the pair's true maximum carried the shifts; redo
        # them.
        low = np.flatnonzero(sums < m * f64.tiny / f64.eps)
        if len(low):
            sums[low] = 1.0
            z_rows = Z[r0 + pair_z[low]] @ X_z_T + params.b
            shift[low] = _logsumexp_rows(z_rows + H[t0 + pair_t[low]] @ X_local_T)
        picked -= np.log(sums) + shift
        out[r0:r1] = np.add.reduceat(picked, row_first)
    return out


def elbo_estimates(docs, params, config, eps_list):
    """Monte-Carlo ELBO of each document; ``eps_list[i]`` holds document i's
    (S_i, d) standard-normal draws. The documents are packed once; the
    posteriors come from one ``_encode_packed`` and the likelihoods from one
    ``_packed_log_likelihoods``.
    Raises ``NonFiniteGradient`` naming the encoder log-variance, in context
    "evaluation", when an entry would overflow ``exp``."""
    if len(eps_list) != len(docs):
        raise ValueError(f"{len(docs)} documents but {len(eps_list)} eps arrays")
    if not docs:
        return []
    if any(doc.length == 0 for doc in docs):
        raise EmptyDocument("cannot evaluate an empty document")
    ids, lengths = _pack(docs)
    mu, log_var = _encode_packed(ids, lengths, params, config)
    sd = _posterior_sd(log_var, context="evaluation")
    kl = kl_standard_normal(mu, log_var)
    samples = [len(eps) for eps in eps_list]
    owner = np.repeat(np.arange(len(docs)), samples)
    Z = mu[owner] + sd[owner] * np.concatenate(eps_list)
    ll = _packed_log_likelihoods(ids, lengths, Z, samples, params, config)
    first = np.cumsum(samples) - samples
    return [
        ElboEstimate(float(ll[f : f + s].mean()), float(kl_i))
        for f, s, kl_i in zip(first, samples, kl)
    ]


def elbo(doc, params, config, rng, samples=1):
    """Monte-Carlo ELBO with ``samples`` reparameterized posterior draws."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return elbo_estimates([doc], params, config, [rng.normal((samples, config.d))])[0]


def _local_softmax_blocks(zl, H, X_local, targets, lengths):
    """Savae decoder softmax and its logit gradients, ``_ROW_BLOCK`` rows at a time.

    Position t of the concatenated documents has the logits
    ``zl[doc(t)] + H[t] X_local^T``. A block of rows takes them from one
    GEMM, ``[H, E] [X_local, zl^T]^T``, where E is the one-hot (rows, docs)
    indicator of the documents in the block, into one reused buffer. The
    buffer becomes the block's ``dlogits = onehot - P`` in place, and one
    GEMM ``[H, E]^T dlogits`` gives both the block's share of
    ``dX_local^T`` and the rows of G, the per-document sums of dlogits.
    Returns the per-document log-likelihoods of ``targets``, G (shape of
    ``zl``), ``dX_local`` and ``dH``; no (T, m) array is formed.
    """
    T, d = H.shape
    pos_doc = np.repeat(np.arange(len(lengths)), lengths)
    logp = np.empty(T)
    G = np.zeros_like(zl)
    dX_local_T = np.zeros((d, zl.shape[1]))
    dH = np.empty_like(H)
    buf = np.empty((min(_ROW_BLOCK, T), zl.shape[1]))
    # decoder weights of a block: X_local^T, then the z parts of its documents
    W = np.empty((d + min(len(zl), _ROW_BLOCK), zl.shape[1]))
    W[:d] = X_local.T
    for start in range(0, T, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, T)
        rows = np.arange(stop - start)
        first = pos_doc[start]
        docs = pos_doc[start:stop] - first
        n_docs = docs[-1] + 1
        C = np.zeros((stop - start, d + n_docs))
        C[:, :d] = H[start:stop]
        C[rows, d + docs] = 1.0
        W[d : d + n_docs] = zl[first : first + n_docs]
        block = np.matmul(C, W[: d + n_docs], out=buf[: stop - start])
        picked = block[rows, targets[start:stop]]
        shift = block.max(axis=1)
        block -= shift[:, None]
        np.exp(block, out=block)
        sums = block.sum(axis=1)
        logp[start:stop] = picked - shift - np.log(sums)
        block *= (-1.0 / sums)[:, None]
        block[rows, targets[start:stop]] += 1.0
        back = C.T @ block  # (d + n_docs, m)
        dX_local_T += back[:d]
        G[first : first + n_docs] += back[d:]
        np.matmul(block, X_local, out=dH[start:stop])
    return np.bincount(pos_doc, weights=logp, minlength=len(zl)), G, dX_local_T.T, dH


def batch_elbo_gradients(docs, params, config, eps):
    """Summed single-sample ELBO gradients over a batch of documents.

    ``eps`` has shape (B, d), one fixed standard-normal draw per document.
    Returns (per-doc ElboEstimate list, grads dict summed over the batch).
    The maximization objective's gradient is returned directly (ascent
    direction).

    Every logit is ``zl[doc(t)] + H[t] X_local^T`` with the (B, m) z part
    ``zl = Z X_z^T + b``, so the z half of the decoder's gradients needs
    only G, the per-document sums of the logit gradients: ``dX_z = G^T Z``,
    ``dZ = G X_z`` and ``db = G.sum(0)``. In nvdm mode all positions of a
    document share their logits and G comes from word counts; in savae
    mode ``_local_softmax_blocks`` yields it block by block.

    Raises ``NonFiniteGradient`` naming the encoder log-variance when an
    entry is not finite or so large that its ``exp`` would overflow.
    """
    B = len(docs)
    if B == 0:
        raise ValueError("empty batch")
    for doc in docs:
        if doc.length == 0:
            raise EmptyDocument("empty document in training batch")
    m, d = config.m, config.d
    eps = np.asarray(eps, dtype=np.float64)

    targets, lengths = _pack(docs)
    mu, log_var, (words, acts, pre) = _encoder_forward(targets, lengths, params)
    sd = _posterior_sd(log_var)
    Z = mu + sd * eps  # (B, d)

    X_z = params.X[:, :d]
    zl = Z @ X_z.T + params.b  # (B, m)
    grads = OrderedDict()
    if config.mode == SAVAE:
        H, source = _local_contexts(targets, lengths, params, config)  # (T, d)
        X_local = params.X[:, d:]
        recon, G, dX_local, dH = _local_softmax_blocks(zl, H, X_local, targets, lengths)
        grads["X"] = np.concatenate([G.T @ Z, dX_local], axis=1)
        dS = dH * H * (1.0 - H)
        grads["c_local"] = dS.sum(axis=0)
        # the word at position u is in the windows of the next k positions
        # of its document; R[u] sums their dS, nearest first, and row T takes
        # the empty slots (within a column, T is the only repeated index).
        # V_local's gradient sums R by word, in one bincount over (word,
        # column) bins, left unnamed so that they are freed before the
        # encoder's backward, where the step's memory peaks.
        R = np.zeros((len(targets) + 1, d))
        for column in source.T[::-1]:
            R[column] += dS
        grads["V_local"] = np.bincount(
            (targets[:, None] * d + np.arange(d)).ravel(), R[:-1].ravel(), m * d
        ).reshape(m, d)
    else:
        # a dense encoder block already holds the (B, m) counts
        counts = acts[0] if words is None else _packed_counts(targets, lengths, m)
        recon, lse = _bag_of_words_log_likelihoods(zl, counts, lengths)
        G = counts - lengths[:, None] * np.exp(zl - lse[:, None])
        grads["X"] = G.T @ Z
    grads["b"] = G.sum(axis=0)
    dZ = G @ X_z

    kl = kl_standard_normal(mu, log_var)  # (B,)
    estimates = [ElboEstimate(float(r), float(k_)) for r, k_ in zip(recon, kl)]

    dmu = dZ - mu
    dlog_var = dZ * 0.5 * sd * eps - 0.5 * np.expm1(log_var)

    h_top = acts[-1]
    grads["W_mu"] = h_top.T @ dmu
    grads["b_mu"] = dmu.sum(axis=0)
    grads["W_logvar"] = h_top.T @ dlog_var
    grads["b_logvar"] = dlog_var.sum(axis=0)

    dh = dmu @ params.W_mu.T + dlog_var @ params.W_logvar.T
    for i in range(len(params.enc_W) - 1, -1, -1):
        da = dh * (pre[i] > 0)
        grads[f"enc_W_{i}"] = acts[i].T @ da
        grads[f"enc_b_{i}"] = da.sum(axis=0)
        if i > 0:
            dh = da @ params.enc_W[i].T
    if words is not None:  # the first layer read only rows U of enc_W_0
        dW = np.zeros_like(params.enc_W[0])
        dW[words] = grads["enc_W_0"]
        grads["enc_W_0"] = dW

    return estimates, OrderedDict((name, grads[name]) for name in expected_shapes(config))
