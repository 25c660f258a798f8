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

- Evaluation scores each document under S posterior samples, an (N, S, d)
  draw, on the packed layout that training uses. Groups of
  ``max(1, _ROW_BLOCK // S)`` documents form their z from their posterior
  means, sds and draws and take their z parts from one GEMM; in savae
  mode each group builds its own local contexts and runs its positions
  in training's slices of ``_ROW_BLOCK``, and a document's S x l softmax
  normalisers come from GEMMs of exponentials, not an (S, l, m) logit
  tensor. The bound's memory grows with one group's tokens and the one
  (N, S, d) draw array, not with the split (see ``_packed_log_likelihoods``).
- Training (``batch_elbo_gradients``) needs the z half's gradients only
  through their per-document sums, a (B, m) array. The savae local channel
  runs over blocks of ``_ROW_BLOCK`` positions, each with its own local
  contexts, softmax and backward in one reused buffer, so a step holds no
  array that grows with a batch's T tokens beyond (T,) ones. Gradients go
  in place into one dict of arrays that a training run passes to every
  step.
- In nvdm mode the position part is absent, so both go through word
  counts (``_bag_of_words_log_likelihoods``) and are exactly invariant to the order
  of a document's words.
- Every softmax normaliser shifts a row by its exact maximum. One helper,
  ``_exp_rows_in_place``, exponentiates rows in place in cache-sized
  blocks: the bound's z and position parts in savae mode, and through
  ``_logsumexp_rows`` its nvdm z parts, whose count dot products come
  first, so no group copies its z parts. nvdm training hands it a copy of
  its (B, m) z parts, which its gradients read afterwards.

Training, evaluation and representation share the packed layout and one
encoder forward (``_encoder_forward``); training and evaluation also share
one log-variance check (``_posterior_sd``), one local channel
(``_local_contexts``, built one block of positions at a time by both) and
one KL (``numerics.kl_standard_normal``). The
encoder runs over blocks of packed documents: a whole batch in training,
``_ENCODER_BLOCK`` documents in ``encode_docs``. A block whose distinct
words are few next to m multiplies only their rows of the first layer's
weights; a block that holds most of the vocabulary takes the dense
product, which is faster there.
"""

from collections import OrderedDict
from dataclasses import dataclass, fields
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

# rows per block: of the savae softmax's position slices, in training and in
# the bound, of the bound's z parts and of the encoder's dense blocks
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

# rows per block of _exp_rows_in_place: at m = 2000 a block of 32 rows is
# 512 kB, inside a core's 2 MB L2 on a 2-vCPU Xeon VM, so its exp pass
# rereads what its max pass left there. There, with one BLAS thread, a
# (240, 2000) log-sum-exp took 1.47-1.52 ms in blocks of 32, 1.54-1.58 in
# blocks of 16, 1.67-1.72 in blocks of 8 and 1.78-1.82 with the whole
# array's max, copy and exp.
_EXP_ROWS = 32

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
        """Inverse of ``dataclasses.asdict``; absent fields take their defaults,
        and other keys, such as the ``sample_count_*`` of older checkpoints,
        are ignored. Raises ValueError if m, d, k or a layer width is not an
        int."""
        kwargs = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        ints = [kwargs[key] for key in ("m", "d", "k") if key in kwargs]
        ints += kwargs.get("encoder_layers", ())
        if not all(type(v) is int for v in ints):
            raise ValueError(f"m, d, k and encoder_layers must be integers, got {ints}")
        return cls(**kwargs)


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
        u = rng.uniform(shape)
        u *= 2.0
        u -= 1.0
        u *= np.sqrt(6.0 / (shape[0] + shape[1]))
        return u

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

    Returns mu, log_var (each (B, d)) and the caches ``(words, acts)``.
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
    h = counts
    for W, b in zip(weights, params.enc_b):
        a = h @ W + b
        h = relu(a)
        acts.append(h)
    mu = h @ params.W_mu + params.b_mu
    log_var = h @ params.W_logvar + params.b_logvar
    return mu, log_var, (words, acts)


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


def _local_contexts(ids, doc_start, t0, t1, params, config):
    """Local context vectors H, shape (t1 - t0, d), of positions t0..t1-1 of
    packed documents: ``ids`` holds them back to back and ``doc_start[t]``
    is the first position of t's document.

    Row t sums the local embeddings of the k words before t in its document,
    farthest first, skipping the window slots before the document, then
    adds c_local and squashes. Each row is computed on its own, so any
    split of [0, T) into ranges gives the rows of the whole batch. Training
    and the bound build them one block of positions at a time, so neither
    holds an array that grows with the tokens beyond (T,) index arrays.
    """
    t = np.arange(t0, t1)
    summed = np.zeros((t1 - t0, config.d))
    for o in range(config.k, 0, -1):
        inside = (t - o >= doc_start[t0:t1])[:, None]
        np.add(summed, params.V_local[ids[np.maximum(t - o, 0)]], out=summed, where=inside)
    summed += params.c_local
    return sigmoid(summed)


def _exp_rows_in_place(rows):
    """Overwrite each row of the C-contiguous 2-D ``rows`` with
    ``exp(row - max(row))``, ``_EXP_ROWS`` rows at a time, and return the
    row maxima."""
    maxima = np.empty(len(rows))
    for r0 in range(0, len(rows), _EXP_ROWS):
        block, shift = rows[r0 : r0 + _EXP_ROWS], maxima[r0 : r0 + _EXP_ROWS]
        np.max(block, axis=1, out=shift)
        np.exp(np.subtract(block, shift[:, None], out=block), out=block)
    return maxima


def _logsumexp_rows(logits):
    """Stable log-sum-exp along the last axis of the C-contiguous ``logits``,
    which it overwrites with their exps, each row shifted by its maximum."""
    rows = logits.reshape(-1, logits.shape[-1])
    shift = _exp_rows_in_place(rows)
    return (np.log(rows.sum(axis=1)) + shift).reshape(logits.shape[:-1])


def _bag_of_words_log_likelihoods(logits, counts, length):
    """nvdm log-likelihoods of the rows of ``logits``, and their log-sum-exps.

    Every position of a document shares the logits of its row, so
    ``log p = counts . logits - length * lse(logits)``. The count dot
    products come first; then ``_logsumexp_rows`` overwrites ``logits``
    with their shifted exps, so a caller that reads them later passes a
    copy.
    """
    dots = np.vecdot(logits, counts)
    lse = _logsumexp_rows(logits)
    return dots - length * lse, lse


def _packed_log_likelihoods(ids, lengths, mu, sd, eps, params, config):
    """log p(doc | z), shape (N, S), of each of N concatenated documents
    under its S draws ``z = mu[i] + sd[i] * eps[i, s]``; ``mu`` and ``sd``
    are (N, d), ``eps`` is (N, S, d).

    ``ids`` holds documents of ``lengths`` tokens back to back. Documents
    are scored in groups of ``max(1, _ROW_BLOCK // S)`` consecutive ones,
    each with its own draws Z, formed from its rows of ``mu``, ``sd`` and
    ``eps``, its own local contexts and its positions in slices of
    ``_ROW_BLOCK``, as a training batch runs; a row's last bits can change
    with the other documents of its group. No m-wide array has more than
    ``max(S, _ROW_BLOCK)`` rows, however long a document is, and no array
    of the draws other than ``eps`` spans the split.

    In savae mode every logit splits into a sample part and a position
    part, ``logits[s, t] = z_part[s] + pos_part[t]`` with
    ``z_part = Z X_z^T + b`` and ``pos_part = H X_local^T``, so with the
    row maxima ``zmax[s]`` and ``pmax[t]`` as shifts

        sum_j exp(logits[s, t, j] - zmax[s] - pmax[t])
            = (exp(z_part - zmax) @ exp(pos_part - pmax).T)[s, t]:

    a group takes its z parts from one GEMM and a slice its position parts
    from another, each exponentiated in place by ``_exp_rows_in_place``
    (which overwrites them), and each piece of a document
    in a slice takes its S x l softmax normalisers from one (S, m) x (m, l)
    GEMM; the (S, l, m) logits are never formed. The shared shifts can
    underflow the product for a pair whose two argmaxes disagree by
    hundreds of nats; those pairs, and only those, are recomputed by the
    direct log-sum-exp over their m logits, ``_ROW_BLOCK`` pairs at a time.

    In nvdm mode the position dimension collapses, so the likelihood
    accumulates through word counts; this makes the result exactly
    invariant to permutations of a document's ids. A group's z parts are
    overwritten by ``_bag_of_words_log_likelihoods``, so the group makes
    no copy of them.
    """
    ids = np.asarray(ids, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    m, d = config.m, config.d
    N, S = eps.shape[:2]
    t_edge = np.concatenate([[0], np.cumsum(lengths)])  # document i spans t_edge[i : i + 2]
    per_group = max(1, _ROW_BLOCK // S)
    # the GEMMs run faster on a contiguous copy of X^T
    X_T = np.ascontiguousarray(params.X.T)
    X_z_T = X_T[:d]
    z_part_buf = np.empty((min(per_group, N) * S, m))
    out = np.empty((N, S))
    if config.mode == SAVAE:
        X_local_T = X_T[d:]
        pos_part_buf = np.empty((min(_ROW_BLOCK, len(ids)), m))
    f64 = np.finfo(np.float64)
    for a in range(0, N, per_group):
        b = min(a + per_group, N)
        nb = b - a
        targets = ids[t_edge[a] : t_edge[b]]
        edge = t_edge[a : b + 1] - t_edge[a]  # the group's document j spans edge[j : j + 2]
        Z = mu[a:b, None] + sd[a:b, None] * eps[a:b]  # (nb, S, d)
        z_part = np.matmul(Z.reshape(nb * S, d), X_z_T, out=z_part_buf[: nb * S])
        z_part += params.b  # rows * m adds here, positions * m on pos_part
        if config.mode == NVDM:
            counts = _packed_counts(targets, lengths[a:b], m)
            out[a:b] = _bag_of_words_log_likelihoods(
                z_part.reshape(nb, S, m), counts[:, None], lengths[a:b, None]
            )[0]
            continue
        doc = np.repeat(np.arange(nb), lengths[a:b])  # the group's document of each position
        # the (S, positions) picked logits, gathered before both parts become their exps
        picked = z_part.reshape(nb, S, m)[doc, :, targets].T
        zmax = _exp_rows_in_place(z_part)
        for s0 in range(0, len(targets), _ROW_BLOCK):
            s1 = min(s0 + _ROW_BLOCK, len(targets))
            H = _local_contexts(targets, edge[doc], s0, s1, params, config)
            pos_part = np.matmul(H, X_local_T, out=pos_part_buf[: s1 - s0])
            picked[:, s0:s1] += pos_part[np.arange(s1 - s0), targets[s0:s1]]
            pmax = _exp_rows_in_place(pos_part)
            sums = np.empty((S, s1 - s0))
            cut = np.clip(edge, s0, s1) - s0  # document j's piece: cut[j : j + 2]
            for j in range(doc[s0], doc[s1 - 1] + 1):
                piece = slice(cut[j], cut[j + 1])
                np.matmul(z_part[j * S : (j + 1) * S], pos_part[piece].T, out=sums[:, piece])
            shift = zmax.reshape(nb, S)[doc[s0:s1]].T + pmax
            # Each of the m products exp(a_j) * exp(b_j) loses at most tiny to
            # underflow, even where subnormals are flushed to zero, so a sum of
            # at least m * tiny / eps has lost at most one ulp. Smaller sums mean
            # a term far below the pair's true maximum carried the shifts; redo
            # them.
            low_s, low_t = np.nonzero(sums < m * f64.tiny / f64.eps)
            sums[low_s, low_t] = 1.0
            for c in range(0, len(low_s), _ROW_BLOCK):
                ls, lt = low_s[c : c + _ROW_BLOCK], low_t[c : c + _ROW_BLOCK]
                z_rows = Z[doc[s0 + lt], ls] @ X_z_T + params.b
                shift[ls, lt] = _logsumexp_rows(z_rows + H[lt] @ X_local_T)
            picked[:, s0:s1] -= np.log(sums) + shift
        out[a:b] = np.add.reduceat(picked, edge[:-1], axis=1).T
    return out


def elbo_estimates(docs, params, config, eps):
    """Monte-Carlo ELBO of each document; ``eps`` holds the (N, S, d)
    standard-normal draws of N documents, S >= 1 for each. The documents
    are packed once; the posteriors come from one ``_encode_packed`` and
    the likelihoods from one ``_packed_log_likelihoods``.
    Raises ValueError when ``eps`` has another shape, and
    ``NonFiniteGradient`` naming the encoder log-variance, in context
    "evaluation", when an entry would overflow ``exp``."""
    eps = np.asarray(eps)
    if eps.ndim != 3 or eps.shape[0] != len(docs) or eps.shape[1] < 1 or eps.shape[2] != config.d:
        raise ValueError(f"eps must have shape ({len(docs)}, S >= 1, {config.d}), got {eps.shape}")
    if not docs:
        return []
    if any(doc.length == 0 for doc in docs):
        raise EmptyDocument("cannot evaluate an empty document")
    ids, lengths = _pack(docs)
    mu, log_var = _encode_packed(ids, lengths, params, config)
    sd = _posterior_sd(log_var, context="evaluation")
    kl = kl_standard_normal(mu, log_var)
    ll = _packed_log_likelihoods(ids, lengths, mu, sd, eps, params, config)
    return [ElboEstimate(float(r), float(kl_i)) for r, kl_i in zip(ll.mean(axis=1), kl)]


def elbo(doc, params, config, rng, samples=1):
    """Monte-Carlo ELBO with ``samples`` reparameterized posterior draws."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return elbo_estimates([doc], params, config, rng.normal((1, samples, config.d)))[0]


def _local_channel_gradients(Z, zl, targets, lengths, params, config, grad):
    """The savae half of ``batch_elbo_gradients``: writes the gradients of X,
    c_local and V_local into ``grad(name)`` and returns the per-document
    log-likelihoods and G.

    Position t has the logits ``zl[doc(t)] + H[t] X_local^T``. Positions run
    in blocks of ``_ROW_BLOCK``, each with its own local contexts H. A block
    takes its logits from one GEMM, ``[H, E] [X_local, zl^T]^T``, where E is
    the one-hot (rows, docs) indicator of its documents, into one reused
    buffer. The buffer becomes the block's ``dlogits = onehot - P`` in
    place, and one GEMM ``[H, E]^T dlogits`` gives both the block's share of
    ``dX_local^T`` and the rows of G, the per-document sums of dlogits. The
    block's ``dS = (dlogits X_local) * H * (1 - H)`` adds its share of the
    c_local and V_local gradients; at most k dS rows wait for the next
    block. So no array but (T,) ones grows with the batch's T tokens.
    """
    m, d, k = config.m, config.d, config.k
    T = len(targets)
    X_local = params.X[:, d:]
    pos_doc = np.repeat(np.arange(len(lengths)), lengths)
    doc_start = (np.cumsum(lengths) - lengths)[pos_doc]
    starts = np.arange(0, T, _ROW_BLOCK)
    most_docs = (pos_doc[np.minimum(starts + _ROW_BLOCK, T) - 1] - pos_doc[starts]).max() + 1
    logp = np.empty(T)
    G = np.zeros_like(zl)
    dX_local_T = np.zeros((d, m))
    buf = np.empty((min(_ROW_BLOCK, T), m))
    # decoder weights of a block: X_local^T, then the z parts of its documents
    W = np.empty((d + most_docs, m))
    W[:d] = X_local.T
    back_buf = np.empty_like(W)
    dc, dV = grad("c_local"), grad("V_local")
    dV[:] = 0.0
    # numpy sums a (T, 1) array pairwise and wider ones row after row, so at
    # d = 1 the dS rows wait for one sum at the end
    column = np.empty((T, 1)) if d == 1 else None
    carry = np.empty((0, d))  # dS rows whose window sums wait for later ones
    for start in starts:
        stop = min(start + _ROW_BLOCK, T)
        rows = np.arange(stop - start)
        first = pos_doc[start]
        docs = pos_doc[start:stop] - first
        n_docs = docs[-1] + 1
        H = _local_contexts(targets, doc_start, start, stop, params, config)
        C = np.zeros((stop - start, d + n_docs))
        C[:, :d] = H
        C[rows, d + docs] = 1.0
        W[d : d + n_docs] = zl[first : first + n_docs]
        block = np.matmul(C, W[: d + n_docs], out=buf[: stop - start])
        picked = block[rows, targets[start:stop]]
        shift = _exp_rows_in_place(block)
        sums = block.sum(axis=1)
        logp[start:stop] = picked - shift - np.log(sums)
        block *= (-1.0 / sums)[:, None]
        block[rows, targets[start:stop]] += 1.0
        back = np.matmul(C.T, block, out=back_buf[: d + n_docs])  # (d + n_docs, m)
        dX_local_T += back[:d]
        G[first : first + n_docs] += back[d:]
        # dS = dH * H * (1 - H), in that order, in dH's memory; H becomes 1 - H
        dS = block @ X_local
        dS *= H
        dS *= np.subtract(1.0, H, out=H)
        if column is not None:
            column[start:stop] = dS
        else:
            np.add.reduce(np.vstack([dc[None], dS]) if start else dS, axis=0, out=dc)
        # the word at u is in the windows of the next k positions of its
        # document (u + o is when doc_start[u + o] <= u): R[u] sums their dS,
        # nearest first, for the rows whose k followers are in hand, and
        # V_local's gradient adds R by word in position order.
        D = np.concatenate([carry, dS])
        p0 = start - len(carry)
        done = stop if stop == T else max(p0, stop - k)
        u = np.arange(p0, done)
        R = np.zeros((done - p0, d))
        for o in range(1, k + 1):
            n = max(0, min(done, stop - o) - p0)
            inside = (doc_start[u[:n] + o] <= u[:n])[:, None]
            np.add(R[:n], D[o : o + n], out=R[:n], where=inside)
        np.add.at(dV.reshape(-1), (targets[p0:done, None] * d + np.arange(d)).ravel(), R.ravel())
        carry = D[done - p0 :]
    if column is not None:
        np.sum(column, axis=0, out=dc)
    dX = grad("X")
    np.matmul(G.T, Z, out=dX[:, :d])
    dX[:, d:] = dX_local_T.T
    return np.bincount(pos_doc, weights=logp, minlength=len(zl)), G


def batch_elbo_gradients(docs, params, config, eps, out=None):
    """Summed single-sample ELBO gradients over a batch of documents.

    ``eps`` has shape (B, d), one fixed standard-normal draw per document.
    Returns (per-doc ElboEstimate list, grads dict summed over the batch).
    The maximization objective's gradient is returned directly (ascent
    direction).

    Each gradient is written in place into ``out``'s array of its name,
    created there on first use (``None``: a fresh dict); a training run
    passes one dict to every step. The returned dict holds those arrays.

    Every logit is ``zl[doc(t)] + H[t] X_local^T`` with the (B, m) z part
    ``zl = Z X_z^T + b``, so the z half of the decoder's gradients needs
    only G, the per-document sums of the logit gradients: ``dX_z = G^T Z``,
    ``dZ = G X_z`` and ``db = G.sum(0)``. In nvdm mode all positions of a
    document share their logits and G comes from word counts; in savae
    mode ``_local_channel_gradients`` yields it.

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
    shapes = expected_shapes(config)
    out = {} if out is None else out

    def grad(name):
        # created at its first write: a set made before the first step put
        # each step's temporaries at the heap top, faulted in again each step
        if name not in out:
            out[name] = np.empty(shapes[name])
        return out[name]

    targets, lengths = _pack(docs)
    mu, log_var, (words, acts) = _encoder_forward(targets, lengths, params)
    sd = _posterior_sd(log_var)
    Z = mu + sd * eps  # (B, d)

    X_z = params.X[:, :d]
    zl = Z @ X_z.T + params.b  # (B, m)
    if config.mode == SAVAE:
        recon, G = _local_channel_gradients(Z, zl, targets, lengths, params, config, grad)
    else:
        # a dense encoder block already holds the (B, m) counts
        counts = acts[0] if words is None else _packed_counts(targets, lengths, m)
        recon, lse = _bag_of_words_log_likelihoods(zl.copy(), counts, lengths)
        G = counts - lengths[:, None] * np.exp(zl - lse[:, None])
        np.matmul(G.T, Z, out=grad("X"))
    np.sum(G, axis=0, out=grad("b"))
    dZ = G @ X_z

    kl = kl_standard_normal(mu, log_var)  # (B,)
    estimates = [ElboEstimate(float(r), float(k_)) for r, k_ in zip(recon, kl)]

    dmu = dZ - mu
    dlog_var = dZ * 0.5 * sd * eps - 0.5 * np.expm1(log_var)

    h_top = acts[-1]
    np.matmul(h_top.T, dmu, out=grad("W_mu"))
    np.sum(dmu, axis=0, out=grad("b_mu"))
    np.matmul(h_top.T, dlog_var, out=grad("W_logvar"))
    np.sum(dlog_var, axis=0, out=grad("b_logvar"))

    dh = dmu @ params.W_mu.T + dlog_var @ params.W_logvar.T
    for i in range(len(params.enc_W) - 1, -1, -1):
        da = dh * (acts[i + 1] > 0)  # relu(x) > 0 exactly where x > 0
        dW = grad(f"enc_W_{i}")
        if i == 0 and words is not None:  # the first layer read only rows U of enc_W_0
            dW[:] = 0.0
            dW[words] = acts[0].T @ da
        else:
            np.matmul(acts[i].T, da, out=dW)
        np.sum(da, axis=0, out=grad(f"enc_b_{i}"))
        if i > 0:
            dh = da @ params.enc_W[i].T

    return estimates, OrderedDict((name, out[name]) for name in shapes)
