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

- Evaluation scores a document under S posterior samples at once. In
  savae mode the S x l softmax normalisers come from one GEMM of
  exponentials rather than from an (S, l, m) logit tensor; pairs whose
  factored sum underflows are recomputed directly (see
  ``doc_log_likelihoods``).
- Training (``batch_elbo_gradients``) needs the z half's gradients only
  through their per-document sums, a (B, m) array. The savae softmax runs
  over fixed blocks of positions in one reused buffer, so no (T, m) array
  of a batch's T tokens is formed.
- In nvdm mode the position part is absent, so both go through word
  counts (``_bag_of_words_log_likelihoods``) and are exactly invariant to the order
  of a document's words.

Training and evaluation share one window builder (``_local_contexts``) and
one KL (``numerics.kl_standard_normal``).
"""

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyDocument
from .numerics import GaussianPosterior, kl_standard_normal, relu, sigmoid

__all__ = [
    "ElboEstimate",
    "ModelConfig",
    "ModelParams",
    "batch_elbo_gradients",
    "doc_log_likelihoods",
    "elbo",
    "elbo_estimates",
    "encode",
    "encode_docs",
    "init_params",
]

SAVAE = "savae"
NVDM = "nvdm"

# rows per block: of the savae training softmax, and of the encoder's GEMMs
_ROW_BLOCK = 256


@dataclass
class ModelConfig:
    mode: str
    m: int
    d: int
    k: int = 5
    encoder_layers: tuple = (500, 500)
    sample_count_eval: int = 20

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
        if self.sample_count_eval < 1:
            problems.append("sample_count_eval must be >= 1")
        if problems:
            raise ConfigError(problems)

    @property
    def decoder_dim(self):
        """Width of the vector the decoder embeddings are dotted with."""
        return 2 * self.d if self.mode == SAVAE else self.d

    def to_dict(self):
        return {
            "mode": self.mode,
            "m": self.m,
            "d": self.d,
            "k": self.k,
            "encoder_layers": list(self.encoder_layers),
            "sample_count_eval": self.sample_count_eval,
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of to_dict; ignores ``sample_count_train``, which older
        checkpoints carry (training always draws one sample)."""
        return cls(
            mode=data["mode"],
            m=data["m"],
            d=data["d"],
            k=data.get("k", 5),
            encoder_layers=tuple(data["encoder_layers"]),
            sample_count_eval=data.get("sample_count_eval", 20),
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
        return ModelParams(
            X=self.X.copy(),
            b=self.b.copy(),
            V_local=None if self.V_local is None else self.V_local.copy(),
            c_local=None if self.c_local is None else self.c_local.copy(),
            enc_W=[W.copy() for W in self.enc_W],
            enc_b=[b.copy() for b in self.enc_b],
            W_mu=self.W_mu.copy(),
            b_mu=self.b_mu.copy(),
            W_logvar=self.W_logvar.copy(),
            b_logvar=self.b_logvar.copy(),
        )

    @classmethod
    def from_named(cls, named, config):
        n_layers = len(config.encoder_layers)
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
    samples: int

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
    return ModelParams.from_named(named, config)


def bow_counts(ids, m):
    """Raw word-count vector of a document; the encoder input."""
    return np.bincount(np.asarray(ids, dtype=np.intp), minlength=m).astype(np.float64)


def _encoder_forward(counts, params):
    """MLP forward over a (B, m) count matrix; returns posterior + caches."""
    acts = [counts]
    pre = []
    h = counts
    for W, b in zip(params.enc_W, params.enc_b):
        a = h @ W + b
        pre.append(a)
        h = relu(a)
        acts.append(h)
    mu = h @ params.W_mu + params.b_mu
    log_var = h @ params.W_logvar + params.b_logvar
    return mu, log_var, acts, pre


def encode_docs(docs, params, config):
    """Posterior means and log-variances, each (N, d), of N documents, with
    ``_ROW_BLOCK`` count rows per encoder GEMM. A row's last bits can change
    with the other rows of its block."""
    mu = np.empty((len(docs), config.d))
    log_var = np.empty_like(mu)
    for start in range(0, len(docs), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        counts = np.stack([bow_counts(doc.ids, config.m) for doc in docs[rows]])
        mu[rows], log_var[rows], _, _ = _encoder_forward(counts, params)
    return mu, log_var


def encode(doc, params, config):
    """Posterior q(z|w) from the document's bag-of-words counts."""
    if doc.length == 0:
        raise EmptyDocument("cannot encode an empty document")
    mu, log_var = encode_docs([doc], params, config)
    return GaussianPosterior(mu=mu[0], log_var=log_var[0])


def _local_contexts(ids, lengths, params, config):
    """Local context vectors of concatenated documents of ``lengths`` tokens.

    Returns H (T, d) and the (T, k) validity mask of the windows; column
    ``k - o`` stands for the word ``o`` positions back, valid while it lies
    in the same document.
    """
    ids = np.asarray(ids, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    k = config.k
    doc_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    pos = np.arange(len(ids))
    mask = np.zeros((len(ids), k), dtype=bool)
    summed = np.zeros((len(ids), config.d))
    for off in range(k, 0, -1):  # mask column by column, farthest word first
        valid = pos[off:] - off >= doc_start[off:]
        mask[off:, k - off] = valid
        summed[off:] += params.V_local[ids[:-off]] * valid[:, None]
    return sigmoid(summed + params.c_local), mask


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


def doc_log_likelihoods(ids, Z, params, config):
    """log p(doc | z) for each row z of Z; returns shape (S,).

    In savae mode every logit splits into a sample part and a position
    part, ``logits[s, t] = z_part[s] + pos_part[t]`` with
    ``z_part = Z X_z^T + b`` and ``pos_part = H X_local^T``, so with the
    row maxima ``zmax[s]`` and ``pmax[t]`` as shifts

        sum_j exp(logits[s, t, j] - zmax[s] - pmax[t])
            = (exp(z_part - zmax) @ exp(pos_part - pmax).T)[s, t]:

    (S + l) * m exps and one (S, m) x (m, l) GEMM give every softmax
    normaliser, and the (S, l, m) logits are never formed. The shared
    shifts can underflow the product for a pair whose two argmaxes
    disagree by hundreds of nats; those pairs, and only those, are
    recomputed by the direct log-sum-exp over their m logits.

    In nvdm mode the position dimension collapses, so the likelihood
    accumulates through word counts; this makes the result exactly
    invariant to permutations of ids.
    """
    targets = np.asarray(ids, dtype=np.intp)
    if config.mode == NVDM:
        logits = Z @ params.X.T + params.b  # (S, m)
        return _bag_of_words_log_likelihoods(logits, bow_counts(ids, config.m), len(ids))[0]
    d = config.d
    H, _ = _local_contexts(ids, [len(ids)], params, config)
    X_local = params.X[:, d:]
    z_part = Z @ params.X[:, :d].T
    z_part += params.b  # (S, m): S * m adds here, l * m on pos_part
    pos_part = H @ X_local.T  # (l, m)
    picked = z_part[:, targets] + pos_part[np.arange(len(targets)), targets]
    zmax = z_part.max(axis=1, keepdims=True)
    pmax = pos_part.max(axis=1, keepdims=True)
    # pos_part becomes its exps in place: a fresh (l, m) array costs more
    # in page faults than the exps themselves
    np.exp(np.subtract(pos_part, pmax, out=pos_part), out=pos_part)
    sums = np.exp(z_part - zmax) @ pos_part.T  # (S, l)
    shift = zmax + pmax.T
    # Each of the m products exp(a_j) * exp(b_j) loses at most tiny to
    # underflow, even where subnormals are flushed to zero, so a sum of at
    # least m * tiny / eps has lost at most one ulp. Smaller sums mean a
    # term far below the pair's true maximum carried the shifts; redo them.
    f64 = np.finfo(np.float64)
    low = sums < config.m * f64.tiny / f64.eps
    if low.any():
        s, t = np.nonzero(low)
        sums[low] = 1.0
        shift[low] = _logsumexp_rows(z_part[s] + H[t] @ X_local.T)
    lse = np.log(sums) + shift
    return (picked - lse).sum(axis=1)


def elbo_estimates(docs, params, config, eps_list):
    """Monte-Carlo ELBO of each document; ``eps_list[i]`` holds document i's
    (S, d) standard-normal draws. The posteriors come from one ``encode_docs``."""
    if any(doc.length == 0 for doc in docs):
        raise EmptyDocument("cannot evaluate an empty document")
    mu, log_var = encode_docs(docs, params, config)
    kl = kl_standard_normal(GaussianPosterior(mu=mu, log_var=log_var))
    estimates = []
    for doc, eps, mu_i, log_var_i, kl_i in zip(docs, eps_list, mu, log_var, kl, strict=True):
        Z = mu_i + np.exp(0.5 * log_var_i) * eps
        ll = doc_log_likelihoods(doc.ids, Z, params, config)
        estimates.append(ElboEstimate(float(ll.mean()), float(kl_i), samples=len(eps)))
    return estimates


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
    """
    B = len(docs)
    if B == 0:
        raise ValueError("empty batch")
    for doc in docs:
        if doc.length == 0:
            raise EmptyDocument("empty document in training batch")
    m, d = config.m, config.d
    eps = np.asarray(eps, dtype=np.float64)

    counts = np.stack([bow_counts(doc.ids, m) for doc in docs])
    mu, log_var, acts, pre = _encoder_forward(counts, params)
    sd = np.exp(0.5 * log_var)
    Z = mu + sd * eps  # (B, d)

    lengths = np.array([doc.length for doc in docs])
    X_z = params.X[:, :d]
    zl = Z @ X_z.T + params.b  # (B, m)
    grads = OrderedDict()
    if config.mode == SAVAE:
        targets = np.concatenate([np.asarray(doc.ids, dtype=np.intp) for doc in docs])
        H, mask = _local_contexts(targets, lengths, params, config)  # (T, d)
        X_local = params.X[:, d:]
        recon, G, dX_local, dH = _local_softmax_blocks(zl, H, X_local, targets, lengths)
        grads["X"] = np.concatenate([G.T @ Z, dX_local], axis=1)
        dS = dH * H * (1.0 - H)
        grads["c_local"] = dS.sum(axis=0)
        # the word at position u is in the windows of the next k positions
        # of its document; R[u] sums their dS, and V_local's gradient sums R
        # by word
        R = np.zeros_like(dS)
        for off in range(1, config.k + 1):
            R[:-off] += dS[off:] * mask[off:, config.k - off, None]
        dV = np.empty((m, d))
        for j in range(d):
            dV[:, j] = np.bincount(targets, weights=R[:, j], minlength=m)
        grads["V_local"] = dV
    else:
        recon, lse = _bag_of_words_log_likelihoods(zl, counts, lengths)
        G = counts - lengths[:, None] * np.exp(zl - lse[:, None])
        grads["X"] = G.T @ Z
    grads["b"] = G.sum(axis=0)
    dZ = G @ X_z

    kl = kl_standard_normal(GaussianPosterior(mu=mu, log_var=log_var))  # (B,)
    estimates = [
        ElboEstimate(reconstruction=float(r), kl=float(k_), samples=1)
        for r, k_ in zip(recon, kl)
    ]

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

    return estimates, OrderedDict((name, grads[name]) for name in expected_shapes(config))
