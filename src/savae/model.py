"""Sequence-aware VAE document model and its bag-of-words ablation.

The model reconstructs a document word by word. The decoder conditions on
a per-document latent vector z (sampled from a diagonal Gaussian inferred
by a feedforward encoder over raw word counts) and, in "savae" mode, on a
local context vector h: the sigmoid of the summed local embeddings of the
previous k words. In "nvdm" mode the local channel is absent and the
decoder sees z alone.

All gradients of the single-sample ELBO estimator are derived by hand and
checked against central finite differences in the test suite.

Evaluation scores a document under S posterior samples at once. In savae
mode the decoder logits split into a sample part and a position part, so
the S x l softmax normalisers come from one GEMM of their exponentials
rather than from an (S, l, m) logit tensor; pairs whose factored sum
underflows are recomputed directly (see ``doc_log_likelihoods``).

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
    "encode",
    "init_params",
]

SAVAE = "savae"
NVDM = "nvdm"


@dataclass
class ModelConfig:
    mode: str
    m: int
    d: int
    k: int = 5
    encoder_layers: tuple = (500, 500)
    sample_count_train: int = 1
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
        if self.sample_count_train < 1 or self.sample_count_eval < 1:
            problems.append("sample counts must be >= 1")
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
            "sample_count_train": self.sample_count_train,
            "sample_count_eval": self.sample_count_eval,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            mode=data["mode"],
            m=data["m"],
            d=data["d"],
            k=data.get("k", 5),
            encoder_layers=tuple(data["encoder_layers"]),
            sample_count_train=data.get("sample_count_train", 1),
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


def encode(doc, params, config):
    """Posterior q(z|w) from the document's bag-of-words counts."""
    if doc.length == 0:
        raise EmptyDocument("cannot encode an empty document")
    counts = bow_counts(doc.ids, config.m)[None, :]
    mu, log_var, _, _ = _encoder_forward(counts, params)
    return GaussianPosterior(mu=mu[0], log_var=log_var[0])


def _local_contexts(ids, lengths, params, config):
    """Local context vectors of concatenated documents of ``lengths`` tokens.

    Returns H (T, d), the window ids (T, k) and their validity mask; column
    ``k - o`` holds the word ``o`` positions back, valid while it lies in
    the same document.
    """
    ids = np.asarray(ids, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    k = config.k
    doc_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    pos = np.arange(len(ids))
    win = np.zeros((len(ids), k), dtype=np.intp)
    mask = np.zeros((len(ids), k), dtype=bool)
    for off in range(1, k + 1):
        valid = pos[off:] - off >= doc_start[off:]
        mask[off:, k - off] = valid
        win[off:, k - off] = np.where(valid, ids[:-off], 0)
    emb = params.V_local[win] * mask[:, :, None]
    return sigmoid(emb.sum(axis=1) + params.c_local), win, mask


def _logsumexp_rows(logits):
    """Stable log-sum-exp of each row of a 2-D array."""
    shift = logits.max(axis=1, keepdims=True)
    return np.log(np.exp(logits - shift).sum(axis=1)) + shift[:, 0]


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
        counts = bow_counts(ids, config.m)
        logits = Z @ params.X.T + params.b  # (S, m)
        return logits @ counts - len(ids) * _logsumexp_rows(logits)
    d = config.d
    H, _, _ = _local_contexts(ids, [len(ids)], params, config)
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


def elbo(doc, params, config, rng, samples=1):
    """Monte-Carlo ELBO with ``samples`` reparameterized posterior draws."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if doc.length == 0:
        raise EmptyDocument("cannot evaluate an empty document")
    q = encode(doc, params, config)
    eps = rng.normal((samples, config.d))
    Z = q.mu + np.exp(0.5 * q.log_var) * eps
    ll = doc_log_likelihoods(doc.ids, Z, params, config)
    return ElboEstimate(
        reconstruction=float(ll.mean()),
        kl=float(kl_standard_normal(q)),
        samples=samples,
    )


def batch_elbo_gradients(docs, params, config, eps):
    """Summed single-sample ELBO gradients over a batch of documents.

    ``eps`` has shape (B, d), one fixed standard-normal draw per document.
    Returns (per-doc ElboEstimate list, grads dict summed over the batch).
    The maximization objective's gradient is returned directly (ascent
    direction).
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
    T = int(lengths.sum())
    pos_doc = np.repeat(np.arange(B), lengths)
    targets = np.concatenate([np.asarray(doc.ids, dtype=np.intp) for doc in docs])

    if config.mode == SAVAE:
        H, win, mask = _local_contexts(targets, lengths, params, config)  # (T, d)
        C = np.concatenate([Z[pos_doc], H], axis=1)  # (T, 2d)
    else:
        C = Z[pos_doc]

    logits = C @ params.X.T + params.b  # (T, m)
    shift = logits.max(axis=1, keepdims=True)
    np.exp(logits - shift, out=logits)
    sums = logits.sum(axis=1)
    lse = np.log(sums) + shift[:, 0]
    picked = (C * params.X[targets]).sum(axis=1) + params.b[targets]
    logp = picked - lse

    recon = np.zeros(B)
    np.add.at(recon, pos_doc, logp)
    kl = kl_standard_normal(GaussianPosterior(mu=mu, log_var=log_var))  # (B,)
    estimates = [
        ElboEstimate(reconstruction=float(r), kl=float(k_), samples=1)
        for r, k_ in zip(recon, kl)
    ]

    # backward; logits currently holds exp(logits - shift)
    P = logits / sums[:, None]
    dlogits = -P
    dlogits[np.arange(T), targets] += 1.0

    grads = OrderedDict()
    grads["b"] = dlogits.sum(axis=0)
    grads["X"] = dlogits.T @ C
    dC = dlogits @ params.X  # (T, dec_dim)

    if config.mode == SAVAE:
        dZrep = dC[:, :d]
        dH = dC[:, d:]
        dS = dH * H * (1.0 - H)
        grads["c_local"] = dS.sum(axis=0)
        dV = np.zeros((m, d))
        np.add.at(dV, win[mask], np.broadcast_to(dS[:, None, :], mask.shape + (d,))[mask])
        grads["V_local"] = dV
    else:
        dZrep = dC

    dZ = np.zeros((B, d))
    np.add.at(dZ, pos_doc, dZrep)

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
