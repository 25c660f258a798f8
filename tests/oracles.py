"""Independent, deliberately naive reference implementations.

Everything here is written loop-by-loop from the defining formulas and
shares no code with the package internals it checks, except
``doc_log_likelihoods``: the package's packed likelihood of one document,
the form in which the tests compare it with these references.
"""

import csv
import math
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np

from savae import model


def cosine_distance(a, b):
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - sum(x * y for x, y in zip(a, b)) / (na * nb)


def _centroids(reps, labels):
    order = sorted(set(labels), key=str)
    cents = {}
    for lab in order:
        rows = [reps[i] for i in range(len(labels)) if labels[i] == lab]
        cents[lab] = [sum(col) / len(rows) for col in zip(*rows)]
    return order, cents


def _dispersion(reps, labels, lab, centroid):
    rows = [reps[i] for i in range(len(labels)) if labels[i] == lab]
    return sum(cosine_distance(r, centroid) for r in rows) / len(rows)


def davies_bouldin(reps, labels):
    order, cents = _centroids(reps, labels)
    pi = {lab: _dispersion(reps, labels, lab, cents[lab]) for lab in order}
    scores = []
    for i in order:
        best = -math.inf
        for j in order:
            if j == i:
                continue
            best = max(best, (pi[i] + pi[j]) / cosine_distance(cents[i], cents[j]))
        scores.append(best)
    mean = sum(scores) / len(scores)
    var = sum((s - mean) ** 2 for s in scores) / len(scores)
    return mean, math.sqrt(var)


def dunn(reps, labels):
    order, cents = _centroids(reps, labels)
    pi = [_dispersion(reps, labels, lab, cents[lab]) for lab in order]
    min_sep = min(
        cosine_distance(cents[a], cents[b])
        for i, a in enumerate(order)
        for b in order[i + 1 :]
    )
    return min_sep / max(pi)


def silhouette(reps, labels):
    order, cents = _centroids(reps, labels)
    cluster_scores = []
    for lab in order:
        scores = []
        for i in range(len(labels)):
            if labels[i] != lab:
                continue
            a = cosine_distance(reps[i], cents[lab])
            b = min(cosine_distance(reps[i], cents[o]) for o in order if o != lab)
            denom = max(a, b)
            scores.append(0.0 if denom == 0.0 else (b - a) / denom)
        cluster_scores.append(sum(scores) / len(scores))
    mean = sum(cluster_scores) / len(cluster_scores)
    var = sum((s - mean) ** 2 for s in cluster_scores) / len(cluster_scores)
    return mean, math.sqrt(var)


def retrieval_pr(query_reps, query_labels, index_reps, index_labels, relevance, grid):
    """Per-query mean precision at the grid recall levels, naive version."""
    acc = [0.0] * len(grid)
    used = 0
    skipped = 0
    n = len(index_reps)
    for q in range(len(query_reps)):
        qset = set(query_labels[q])
        sims = [1.0 - cosine_distance(query_reps[q], index_reps[j]) for j in range(n)]
        order = sorted(range(n), key=lambda j: (-sims[j], j))
        if relevance == "exact":
            rel = [1.0 if qset & set(index_labels[j]) else 0.0 for j in order]
            R = int(sum(rel))
            if R == 0:
                skipped += 1
                continue
            for gi, rho in enumerate(grid):
                r = min(max(math.ceil(rho * R), 1), n)
                acc[gi] += sum(rel[:r]) / r
        else:
            gains = []
            for j in order:
                union = qset | set(index_labels[j])
                gains.append(len(qset & set(index_labels[j])) / len(union) if union else 0.0)
            total = sum(gains)
            if total == 0.0:
                skipped += 1
                continue
            for gi, rho in enumerate(grid):
                cum = 0.0
                for r in range(1, n + 1):
                    cum += gains[r - 1]
                    if cum / total >= rho - 1e-9:
                        acc[gi] += cum / r
                        break
        used += 1
    return [a / used for a in acc], used, skipped


def finite_difference_grads(docs, params, config, eps, forward, h=1e-5):
    """Central finite differences of sum-of-totals w.r.t. every parameter."""
    grads = {}
    for name, arr in params.named_arrays().items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            fp = forward(docs, params, config, eps).sum()
            arr[idx] = orig - h
            fm = forward(docs, params, config, eps).sum()
            arr[idx] = orig
            g[idx] = (fp - fm) / (2 * h)
        grads[name] = g
    return grads


def mc_kl_standard_normal(mu, log_var, n_samples, rng):
    """Monte-Carlo E_q[log q(z) - log p(z)] with a standard-error estimate."""
    d = len(mu)
    sd = np.exp(0.5 * np.asarray(log_var))
    eps = rng.standard_normal((n_samples, d))
    z = mu + sd * eps
    log_q = -0.5 * np.sum(((z - mu) / sd) ** 2 + np.log(2 * np.pi) + log_var, axis=1)
    log_p = -0.5 * np.sum(z**2 + np.log(2 * np.pi), axis=1)
    diff = log_q - log_p
    return diff.mean(), diff.std(ddof=1) / math.sqrt(n_samples)


def doc_log_likelihoods(ids, Z, params, config):
    """log p(doc | z) for each row z of Z, from ``model._packed_log_likelihoods``
    with a zero posterior mean and unit sd, whose draws are then Z itself."""
    mu, sd = np.zeros((1, config.d)), np.ones((1, config.d))
    return model._packed_log_likelihoods(ids, [len(ids)], mu, sd, Z[None], params, config)[0]


def naive_doc_log_likelihoods(ids, Z, params, config):
    """log p(doc | z) for each row of Z, built position by position.

    Written from the defining formula: at every position the window sum,
    the squashed local context, and the softmax over the vocabulary are
    recomputed from scratch.
    """
    total = np.zeros(len(Z))
    for t, w in enumerate(ids):
        if config.mode == "savae":
            s = np.array(params.c_local, dtype=float, copy=True)
            for u in ids[max(0, t - config.k) : t]:
                s = s + params.V_local[u]
            h = 1.0 / (1.0 + np.exp(-s))
            logits = Z @ params.X[:, : config.d].T + h @ params.X[:, config.d :].T
        else:
            logits = Z @ params.X.T
        logits = logits + params.b
        mx = logits.max(axis=1)
        lse = mx + np.log(np.exp(logits - mx[:, None]).sum(axis=1))
        total += logits[:, w] - lse
    return total


def log_softmax(logits):
    """logits - logsumexp(logits) over the last axis."""
    shifted = np.asarray(logits, dtype=float) - np.max(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def local_context(window, params):
    """sigmoid(c + sum of the local embeddings of the window words)."""
    s = np.array(params.c_local, dtype=float, copy=True)
    for w in window:
        s = s + params.V_local[w]
    return 1.0 / (1.0 + np.exp(-s))


def next_word_log_prob(word, z, h, params, config):
    """log p(word | z, h) under the softmax decoder; h is unused in nvdm mode."""
    ctx = np.concatenate([z, h]) if config.mode == "savae" else z
    return float(log_softmax(params.X @ ctx + params.b)[word])


def bow_counts(ids, m):
    """Raw word-count vector of a document; the encoder input."""
    return np.bincount(np.asarray(ids, dtype=np.intp), minlength=m).astype(np.float64)


def encoder_posterior(ids, params):
    """q(z|doc) as ``mu``/``log_var`` from a plain ReLU MLP over word counts.

    ``inputs`` and ``pre`` hold each layer's input and pre-activation, for
    the backward pass of ``dense_batch_elbo_gradients``.
    """
    counts = np.zeros(params.X.shape[0])
    for w in ids:
        counts[w] += 1.0
    h = counts
    inputs, pre = [], []
    for W, b in zip(params.enc_W, params.enc_b):
        inputs.append(h)
        pre.append(h @ W + b)
        h = np.maximum(pre[-1], 0.0)
    inputs.append(h)
    return SimpleNamespace(
        mu=h @ params.W_mu + params.b_mu,
        log_var=h @ params.W_logvar + params.b_logvar,
        inputs=inputs,
        pre=pre,
    )


def sample_reparameterized(mu, log_var, eps):
    """z = mu + exp(log_var / 2) * eps for standard-normal eps."""
    return mu + np.exp(0.5 * log_var) * np.asarray(eps, dtype=float)


def elbo_with_fixed_eps(docs, params, config, eps):
    """Per-document single-sample ELBO totals for a fixed (B, d) eps matrix:
    the naive likelihood at the reparameterized sample minus the
    closed-form KL(q || N(0, I))."""
    totals = np.empty(len(docs))
    for i, doc in enumerate(docs):
        q = encoder_posterior(doc.ids, params)
        z = sample_reparameterized(q.mu, q.log_var, eps[i])
        ll = naive_doc_log_likelihoods(doc.ids, z[None, :], params, config)[0]
        kl = 0.5 * np.sum(q.mu**2 + np.exp(q.log_var) - q.log_var - 1.0)
        totals[i] = ll - kl
    return totals


def dense_batch_elbo_gradients(docs, params, config, eps):
    """Single-sample ELBO terms and gradients through the dense (T, m) logits.

    Every token of the batch gets its own row ``[z, h]`` of decoder input
    and its own full row of logits; the backward pass runs the three
    decoder GEMMs at full width on those T rows and scatters per token.
    Returns per-document reconstruction and KL arrays, a name -> array
    dict of the gradients of their difference, summed over the batch, and
    a dict of the term scales of X, b, c_local and V_local: the same sums
    over the absolute values of their terms, with ``|dC_local| * H`` in
    place of dS, since ``1 - H`` cancels where the sigmoid saturates. An
    entry whose terms cancel can be off by a few eps times its scale.
    """
    d, k = config.d, config.k
    savae = config.mode == "savae"
    qs = [encoder_posterior(doc.ids, params) for doc in docs]
    Z = np.array([sample_reparameterized(q.mu, q.log_var, e) for q, e in zip(qs, eps)])
    doc_of, targets, C = [], [], []
    for i, doc in enumerate(docs):
        for t, w in enumerate(doc.ids):
            doc_of.append(i)
            targets.append(w)
            h = local_context(doc.ids[max(0, t - k) : t], params) if savae else []
            C.append(np.concatenate([Z[i], h]))
    C = np.array(C)
    rows = np.arange(len(targets))
    logits = C @ params.X.T + params.b  # (T, m)
    logp = log_softmax(logits)
    recon = np.zeros(len(docs))
    for t, i in enumerate(doc_of):
        recon[i] += logp[t, targets[t]]
    kl = np.array([0.5 * np.sum(q.mu**2 + np.exp(q.log_var) - q.log_var - 1.0) for q in qs])

    dlogits = -np.exp(logp)
    dlogits[rows, targets] += 1.0
    grads = {"X": dlogits.T @ C, "b": dlogits.sum(axis=0)}
    scales = {"X": np.abs(dlogits).T @ np.abs(C), "b": np.abs(dlogits).sum(axis=0)}
    dC = dlogits @ params.X
    dZ = np.zeros_like(Z)
    for t, i in enumerate(doc_of):
        dZ[i] += dC[t, :d]

    def local_backward(dS):
        """The c_local and V_local gradients of the local channel's dS."""
        dV = np.zeros_like(params.V_local)
        t = 0
        for doc in docs:
            for pos in range(len(doc.ids)):
                for u in doc.ids[max(0, pos - k) : pos]:
                    dV[u] += dS[t]
                t += 1
        return dS.sum(axis=0), dV

    if savae:
        H = C[:, d:]
        grads["c_local"], grads["V_local"] = local_backward(dC[:, d:] * H * (1.0 - H))
        scales["c_local"], scales["V_local"] = local_backward(np.abs(dC[:, d:]) * H)

    names = ["W_mu", "b_mu", "W_logvar", "b_logvar"]
    for i in range(len(params.enc_W)):
        names += [f"enc_W_{i}", f"enc_b_{i}"]
    for name in names:
        grads[name] = 0.0
    for q, e, dz in zip(qs, eps, dZ):
        sd = np.exp(0.5 * q.log_var)
        dmu = dz - q.mu
        dlog_var = dz * 0.5 * sd * e - 0.5 * (np.exp(q.log_var) - 1.0)
        top = q.inputs[-1]
        grads["W_mu"] = grads["W_mu"] + np.outer(top, dmu)
        grads["b_mu"] = grads["b_mu"] + dmu
        grads["W_logvar"] = grads["W_logvar"] + np.outer(top, dlog_var)
        grads["b_logvar"] = grads["b_logvar"] + dlog_var
        dh = params.W_mu @ dmu + params.W_logvar @ dlog_var
        for i in range(len(params.enc_W) - 1, -1, -1):
            da = dh * (q.pre[i] > 0)
            grads[f"enc_W_{i}"] = grads[f"enc_W_{i}"] + np.outer(q.inputs[i], da)
            grads[f"enc_b_{i}"] = grads[f"enc_b_{i}"] + da
            dh = params.enc_W[i] @ da
    return recon, kl, grads, scales


def prior_sampling_log_likelihoods(ids, params, config, n_samples, rng):
    """log p(doc) by Monte-Carlo over the N(0, I) prior, naive likelihood."""
    Z = rng.standard_normal((n_samples, config.d))
    lls = naive_doc_log_likelihoods(ids, Z, params, config)
    mx = lls.max()
    return mx + math.log(np.mean(np.exp(lls - mx)))


def exact_doc_log_likelihoods(ids, Z, params, config, digits=50):
    """naive_doc_log_likelihoods in ``digits``-digit decimal arithmetic.

    Every float64 input converts to Decimal exactly, so this is the
    likelihood of the stored parameters and samples far below float64
    rounding: a reference for absolute error where results are too close
    to zero for a relative tolerance.
    """

    def dec(values):
        return [Decimal(float(v)) for v in values]

    X = [dec(row) for row in params.X]
    b = dec(params.b)
    totals = []
    with localcontext() as ctx:
        ctx.prec = digits
        for z in Z:
            total = Decimal(0)
            for t, w in enumerate(ids):
                context = dec(z)
                if config.mode == "savae":
                    s = dec(params.c_local)
                    for u in ids[max(0, t - config.k) : t]:
                        s = [a + v for a, v in zip(s, dec(params.V_local[u]))]
                    context += [1 / (1 + (-a).exp()) for a in s]
                logits = [sum(c * x for c, x in zip(context, row)) + bj for row, bj in zip(X, b)]
                mx = max(logits)
                total += logits[w] - mx - sum((l - mx).exp() for l in logits).ln()
            totals.append(float(total))
    return np.array(totals)


def sigmoid(x):
    """The logistic function by its two-exp formula, with a temporary per
    operation: exp(min(x, 0)) / (1 + exp(-|x|))."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def adam_step(params, grads, m, v, t, learning_rate):
    """Plain Adam ascent step t (1-based), in place on params, m and v.

    Kingma & Ba (2015) on whole arrays, with beta1 0.9, beta2 0.999 and
    eps 1e-8; the gradients are used as given.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, theta in params.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        theta += learning_rate * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def write_representations_csv(reps, path):
    """A representation CSV through csv.writer: header id,labels,v0..v{d-1},
    labels joined by "|", each float as csv writes it (its repr)."""
    d = len(reps[0].vector)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "labels"] + [f"v{i}" for i in range(d)])
        for rep in reps:
            writer.writerow(
                [rep.doc_id, "|".join(sorted(rep.labels))] + [float(v) for v in rep.vector]
            )


def read_representations_csv(path):
    """(ids, label sets, (n, d) matrix) of a representation CSV, row by row
    through csv.reader, int() and float()."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    d = len(rows[0]) - 2
    body = rows[1:]
    ids = [int(row[0]) for row in body]
    labels = [{label for label in row[1].split("|") if label} for row in body]
    vectors = [[float(v) for v in row[2:]] for row in body]
    return ids, labels, np.array(vectors, dtype=np.float64).reshape(len(body), d)
