"""Correctness checks on the pipeline's outputs, run outside the timed regions.

Each check returns a list of problems; an empty list is a pass. Every
check compares against a computation made here, apart from the program
(a vocabulary ranked from the generator's own tokens, a plain numpy MLP,
a closed-form KL, the naive oracles of ``tests/oracles.py``), or against
a property the method must have. None compares against stored output.

Import it only once ``src`` and ``tests`` are on ``sys.path``.
"""

import csv
from collections import Counter

import numpy as np
import oracles
from savae import evaluation, inference, model
from savae.numerics import RngStream


def check_corpus(generated, split, vocab_size, seed):
    """The loaded corpus equals the generator's documents under a vocabulary
    ranked here: top ``vocab_size`` training words by frequency, ties broken
    lexicographically, out-of-vocabulary tokens dropped from both splits."""
    problems = []
    freqs = Counter(tok for doc in generated.train for tok in doc.tokens)
    ranked = sorted(freqs.items(), key=lambda kv: (-kv[1], kv[0]))[:vocab_size]
    if split.vocabulary.tokens != [t for t, _ in ranked]:
        problems.append("vocabulary tokens differ from the reference ranking")
    if list(split.vocabulary.counts) != [c for _, c in ranked]:
        problems.append("vocabulary counts differ from the reference counts")
    if split.shuffle_seed != seed:
        problems.append(f"shuffle seed {split.shuffle_seed} != {seed}")
    index = {tok: i for i, (tok, _) in enumerate(ranked)}
    for name, gen_docs, got_docs in (
        ("train", generated.train, split.train),
        ("test", generated.test, split.test),
    ):
        want = sorted(
            (doc.labels, tuple(index[t] for t in doc.tokens if t in index)) for doc in gen_docs
        )
        got = sorted((tuple(sorted(doc.labels)), tuple(doc.ids)) for doc in got_docs)
        if want != got:
            problems.append(f"{name} documents differ from the generator's")
    return problems


def check_gradients(batch, params, config, seed, steps=(1e-4, 1e-5, 1e-6, 1e-7),
                    rtol=1e-6):
    """Determinism and one directional finite difference on a training batch.

    The same batch and eps must give bit-identical estimates and gradients
    twice. The central difference of the summed ELBO along a random unit
    direction v must match <grad, v> to ``rtol`` of the gradient's norm.
    The ELBO is only piecewise smooth (the encoder's ReLUs), and a step
    that moves a pre-activation across zero adds an error of the step's
    order, so the difference is taken with the largest of ``steps`` at
    which no encoder unit of the batch changes sign.
    """
    problems = []
    rng = np.random.default_rng([seed, 17])
    eps = rng.standard_normal((len(batch), config.d))
    est1, grads1 = model.batch_elbo_gradients(batch, params, config, eps)
    est2, grads2 = model.batch_elbo_gradients(batch, params, config, eps)
    same = [e1.total == e2.total and e1.kl == e2.kl for e1, e2 in zip(est1, est2)]
    same += [grads1[n].tobytes() == grads2[n].tobytes() for n in grads1]
    if not all(same):
        problems.append("batch_elbo_gradients is not bit-identical on a repeat call")

    named = params.named_arrays()
    direction = {n: rng.standard_normal(a.shape) for n, a in named.items()}
    norm = np.sqrt(sum(float((v * v).sum()) for v in direction.values()))
    directional = sum(float((grads1[n] * v).sum()) for n, v in direction.items()) / norm
    counts = bag_of_words(batch, config.m)

    def moved(step):
        out = params.copy()
        for n, arr in out.named_arrays().items():
            arr += (step / norm) * direction[n]
        return out

    def total(p):
        estimates, _ = model.batch_elbo_gradients(batch, p, config, eps)
        return float(sum(est.total for est in estimates))

    pattern = relu_pattern(counts, params)
    for h in steps:
        plus, minus = moved(h), moved(-h)
        if all(np.array_equal(pattern, relu_pattern(counts, p)) for p in (plus, minus)):
            break
    else:
        return problems + [f"every step in {steps} moves an encoder ReLU across zero"]
    fd = (total(plus) - total(minus)) / (2 * h)
    grad_norm = np.sqrt(sum(float((g * g).sum()) for g in grads1.values()))
    if not abs(fd - directional) <= rtol * grad_norm:
        problems.append(
            f"directional derivative {fd!r} at step {h} != <grad, v> {directional!r} "
            f"(|grad| {grad_norm:.3e})"
        )
    return problems


def relu_pattern(counts, params):
    """Which encoder ReLUs are active, by a plain numpy forward: one bool
    array of all layers' pre-activations > 0."""
    h, active = counts, []
    for W, b in zip(params.enc_W, params.enc_b):
        a = h @ W + b
        active.append((a > 0).ravel())
        h = np.maximum(a, 0.0)
    return np.concatenate(active)


def encoder_mu_logvar(counts, params):
    """Plain numpy ReLU-MLP forward over the checkpoint's encoder arrays."""
    h = counts
    for W, b in zip(params.enc_W, params.enc_b):
        h = np.maximum(h @ W + b, 0.0)
    return h @ params.W_mu + params.b_mu, h @ params.W_logvar + params.b_logvar


def bag_of_words(docs, m):
    counts = np.zeros((len(docs), m))
    for i, doc in enumerate(docs):
        np.add.at(counts[i], np.asarray(doc.ids, dtype=np.intp), 1.0)
    return counts


def check_bound(docs, params, config, seed, samples, rtol=1e-9):
    """Each sampled document's S-sample bound, as evaluate_bound reports it,
    against the naive per-position likelihood of ``tests/oracles.py`` and a
    closed-form KL, under the same eps draws."""
    problems = []
    for doc in docs:
        got, _ = inference.evaluate_bound([doc], params, config, samples=samples, seed=seed)
        eps = RngStream(seed).substream(0).normal((samples, config.d))
        mu, log_var = encoder_mu_logvar(bag_of_words([doc], config.m), params)
        Z = mu + np.exp(0.5 * log_var) * eps
        ll = oracles.naive_doc_log_likelihoods(doc.ids, Z, params, config)
        kl = 0.5 * float(np.sum(mu**2 + np.exp(log_var) - log_var - 1.0))
        want = float(ll.mean()) - kl
        if not abs(got - want) <= rtol * abs(want):
            problems.append(f"bound {got!r} != oracle {want!r} on a {doc.length}-token doc")
    return problems


def read_csv_representations(path):
    """(ids, label strings, matrix) parsed here, apart from the program."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    ids = [int(r[0]) for r in body]
    labels = [r[1] for r in body]
    vectors = np.array([[float(v) for v in r[2:]] for r in body]).reshape(len(body), -1)
    return ids, labels, vectors


def check_representations(path, docs, params, config, rtol=1e-12):
    """The CSV holds every non-empty document once, with its labels; its
    vectors equal a plain MLP forward, and the CSV round-trip is bit-exact."""
    problems = []
    ids, labels, vectors = read_csv_representations(path)
    kept = [i for i, doc in enumerate(docs) if not doc.is_empty]
    if ids != kept:
        problems.append("representation ids are not the non-empty documents in order")
        return problems
    if labels != ["|".join(sorted(docs[i].labels)) for i in kept]:
        problems.append("representation labels differ from the corpus labels")
    mu, _ = encoder_mu_logvar(bag_of_words([docs[i] for i in kept], config.m), params)
    if not np.allclose(vectors, mu, rtol=rtol, atol=rtol * np.abs(mu).max()):
        problems.append("representations differ from the reference MLP forward")
    direct = inference.represent_batch([docs[i] for i in kept], params, config)
    if not np.array_equal(np.array([r.vector for r in direct]), vectors):
        problems.append("CSV round-trip of the representations is not bit-exact")
    if not np.array_equal(inference.read_representations(path)[2], vectors):
        problems.append("read_representations differs from a plain CSV parse")
    return problems


def _label_set(field):
    return {label for label in field.split("|") if label}


def check_retrieval(out_dir, queries, index, relevance, seed,
                    n_queries=40, n_index=300, tol=1e-9):
    """Properties of the written PR curve, and the program's retrieval_pr
    against the naive oracle on a seeded subsample of queries and index."""
    problems = []
    q_ids, q_labels, q_vecs = read_csv_representations(queries)
    _, i_labels, i_vecs = read_csv_representations(index)
    manifest = dict(
        line.split("=", 1) for line in (out_dir / "manifest.txt").read_text().splitlines()
    )
    if int(manifest["queries_used"]) + int(manifest["queries_skipped"]) != len(q_ids):
        problems.append("queries used + skipped != number of queries")
    with open(out_dir / "pr_curve.csv") as fh:
        precision = [float(line.split(",")[1]) for line in fh.readlines()[1:]]
    if len(precision) != len(evaluation.DEFAULT_RECALL_GRID) or not all(
        0.0 <= p <= 1.0 for p in precision
    ):
        problems.append("PR curve precisions are not one per grid level within [0, 1]")

    rng = np.random.default_rng([seed, 29])
    qs = np.sort(rng.permutation(len(q_vecs))[:n_queries])
    # exactly equal index vectors tie in the oracle but may differ by an ulp
    # in a BLAS product, so the subsample keeps one index row per vector
    _, first = np.unique(i_vecs, axis=0, return_index=True)
    ix = np.sort(rng.permutation(np.sort(first))[:n_index])
    ql = [_label_set(q_labels[i]) for i in qs]
    il = [_label_set(i_labels[i]) for i in ix]
    curve = evaluation.retrieval_pr(q_vecs[qs], ql, i_vecs[ix], il, relevance)
    want, used, skipped = oracles.retrieval_pr(
        q_vecs[qs].tolist(), ql, i_vecs[ix].tolist(), il, relevance,
        evaluation.DEFAULT_RECALL_GRID,
    )
    if (curve.n_queries, curve.skipped) != (used, skipped):
        problems.append("retrieval_pr query counts differ from the oracle")
    elif not np.allclose(curve.precision, want, rtol=tol, atol=tol):
        problems.append("retrieval_pr precisions differ from the oracle")
    return problems
