"""Seeded synthetic corpora for the pipeline benchmark.

Each corpus is drawn from a Zipf distribution over a fixed pool of
pronounceable words, tilted per label, with a share of tokens that follow
a fixed successor of the previous word so that the local channel of the
savae decoder has something to learn. The distribution is fixed by the
spec; the seed draws the documents. Document lengths are the quantiles
of a clipped log-normal, dealt out to document positions in an order
fixed by the spec: every seed gives the same lengths at the same
positions, so the work per phase and per training batch does not drift
with the seed while the words and labels do.

The generator keeps the token list of every document. The benchmark's
correctness check compares the loaded corpus against these lists, so the
rendered text adds noise the tokenizer must remove: capitalised words,
trailing punctuation and single-character words.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
_NOISE_WORDS = ("a", "i", "x")


@dataclass(frozen=True)
class CorpusSpec:
    """Make-up of a synthetic corpus; every field is fixed per workload."""

    n_words: int  # distinct words the generator draws from
    zipf_s: float  # exponent of the base rank-frequency law
    n_labels: int
    max_labels: int  # each document has 1..max_labels distinct labels
    tilt: float  # std of the per-label Gaussian log-weight tilt
    successor_rate: float  # share of tokens replaced by succ(previous word)
    len_median: float
    len_sigma: float
    len_min: int
    len_max: int
    n_train: int
    n_test: int
    label_prefix: str


@dataclass
class Doc:
    tokens: list  # the words a correct tokenizer recovers, in order
    labels: tuple
    text: str


@dataclass
class Corpus:
    train: list
    test: list


def word_pool(n):
    """``n`` distinct lowercase words of two syllables."""
    if n > len(_SYLLABLES) ** 2:
        raise ValueError("word pool too large")
    k = len(_SYLLABLES)
    return [_SYLLABLES[i % k] + _SYLLABLES[i // k] for i in range(n)]


def quantile_lengths(n, spec):
    """Clipped log-normal lengths at the midpoints of ``n`` equal quantiles."""
    dist = NormalDist(mu=float(np.log(spec.len_median)), sigma=spec.len_sigma)
    raw = [float(np.exp(dist.inv_cdf((i + 0.5) / n))) for i in range(n)]
    return np.clip(np.rint(raw), spec.len_min, spec.len_max).astype(np.int64)


def _render(tokens, rng):
    """Text whose tokenization is exactly ``tokens``."""
    n = len(tokens)
    caps = rng.random(n) < 0.08
    punct = rng.random(n) < 0.08
    noise = rng.random(n) < 0.04
    noise_pick = rng.integers(0, len(_NOISE_WORDS), n)
    parts = []
    for i, tok in enumerate(tokens):
        if noise[i]:
            parts.append(_NOISE_WORDS[noise_pick[i]])
        word = tok.capitalize() if caps[i] else tok
        parts.append(word + "," if punct[i] else word)
    return " ".join(parts)


def generate(spec, seed):
    """The corpus for ``seed``: the same seed always gives the same corpus."""
    # the distribution (word ranks, label tilts, successors) and the lengths
    # are fixed by the spec; the seed draws the documents' words and labels,
    # so that seeds differ in their sample, not in how hard or how large
    # the corpus is
    fixed = np.random.default_rng([spec.n_words, spec.n_labels])
    pool = word_pool(spec.n_words)
    words = [pool[i] for i in fixed.permutation(spec.n_words)]  # by frequency rank
    base = -spec.zipf_s * np.log(np.arange(1, spec.n_words + 1))
    tilted = base + spec.tilt * fixed.standard_normal((spec.n_labels, spec.n_words))
    weights = np.exp(tilted - tilted.max(axis=1, keepdims=True))
    cdfs = np.cumsum(weights, axis=1)
    cdfs /= cdfs[:, -1:]
    successor = fixed.permutation(spec.n_words)
    rng = np.random.default_rng([seed, spec.n_words, spec.n_labels])
    labels = [f"{spec.label_prefix}{i:02d}" for i in range(spec.n_labels)]

    def split(n):
        lengths = fixed.permutation(quantile_lengths(n, spec))
        docs = []
        for i, length in enumerate(lengths):
            if spec.max_labels == 1:
                doc_labels = np.array([i % spec.n_labels])
            else:
                count = int(rng.integers(1, spec.max_labels + 1))
                doc_labels = rng.choice(spec.n_labels, size=count, replace=False)
            topic = doc_labels[rng.integers(0, len(doc_labels), length)]
            u = rng.random(length)
            ids = np.empty(length, dtype=np.int64)
            for lab in np.unique(doc_labels):
                sel = topic == lab
                ids[sel] = np.searchsorted(cdfs[lab], u[sel], side="right")
            np.minimum(ids, spec.n_words - 1, out=ids)
            follow = rng.random(length) < spec.successor_rate
            follow[0] = False
            ids[follow] = successor[ids[np.flatnonzero(follow) - 1]]
            tokens = [words[j] for j in ids]
            docs.append(
                Doc(
                    tokens=tokens,
                    labels=tuple(sorted(labels[j] for j in doc_labels)),
                    text=_render(tokens, rng),
                )
            )
        return docs

    return Corpus(train=split(spec.n_train), test=split(spec.n_test))


def write_labeled_lines(docs, path):
    """The ``labeled-lines`` input format: ``label[,label...]<TAB>text``."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(",".join(doc.labels) + "\t" + doc.text + "\n")
