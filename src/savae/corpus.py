"""Corpus ingestion: tokenization, vocabulary building, document encoding,
deterministic shuffling, and a versioned binary corpus file.

Tokenization lowercases and keeps maximal runs of two or more word
characters (letters, digits, underscore); single-character tokens are
dropped and no stopword filtering is applied.

The corpus file is version 3 of ``fileio``'s container, magic ``SAVC``.
Header: ``shuffle_seed``, the vocabulary's ``tokens`` and the sorted
distinct ``labels``. Sections: ``counts`` (``<u8``), then for the train
and the test split ``{split}.lengths`` and ``{split}.label_counts`` per
document and the concatenated ``{split}.labels`` and ``{split}.ids`` of
its documents (``<u4``). Any other version, such as version 2, is an
``UnsupportedVersion``; ``savae preprocess`` rebuilds the file from the
same input text, ``--vocab-size`` and ``--seed``.
"""

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, pairwise
from pathlib import Path

import numpy as np

from .errors import CorruptFile, EmptyCorpus, IoError, ParseError
from .fileio import ContainerReader, write_container
from .numerics import RngStream

__all__ = [
    "CorpusSplit",
    "Document",
    "Vocabulary",
    "build_vocabulary",
    "encode_document",
    "load_corpus",
    "load_corpus_file",
    "save_corpus_file",
    "shuffle_split",
    "strip_newsgroup_metadata",
    "tokenize",
]

_TOKEN_RE = re.compile(r"(?u)\b\w\w+\b")

CORPUS_MAGIC = b"SAVC"
CORPUS_VERSION = 3


def tokenize(text):
    """Lowercase and split into maximal runs of >=2 word characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    """Token <-> id bijection with per-token training-corpus frequencies."""

    tokens: list
    counts: list
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        if len(self.counts) != len(self.tokens):
            raise ValueError("counts/tokens length mismatch")
        if any(c <= 0 for c in self.counts):
            raise ValueError("vocabulary counts must be positive")

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token):
        return token in self.index


@dataclass
class Document:
    """Ordered token-id sequence with an optional label set."""

    ids: list
    labels: set = field(default_factory=set)

    @property
    def length(self):
        return len(self.ids)

    @property
    def is_empty(self):
        return len(self.ids) == 0


@dataclass
class CorpusSplit:
    train: list
    test: list
    vocabulary: Vocabulary
    shuffle_seed: int


def build_vocabulary(token_lists, max_size):
    """Keep the ``max_size`` most frequent tokens; ties break lexicographically."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    freqs = Counter()
    for toks in token_lists:
        freqs.update(toks)
    if not freqs:
        raise EmptyCorpus("no tokens in corpus")
    ranked = sorted(freqs.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
    return Vocabulary(tokens=[t for t, _ in ranked], counts=[c for _, c in ranked])


def encode_document(tokens, vocab, labels=()):
    """Map tokens to ids, silently dropping out-of-vocabulary tokens."""
    index = vocab.index
    ids = [index[t] for t in tokens if t in index]
    return Document(ids=ids, labels=set(labels))


def shuffle_split(docs, seed):
    """Deterministic, platform-independent permutation of ``docs``."""
    perm = RngStream(seed).permutation(len(docs))
    return [docs[i] for i in perm]


def strip_newsgroup_metadata(text):
    """Remove header, quoted lines and trailing signature block.

    Header: everything up to and including the first blank line. Quotes:
    lines starting with ">". Footer: the last line consisting only of "-"
    characters and everything after it.
    """
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if not line.strip():
            lines = lines[i + 1 :]
            break
    sig = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped and set(stripped) == {"-"}:
            sig = i
    if sig is not None:
        lines = lines[:sig]
    lines = [ln for ln in lines if not ln.startswith(">")]
    return "\n".join(lines).strip("\n")


def load_corpus(path, format):
    """Load raw (text, labels) pairs.

    Formats: ``newsgroup-dirs`` (one file per document, label from the
    directory name, metadata stripped), ``labeled-lines`` (one document
    per line as "label[,label...]\\ttext"), ``unlabeled-lines``. Invalid
    UTF-8 is replaced, and a label may not contain "|", which joins labels
    in the representation CSV.
    """
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such path: {path}")
    if format == "newsgroup-dirs":
        if not path.is_dir():
            raise IoError(f"not a directory: {path}")
        out = []
        for group_dir in sorted(p for p in path.iterdir() if p.is_dir()):
            if "|" in group_dir.name:
                raise ParseError(f"label directory {group_dir} contains '|'")
            for doc_file in sorted(p for p in group_dir.iterdir() if p.is_file()):
                raw = doc_file.read_text(encoding="utf-8", errors="replace")
                out.append((strip_newsgroup_metadata(raw), {group_dir.name}))
        return out
    if format in ("labeled-lines", "unlabeled-lines"):
        if not path.is_file():
            raise IoError(f"not a file: {path}")
        out = []
        with path.open(encoding="utf-8", errors="replace") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                if format == "unlabeled-lines":
                    out.append((line, set()))
                    continue
                if "\t" not in line:
                    raise ParseError("expected 'label<TAB>text'", lineno)
                label_part, text = line.split("\t", 1)
                labels = {l.strip() for l in label_part.split(",") if l.strip()}
                if not labels:
                    raise ParseError("empty label field", lineno)
                if "|" in label_part:
                    raise ParseError(f"label field {label_part!r} contains '|'", lineno)
                out.append((text, labels))
        return out
    raise ValueError(f"unknown corpus format: {format}")


# ---------------------------------------------------------------------------
# versioned binary corpus file ("SAVC")
# ---------------------------------------------------------------------------


def save_corpus_file(split, path):
    """Write ``split`` as a version-3 corpus file (see the module docstring)."""
    labels = sorted(set().union(*(doc.labels for doc in split.train + split.test)))
    label_index = {lab: i for i, lab in enumerate(labels)}
    sections = {"counts": split.vocabulary.counts}
    for name, docs in (("train", split.train), ("test", split.test)):
        doc_labels = [sorted(label_index[lab] for lab in doc.labels) for doc in docs]
        sections[f"{name}.lengths"] = [len(doc.ids) for doc in docs]
        sections[f"{name}.label_counts"] = [len(labs) for labs in doc_labels]
        sections[f"{name}.labels"] = list(chain.from_iterable(doc_labels))
        sections[f"{name}.ids"] = list(chain.from_iterable(doc.ids for doc in docs))
    header = {
        "shuffle_seed": split.shuffle_seed,
        "tokens": split.vocabulary.tokens,
        "labels": labels,
        "dtypes": dict.fromkeys(sections, "<u4") | {"counts": "<u8"},
    }
    write_container(path, CORPUS_MAGIC, CORPUS_VERSION, header, sections)


def _offsets(lengths):
    """Consecutive (start, end) pairs of items of the given lengths."""
    return list(pairwise([0, *np.cumsum(lengths, dtype=np.int64).tolist()]))


def _read_docs(r, split, n_vocab, labels):
    lengths = r.section(f"{split}.lengths", "<u4", (None,))
    label_counts = r.section(f"{split}.label_counts", "<u4", lengths.shape)
    label_ids = r.section(f"{split}.labels", "<u4", (int(label_counts.sum()),))
    ids = r.section(f"{split}.ids", "<u4", (int(lengths.sum()),))
    bounds = ((ids, n_vocab, "token id"), (label_ids, len(labels), "label index"))
    for values, limit, what in bounds:
        if values.size and values.max() >= limit:
            raise CorruptFile(f"{what} {values.max()} out of range (< {limit}) in {r.source}")
    flat = ids.tolist()
    names = [labels[i] for i in label_ids.tolist()]
    return [
        Document(ids=flat[a:b], labels=set(names[c:d]))
        for (a, b), (c, d) in zip(_offsets(lengths), _offsets(label_counts))
    ]


def _is_strings(values):
    return type(values) is list and all(type(v) is str for v in values)


def load_corpus_file(path):
    """Read a version-3 corpus file; any damage is a CorruptFile."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such file: {path}")
    source = f"corpus file {path}"
    with path.open("rb") as fh:
        r = ContainerReader(fh, CORPUS_MAGIC, CORPUS_VERSION, CorruptFile, source,
                            ", so rebuild it with savae preprocess")
        seed, tokens, labels = (r.header.get(key) for key in ("shuffle_seed", "tokens", "labels"))
        if not (type(seed) is int and _is_strings(tokens) and _is_strings(labels)):
            raise CorruptFile(f"header block in {source} lacks an int shuffle_seed or a "
                              "list of strings for tokens or labels")
        counts = r.section("counts", "<u8", (len(tokens),)).tolist()
        train, test = [_read_docs(r, split, len(tokens), labels) for split in ("train", "test")]
        r.finish()
    try:
        vocab = Vocabulary(tokens=tokens, counts=counts)
    except ValueError as err:
        raise CorruptFile(f"bad vocabulary in {source}: {err}") from None
    return CorpusSplit(train=train, test=test, vocabulary=vocab, shuffle_seed=seed)


def build_split(train_raw, test_raw, max_vocab, seed):
    """Full preprocessing pipeline from raw (text, labels) pairs.

    Tokenizes, builds the vocabulary from the training split only,
    encodes both splits and applies the seeded shuffle to each.
    """
    train_tokens = [(tokenize(text), labels) for text, labels in train_raw]
    test_tokens = [(tokenize(text), labels) for text, labels in test_raw]
    vocab = build_vocabulary((toks for toks, _ in train_tokens), max_vocab)
    train = [encode_document(t, vocab, labels) for t, labels in train_tokens]
    test = [encode_document(t, vocab, labels) for t, labels in test_tokens]
    return CorpusSplit(
        train=shuffle_split(train, seed),
        test=shuffle_split(test, seed),
        vocabulary=vocab,
        shuffle_seed=seed,
    )
