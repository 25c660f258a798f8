"""Corpus ingestion: tokenization, vocabulary building, document encoding,
deterministic shuffling, and a versioned binary corpus file.

Tokenization lowercases and keeps maximal runs of two or more word
characters (letters, digits, underscore); single-character tokens are
dropped and no stopword filtering is applied.

The corpus file (version 2) is a sequence of whole little-endian arrays,
so that it is read with one ``np.frombuffer`` per section:

- header: magic ``SAVC``, u32 version, i64 shuffle seed, u32 vocabulary
  size n, u32 number of distinct labels L;
- vocabulary: u32[n] token byte lengths, the UTF-8 tokens as one blob,
  u64[n] training-corpus counts;
- labels: u32[L] byte lengths and one UTF-8 blob, in sorted order;
- for the train split, then the test split: u32 document count N,
  u32[N] document lengths, u32[N] label counts, the u32 label indices of
  all documents, then the u32 token ids of all documents.

Only version 2 is read. A file of any other version, such as version 1,
which wrote each document as its own fields, is an ``UnsupportedVersion``;
``savae preprocess`` rebuilds the same file from the same input text,
``--vocab-size`` and ``--seed``.
"""

import io
import re
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, pairwise
from pathlib import Path

import numpy as np

from .errors import CorruptFile, EmptyCorpus, IoError, ParseError, UnsupportedVersion
from .fileio import Reader, atomic_write
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
CORPUS_VERSION = 2


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
# versioned binary corpus file ("SAVC"); all integers little-endian
# ---------------------------------------------------------------------------


def _write_strings(fh, strings):
    data = [s.encode("utf-8") for s in strings]
    fh.write(np.array([len(b) for b in data], dtype="<u4").tobytes())
    fh.write(b"".join(data))


def _write_docs(fh, docs, label_index):
    doc_labels = [sorted(label_index[lab] for lab in doc.labels) for doc in docs]
    fh.write(struct.pack("<I", len(docs)))
    for column in (
        [len(doc.ids) for doc in docs],
        [len(labs) for labs in doc_labels],
        list(chain.from_iterable(doc_labels)),
        list(chain.from_iterable(doc.ids for doc in docs)),
    ):
        fh.write(np.array(column, dtype="<u4").tobytes())


def save_corpus_file(split, path):
    """Write ``split`` as a version-2 corpus file (see the module docstring)."""
    vocab = split.vocabulary
    labels = sorted(set().union(*(doc.labels for doc in split.train + split.test)))
    label_index = {lab: i for i, lab in enumerate(labels)}
    with atomic_write(path) as fh:
        fh.write(CORPUS_MAGIC)
        fh.write(struct.pack("<IqII", CORPUS_VERSION, split.shuffle_seed, len(vocab), len(labels)))
        _write_strings(fh, vocab.tokens)
        fh.write(np.array(vocab.counts, dtype="<u8").tobytes())
        _write_strings(fh, labels)
        _write_docs(fh, split.train, label_index)
        _write_docs(fh, split.test, label_index)


def _vocabulary(tokens, counts, r):
    try:
        return Vocabulary(tokens=tokens, counts=counts)
    except ValueError as err:
        raise CorruptFile(f"bad vocabulary in {r.source}: {err}") from None


def _check_below(top, limit, what, r):
    if top >= limit:
        raise CorruptFile(f"{what} {top} out of range (< {limit}) in {r.source}")


def _offsets(lengths):
    """Consecutive (start, end) pairs of items of the given lengths."""
    return list(pairwise([0, *np.cumsum(lengths, dtype=np.int64).tolist()]))


def _read_strings(r, n):
    bounds = _offsets(r.array("<u4", n))
    blob = r.read(bounds[-1][1] if bounds else 0)
    try:
        return [blob[a:b].decode("utf-8") for a, b in bounds]
    except UnicodeDecodeError:
        raise CorruptFile(f"invalid UTF-8 string in {r.source}") from None


def _read_docs(r, n_vocab, labels):
    n = r.u32()
    lengths = r.array("<u4", n)
    label_counts = r.array("<u4", n)
    label_ids = r.array("<u4", int(label_counts.sum()))
    ids = r.array("<u4", int(lengths.sum()))
    _check_below(ids.max() if ids.size else -1, n_vocab, "token id", r)
    _check_below(label_ids.max() if label_ids.size else -1, len(labels), "label index", r)
    flat = ids.tolist()
    names = [labels[i] for i in label_ids.tolist()]
    return [
        Document(ids=flat[a:b], labels=set(names[c:d]))
        for (a, b), (c, d) in zip(_offsets(lengths), _offsets(label_counts))
    ]


def load_corpus_file(path):
    """Read a version-2 corpus file; any damage is a CorruptFile."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such file: {path}")
    fh = io.BytesIO(path.read_bytes())
    r = Reader(fh, CorruptFile, f"corpus file {path}")
    if r.read(4) != CORPUS_MAGIC:
        raise CorruptFile(f"bad magic in corpus file {path}")
    version = r.u32()
    if version != CORPUS_VERSION:
        raise UnsupportedVersion(
            f"corpus file {path} has format version {version}; only version "
            f"{CORPUS_VERSION} is read, so rebuild it with savae preprocess"
        )
    seed = r.i64()
    n_vocab = r.u32()
    n_labels = r.u32()
    tokens = _read_strings(r, n_vocab)
    counts = r.array("<u8", n_vocab).tolist()
    labels = _read_strings(r, n_labels)
    train = _read_docs(r, n_vocab, labels)
    test = _read_docs(r, n_vocab, labels)
    vocab = _vocabulary(tokens, counts, r)
    if fh.read(1):
        raise CorruptFile(f"trailing bytes after the last document in {path}")
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
