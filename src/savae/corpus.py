"""Corpus ingestion: tokenization, vocabulary building, document encoding,
deterministic shuffling, and a versioned binary corpus file.

Tokenization lowercases and keeps maximal runs of two or more word
characters (letters, digits, underscore); single-character tokens are
dropped and no stopword filtering is applied.
"""

import re
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CorruptCheckpoint, EmptyCorpus, IoError, ParseError, UnsupportedVersion
from .fileio import atomic_write
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
CORPUS_VERSION = 1


def tokenize(text):
    """Lowercase and split into maximal runs of >=2 word characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    """Token <-> id bijection with per-token training-corpus frequencies."""

    tokens: list
    counts: list
    index: dict = field(default=None, repr=False)

    def __post_init__(self):
        if self.index is None:
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
    per line as "label[,label...]\\ttext"), ``unlabeled-lines``.
    """
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such path: {path}")
    if format == "newsgroup-dirs":
        if not path.is_dir():
            raise IoError(f"not a directory: {path}")
        out = []
        for group_dir in sorted(p for p in path.iterdir() if p.is_dir()):
            for doc_file in sorted(p for p in group_dir.iterdir() if p.is_file()):
                raw = doc_file.read_text(encoding="utf-8", errors="replace")
                out.append((strip_newsgroup_metadata(raw), {group_dir.name}))
        return out
    if format in ("labeled-lines", "unlabeled-lines"):
        if not path.is_file():
            raise IoError(f"not a file: {path}")
        out = []
        with path.open(encoding="utf-8") as fh:
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
                out.append((text, labels))
        return out
    raise ValueError(f"unknown corpus format: {format}")


# ---------------------------------------------------------------------------
# versioned binary corpus file ("SAVC"); all integers little-endian
# ---------------------------------------------------------------------------


def _write_str(fh, s):
    data = s.encode("utf-8")
    fh.write(struct.pack("<I", len(data)))
    fh.write(data)


def _write_docs(fh, docs):
    fh.write(struct.pack("<I", len(docs)))
    for doc in docs:
        labels = sorted(doc.labels)
        fh.write(struct.pack("<I", len(labels)))
        for lab in labels:
            _write_str(fh, lab)
        fh.write(struct.pack("<I", doc.length))
        fh.write(struct.pack(f"<{doc.length}I", *doc.ids))


def save_corpus_file(split, path):
    with atomic_write(path) as fh:
        fh.write(CORPUS_MAGIC)
        fh.write(struct.pack("<I", CORPUS_VERSION))
        fh.write(struct.pack("<q", split.shuffle_seed))
        vocab = split.vocabulary
        fh.write(struct.pack("<I", len(vocab)))
        for tok, cnt in zip(vocab.tokens, vocab.counts):
            _write_str(fh, tok)
            fh.write(struct.pack("<Q", cnt))
        _write_docs(fh, split.train)
        _write_docs(fh, split.test)


class _Reader:
    def __init__(self, fh):
        self.fh = fh

    def read(self, n):
        data = self.fh.read(n)
        if len(data) != n:
            raise CorruptCheckpoint("truncated corpus file")
        return data

    def u32(self):
        return struct.unpack("<I", self.read(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.read(8))[0]

    def i64(self):
        return struct.unpack("<q", self.read(8))[0]

    def string(self):
        return self.read(self.u32()).decode("utf-8")


def _read_docs(r):
    docs = []
    for _ in range(r.u32()):
        labels = {r.string() for _ in range(r.u32())}
        length = r.u32()
        ids = list(struct.unpack(f"<{length}I", r.read(4 * length)))
        docs.append(Document(ids=ids, labels=labels))
    return docs


def load_corpus_file(path):
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such file: {path}")
    with path.open("rb") as fh:
        r = _Reader(fh)
        if r.read(4) != CORPUS_MAGIC:
            raise CorruptCheckpoint(f"bad magic in corpus file {path}")
        version = r.u32()
        if version != CORPUS_VERSION:
            raise UnsupportedVersion(f"corpus format version {version}")
        seed = r.i64()
        n_vocab = r.u32()
        tokens, counts = [], []
        for _ in range(n_vocab):
            tokens.append(r.string())
            counts.append(r.u64())
        vocab = Vocabulary(tokens=tokens, counts=counts)
        train = _read_docs(r)
        test = _read_docs(r)
        if fh.read(1):
            raise CorruptCheckpoint(f"trailing bytes after the last document in {path}")
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
