"""Document representations and evaluation-time bounds from a frozen model.

A document's representation is the posterior mean mu, from one encoder pass
over blocks of 64 documents, widened to 256 where a block takes the dense
first layer; the evaluation bound uses multi-sample ELBO estimates.
Representations round-trip through a CSV contract consumed by the
evaluation tooling.
"""

import csv
import io
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AllDocumentsEmpty, IoError, ParseError
from .fileio import atomic_write, utf8_lines
# elbo and encode are unused here; the benchmark's tracer wraps them by these names
from .model import elbo, elbo_estimates, encode, encode_docs  # noqa: F401
from .numerics import RngStream, perplexity

__all__ = [
    "DocRepresentation",
    "evaluate_bound",
    "read_representations",
    "represent_batch",
    "write_representations",
]


@dataclass
class DocRepresentation:
    vector: np.ndarray
    labels: set
    doc_id: int = 0


def represent_batch(docs, params, config):
    """Posterior means of the non-empty documents, no sampling; each keeps
    its index in ``docs`` as ``doc_id``, and empty documents get no entry."""
    kept = [i for i, doc in enumerate(docs) if not doc.is_empty]
    mu, _ = encode_docs([docs[i] for i in kept], params, config)
    return [
        DocRepresentation(vector=row, labels=set(docs[i].labels), doc_id=i)
        for i, row in zip(kept, mu)
    ]


def evaluate_bound(docs, params, config, samples=20, seed=0):
    """(mean per-document ELBO total, perplexity) over non-empty docs. The
    k-th non-empty document takes row k of one
    ``RngStream(seed).substream(0).normal((N, samples, d))`` draw, so a
    document alone draws what ``model.elbo`` draws from that substream."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    kept = [i for i, doc in enumerate(docs) if not doc.is_empty]
    if not kept:
        raise AllDocumentsEmpty("no non-empty documents to evaluate")
    eps = RngStream(seed).substream(0).normal((len(kept), samples, config.d))
    estimates = elbo_estimates([docs[i] for i in kept], params, config, eps)
    totals = np.array([est.total for est in estimates])
    words = sum(docs[i].length for i in kept)
    return float(totals.mean()), perplexity(-totals.sum() / words)


def _csv_field(text):
    """``text`` as csv.writer writes a field with QUOTE_MINIMAL."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_representations(reps, path):
    """CSV contract: header id,labels,v0..v{d-1}; labels pipe-separated.

    The file is UTF-8 with ``\\r\\n`` line ends, the labels field quoted as
    csv.writer's QUOTE_MINIMAL does and each float written as its repr,
    which round-trips exactly.
    """
    if not reps:
        raise AllDocumentsEmpty("no representations to write")
    mu = np.array([rep.vector for rep in reps], dtype=np.float64)
    lines = [",".join(["id", "labels"] + [f"v{i}" for i in range(mu.shape[1])])]
    lines += [
        ",".join([str(rep.doc_id), _csv_field("|".join(sorted(rep.labels))), *map(repr, row)])
        for rep, row in zip(reps, mu.tolist())
    ]
    lines.append("")
    with atomic_write(path) as fh:
        fh.write("\r\n".join(lines).encode("utf-8"))


def read_representations(path):
    """Inverse of write_representations: (ids, label sets, (n, d) matrix).

    One ``np.loadtxt`` parses the rows. Where it fails, or where the file
    has a line that it reads but csv.reader rejects, ``_check_rows`` walks
    the file with csv.reader to raise the first bad line's ParseError.
    """
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such file: {path}")
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        _check_rows(data, path)  # raises at the latest on the line that is not UTF-8
        raise
    lines = io.StringIO(text, newline="")
    d = _vector_width(_numbered_rows(csv.reader(lines), path), path)
    if lines.tell() == len(text):
        raise AllDocumentsEmpty(f"no representations in {path}")
    if _loadtxt_lenient(data):
        _check_rows(data, path)
    fields = np.dtype([("id", np.int64), ("labels", object), ("v", np.float64, (d,))])
    try:
        table = np.loadtxt(
            lines, fields, delimiter=",", quotechar='"', comments=None, ndmin=1
        )
    except ValueError as err:
        _check_rows(data, path)
        raise ParseError(f"unreadable representations in {path}: {err}") from None
    labels = [{l for l in field.split("|") if l} for field in table["labels"].tolist()]
    return table["id"].tolist(), labels, np.ascontiguousarray(table["v"])


def _numbered_rows(reader, path):
    """(line, row) pairs of csv.reader ``reader``, lines counted as rows
    from 1; a csv.Error (a field over the csv module's size limit, say) is
    a ParseError naming the row it stopped at."""
    for lineno in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as err:
            raise ParseError(f"unreadable CSV row in {path}: {err}", lineno) from None
        yield lineno, row


def _vector_width(rows, path):
    _, header = next(rows, (1, None))
    if header is None or header[:2] != ["id", "labels"]:
        raise ParseError(f"bad representation header in {path}", 1)
    return len(header) - 2


def _loadtxt_lenient(data):
    """Whether ``data`` has a blank line, which np.loadtxt skips, or a byte
    0x1c-0x1f, which it strips around a number; csv.reader and float()
    reject both."""
    raw = np.frombuffer(data, np.uint8)
    at = np.flatnonzero(raw < 0x20)
    ctrl = raw[at]
    if (ctrl >= 0x1C).any():
        return True
    ends = at[(ctrl == 0x0A) | (ctrl == 0x0D)]
    # two adjacent line ends other than one "\r\n" close a blank line
    pairs = ends[:-1][np.diff(ends) == 1]
    return bool(((raw[pairs] != 0x0D) | (raw[pairs + 1] != 0x0A)).any())


def _check_rows(data, path):
    """Raise the ParseError of the first bad line of the representation CSV
    ``data``: a wrong field count, a number that int() or float() rejects,
    or one that np.loadtxt rejects (digit separators, non-ASCII digits, ids
    outside int64). Lines are counted as rows, the header being line 1."""
    rows = _numbered_rows(csv.reader(utf8_lines(data, path)), path)
    d = _vector_width(rows, path)
    for lineno, row in rows:
        if len(row) != d + 2:
            raise ParseError(f"expected {d + 2} fields, got {len(row)}", lineno)
        try:
            doc_id = int(row[0])
            for v in row[2:]:
                float(v)
        except ValueError as err:
            raise ParseError(f"non-numeric field in {path}: {err}", lineno) from None
        for v in [row[0], *row[2:]]:
            if "_" in v or not v.strip().isascii():
                raise ParseError(
                    f"number {v!r} in {path} has a '_' or a non-ASCII character", lineno
                )
        if not -(2**63) <= doc_id < 2**63:
            raise ParseError(f"id {doc_id} outside the int64 range in {path}", lineno)
