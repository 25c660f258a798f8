"""Document representations and evaluation-time bounds from a frozen model.

A document's representation is the posterior mean mu, obtained in a single
deterministic encoder pass; the evaluation bound uses multi-sample ELBO
estimates. Representations round-trip through a CSV contract consumed by
the evaluation tooling.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AllDocumentsEmpty, EmptyDocument, IoError, ParseError
from .model import elbo, encode
from .numerics import RngStream

__all__ = [
    "DocRepresentation",
    "evaluate_bound",
    "read_representations",
    "represent",
    "represent_batch",
    "write_representations",
]


@dataclass
class DocRepresentation:
    vector: np.ndarray
    labels: set
    doc_id: int = 0
    empty: bool = False


def represent(doc, params, config):
    """Posterior mean of a single document; no sampling involved."""
    if doc.is_empty:
        raise EmptyDocument("cannot represent an empty document")
    return DocRepresentation(vector=encode(doc, params, config).mu, labels=set(doc.labels))


def represent_batch(docs, params, config):
    """Elementwise represent; empty documents become flagged placeholders."""
    out = []
    for i, doc in enumerate(docs):
        if doc.is_empty:
            rep = DocRepresentation(
                vector=np.zeros(config.d), labels=set(doc.labels), doc_id=i, empty=True
            )
        else:
            rep = represent(doc, params, config)
            rep.doc_id = i
        out.append(rep)
    return out


def evaluate_bound(docs, params, config, samples=None, seed=0):
    """(mean per-document ELBO total, perplexity) over non-empty docs."""
    if samples is None:
        samples = config.sample_count_eval
    rng = RngStream(seed)
    totals = []
    words = 0
    for i, doc in enumerate(docs):
        if doc.is_empty:
            continue
        est = elbo(doc, params, config, rng.substream(i), samples=samples)
        totals.append(est.total)
        words += doc.length
    if not totals:
        raise AllDocumentsEmpty("no non-empty documents to evaluate")
    totals = np.asarray(totals)
    return float(totals.mean()), float(np.exp(-totals.sum() / words))


def write_representations(reps, path):
    """CSV contract: header id,labels,v0..v{d-1}; labels pipe-separated.

    Flagged-empty representations are skipped.
    """
    reps = [r for r in reps if not r.empty]
    if not reps:
        raise AllDocumentsEmpty("no representations to write")
    d = len(reps[0].vector)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "labels"] + [f"v{i}" for i in range(d)])
        for rep in reps:
            writer.writerow(
                [rep.doc_id, "|".join(sorted(rep.labels))]
                + [repr(float(v)) for v in rep.vector]
            )


def read_representations(path):
    """Inverse of write_representations: (ids, label sets, (n, d) matrix)."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such file: {path}")
    ids, labels, rows = [], [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["id", "labels"]:
            raise ParseError(f"bad representation header in {path}", 1)
        d = len(header) - 2
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 2:
                raise ParseError(f"expected {d + 2} fields, got {len(row)}", lineno)
            try:
                ids.append(int(row[0]))
                rows.append([float(v) for v in row[2:]])
            except ValueError as err:
                raise ParseError(f"non-numeric field in {path}: {err}", lineno) from None
            labels.append({l for l in row[1].split("|") if l})
    return ids, labels, np.asarray(rows, dtype=np.float64).reshape(len(rows), d)
