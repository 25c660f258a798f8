"""Document representations and evaluation-time bounds from a frozen model.

A document's representation is the posterior mean mu, from one encoder pass
over blocks of 256 documents; the evaluation bound uses multi-sample ELBO
estimates. Representations round-trip through a CSV contract consumed by
the evaluation tooling.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AllDocumentsEmpty, IoError, ParseError
from .fileio import atomic_write
# elbo and encode are unused here; the benchmark's tracer wraps them by these names
from .model import elbo, elbo_estimates, encode, encode_docs  # noqa: F401
from .numerics import RngStream

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
    empty: bool = False


def represent_batch(docs, params, config):
    """Posterior means, no sampling; empty documents become flagged zero placeholders."""
    mu, _ = encode_docs([doc for doc in docs if not doc.is_empty], params, config)
    rows = iter(mu)
    return [
        DocRepresentation(
            vector=np.zeros(config.d) if doc.is_empty else next(rows),
            labels=set(doc.labels),
            doc_id=i,
            empty=doc.is_empty,
        )
        for i, doc in enumerate(docs)
    ]


def evaluate_bound(docs, params, config, samples=None, seed=0):
    """(mean per-document ELBO total, perplexity) over non-empty docs; doc i
    of ``docs``, empty ones counted, draws its eps from ``substream(i)``."""
    if samples is None:
        samples = config.sample_count_eval
    if samples < 1:
        raise ValueError("samples must be >= 1")
    kept = [i for i, doc in enumerate(docs) if not doc.is_empty]
    if not kept:
        raise AllDocumentsEmpty("no non-empty documents to evaluate")
    rng = RngStream(seed)
    eps_list = [rng.substream(i).normal((samples, config.d)) for i in kept]
    estimates = elbo_estimates([docs[i] for i in kept], params, config, eps_list)
    totals = np.array([est.total for est in estimates])
    words = sum(docs[i].length for i in kept)
    return float(totals.mean()), float(np.exp(-totals.sum() / words))


def write_representations(reps, path):
    """CSV contract: header id,labels,v0..v{d-1}; labels pipe-separated.

    Flagged-empty representations are skipped.
    """
    reps = [r for r in reps if not r.empty]
    if not reps:
        raise AllDocumentsEmpty("no representations to write")
    d = len(reps[0].vector)
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "labels"] + [f"v{i}" for i in range(d)])
        # csv writes a Python float as its repr, which round-trips exactly
        writer.writerows(
            [rep.doc_id, "|".join(sorted(rep.labels))]
            + np.asarray(rep.vector, dtype=np.float64).tolist()
            for rep in reps
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
