"""Command-line pipeline driver.

Subcommands: preprocess, train, represent, eval-bound, eval-retrieval,
eval-cluster, neighbors, probe. Settings come from an optional key=value
config file (dotted keys, e.g. ``model.d=50``) overridden by flags, each
of which stores its value under the key it overrides; the effective
configuration is echoed to a run manifest in the output directory.

The SAVAE_THREADS environment variable bounds the BLAS worker count.
"""

import argparse
import os
import sys


def _bound_threads():
    threads = os.environ.get("SAVAE_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


_bound_threads()  # must run before numpy is first imported

from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import evaluation, inference, training
from .errors import ConfigError, DegenerateLabels, IoError, ParseError, SavaeError
from .fileio import atomic_write, utf8_lines
from .model import ModelConfig
from .numerics import RngStream

# defaults mirror the 20 Newsgroups configuration
DEFAULTS = {
    "model.mode": "savae",
    "model.d": 50,
    "model.k": 5,
    "model.encoder_layers": "500,500",
    "model.eval_samples": 20,
    "corpus.vocab_size": 2000,
    "train.lr": 1e-5,
    "train.epochs": 1000,
    "train.batch_size": 64,
    "train.checkpoint_every": 100,
    "seed": 2,
}


def read_config_file(path):
    """Parse a line-based key=value config file with # comments."""
    if not Path(path).is_file():
        raise IoError(f"no such config file: {path}")
    values = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(utf8_lines(fh, path), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected key=value, got {line!r}", lineno)
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


class RunConfig:
    """Defaults, overridden by config-file values, overridden by flags."""

    def __init__(self, config_path=None):
        self.values = dict(DEFAULTS)
        if config_path:
            values = read_config_file(config_path)
            unknown = sorted(set(values) - set(DEFAULTS))
            if unknown:
                raise ConfigError(
                    f"unknown config key(s) {', '.join(unknown)} in {config_path}; "
                    f"valid keys: {', '.join(sorted(DEFAULTS))}"
                )
            self.values.update(values)

    def get(self, key, cast=str):
        value = self.values[key]
        try:
            return cast(value)
        except ValueError:
            raise ConfigError(f"{key}={value} is not a valid {cast.__name__}") from None

    def model_config(self, vocab_size):
        layers = self.get("model.encoder_layers")
        try:
            layers = tuple(int(w) for w in layers.split(",") if w)
        except ValueError:
            raise ConfigError(
                f"model.encoder_layers={layers} is not a comma-separated list of ints"
            ) from None
        return ModelConfig(
            mode=self.get("model.mode"),
            m=vocab_size,
            d=self.get("model.d", int),
            k=self.get("model.k", int),
            encoder_layers=layers,
        )

    def train_config(self, out_dir):
        return training.TrainConfig(
            learning_rate=self.get("train.lr", float),
            epochs=self.get("train.epochs", int),
            batch_size=self.get("train.batch_size", int),
            seed=self.get("seed", int),
            checkpoint_every=self.get("train.checkpoint_every", int),
            checkpoint_dir=str(Path(out_dir) / "checkpoints"),
        )


def _write_text(path, text):
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def _write_manifest(out_dir, cfg, extra):
    lines = [f"{k}={cfg.values[k]}" for k in sorted(cfg.values)]
    lines += [f"{k}={v}" for k, v in sorted(extra.items())]
    text = "\n".join(lines) + "\n"
    _write_text(out_dir / "manifest.txt", text)
    print(text, end="")


def cmd_preprocess(args, cfg, out):
    vocab_size = cfg.get("corpus.vocab_size", int)
    seed = cfg.get("seed", int)
    problems = []
    if vocab_size < 1:
        problems.append(f"corpus.vocab_size must be >= 1, got {vocab_size}")
    if not 0 <= args.test_fraction < 1:
        problems.append(f"--test-fraction must lie in [0, 1), got {args.test_fraction}")
    if args.test_input and args.test_fraction:
        problems.append("--test-fraction cannot be combined with --test-input")
    if problems:
        raise ConfigError(problems)
    train_raw = corpus_mod.load_corpus(args.input, args.format)
    if args.test_input:
        test_raw = corpus_mod.load_corpus(args.test_input, args.format)
    elif args.test_fraction > 0:
        perm = RngStream(seed).substream(99).permutation(len(train_raw))
        n_test = int(round(args.test_fraction * len(train_raw)))
        test_raw = [train_raw[i] for i in perm[:n_test]]
        train_raw = [train_raw[i] for i in perm[n_test:]]
    else:
        test_raw = []
    split = corpus_mod.build_split(train_raw, test_raw, vocab_size, seed)
    corpus_path = out / "corpus.savc"
    corpus_mod.save_corpus_file(split, corpus_path)
    empty_train = sum(doc.is_empty for doc in split.train)
    return {
        "input": args.input,
        "format": args.format,
        "output": str(corpus_path),
        "train_docs": len(split.train),
        "test_docs": len(split.test),
        "empty_train_docs_excluded": empty_train,
        "vocab_entries": len(split.vocabulary),
    }


def cmd_train(args, cfg, out):
    split = corpus_mod.load_corpus_file(args.corpus)
    problems = []
    model_config = train_config = None
    try:
        model_config = cfg.model_config(len(split.vocabulary))
    except ConfigError as err:
        problems += err.violations
    try:
        train_config = cfg.train_config(out)
    except ConfigError as err:
        problems += err.violations
    if problems:
        raise ConfigError(problems)
    params, log = training.train(split, model_config, train_config)
    ckpt = out / "model.savm"
    training.save_checkpoint(params, model_config, ckpt)
    _write_text(out / "trainlog.csv", log.to_csv())
    return {"corpus": args.corpus, "checkpoint": str(ckpt)}


def _load_model_and_corpus(args):
    """The checkpoint and corpus file; their vocabulary sizes must agree."""
    params, model_config = training.load_checkpoint(args.checkpoint)
    split = corpus_mod.load_corpus_file(args.corpus)
    if model_config.m != len(split.vocabulary):
        raise ConfigError(
            f"checkpoint {args.checkpoint} has a vocabulary of {model_config.m} words, "
            f"corpus file {args.corpus} has {len(split.vocabulary)}"
        )
    return params, model_config, split


def cmd_represent(args, cfg, out):
    params, model_config, split = _load_model_and_corpus(args)
    docs = split.train if args.split == "train" else split.test
    reps = inference.represent_batch(docs, params, model_config)
    path = out / f"representations_{args.split}.csv"
    inference.write_representations(reps, path)
    return {"split": args.split, "output": str(path), "documents": len(docs),
            "empty_skipped": len(docs) - len(reps)}


def cmd_eval_bound(args, cfg, out):
    samples = cfg.get("model.eval_samples", int)
    if samples < 1:
        raise ConfigError(f"model.eval_samples must be >= 1, got {samples}")
    params, model_config, split = _load_model_and_corpus(args)
    docs = split.train if args.split == "train" else split.test
    mean_elbo, ppl = inference.evaluate_bound(
        docs, params, model_config, samples=samples, seed=cfg.get("seed", int)
    )
    kept = [doc for doc in docs if not doc.is_empty]
    report = (
        f"split={args.split}\ndocuments={len(kept)}\nwords={sum(doc.length for doc in kept)}\n"
        f"mean_elbo={mean_elbo:.6f}\nperplexity={ppl:.6f}\n"
    )
    path = out / "bound.txt"
    _write_text(path, report)
    print(report, end="")
    return {"checkpoint": args.checkpoint, "corpus": args.corpus, "split": args.split,
            "output": str(path), "empty_skipped": len(docs) - len(kept)}


def _read_matching_representations(first, second):
    """Both representation CSVs; their vectors must have the same width."""
    a, b = inference.read_representations(first), inference.read_representations(second)
    if a[2].shape[1] != b[2].shape[1]:
        raise ParseError(
            f"{second} has {b[2].shape[1]} vector columns, {first} has {a[2].shape[1]}", 1
        )
    return a, b


def cmd_eval_retrieval(args, cfg, out):
    (_, qlabels, qreps), (_, ilabels, ireps) = _read_matching_representations(
        args.queries, args.index
    )
    curve = evaluation.retrieval_pr(qreps, qlabels, ireps, ilabels, args.relevance)
    path = out / "pr_curve.csv"
    _write_text(path, curve.to_csv())
    return {"relevance": args.relevance, "output": str(path),
            "queries_used": curve.n_queries, "queries_skipped": curve.skipped}


def cmd_eval_cluster(args, cfg, out):
    _, labels, reps = inference.read_representations(args.reps)
    flat = [min(ls) if ls else "" for ls in labels]
    metrics = evaluation.ClusterMetrics(
        davies_bouldin=evaluation.davies_bouldin(reps, flat),
        dunn=evaluation.dunn(reps, flat),
        silhouette=evaluation.silhouette(reps, flat),
    )
    path = out / "cluster_metrics.txt"
    _write_text(path, metrics.report())
    print(metrics.report(), end="")
    return {"output": str(path)}


def cmd_neighbors(args, cfg, out):
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    params, model_config, split = _load_model_and_corpus(args)
    spaces = evaluation.embedding_spaces(params, model_config)
    if args.space not in spaces:
        raise ConfigError([f"embedding space {args.space!r} not available for "
                           f"{model_config.mode} checkpoints"])
    lines = []
    for word in args.words.split(","):
        # argv decoded under a non-UTF-8 locale holds surrogate escapes
        word = os.fsencode(word.strip()).decode("utf-8", "surrogateescape")
        neigh = evaluation.nearest_words(word, split.vocabulary, spaces[args.space], args.n)
        lines.append(f"{word}: {' '.join(neigh)}")
    text = "\n".join(lines) + "\n"
    _write_text(out / f"neighbors_{args.space}.txt", text)
    print(text, end="")
    return {"space": args.space}


def _first_labels(label_sets, path):
    """Each row's first label in sorted order, as the CSV writes them."""
    for lineno, labels in enumerate(label_sets, start=2):
        if not labels:
            raise DegenerateLabels(f"{path}: line {lineno} has an empty label field")
    return [min(labels) for labels in label_sets]


def cmd_probe(args, cfg, out):
    (_, tr_labels, tr_reps), (_, te_labels, te_reps) = _read_matching_representations(
        args.train, args.test
    )
    tr_first = _first_labels(tr_labels, args.train)
    te_first = _first_labels(te_labels, args.test)
    classes = sorted(set(tr_first))
    if len(classes) != 2:
        raise ConfigError([f"probe needs exactly 2 classes, found {classes}"])
    to_bin = {classes[0]: 0.0, classes[1]: 1.0}
    for lineno, label in enumerate(te_first, start=2):
        if label not in to_bin:
            raise DegenerateLabels(
                f"{args.test}: line {lineno} has label {label!r}, "
                f"which is neither training class {classes}"
            )
    ytr = np.array([to_bin[label] for label in tr_first])
    yte = np.array([to_bin[label] for label in te_first])
    acc = evaluation.linear_probe(tr_reps, ytr, te_reps, yte, seed=cfg.get("seed", int))
    report = f"positive_class={classes[1]}\naccuracy={acc:.4f}\n"
    _write_text(out / "probe_accuracy.txt", report)
    print(report, end="")
    return {"accuracy": f"{acc:.4f}"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="savae",
        description="Sequence-aware VAE document modeling pipeline. Settings "
        "precedence: built-in defaults < --config file < explicit flags.",
    )
    common = argparse.ArgumentParser(add_help=False)
    for add in (parser.add_argument, common.add_argument):
        add("--config", help="key=value config file (dotted keys)")
        add("--seed", type=int, help="master random seed")
        add("--out", help="output directory")
    # flags may appear before or after the subcommand; the subcommand copy
    # must not clobber a value given up front
    for action in common._actions:
        action.default = argparse.SUPPRESS
    parser.set_defaults(config=None, seed=None, out="out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", parents=[common],
                       help="tokenize, build vocab, encode, shuffle")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True,
                   choices=["newsgroup-dirs", "labeled-lines", "unlabeled-lines"])
    p.add_argument("--test-input")
    p.add_argument("--test-fraction", type=float, default=0.0)
    p.add_argument("--vocab-size", type=int, dest="corpus.vocab_size")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[common], help="train a model on an encoded corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=["savae", "nvdm"], dest="model.mode")
    p.add_argument("--d", type=int, dest="model.d")
    p.add_argument("--k", type=int, dest="model.k")
    p.add_argument("--lr", type=float, dest="train.lr")
    p.add_argument("--epochs", type=int, dest="train.epochs")
    p.add_argument("--batch-size", type=int, dest="train.batch_size")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("represent", parents=[common], help="export posterior-mean representations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("eval-bound", parents=[common],
                       help="held-out ELBO and perplexity of a checkpoint on a corpus split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--samples", type=int, dest="model.eval_samples",
                   help="posterior samples per document")
    p.set_defaults(func=cmd_eval_bound)

    p = sub.add_parser("eval-retrieval", parents=[common], help="precision-recall retrieval evaluation")
    p.add_argument("--queries", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--relevance", choices=["exact", "jaccard"], default="exact")
    p.set_defaults(func=cmd_eval_retrieval)

    p = sub.add_parser("eval-cluster", parents=[common], help="internal clustering indices")
    p.add_argument("--reps", required=True)
    p.set_defaults(func=cmd_eval_cluster)

    p = sub.add_parser("neighbors", parents=[common], help="nearest words in an embedding space")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--words", required=True, help="comma-separated query words")
    p.add_argument("--space", choices=["global", "local"], default="global")
    p.add_argument("--n", type=int, default=5)
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("probe", parents=[common], help="linear sentiment probe on representations")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=cmd_probe)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(args.config)
        # a flag's dest is the config key it overrides
        cfg.values.update((k, v) for k, v in vars(args).items() if k in DEFAULTS and v is not None)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise IoError(f"cannot create output directory {out}: {err.strerror}") from None
        record = args.func(args, cfg, out)
        _write_manifest(out, cfg, {"command": args.command, **record})
    except SavaeError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
