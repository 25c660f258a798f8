"""Adam optimizer (ascent form), minibatch training loop and checkpoints.

Per-batch gradients are the mean of per-document single-sample ELBO
gradients; Adam then ascends the ELBO. Everything is driven by derived
RNG substreams so that a seed fully determines the final checkpoint.
"""

import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import model as model_mod
from .errors import (
    ConfigError,
    CorruptCheckpoint,
    EmptyCorpus,
    IoError,
    NonFiniteGradient,
)
from .fileio import ContainerReader, write_container
from .model import ModelConfig, ModelParams, expected_shapes
from .numerics import RngStream, perplexity

__all__ = [
    "AdamState",
    "EpochRecord",
    "TrainConfig",
    "TrainLog",
    "adam_step",
    "load_checkpoint",
    "save_checkpoint",
    "train",
]

CHECKPOINT_MAGIC = b"SAVM"
CHECKPOINT_VERSION = 1

# Adam's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# entries per block of adam_step: a block's gradient, moments, parameter
# and two float scratch buffers (6 x 256 KiB) stay in a 2 MiB L2 cache
ADAM_BLOCK = 32768
# largest gradient magnitude adam_step accepts: (1 - beta2) * g * g and
# the second moment, a weighted mean of such terms, stay below 1e305
ADAM_GRAD_LIMIT = 1e154


@dataclass
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        problems = []
        if not 0 < self.learning_rate < math.inf:
            problems.append("learning_rate must be finite and > 0")
        if self.epochs < 1:
            problems.append("epochs must be >= 1")
        if self.batch_size < 1:
            problems.append("batch_size must be >= 1")
        if problems:
            raise ConfigError(problems)


class AdamState:
    """First/second moment estimates per parameter plus the step counter,
    and the two float scratch buffers of at most ``ADAM_BLOCK`` entries
    that ``adam_step`` streams the parameters through, allocated once."""

    def __init__(self, named_arrays):
        self.m = {name: np.zeros(arr.shape) for name, arr in named_arrays.items()}
        self.v = {name: np.zeros(arr.shape) for name, arr in named_arrays.items()}
        self.t = 0
        size = min(ADAM_BLOCK, max((arr.size for arr in self.m.values()), default=0))
        self.scratch = (np.empty(size), np.empty(size))


def adam_step(named_params, grads, state, learning_rate, batch_size=1):
    """One Adam ascent step, in place on the parameter arrays.

    ``grads`` are sums over ``batch_size`` examples; the step uses their
    mean. Each parameter, which must be C-contiguous, is streamed through
    blocks of ``ADAM_BLOCK`` entries of its flat view with the elementwise
    operations of the plain formula, in its order, so the result has the
    same bits and the step allocates no full-size array. A gradient entry
    that is not finite, or whose magnitude exceeds ``ADAM_GRAD_LIMIT``,
    raises ``NonFiniteGradient``, and a parameter that is not C-contiguous
    ``ValueError``, before any parameter or moment changes.
    """
    for name, g in grads.items():
        if not named_params[name].flags.c_contiguous:
            raise ValueError(f"parameter '{name}' is not C-contiguous")
        g = g.reshape(-1)
        for i in range(0, g.size, ADAM_BLOCK):
            gb = g[i : i + ADAM_BLOCK]
            # NaN fails both comparisons
            if not (gb.min() >= -ADAM_GRAD_LIMIT and gb.max() <= ADAM_GRAD_LIMIT):
                raise NonFiniteGradient(
                    f"parameter '{name}'",
                    detail=f"an entry is not finite or exceeds {ADAM_GRAD_LIMIT:g} in "
                    "magnitude, beyond which Adam's second moment can overflow",
                )
    state.t += 1
    t = state.t
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, theta in named_params.items():
        arrays = (theta, grads[name], state.m[name], state.v[name])
        theta, g, m, v = (arr.reshape(-1) for arr in arrays)
        for i in range(0, theta.size, ADAM_BLOCK):
            block = slice(i, i + ADAM_BLOCK)
            tb, gb, mb, vb = theta[block], g[block], m[block], v[block]
            a, b = state.scratch[0][: gb.size], state.scratch[1][: gb.size]
            np.divide(gb, batch_size, out=a)
            mb *= ADAM_BETA1
            mb += np.multiply(1.0 - ADAM_BETA1, a, out=b)
            vb *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, a, out=b)
            vb += np.multiply(b, a, out=b)
            np.divide(mb, bc1, out=a)
            np.multiply(learning_rate, a, out=a)
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            tb += a


@dataclass
class EpochRecord:
    epoch: int
    elbo: float
    kl: float
    nats_per_word: float
    perplexity: float
    seconds: float


@dataclass
class TrainLog:
    records: list = field(default_factory=list)

    def to_csv(self):
        lines = ["epoch,elbo,kl,nats_per_word,perplexity,seconds"]
        for r in self.records:
            lines.append(
                f"{r.epoch},{r.elbo:.6f},{r.kl:.6f},{r.nats_per_word:.6f},"
                f"{r.perplexity:.6f},{r.seconds:.3f}"
            )
        return "\n".join(lines) + "\n"


def train(corpus, model_config, train_config, progress=None):
    """Train on ``corpus.train``; returns (final params, per-epoch log).

    Empty documents are excluded up front. ``progress``, if given, is
    called with each EpochRecord and the live params as its epoch ends.
    """
    docs = [doc for doc in corpus.train if not doc.is_empty]
    if not docs:
        raise EmptyCorpus("no non-empty training documents")
    root = RngStream(train_config.seed)
    # two ids, so the weights share no stream with a single-id substream of
    # the seed: substream(0) draws the held-out bound's samples, and single
    # ids below 100 the split's and the linear probe's shuffles
    params = model_mod.init_params(model_config, root.substream(0, 0))
    named = params.named_arrays()
    state = AdamState(named)
    gradients = {}  # the run's one gradient set, filled by its first step
    log = TrainLog()
    n = len(docs)
    bs = train_config.batch_size

    for epoch in range(1, train_config.epochs + 1):
        started = time.perf_counter()
        perm = root.substream(1, epoch).permutation(n)
        total_elbo = 0.0
        total_kl = 0.0
        total_words = 0
        for bi, start in enumerate(range(0, n, bs)):
            batch = [docs[i] for i in perm[start : start + bs]]
            eps = root.substream(2, epoch, bi).normal((len(batch), model_config.d))
            try:
                estimates, grads = model_mod.batch_elbo_gradients(
                    batch, params, model_config, eps, out=gradients
                )
                adam_step(named, grads, state, train_config.learning_rate, len(batch))
            except NonFiniteGradient as err:
                raise NonFiniteGradient(
                    err.source, context=f"epoch {epoch}, batch {bi}", detail=err.detail
                ) from err
            for est in estimates:
                total_elbo += est.total
                total_kl += est.kl
            total_words += sum(doc.length for doc in batch)
        nats_per_word = -total_elbo / total_words
        record = EpochRecord(
            epoch=epoch,
            elbo=total_elbo / n,
            kl=total_kl / n,
            nats_per_word=nats_per_word,
            perplexity=perplexity(nats_per_word),
            seconds=time.perf_counter() - started,
        )
        log.records.append(record)
        if progress is not None:
            progress(record, params)
    return params, log


# ---------------------------------------------------------------------------
# checkpoint file ("SAVM"): a fileio container of the config and parameters
# ---------------------------------------------------------------------------


def save_checkpoint(params, config, path):
    write_container(
        path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, asdict(config), params.named_arrays()
    )


def load_checkpoint(path):
    """Load (params, config); validates shapes against the stored config."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such checkpoint: {path}")
    with path.open("rb") as fh:
        r = ContainerReader(
            fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CorruptCheckpoint, f"checkpoint {path}"
        )
        try:
            config = ModelConfig.from_dict(r.header)
        except (ValueError, KeyError, TypeError, ConfigError) as err:
            raise CorruptCheckpoint(f"bad config block in checkpoint {path}: {err}") from err
        named = {n: r.section(n, "<f8", shape) for n, shape in expected_shapes(config).items()}
        r.finish()
    return ModelParams.from_named(named), config
