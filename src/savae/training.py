"""Adam optimizer (ascent form), minibatch training loop and checkpoints.

Per-batch gradients are the mean of per-document single-sample ELBO
gradients; Adam then ascends the ELBO. Everything is driven by derived
RNG substreams so that a seed fully determines the final checkpoint.
"""

import json
import math
import struct
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
    UnsupportedVersion,
)
from .fileio import Reader, atomic_write
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
    checkpoint_every: int = 100
    checkpoint_dir: str = None

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
    """First/second moment estimates per parameter plus the step counter.

    Also holds what ``adam_step`` streams the parameters through: each
    parameter's blocks of at most ``ADAM_BLOCK`` entries, each paired with
    views of two float scratch buffers, allocated once.
    """

    def __init__(self, named_arrays):
        self.m = {name: np.zeros(arr.shape) for name, arr in named_arrays.items()}
        self.v = {name: np.zeros(arr.shape) for name, arr in named_arrays.items()}
        self.t = 0
        size = min(ADAM_BLOCK, max((arr.size for arr in self.m.values()), default=0))
        scratch = (np.empty(size), np.empty(size))
        self.blocks = {}
        for name, m in self.m.items():
            self.blocks[name] = []
            for index in _block_indices(m.shape):
                shape = m[index].shape
                views = tuple(buf[: math.prod(shape)].reshape(shape) for buf in scratch)
                self.blocks[name].append((index,) + views)


def _block_indices(shape):
    """Basic-slice indices that tile an array of ``shape`` in C order.

    Each covers at most ``ADAM_BLOCK`` entries: whole leading-axis rows
    where a row fits, otherwise the blocks of each row in turn.
    """
    row = math.prod(shape[1:])
    if row <= ADAM_BLOCK:
        step = ADAM_BLOCK // max(row, 1)
        return [(slice(i, i + step),) for i in range(0, shape[0], step)]
    return [(i,) + rest for i in range(shape[0]) for rest in _block_indices(shape[1:])]


def adam_step(named_params, grads, state, learning_rate, batch_size=1):
    """One Adam ascent step, in place on the parameter arrays.

    ``grads`` are sums over ``batch_size`` examples; the step uses their
    mean. Each parameter is streamed through ``state``'s blocks with the
    elementwise operations of the plain formula, in its order, so the
    result has the same bits and the step allocates no full-size array.
    A gradient entry that is not finite, or whose magnitude exceeds
    ``ADAM_GRAD_LIMIT``, raises before any parameter or moment changes.
    """
    for name, g in grads.items():
        for index, _, _ in state.blocks[name]:
            gb = g[index]
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
        g, m, v = grads[name], state.m[name], state.v[name]
        for index, a, b in state.blocks[name]:
            mb, vb = m[index], v[index]
            np.divide(g[index], batch_size, out=a)
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
            tb = theta[index]
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
    called with each EpochRecord as it completes.
    """
    docs = [doc for doc in corpus.train if not doc.is_empty]
    if not docs:
        raise EmptyCorpus("no non-empty training documents")
    root = RngStream(train_config.seed)
    params = model_mod.init_params(model_config, root.substream(0))
    named = params.named_arrays()
    state = AdamState(named)
    log = TrainLog()
    n = len(docs)
    bs = train_config.batch_size
    ckpt_dir = Path(train_config.checkpoint_dir) if train_config.checkpoint_dir else None

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
                    batch, params, model_config, eps
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
            progress(record)
        if ckpt_dir is not None and train_config.checkpoint_every > 0:
            if epoch % train_config.checkpoint_every == 0:
                ckpt_dir.mkdir(parents=True, exist_ok=True)
                save_checkpoint(params, model_config, ckpt_dir / f"epoch_{epoch:05d}.savm")
    return params, log


# ---------------------------------------------------------------------------
# checkpoint file ("SAVM"); little-endian, f64 parameter payloads
# ---------------------------------------------------------------------------


def save_checkpoint(params, config, path):
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        cfg = json.dumps(asdict(config)).encode("utf-8")
        fh.write(struct.pack("<I", len(cfg)))
        fh.write(cfg)
        for name, arr in params.named_arrays().items():
            data = name.encode("utf-8")
            fh.write(struct.pack("<I", len(data)))
            fh.write(data)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Load (params, config); validates shapes against the stored config."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such checkpoint: {path}")
    with path.open("rb") as fh:
        r = Reader(fh, CorruptCheckpoint, f"checkpoint {path}")
        if r.read(4) != CHECKPOINT_MAGIC:
            raise CorruptCheckpoint(f"bad magic in checkpoint {path}")
        version = r.u32()
        if version != CHECKPOINT_VERSION:
            raise UnsupportedVersion(f"checkpoint version {version}")
        try:
            config = ModelConfig.from_dict(json.loads(r.read(r.u32())))
        except (ValueError, KeyError, TypeError, ConfigError) as err:
            raise CorruptCheckpoint(f"bad config block: {err}") from err
        named = {}
        for want_name, want_shape in expected_shapes(config).items():
            name = r.string()
            if name != want_name:
                raise CorruptCheckpoint(f"unexpected parameter '{name}'")
            shape = tuple(r.array("<u4", r.u32()).tolist())
            if shape != want_shape:
                raise CorruptCheckpoint(
                    f"parameter '{name}' has shape {shape}, expected {want_shape}"
                )
            count = int(np.prod(shape, dtype=np.int64))
            named[name] = r.array("<f8", count).astype(np.float64, copy=False).reshape(shape)
        if fh.read(1):
            raise CorruptCheckpoint(f"trailing bytes after the last parameter in {path}")
    return ModelParams.from_named(named), config
