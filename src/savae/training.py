"""Adam optimizer (ascent form), minibatch training loop and checkpoints.

Per-batch gradients are the mean of per-document single-sample ELBO
gradients; Adam then ascends the ELBO. Everything is driven by derived
RNG substreams so that a seed fully determines the final checkpoint.
"""

import json
import struct
import time
from dataclasses import dataclass, field
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
from .fileio import atomic_write
from .model import ModelConfig, ModelParams, expected_shapes
from .numerics import RngStream

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


@dataclass
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int = 64
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    checkpoint_every: int = 100
    checkpoint_dir: str = None

    def __post_init__(self):
        problems = []
        if self.learning_rate <= 0:
            problems.append("learning_rate must be > 0")
        if self.epochs < 1:
            problems.append("epochs must be >= 1")
        if self.batch_size < 1:
            problems.append("batch_size must be >= 1")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            problems.append("beta1/beta2 must lie in [0, 1)")
        if problems:
            raise ConfigError(problems)


class AdamState:
    """First/second moment estimates per parameter plus the step counter."""

    def __init__(self, shapes):
        self.m = {name: np.zeros(shape) for name, shape in shapes.items()}
        self.v = {name: np.zeros(shape) for name, shape in shapes.items()}
        self.t = 0

    @classmethod
    def for_params(cls, named_arrays):
        return cls({name: arr.shape for name, arr in named_arrays.items()})


def adam_step(named_params, grads, state, config):
    """One Adam ascent step, in place on the parameter arrays."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(name)
    state.t += 1
    t = state.t
    bc1 = 1.0 - config.beta1**t
    bc2 = 1.0 - config.beta2**t
    for name, theta in named_params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        theta += config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.eps_adam)


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
    state = AdamState.for_params(named)
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
                for g in grads.values():
                    g /= len(batch)
                adam_step(named, grads, state, train_config)
            except NonFiniteGradient as err:
                raise NonFiniteGradient(
                    err.param_name, context=f"epoch {epoch}, batch {bi}"
                ) from err
            for est in estimates:
                total_elbo += est.total
                total_kl += est.kl
            total_words += sum(doc.length for doc in batch)
        nats_per_word = -total_elbo / total_words
        # exp overflows to inf past ~709 nats per word; nats_per_word stays finite
        with np.errstate(over="ignore"):
            perplexity = float(np.exp(nats_per_word))
        record = EpochRecord(
            epoch=epoch,
            elbo=total_elbo / n,
            kl=total_kl / n,
            nats_per_word=nats_per_word,
            perplexity=perplexity,
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
        cfg = json.dumps(config.to_dict()).encode("utf-8")
        fh.write(struct.pack("<I", len(cfg)))
        fh.write(cfg)
        for name, arr in params.named_arrays().items():
            data = name.encode("utf-8")
            fh.write(struct.pack("<I", len(data)))
            fh.write(data)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n):
    data = fh.read(n)
    if len(data) != n:
        raise CorruptCheckpoint("truncated checkpoint file")
    return data


def load_checkpoint(path, expect_mode=None):
    """Load (params, config); validates shapes against the stored config.

    ``expect_mode`` lets callers assert the checkpoint holds the model
    variant they are about to evaluate.
    """
    path = Path(path)
    if not path.exists():
        raise IoError(f"no such checkpoint: {path}")
    with path.open("rb") as fh:
        if _read_exact(fh, 4) != CHECKPOINT_MAGIC:
            raise CorruptCheckpoint(f"bad magic in checkpoint {path}")
        version = struct.unpack("<I", _read_exact(fh, 4))[0]
        if version != CHECKPOINT_VERSION:
            raise UnsupportedVersion(f"checkpoint version {version}")
        cfg_len = struct.unpack("<I", _read_exact(fh, 4))[0]
        try:
            config = ModelConfig.from_dict(json.loads(_read_exact(fh, cfg_len)))
        except (ValueError, KeyError) as err:
            raise CorruptCheckpoint(f"bad config block: {err}") from err
        if expect_mode is not None and config.mode != expect_mode:
            raise CorruptCheckpoint(
                f"checkpoint holds a {config.mode} model, expected {expect_mode}"
            )
        shapes = expected_shapes(config)
        named = {}
        for want_name, want_shape in shapes.items():
            name_len = struct.unpack("<I", _read_exact(fh, 4))[0]
            name = _read_exact(fh, name_len).decode("utf-8")
            if name != want_name:
                raise CorruptCheckpoint(f"unexpected parameter '{name}'")
            ndim = struct.unpack("<I", _read_exact(fh, 4))[0]
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
            if shape != want_shape:
                raise CorruptCheckpoint(
                    f"parameter '{name}' has shape {shape}, expected {want_shape}"
                )
            count = int(np.prod(shape, dtype=np.int64))
            arr = np.frombuffer(_read_exact(fh, 8 * count), dtype="<f8")
            named[name] = arr.astype(np.float64).reshape(shape)
        if fh.read(1):
            raise CorruptCheckpoint(f"trailing bytes after the last parameter in {path}")
    return ModelParams.from_named(named, config), config
