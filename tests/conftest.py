import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from savae.corpus import Document
from savae.model import ModelConfig, init_params
from savae.numerics import RngStream


def tiny_config(mode="savae", m=6, d=2, k=2, layers=(4,)):
    return ModelConfig(mode=mode, m=m, d=d, k=k, encoder_layers=layers)


def random_doc(rng, m, min_len=1, max_len=8):
    l = min_len + int(rng.uniform() * (max_len - min_len + 1))
    l = min(l, max_len)
    return Document(ids=[int(rng.uniform() * m) for _ in range(l)])


def random_model(config, seed=0):
    return init_params(config, RngStream(seed))


def zero_model(config):
    params = init_params(config, RngStream(0))
    for arr in params.named_arrays().values():
        arr[...] = 0.0
    return params


def overflowing_log_variance():
    """(config, params, docs): an nvdm model whose log-variance for its one
    260-token document, about 741.3, passes log(float max)."""
    config = ModelConfig(mode="nvdm", m=1, d=1, encoder_layers=(3,))
    params = zero_model(config)
    params.enc_W[0][:] = [[1.185, 1.096, 0.484]]
    params.W_logvar[:] = [[1.034], [1.071], [0.934]]
    return config, params, [Document(ids=[0] * 260)]


def container_bytes(magic, version, header, sections):
    """A container laid out by hand as the ``fileio`` docstring documents it.

    ``header`` is a JSON-able object or the raw bytes of the header block,
    and ``sections`` a list of (name, dtype, values) that may repeat names.
    """
    head = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    out = magic + struct.pack("<II", version, len(head)) + head
    for name, dtype, values in sections:
        arr = np.asarray(values, dtype=dtype)
        key = name.encode("utf-8")
        out += struct.pack(f"<I{len(key)}sI{arr.ndim}I", len(key), key, arr.ndim, *arr.shape)
        out += arr.tobytes()
    return out


@pytest.fixture
def np_rng():
    return np.random.default_rng(12345)
