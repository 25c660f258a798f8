import dataclasses
import json
import struct
import warnings

import numpy as np
import pytest

from conftest import random_model, tiny_config
from savae.corpus import CorpusSplit, Document, Vocabulary
from savae.errors import ConfigError, CorruptCheckpoint, EmptyCorpus, NonFiniteGradient, UnsupportedVersion
from savae import model as model_mod
from savae.model import ElboEstimate, ModelConfig
from savae.numerics import RngStream
from savae.training import (
    AdamState,
    TrainConfig,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    train,
)


def make_adam_config(lr=0.1):
    return TrainConfig(learning_rate=lr, epochs=1)


class TestAdamStep:
    def test_first_step_magnitude(self):
        params = {"x": np.array([0.0])}
        state = AdamState.for_params(params)
        cfg = make_adam_config(lr=0.01)
        adam_step(params, {"x": np.array([3.0])}, state, cfg)
        assert params["x"][0] == pytest.approx(0.01, rel=1e-6)

    def test_zero_gradient_no_move(self):
        params = {"x": np.array([1.5])}
        state = AdamState.for_params(params)
        adam_step(params, {"x": np.array([0.0])}, state, make_adam_config())
        assert params["x"][0] == 1.5

    def test_converges_on_quadratic(self):
        # ascend f(x) = -(x - 3)^2, optimum at 3
        params = {"x": np.array([0.0])}
        state = AdamState.for_params(params)
        cfg = make_adam_config(lr=0.1)
        for _ in range(200):
            g = {"x": -2.0 * (params["x"] - 3.0)}
            adam_step(params, g, state, cfg)
        assert abs(params["x"][0] - 3.0) < 1e-3

    def test_nonfinite_gradient_aborts(self):
        params = {"w": np.zeros(2), "q": np.zeros(2)}
        state = AdamState.for_params(params)
        grads = {"w": np.zeros(2), "q": np.array([1.0, np.nan])}
        with pytest.raises(NonFiniteGradient, match="q"):
            adam_step(params, grads, state, make_adam_config())
        # step aborted before any update
        assert state.t == 0
        assert np.all(params["w"] == 0.0)

    def test_step_magnitude_bound(self):
        rng = np.random.default_rng(0)
        params = {"x": rng.normal(size=50)}
        state = AdamState.for_params(params)
        cfg = make_adam_config(lr=0.05)
        for _ in range(100):
            before = params["x"].copy()
            adam_step(params, {"x": rng.normal(size=50) * 10}, state, cfg)
            assert np.max(np.abs(params["x"] - before)) <= 10 * cfg.learning_rate


def synthetic_two_topic_corpus(n_docs=200, m=20, seed=0):
    """Two topics with disjoint preferred words; learnable at desk scale."""
    rng = RngStream(seed)
    docs = []
    for i in range(n_docs):
        topic = i % 2
        lo, hi = (0, m // 2) if topic == 0 else (m // 2, m)
        length = 5 + int(rng.uniform() * 10)
        ids = [lo + int(rng.uniform() * (hi - lo)) for _ in range(length)]
        docs.append(Document(ids=ids, labels={f"topic{topic}"}))
    vocab = Vocabulary(tokens=[f"w{i}" for i in range(m)], counts=[1] * m)
    return CorpusSplit(train=docs, test=docs[:20], vocabulary=vocab, shuffle_seed=seed)


class TestTrain:
    def test_rejects_zero_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.001, epochs=0)

    def test_rejects_empty_corpus(self):
        cfg = tiny_config(m=4)
        split = CorpusSplit(
            train=[Document(ids=[])],
            test=[],
            vocabulary=Vocabulary(tokens=["aa"], counts=[1]),
            shuffle_seed=0,
        )
        with pytest.raises(EmptyCorpus):
            train(split, cfg, TrainConfig(learning_rate=0.001, epochs=1))

    def test_deterministic_checkpoints(self, tmp_path):
        split = synthetic_two_topic_corpus(n_docs=30, m=10)
        mcfg = ModelConfig(mode="savae", m=10, d=3, k=2, encoder_layers=(5,))
        tcfg = TrainConfig(learning_rate=0.001, epochs=3, batch_size=8, seed=42)
        paths = []
        for run in range(2):
            params, _ = train(split, mcfg, tcfg)
            path = tmp_path / f"run{run}.savm"
            save_checkpoint(params, mcfg, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_elbo_improves_on_learnable_corpus(self):
        split = synthetic_two_topic_corpus(n_docs=200, m=20)
        mcfg = ModelConfig(mode="savae", m=20, d=4, k=3, encoder_layers=(16,))
        tcfg = TrainConfig(learning_rate=0.003, epochs=50, batch_size=32, seed=1)
        _, log = train(split, mcfg, tcfg)
        assert log.records[-1].elbo > log.records[0].elbo
        assert log.records[-1].perplexity < log.records[0].perplexity
        assert len(log.records) == 50

    def test_periodic_checkpoints_written(self, tmp_path):
        split = synthetic_two_topic_corpus(n_docs=20, m=8)
        mcfg = ModelConfig(mode="nvdm", m=8, d=2, encoder_layers=(4,))
        tcfg = TrainConfig(
            learning_rate=0.001,
            epochs=4,
            batch_size=8,
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path / "ckpts"),
        )
        train(split, mcfg, tcfg)
        names = sorted(p.name for p in (tmp_path / "ckpts").iterdir())
        assert names == ["epoch_00002.savm", "epoch_00004.savm"]

    def test_trainlog_csv_shape(self):
        split = synthetic_two_topic_corpus(n_docs=12, m=6)
        mcfg = ModelConfig(mode="nvdm", m=6, d=2, encoder_layers=(3,))
        _, log = train(split, mcfg, TrainConfig(learning_rate=0.001, epochs=2, batch_size=4))
        lines = log.to_csv().strip().split("\n")
        assert lines[0] == "epoch,elbo,kl,nats_per_word,perplexity,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("1,")

    def test_per_word_bound_past_exp_overflow(self, monkeypatch):
        split = synthetic_two_topic_corpus(n_docs=12, m=6)
        mcfg = ModelConfig(mode="nvdm", m=6, d=2, encoder_layers=(3,))
        real = model_mod.batch_elbo_gradients

        def huge_loss(docs, params, config, eps):
            estimates, grads = real(docs, params, config, eps)
            return [ElboEstimate(-800.0 * doc.length, 0.0, 1) for doc in docs], grads

        monkeypatch.setattr(model_mod, "batch_elbo_gradients", huge_loss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, log = train(split, mcfg, TrainConfig(learning_rate=0.001, epochs=1, batch_size=4))
        record = log.records[0]
        assert record.nats_per_word == pytest.approx(800.0, rel=1e-12)
        assert record.perplexity == np.inf
        assert log.to_csv().split("\n")[1].split(",")[3] == "800.000000"


class TestCheckpointIo:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config("savae", m=7, d=3, k=2, layers=(4, 3))
        params = random_model(cfg, seed=13)
        path = tmp_path / "model.savm"
        save_checkpoint(params, cfg, path)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        for name, arr in params.named_arrays().items():
            np.testing.assert_array_equal(arr, loaded.named_arrays()[name])

    def test_config_with_sample_count_train_loads(self, tmp_path):
        cfg = tiny_config("nvdm", m=5, d=2, layers=(3,))
        params = random_model(cfg, seed=4)
        path = tmp_path / "model.savm"
        save_checkpoint(params, cfg, path)
        data = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", data[8:12])
        # the config block as older versions wrote it
        old_cfg = json.loads(data[12 : 12 + cfg_len])
        old_cfg = {**old_cfg, "sample_count_train": 1, "sample_count_eval": 7}
        block = json.dumps(old_cfg).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<I", len(block)) + block + data[12 + cfg_len :])
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == dataclasses.replace(cfg, sample_count_eval=7)
        for name, arr in params.named_arrays().items():
            np.testing.assert_array_equal(arr, loaded.named_arrays()[name])

    def test_truncated_file(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.savm"
        save_checkpoint(random_model(cfg), cfg, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_trailing_byte(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.savm"
        save_checkpoint(random_model(cfg), cfg, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptCheckpoint, match="trailing bytes"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.savm"
        save_checkpoint(random_model(cfg), cfg, path)
        before = path.read_bytes()
        params = random_model(cfg, seed=1)
        params.b_logvar = np.array(["not a number"], dtype=object)  # the last array
        with pytest.raises(ValueError):
            save_checkpoint(params, cfg, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.savm"]

    def test_version_mismatch(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.savm"
        save_checkpoint(random_model(cfg), cfg, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersion):
            load_checkpoint(path)

    def test_mode_mismatch_rejected(self, tmp_path):
        cfg = tiny_config("savae")
        path = tmp_path / "model.savm"
        save_checkpoint(random_model(cfg), cfg, path)
        with pytest.raises(CorruptCheckpoint, match="nvdm"):
            load_checkpoint(path, expect_mode="nvdm")
