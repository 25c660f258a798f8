import copy
import dataclasses
import json
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from conftest import random_model, tiny_config
from savae.corpus import CorpusSplit, Document, Vocabulary
from savae.errors import ConfigError, CorruptCheckpoint, EmptyCorpus, NonFiniteGradient, UnsupportedVersion
from savae import model as model_mod
from savae import training
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


BLOCK = training.ADAM_BLOCK


class TestAdamStep:
    def test_first_step_magnitude(self):
        params = {"x": np.array([0.0])}
        state = AdamState(params)
        adam_step(params, {"x": np.array([3.0])}, state, 0.01)
        assert params["x"][0] == pytest.approx(0.01, rel=1e-6)

    def test_zero_gradient_no_move(self):
        params = {"x": np.array([1.5])}
        state = AdamState(params)
        adam_step(params, {"x": np.array([0.0])}, state, 0.1)
        assert params["x"][0] == 1.5

    def test_converges_on_quadratic(self):
        # ascend f(x) = -(x - 3)^2, optimum at 3
        params = {"x": np.array([0.0])}
        state = AdamState(params)
        for _ in range(200):
            g = {"x": -2.0 * (params["x"] - 3.0)}
            adam_step(params, g, state, 0.1)
        assert abs(params["x"][0] - 3.0) < 1e-3

    def test_nonfinite_gradient_aborts(self):
        params = {"w": np.zeros(2), "q": np.zeros(2)}
        state = AdamState(params)
        grads = {"w": np.zeros(2), "q": np.array([1.0, np.nan])}
        with pytest.raises(NonFiniteGradient, match="q"):
            adam_step(params, grads, state, 0.1)
        # step aborted before any update
        assert state.t == 0
        assert np.all(params["w"] == 0.0)

    def test_step_magnitude_bound(self):
        rng = np.random.default_rng(0)
        params = {"x": rng.normal(size=50)}
        state = AdamState(params)
        for _ in range(100):
            before = params["x"].copy()
            adam_step(params, {"x": rng.normal(size=50) * 10}, state, 0.05)
            assert np.max(np.abs(params["x"] - before)) <= 10 * 0.05

    # every case is C-ordered, the one layout adam_step accepts
    # (test_rejects_a_parameter_that_is_not_c_contiguous)
    @pytest.mark.parametrize(
        "shape,layout",
        [
            ((1,), "C"),
            ((BLOCK - 1,), "C"),
            ((BLOCK,), "C"),
            ((BLOCK + 1,), "C"),
            ((2 * BLOCK + 3,), "C"),
            ((700, 97), "C"),
            ((3, BLOCK + 5), "C"),
        ],
    )
    @pytest.mark.parametrize("batch_size", [None, 7])
    def test_blocks_match_plain_formula(self, shape, layout, batch_size):
        theta = np.asarray(np.random.default_rng(shape[0]).normal(size=shape), order=layout)
        ref_theta = theta.copy()
        params, ref = {"p": theta}, {"p": ref_theta}
        state = AdamState(params)
        ref_m, ref_v = {"p": np.zeros(shape)}, {"p": np.zeros(shape)}
        rng = np.random.default_rng(1)
        for t in range(1, 7):
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
            if batch_size is None:
                adam_step(params, {"p": g}, state, 0.01)
                oracles.adam_step(ref, {"p": g}, ref_m, ref_v, t, 0.01)
            else:
                adam_step(params, {"p": g}, state, 0.01, batch_size)
                oracles.adam_step(ref, {"p": g / batch_size}, ref_m, ref_v, t, 0.01)
        assert params["p"] is theta
        assert theta.tobytes() == ref_theta.tobytes()
        assert state.m["p"].tobytes() == ref_m["p"].tobytes()
        assert state.v["p"].tobytes() == ref_v["p"].tobytes()
        assert state.t == 6

    def test_rejects_a_parameter_that_is_not_c_contiguous(self):
        rng = np.random.default_rng(3)
        params = {"a": rng.normal(size=BLOCK + 10), "b": rng.normal(size=(300, 250))}
        state = AdamState(params)
        for _ in range(2):
            grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
            adam_step(params, grads, state, 0.01, 3)
        owner = rng.normal(size=(600, 251))
        owner[::2, 1:] = params["b"]
        grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
        # "b" comes after "a", so a check made while updating would find "a" moved
        for bad in (np.asfortranarray(params["b"]), owner[::2, 1:]):
            laid_out = {"a": params["a"], "b": bad}
            before = [arr.copy() for d in (laid_out, state.m, state.v) for arr in d.values()]
            with pytest.raises(ValueError, match="parameter 'b'"):
                adam_step(laid_out, grads, state, 0.01, 3)
            after = [arr for d in (laid_out, state.m, state.v) for arr in d.values()]
            assert all(x.tobytes() == y.tobytes() for x, y in zip(before, after))
            assert state.t == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e155, -1e155])
    def test_nonfinite_in_last_block_changes_nothing(self, bad):
        rng = np.random.default_rng(2)
        params = {"a": rng.normal(size=BLOCK + 10), "b": rng.normal(size=(2, BLOCK + 2))}
        state = AdamState(params)
        for _ in range(2):
            grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
            adam_step(params, grads, state, 0.01, 3)
        grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
        grads["b"][-1, -1] = bad
        before = [arr.copy() for d in (params, state.m, state.v) for arr in d.values()]
        with pytest.raises(NonFiniteGradient, match="parameter 'b'"):
            adam_step(params, grads, state, 0.01, 3)
        after = [arr for d in (params, state.m, state.v) for arr in d.values()]
        assert all(x.tobytes() == y.tobytes() for x, y in zip(before, after))
        assert state.t == 2

    def test_largest_accepted_gradient_keeps_moments_finite(self):
        limit = training.ADAM_GRAD_LIMIT
        params = {"x": np.zeros(4)}
        state = AdamState(params)
        for step in range(50):
            sign = 1.0 if step % 3 else -1.0
            adam_step(params, {"x": np.array([limit, -limit, sign * limit, 0.0])}, state, 0.01)
        for arr in (params["x"], state.m["x"], state.v["x"]):
            assert np.isfinite(arr).all()
        assert state.t == 50

    def test_step_allocates_no_full_size_array(self):
        def peak(shape):
            params = {"p": np.ones(shape)}
            grads = {"p": np.full(shape, 0.5)}
            state = AdamState(params)
            adam_step(params, grads, state, 1e-3, 4)
            tracemalloc.start()
            try:
                adam_step(params, grads, state, 1e-3, 4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak((500, 500)), peak((2000, 500))
        assert large <= 1.25 * small
        assert large < 2_000_000



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

    def test_rejects_zero_batch_size(self):
        with pytest.raises(ConfigError, match="^batch_size must be >= 1$"):
            TrainConfig(learning_rate=0.001, epochs=1, batch_size=0)

    def test_config_fields(self):
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        assert names == ["learning_rate", "epochs", "batch_size", "seed"]

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

    def test_initial_weights_draw_from_their_own_stream(self, monkeypatch):
        # the bound's samples come from substream(0) of the same seed, and
        # single ids below 100 shuffle the split and the probe; weights drawn
        # from one of them would correlate with what scores them
        streams = []
        init = model_mod.init_params

        def recording(config, rng):
            streams.append(rng._key)
            return init(config, rng)

        monkeypatch.setattr(model_mod, "init_params", recording)
        split = synthetic_two_topic_corpus(n_docs=10, m=6)
        mcfg = ModelConfig(mode="nvdm", m=6, d=2, encoder_layers=(4,))
        seed = 2
        train(split, mcfg, TrainConfig(learning_rate=0.001, epochs=1, seed=seed))
        root = RngStream(seed)
        taken = {root._key} | {root.substream(i)._key for i in range(100)}
        assert len(streams) == 1 and streams[0] not in taken

    def test_elbo_improves_on_learnable_corpus(self):
        split = synthetic_two_topic_corpus(n_docs=200, m=20)
        mcfg = ModelConfig(mode="savae", m=20, d=4, k=3, encoder_layers=(16,))
        tcfg = TrainConfig(learning_rate=0.003, epochs=50, batch_size=32, seed=1)
        _, log = train(split, mcfg, tcfg)
        assert log.records[-1].elbo > log.records[0].elbo
        assert log.records[-1].perplexity < log.records[0].perplexity
        assert len(log.records) == 50

    def test_progress_sees_each_epoch_and_the_live_params(self):
        split = synthetic_two_topic_corpus(n_docs=20, m=8)
        mcfg = ModelConfig(mode="savae", m=8, d=2, k=2, encoder_layers=(4,))
        calls = []

        def progress(record, params):
            calls.append((record, params, copy.deepcopy(params.named_arrays())))

        params, log = train(split, mcfg, TrainConfig(0.01, epochs=3, batch_size=8), progress)
        assert [record.epoch for record, _, _ in calls] == [1, 2, 3]
        assert all(record is logged for (record, _, _), logged in zip(calls, log.records))
        assert all(live is params for _, live, _ in calls)
        # the params as each epoch ended are those of a run that stops there
        for epoch, (_, _, arrays) in enumerate(calls, start=1):
            stopped, _ = train(split, mcfg, TrainConfig(0.01, epochs=epoch, batch_size=8))
            for name, arr in stopped.named_arrays().items():
                np.testing.assert_array_equal(arrays[name], arr)

    def test_failing_progress_keeps_earlier_checkpoints(self, tmp_path):
        split = synthetic_two_topic_corpus(n_docs=20, m=8)
        mcfg = ModelConfig(mode="nvdm", m=8, d=2, encoder_layers=(4,))

        def progress(record, params):
            save_checkpoint(params, mcfg, tmp_path / f"epoch_{record.epoch}.savm")
            if record.epoch == 2:
                raise RuntimeError("stopped after epoch 2")

        with pytest.raises(RuntimeError, match="stopped after epoch 2"):
            train(split, mcfg, TrainConfig(0.01, epochs=4, batch_size=8), progress)
        one, _ = train(split, mcfg, TrainConfig(0.01, epochs=1, batch_size=8))
        save_checkpoint(one, mcfg, tmp_path / "one.savm")
        assert (tmp_path / "epoch_1.savm").read_bytes() == (tmp_path / "one.savm").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "epoch_1.savm", "epoch_2.savm", "one.savm"
        ]

    def test_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        split = synthetic_two_topic_corpus(n_docs=20, m=8)
        mcfg = ModelConfig(mode="nvdm", m=8, d=2, encoder_layers=(4,))
        train(split, mcfg, TrainConfig(0.01, epochs=2, batch_size=8))
        assert list(tmp_path.iterdir()) == []

    def test_trainlog_csv_shape(self):
        split = synthetic_two_topic_corpus(n_docs=12, m=6)
        mcfg = ModelConfig(mode="nvdm", m=6, d=2, encoder_layers=(3,))
        _, log = train(split, mcfg, TrainConfig(learning_rate=0.001, epochs=2, batch_size=4))
        lines = log.to_csv().strip().split("\n")
        assert lines[0] == "epoch,elbo,kl,nats_per_word,perplexity,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("1,")

    @pytest.mark.parametrize("mode", ["savae", "nvdm"])
    def test_steps_share_one_gradient_set(self, monkeypatch, mode):
        split = synthetic_two_topic_corpus(n_docs=12, m=6)
        mcfg = ModelConfig(mode=mode, m=6, d=2, k=2, encoder_layers=(3,))
        real = model_mod.batch_elbo_gradients
        seen = []

        def recording(docs, params, config, eps, out=None):
            estimates, grads = real(docs, params, config, eps, out)
            seen.append(list(grads.values()))
            return estimates, grads

        monkeypatch.setattr(model_mod, "batch_elbo_gradients", recording)
        train(split, mcfg, TrainConfig(learning_rate=0.001, epochs=2, batch_size=4))
        assert len(seen) == 2 * 3
        for arrays in seen[1:]:
            assert all(a is b for a, b in zip(arrays, seen[0], strict=True))

    def test_per_word_bound_past_exp_overflow(self, monkeypatch):
        split = synthetic_two_topic_corpus(n_docs=12, m=6)
        mcfg = ModelConfig(mode="nvdm", m=6, d=2, encoder_layers=(3,))
        real = model_mod.batch_elbo_gradients

        def huge_loss(docs, params, config, eps, out=None):
            estimates, grads = real(docs, params, config, eps, out)
            return [ElboEstimate(-800.0 * doc.length, 0.0) for doc in docs], grads

        monkeypatch.setattr(model_mod, "batch_elbo_gradients", huge_loss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, log = train(split, mcfg, TrainConfig(learning_rate=0.001, epochs=1, batch_size=4))
        record = log.records[0]
        assert record.nats_per_word == pytest.approx(800.0, rel=1e-12)
        assert record.perplexity == np.inf
        assert log.to_csv().split("\n")[1].split(",")[3] == "800.000000"


class TestTrainNumerics:
    @pytest.mark.parametrize("mode", ["savae", "nvdm"])
    def test_matches_plain_adam(self, monkeypatch, mode):
        # m = 2000 makes enc_W_0 (2000, 40) three Adam blocks
        split = synthetic_two_topic_corpus(n_docs=40, m=2000)
        mcfg = ModelConfig(mode=mode, m=2000, d=3, k=2, encoder_layers=(40,))
        tcfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=16, seed=3)
        params, _ = train(split, mcfg, tcfg)

        def plain(named, grads, state, learning_rate, batch_size):
            state.t += 1
            mean = {name: g / batch_size for name, g in grads.items()}
            oracles.adam_step(named, mean, state.m, state.v, state.t, learning_rate)

        monkeypatch.setattr(training, "adam_step", plain)
        ref, _ = train(split, mcfg, tcfg)
        ref_named = ref.named_arrays()
        for name, arr in params.named_arrays().items():
            assert arr.tobytes() == ref_named[name].tobytes(), name

    @pytest.mark.parametrize(
        "b_logvar,detail",
        [(3000.0, "exceeds log(float64 max)"), (np.inf, "not finite"), (np.nan, "not finite")],
    )
    def test_log_variance_overflow_is_named(self, monkeypatch, b_logvar, detail):
        split = synthetic_two_topic_corpus(n_docs=12, m=6)
        mcfg = ModelConfig(mode="savae", m=6, d=2, k=2, encoder_layers=(3,))
        real = model_mod.init_params

        def overflowing(config, rng):
            params = real(config, rng)
            params.b_logvar[:] = b_logvar
            return params

        monkeypatch.setattr(model_mod, "init_params", overflowing)
        with pytest.raises(NonFiniteGradient) as info:
            train(split, mcfg, TrainConfig(learning_rate=0.001, epochs=1, batch_size=4))
        msg = str(info.value)
        assert msg.startswith("non-finite gradient in encoder log-variance (epoch 1, batch 0): ")
        assert detail in msg


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

    def test_config_block_bytes(self, tmp_path):
        cfg = tiny_config("savae", m=7, d=3, k=2, layers=(4, 3))
        path = tmp_path / "model.savm"
        save_checkpoint(random_model(cfg), cfg, path)
        data = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", data[8:12])
        assert data[12 : 12 + cfg_len] == (
            b'{"mode": "savae", "m": 7, "d": 3, "k": 2, "encoder_layers": [4, 3]}'
        )

    def test_config_with_sample_count_train_loads(self, tmp_path):
        cfg = tiny_config("nvdm", m=5, d=2, layers=(3,))
        params = random_model(cfg, seed=4)
        path = tmp_path / "model.savm"
        save_checkpoint(params, cfg, path)
        data = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", data[8:12])
        # the config block as older versions wrote it: both sample counts
        # are ignored on load
        old_cfg = json.loads(data[12 : 12 + cfg_len])
        old_cfg = {**old_cfg, "sample_count_train": 1, "sample_count_eval": 7}
        block = json.dumps(old_cfg).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<I", len(block)) + block + data[12 + cfg_len :])
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        for name, arr in params.named_arrays().items():
            np.testing.assert_array_equal(arr, loaded.named_arrays()[name])

    def test_golden_bytes(self, tmp_path):
        cfg = tiny_config("nvdm", m=2, d=1, layers=(1,))
        params = random_model(cfg, seed=3)
        path = tmp_path / "model.savm"
        save_checkpoint(params, cfg, path)
        # laid out by hand: magic, u32 version 1, the config as a u32-length
        # JSON block, then per parameter its u32-length name, u32 rank, u32
        # dimensions and little-endian float64 values
        block = b'{"mode": "nvdm", "m": 2, "d": 1, "k": 2, "encoder_layers": [1]}'
        want = b"SAVM" + struct.pack("<II", 1, len(block)) + block
        names = ["X", "b", "enc_W_0", "enc_b_0", "W_mu", "b_mu", "W_logvar", "b_logvar"]
        for name, arr in zip(names, params.named_arrays().values(), strict=True):
            want += struct.pack("<I", len(name)) + name.encode("ascii")
            want += struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
            want += struct.pack(f"<{arr.size}d", *arr.ravel().tolist())
        assert path.read_bytes() == want

    def test_every_proper_prefix_is_corrupt(self, tmp_path):
        cfg = tiny_config("savae", m=5, d=2, k=2, layers=(3,))
        path = tmp_path / "model.savm"
        save_checkpoint(random_model(cfg), cfg, path)
        data = path.read_bytes()
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(CorruptCheckpoint, match=re.escape(f"checkpoint {path}")):
                load_checkpoint(path)

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

    @pytest.mark.parametrize("field", ["config", "first-name"])
    def test_huge_length_field_allocates_nothing(self, tmp_path, field):
        cfg = tiny_config()
        path = tmp_path / "model.savm"
        save_checkpoint(random_model(cfg), cfg, path)
        data = bytearray(path.read_bytes())
        (cfg_len,) = struct.unpack("<I", data[8:12])
        at = 8 if field == "config" else 12 + cfg_len
        data[at : at + 4] = struct.pack("<I", 0xFFFFFFF0)
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptCheckpoint, match="truncated"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_load_copies_each_array_once(self, tmp_path):
        cfg = tiny_config("savae", m=4000, d=16, layers=(8,))
        params = random_model(cfg)
        path = tmp_path / "model.savm"
        save_checkpoint(params, cfg, path)
        sizes = [arr.nbytes for arr in params.named_arrays().values()]
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # reading through a bytes object and then astype held the first and
        # largest array, X, twice: 0.26 MB over the arrays' own 1.83 MB
        assert peak < sum(sizes) + max(sizes) // 10
        for name, arr in loaded.named_arrays().items():
            assert arr.dtype == np.float64 and arr.flags.writeable
            np.testing.assert_array_equal(arr, params.named_arrays()[name])

    def test_version_mismatch(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.savm"
        save_checkpoint(random_model(cfg), cfg, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersion):
            load_checkpoint(path)
