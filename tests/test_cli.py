import argparse
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import overflowing_log_variance
import savae
from savae import model, training
from savae.corpus import CorpusSplit, Vocabulary, load_corpus_file, save_corpus_file
from savae.cli import DEFAULTS, build_parser, main, read_config_file
from savae.inference import DocRepresentation, write_representations

GROUPS = {
    "rec.pets": [
        "the cat sat on the mat and the cat purred loudly",
        "dogs and cats play in the garden while the cat sleeps",
        "my cat chased the dog around the mat all day long",
        "the dog barked at the cat near the garden mat",
    ],
    "sci.space": [
        "the rocket reached orbit and the satellite deployed cleanly",
        "orbit mechanics govern the satellite and the rocket burn",
        "the satellite scanned the planet from low orbit today",
        "rocket engines fired and the orbit was circular again",
    ],
}


def _write_groups(root):
    for group, texts in GROUPS.items():
        gdir = root / group
        gdir.mkdir(parents=True)
        for i, text in enumerate(texts):
            (gdir / f"{i:03d}").write_text(f"From: x@y\n\n{text}\n")
    return root


@pytest.fixture
def corpus_dir(tmp_path):
    return _write_groups(tmp_path / "raw")


def run(args):
    return main([str(a) for a in args])


# each subcommand's arguments, relative to the ``fitted`` directory; the
# first is a path that the command reads
COMMANDS = {
    "preprocess": ["--input", "groups", "--format", "newsgroup-dirs", "--vocab-size", "20",
                   "--test-fraction", "0.25"],
    "train": ["--corpus", "pre/corpus.savc", "--mode", "nvdm", "--d", "2", "--epochs", "1",
              "--batch-size", "4"],
    "represent": ["--checkpoint", "t/model.savm", "--corpus", "pre/corpus.savc"],
    "eval-bound": ["--checkpoint", "t/model.savm", "--corpus", "pre/corpus.savc",
                   "--samples", "2"],
    "eval-retrieval": ["--queries", "rep/representations_test.csv",
                       "--index", "rep/representations_train.csv"],
    "eval-cluster": ["--reps", "rep/representations_train.csv"],
    "neighbors": ["--checkpoint", "t/model.savm", "--corpus", "pre/corpus.savc",
                  "--words", "the"],
    "probe": ["--train", "rep/representations_train.csv",
              "--test", "rep/representations_test.csv"],
}

# (command, flag, config key, flag value, config-file value); the flag goes
# after the subcommand unless the command is None, and then before "represent"
FLAG_KEYS = [
    ("preprocess", "--vocab-size", "corpus.vocab_size", "19", "25"),
    ("train", "--mode", "model.mode", "nvdm", "savae"),
    ("train", "--d", "model.d", "3", "4"),
    ("train", "--k", "model.k", "3", "4"),
    ("train", "--lr", "train.lr", "0.02", "0.5"),
    ("train", "--epochs", "train.epochs", "2", "3"),
    ("train", "--batch-size", "train.batch_size", "5", "6"),
    ("eval-bound", "--samples", "model.eval_samples", "3", "4"),
    ("represent", "--seed", "seed", "7", "5"),
    (None, "--seed", "seed", "8", "5"),
]


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A directory with the raw groups, their corpus file in ``pre``, a
    20-word nvdm checkpoint in ``t`` and both splits' representations in
    ``rep``."""
    root = tmp_path_factory.mktemp("fitted")
    _write_groups(root / "groups")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for out, command, extra in [
            ("pre", "preprocess", []),
            ("t", "train", []),
            ("rep", "represent", ["--split", "train"]),
            ("rep", "represent", ["--split", "test"]),
        ]:
            assert run(["--out", out, command, *COMMANDS[command], *extra]) == 0
    return root


class TestPipeline:
    def test_end_to_end(self, tmp_path, corpus_dir, capsys):
        out = tmp_path / "run"
        assert run(
            ["--out", out / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 30,
             "--test-fraction", "0.25", "--seed", 2]
        ) == 0
        corpus = out / "pre" / "corpus.savc"
        assert corpus.exists()
        assert "command=preprocess" in (out / "pre" / "manifest.txt").read_text()

        assert run(
            ["--out", out / "train", "train", "--corpus", corpus, "--mode", "savae",
             "--d", 3, "--k", 2, "--lr", "0.005", "--epochs", 5, "--batch-size", 4,
             "--seed", 1]
        ) == 0
        ckpt = out / "train" / "model.savm"
        assert ckpt.exists()
        log = (out / "train" / "trainlog.csv").read_text().strip().split("\n")
        assert log[0] == "epoch,elbo,kl,nats_per_word,perplexity,seconds" and len(log) == 6

        for split in ("train", "test"):
            assert run(
                ["--out", out / "rep", "represent", "--checkpoint", ckpt,
                 "--corpus", corpus, "--split", split]
            ) == 0
        assert run(
            ["--out", out / "ret", "eval-retrieval",
             "--queries", out / "rep" / "representations_test.csv",
             "--index", out / "rep" / "representations_train.csv",
             "--relevance", "exact"]
        ) == 0
        pr = (out / "ret" / "pr_curve.csv").read_text().strip().split("\n")
        assert pr[0] == "recall,precision" and len(pr) > 2

        assert run(
            ["--out", out / "clu", "eval-cluster",
             "--reps", out / "rep" / "representations_train.csv"]
        ) == 0
        report = (out / "clu" / "cluster_metrics.txt").read_text()
        for key in ("davies_bouldin_mean", "dunn", "silhouette_mean"):
            assert key in report

        assert run(
            ["--out", out / "nn", "neighbors", "--checkpoint", ckpt,
             "--corpus", corpus, "--words", "cat,orbit", "--space", "local", "--n", 3]
        ) == 0
        text = (out / "nn" / "neighbors_local.txt").read_text()
        assert text.startswith("cat:")
        capsys.readouterr()

    def test_train_is_deterministic(self, tmp_path, corpus_dir, capsys):
        run(["--out", tmp_path / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 20, "--seed", 2])
        corpus = tmp_path / "pre" / "corpus.savc"
        blobs = []
        for name in ("a", "b"):
            run(["--out", tmp_path / name, "train", "--corpus", corpus,
                 "--mode", "nvdm", "--d", 2, "--lr", "0.01", "--epochs", 3,
                 "--batch-size", 4, "--seed", 7])
            blobs.append((tmp_path / name / "model.savm").read_bytes())
        assert blobs[0] == blobs[1]
        capsys.readouterr()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_manifest_names_the_command(self, tmp_path, fitted, monkeypatch, capsys, command):
        monkeypatch.chdir(fitted)
        argv = COMMANDS[command]
        assert run(["--out", tmp_path / "ok", command, *argv]) == 0
        manifest = (tmp_path / "ok" / "manifest.txt").read_text()
        assert f"\ncommand={command}\n" in manifest
        capsys.readouterr()
        # the same command with its first input missing fails and writes no manifest
        assert run(["--out", tmp_path / "failed", command, argv[0], "missing", *argv[2:]]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: IoError: no such (path|file|checkpoint): missing\n", err), err
        assert not (tmp_path / "failed" / "manifest.txt").exists()

    @pytest.mark.parametrize(
        "command, flag, key, value, file_value", FLAG_KEYS,
        ids=[f"{command or 'before'}{flag}" for command, flag, *_ in FLAG_KEYS],
    )
    def test_flag_beats_config_file(
        self, tmp_path, fitted, monkeypatch, capsys, command, flag, key, value, file_value
    ):
        monkeypatch.chdir(fitted)
        (tmp_path / "run.cfg").write_text(f"{key}={file_value}\n")
        if command is None:
            argv = [flag, value, "represent", *COMMANDS["represent"]]
        else:
            argv = list(COMMANDS[command])
            if flag in argv:
                del argv[argv.index(flag) : argv.index(flag) + 2]
            argv = [command, *argv, flag, value]
        assert run(["--config", tmp_path / "run.cfg", "--out", tmp_path / "out", *argv]) == 0
        manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        assert f"{key}={value}" in manifest
        capsys.readouterr()

    def test_every_dotted_flag_dest_is_a_config_key(self):
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        dests = {
            action.dest
            for sub in subparsers.choices.values()
            for action in sub._actions
            if "." in action.dest
        }
        assert dests <= set(DEFAULTS)
        # and each is pinned by test_flag_beats_config_file
        assert dests == {key for _, _, key, _, _ in FLAG_KEYS} - {"seed"}

    def test_text_outputs_are_utf8_in_the_c_locale(self, tmp_path, capsys):
        (tmp_path / "in.txt").write_text(
            "a\tle café est ouvert\nb\tle café est fermé\n", encoding="utf-8"
        )
        assert run(["--out", tmp_path / "pre", "preprocess", "--input", tmp_path / "in.txt",
                    "--format", "labeled-lines"]) == 0
        assert run(["--out", tmp_path / "t", "train", "--corpus", tmp_path / "pre" / "corpus.savc",
                    "--mode", "nvdm", "--d", 2, "--epochs", 1]) == 0
        capsys.readouterr()
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONIOENCODING": "utf-8", "PYTHONPATH": str(Path(savae.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "savae.cli", "--out", tmp_path / "nn", "neighbors",
             "--checkpoint", tmp_path / "t" / "model.savm",
             "--corpus", tmp_path / "pre" / "corpus.savc", "--words", "café", "--n", "4"],
            env=env, capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        text = (tmp_path / "nn" / "neighbors_global.txt").read_bytes().decode("utf-8")
        assert text.startswith("café: ") and "est" in text and "fermé" in text
        # bytes that are not UTF-8 name no word
        proc = subprocess.run(
            [sys.executable, "-m", "savae.cli", "--out", tmp_path / "nn", "neighbors",
             "--checkpoint", tmp_path / "t" / "model.savm",
             "--corpus", tmp_path / "pre" / "corpus.savc", "--words", b"caf\xe9"],
            env=env, capture_output=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(b"error: UnknownToken: ") and proc.stderr.count(b"\n") == 1

    def test_failed_trainlog_write_keeps_previous_file(
        self, tmp_path, corpus_dir, capsys, monkeypatch
    ):
        run(["--out", tmp_path / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 20, "--seed", 2])
        args = ["--out", tmp_path / "t", "train", "--corpus", tmp_path / "pre" / "corpus.savc",
                "--mode", "nvdm", "--d", 2, "--epochs", 2, "--batch-size", 4]
        assert run(args) == 0
        trainlog = tmp_path / "t" / "trainlog.csv"
        before = trainlog.read_bytes()
        # a lone surrogate fails to encode only once the file is open
        monkeypatch.setattr(training.TrainLog, "to_csv", lambda self: "epoch\n\udc80\n")
        with pytest.raises(UnicodeEncodeError):
            run(args)
        assert trainlog.read_bytes() == before
        assert not [p.name for p in (tmp_path / "t").iterdir() if p.name.endswith(".tmp")]
        capsys.readouterr()


class TestEvalBound:
    def _fit(self, tmp_path, corpus_dir, test_fraction):
        run(["--out", tmp_path / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 20,
             "--test-fraction", test_fraction, "--seed", 2])
        corpus = tmp_path / "pre" / "corpus.savc"
        run(["--out", tmp_path / "t", "train", "--corpus", corpus, "--mode", "savae",
             "--d", 2, "--k", 2, "--epochs", 1, "--batch-size", 4])
        return tmp_path / "t" / "model.savm", corpus

    def test_zero_model_perplexity_is_vocabulary_size(self, tmp_path, corpus_dir, capsys):
        ckpt, corpus = self._fit(tmp_path, corpus_dir, "0.25")
        params, config = training.load_checkpoint(ckpt)
        for arr in params.named_arrays().values():
            arr[...] = 0.0
        training.save_checkpoint(params, config, ckpt)
        capsys.readouterr()
        assert run(["--out", tmp_path / "b", "eval-bound", "--checkpoint", ckpt,
                    "--corpus", corpus, "--samples", 3]) == 0
        report = dict(line.split("=", 1) for line in
                      (tmp_path / "b" / "bound.txt").read_text().splitlines())
        test = load_corpus_file(corpus).test
        assert report["split"] == "test"
        assert int(report["documents"]) == sum(not doc.is_empty for doc in test) > 0
        assert int(report["words"]) == sum(doc.length for doc in test)
        assert float(report["perplexity"]) == pytest.approx(config.m, rel=1e-6)
        words = int(report["words"]) / int(report["documents"])
        assert float(report["mean_elbo"]) == pytest.approx(-words * np.log(config.m), rel=1e-6)
        stdout = capsys.readouterr().out
        assert stdout.startswith("split=test\n") and "command=eval-bound" in stdout
        manifest = (tmp_path / "b" / "manifest.txt").read_text()
        assert "model.eval_samples=3" in manifest and "command=eval-bound" in manifest

    def test_zero_samples(self, tmp_path, corpus_dir, capsys):
        ckpt, corpus = self._fit(tmp_path, corpus_dir, "0.25")
        capsys.readouterr()
        assert run(["--out", tmp_path / "b", "eval-bound", "--checkpoint", ckpt,
                    "--corpus", corpus, "--samples", 0]) == 1
        assert capsys.readouterr().err == (
            "error: ConfigError: model.eval_samples must be >= 1, got 0\n"
        )

    def test_empty_split(self, tmp_path, corpus_dir, capsys):
        ckpt, corpus = self._fit(tmp_path, corpus_dir, "0")
        capsys.readouterr()
        assert run(["--out", tmp_path / "b", "eval-bound", "--checkpoint", ckpt,
                    "--corpus", corpus]) == 1
        assert capsys.readouterr().err.startswith("error: AllDocumentsEmpty:")
        assert not (tmp_path / "b" / "bound.txt").exists()

    def test_log_variance_overflow(self, tmp_path, capsys):
        config, params, docs = overflowing_log_variance()
        split = CorpusSplit(train=docs, test=docs, vocabulary=Vocabulary(["cat"], [260]),
                            shuffle_seed=0)
        save_corpus_file(split, tmp_path / "corpus.savc")
        training.save_checkpoint(params, config, tmp_path / "model.savm")
        assert run(["--out", tmp_path / "b", "eval-bound", "--checkpoint", tmp_path / "model.savm",
                    "--corpus", tmp_path / "corpus.savc"]) == 1
        assert capsys.readouterr().err == (
            "error: NonFiniteGradient: non-finite gradient in encoder log-variance (evaluation): "
            "entry 741.302 exceeds log(float64 max) = 709.783, where exp overflows\n"
        )
        assert not (tmp_path / "b" / "bound.txt").exists()


class TestProbeCommand:
    def test_probe_on_separable_reps(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for name, n in (("train", 100), ("test", 40)):
            reps = []
            for i in range(n):
                pos = i % 2 == 1
                center = np.array([3.0, 0.0]) if pos else np.array([-3.0, 0.0])
                reps.append(
                    DocRepresentation(
                        vector=center + rng.normal(size=2) * 0.3,
                        labels={"pos" if pos else "neg"},
                        doc_id=i,
                    )
                )
            write_representations(reps, tmp_path / f"{name}.csv")
        assert run(["--out", tmp_path / "probe", "probe",
                    "--train", tmp_path / "train.csv",
                    "--test", tmp_path / "test.csv"]) == 0
        report = (tmp_path / "probe" / "probe_accuracy.txt").read_text()
        assert "accuracy=1.0000" in report
        capsys.readouterr()


class TestErrorsAndConfig:
    def test_missing_input_reports_category(self, tmp_path, capsys):
        code = run(["--out", tmp_path, "preprocess", "--input", tmp_path / "nope",
                    "--format", "unlabeled-lines"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: IoError:")

    def test_config_validation_lists_all_violations(self, tmp_path, corpus_dir, capsys):
        run(["--out", tmp_path / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 20, "--seed", 2])
        capsys.readouterr()
        code = run(["--out", tmp_path / "t", "train",
                    "--corpus", tmp_path / "pre" / "corpus.savc",
                    "--d", 0, "--lr", "-1", "--epochs", 0])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:")
        for fragment in ("d must be", "learning_rate", "epochs"):
            assert fragment in err

    @pytest.mark.parametrize(
        "flags, config",
        [(["--lr", "nan"], ""), (["--lr", "inf"], ""), ([], "train.lr=nan\n")],
        ids=["flag-nan", "flag-inf", "config-nan"],
    )
    def test_non_finite_learning_rate(self, tmp_path, fitted, capsys, flags, config):
        (tmp_path / "run.cfg").write_text(config)
        code = run(["--config", tmp_path / "run.cfg", "--out", tmp_path / "t", "train",
                    "--corpus", fitted / "pre" / "corpus.savc", "--epochs", 1, *flags])
        assert code == 1
        assert capsys.readouterr().err == "error: ConfigError: learning_rate must be finite and > 0\n"
        assert not (tmp_path / "t" / "model.savm").exists()

    def test_config_file_and_flag_precedence(self, tmp_path, corpus_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.mode=nvdm\nmodel.d=4  # comment\ntrain.epochs=2\n")
        assert read_config_file(cfg)["model.d"] == "4"
        run(["--out", tmp_path / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 20, "--seed", 2])
        assert run(["--config", cfg, "--out", tmp_path / "t", "train",
                    "--corpus", tmp_path / "pre" / "corpus.savc",
                    "--lr", "0.01", "--batch-size", 4, "--d", 2]) == 0
        manifest = (tmp_path / "t" / "manifest.txt").read_text()
        assert "model.mode=nvdm" in manifest  # from file
        assert "model.d=2" in manifest  # flag overrides file
        capsys.readouterr()


def _write_reps(path, rows):
    """rows: (labels, vector) pairs, written through the CSV contract."""
    reps = [
        DocRepresentation(vector=np.asarray(vec, dtype=float), labels=set(labels), doc_id=i)
        for i, (labels, vec) in enumerate(rows)
    ]
    write_representations(reps, path)


def _config_block(old, new):
    """An edit of a checkpoint's bytes that replaces ``old`` by ``new`` in its
    JSON config block, ``{"mode": "nvdm", "m": 20, "d": 2, "k": 5,
    "encoder_layers": [500, 500]}`` in ``fitted``, or all of it by ``new``
    if ``old`` is None."""
    def edit(data):
        (n,) = struct.unpack("<I", data[8:12])
        block = new if old is None else data[12 : 12 + n].replace(old, new)
        assert block != data[12 : 12 + n]
        return data[:8] + struct.pack("<I", len(block)) + block + data[12 + n :]
    return edit


# config-block edits that each load as a CorruptCheckpoint
BAD_CONFIG_BLOCKS = [
    ("m-string", b'"m": 20', b'"m": "x"', "m, d, k and encoder_layers must be integers"),
    ("layers-int", b"[500, 500]", b"5", ""),
    ("d-null", b'"d": 2', b'"d": null', "m, d, k and encoder_layers must be integers"),
    ("json-list", None, b'["nvdm", 20, 2, 5, [500, 500]]', ""),
    ("m-zero", b'"m": 20', b'"m": 0', "m must be >= 1"),
    ("layer-zero", b"[500, 500]", b"[0]", "encoder_layers must all be >= 1, got [0]"),
    ("mode-lda", b'"nvdm"', b'"lda"', "mode must be 'savae' or 'nvdm', got 'lda'"),
    ("d-fraction", b'"d": 2', b'"d": 2.5',
     "m, d, k and encoder_layers must be integers, got [20, 2.5, 5, 500, 500]"),
]


class TestCategorizedErrors:
    def test_unknown_config_key(self, tmp_path, corpus_dir, capsys):
        run(["--out", tmp_path / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 20, "--seed", 2])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("modle.d=4\n")
        capsys.readouterr()
        code = run(["--config", cfg, "--out", tmp_path / "t", "train",
                    "--corpus", tmp_path / "pre" / "corpus.savc"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:") and "modle.d" in err
        assert "model.d" in err and "train.lr" in err  # the valid keys are listed
        assert not (tmp_path / "t" / "model.savm").exists()

    def test_log_variance_overflow(self, tmp_path, corpus_dir, capsys, monkeypatch):
        run(["--out", tmp_path / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 20, "--seed", 2])
        real = model.init_params

        def overflowing(config, rng):
            params = real(config, rng)
            params.b_logvar[:] = 3000.0
            return params

        monkeypatch.setattr(model, "init_params", overflowing)
        capsys.readouterr()
        code = run(["--out", tmp_path / "t", "train", "--corpus", tmp_path / "pre" / "corpus.savc"])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: NonFiniteGradient: non-finite gradient in encoder log-variance "
            r"\(epoch 1, batch 0\): entry 3\d\d\d(\.\d+)? exceeds log\(float64 max\) = "
            r"709\.783, where exp overflows\n",
            err,
        ), err

    def test_corpus_file_with_trailing_byte(self, tmp_path, corpus_dir, capsys):
        run(["--out", tmp_path / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 20, "--seed", 2])
        corpus = tmp_path / "pre" / "corpus.savc"
        corpus.write_bytes(corpus.read_bytes() + b"\x00")
        capsys.readouterr()
        code = run(["--out", tmp_path / "t", "train", "--corpus", corpus])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CorruptFile: trailing bytes") and str(corpus) in err

    def test_corpus_token_invalid_utf8(self, tmp_path, corpus_dir, capsys):
        run(["--out", tmp_path / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 20, "--seed", 2])
        corpus = tmp_path / "pre" / "corpus.savc"
        data = bytearray(corpus.read_bytes())
        # the 24-byte header, whose vocabulary size sits at byte 16, and the
        # u32 token lengths come before the first token's first byte
        (n_vocab,) = struct.unpack("<I", data[16:20])
        data[24 + 4 * n_vocab] = 0xFF
        corpus.write_bytes(bytes(data))
        capsys.readouterr()
        code = run(["--out", tmp_path / "t", "train", "--corpus", corpus])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: CorruptFile: invalid UTF-8 string in corpus file {corpus}\n"

    def test_corpus_token_id_out_of_range(self, tmp_path, corpus_dir, capsys):
        run(["--out", tmp_path / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 20, "--seed", 2])
        corpus = tmp_path / "pre" / "corpus.savc"
        data = bytearray(corpus.read_bytes())
        # the test split is empty, so the file ends with the last train
        # document's last token id and the test split's document count
        data[-8:-4] = struct.pack("<I", 20)
        corpus.write_bytes(bytes(data))
        capsys.readouterr()
        code = run(["--out", tmp_path / "t", "train", "--corpus", corpus])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CorruptFile: token id 20 out of range") and str(corpus) in err

    @pytest.mark.parametrize(
        "argv",
        [["represent"], ["neighbors", "--words", "cat"], ["eval-bound"]],
        ids=["represent", "neighbors", "eval-bound"],
    )
    def test_checkpoint_and_corpus_vocabularies_differ(self, tmp_path, corpus_dir, capsys, argv):
        for name, size in (("small", 10), ("large", 30)):
            run(["--out", tmp_path / name, "preprocess", "--input", corpus_dir,
                 "--format", "newsgroup-dirs", "--vocab-size", size, "--seed", 2])
        run(["--out", tmp_path / "t", "train", "--corpus", tmp_path / "small" / "corpus.savc",
             "--mode", "nvdm", "--d", 2, "--epochs", 1, "--batch-size", 4])
        ckpt, corpus = tmp_path / "t" / "model.savm", tmp_path / "large" / "corpus.savc"
        capsys.readouterr()
        code = run(["--out", tmp_path / "out", *argv, "--checkpoint", ckpt, "--corpus", corpus])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: ConfigError: checkpoint {ckpt} has a vocabulary of 10 words, "
            f"corpus file {corpus} has 30\n"
        )
        assert not (tmp_path / "out" / "manifest.txt").exists()

    def test_checkpoint_name_invalid_utf8(self, tmp_path, corpus_dir, capsys):
        run(["--out", tmp_path / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 20, "--seed", 2])
        corpus = tmp_path / "pre" / "corpus.savc"
        run(["--out", tmp_path / "t", "train", "--corpus", corpus, "--mode", "nvdm",
             "--d", 2, "--epochs", 1, "--batch-size", 4])
        ckpt = tmp_path / "t" / "model.savm"
        data = bytearray(ckpt.read_bytes())
        # magic, version and the config block, then the first parameter name's length
        (cfg_len,) = struct.unpack("<I", data[8:12])
        data[12 + cfg_len + 4] = 0xFF
        ckpt.write_bytes(bytes(data))
        capsys.readouterr()
        code = run(["--out", tmp_path / "rep", "represent", "--checkpoint", ckpt,
                    "--corpus", corpus])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: CorruptCheckpoint: invalid UTF-8 string in checkpoint {ckpt}\n"

    def test_bad_config_cast(self, tmp_path, corpus_dir, capsys):
        run(["--out", tmp_path / "pre", "preprocess", "--input", corpus_dir,
             "--format", "newsgroup-dirs", "--vocab-size", 20, "--seed", 2])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.d=abc\n")
        capsys.readouterr()
        code = run(["--config", cfg, "--out", tmp_path / "t", "train",
                    "--corpus", tmp_path / "pre" / "corpus.savc"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:") and "model.d=abc" in err

    def test_non_numeric_vector_field(self, tmp_path, capsys):
        path = tmp_path / "reps.csv"
        path.write_text("id,labels,v0\n0,a,0.5\n1,a,notanumber\n")
        code = run(["--out", tmp_path / "clu", "eval-cluster", "--reps", path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: line 3:") and "notanumber" in err

    def test_field_over_the_csv_module_limit(self, tmp_path, capsys):
        # np.loadtxt reads the long label but not the row with an extra
        # field; the csv walk that names the bad row stops at the long field
        path = tmp_path / "reps.csv"
        path.write_text("id,labels,v0\n0," + "x" * 200_000 + ",0.5\n1,a,0.5,9\n")
        code = run(["--out", tmp_path / "clu", "eval-cluster", "--reps", path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: line 2:") and "field limit" in err
        assert err.count("\n") == 1

    def test_probe_row_without_label(self, tmp_path, capsys):
        _write_reps(tmp_path / "train.csv", [({"neg"}, [-1.0]), ({"pos"}, [1.0])])
        (tmp_path / "test.csv").write_text("id,labels,v0\n0,neg,-1.0\n1,,1.0\n")
        code = run(["--out", tmp_path / "probe", "probe",
                    "--train", tmp_path / "train.csv", "--test", tmp_path / "test.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DegenerateLabels:") and "line 3" in err

    def test_probe_test_label_outside_training_classes(self, tmp_path, capsys):
        _write_reps(tmp_path / "train.csv",
                    [({"neg"}, [-3.0]), ({"pos"}, [3.0])] * 10)
        _write_reps(tmp_path / "test.csv",
                    [({"pos"}, [3.0])] * 10 + [({"other"}, [3.0])] * 10)
        code = run(["--out", tmp_path / "probe", "probe",
                    "--train", tmp_path / "train.csv", "--test", tmp_path / "test.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DegenerateLabels:")
        assert "'other'" in err and "line 12" in err


    @pytest.mark.parametrize(
        "files, argv, expected",
        [
            pytest.param(
                {"in.txt": b"a\thello world\n"},
                ["--config", "nope.cfg", "preprocess", "--input", "in.txt",
                 "--format", "labeled-lines"],
                "error: IoError: no such config file: nope.cfg",
                id="missing-config-file",
            ),
            pytest.param(
                {"in.txt": b"a\thello world\n", "taken": b""},
                ["--out", "taken", "preprocess", "--input", "in.txt", "--format", "labeled-lines"],
                "error: IoError: cannot create output directory taken",
                id="out-is-a-file",
            ),
            pytest.param(
                {"in.txt": b"a\thello world\n"},
                ["preprocess", "--input", "in.txt", "--format", "labeled-lines",
                 "--vocab-size", "0"],
                "error: ConfigError: corpus.vocab_size must be >= 1",
                id="vocab-size-0",
            ),
            pytest.param(
                {"in.txt": b"a\thello world\n"},
                ["preprocess", "--input", "in.txt", "--format", "labeled-lines",
                 "--test-fraction", "1.0"],
                "error: ConfigError: --test-fraction must lie in [0, 1)",
                id="test-fraction-1",
            ),
            pytest.param(
                {"in.txt": b"a\thello world\n"},
                ["preprocess", "--input", "in.txt", "--format", "labeled-lines",
                 "--test-fraction", "-0.5"],
                "error: ConfigError: --test-fraction must lie in [0, 1)",
                id="test-fraction-negative",
            ),
            pytest.param(
                {"in.txt": b"b\thello there world\nx|y\thello world again\n"},
                ["preprocess", "--input", "in.txt", "--format", "labeled-lines"],
                "error: ParseError: line 2: label field 'x|y' contains '|'",
                id="pipe-in-labeled-lines-label",
            ),
            pytest.param(
                {"raw/a|b/000": b"From: x@y\n\nhello world\n"},
                ["preprocess", "--input", "raw", "--format", "newsgroup-dirs"],
                "error: ParseError: label directory raw/a|b contains '|'",
                id="pipe-in-newsgroup-directory",
            ),
            pytest.param(
                {"q.csv": b"id,labels,v0\n0,a,1.0\n", "i.csv": b"id,labels,v0,v1\n0,a,1.0,0.0\n"},
                ["eval-retrieval", "--queries", "q.csv", "--index", "i.csv"],
                "error: ParseError: line 1: i.csv has 2 vector columns, q.csv has 1",
                id="retrieval-vector-widths-differ",
            ),
            pytest.param(
                {"tr.csv": b"id,labels,v0,v1\n0,a,1.0,0.0\n1,b,0.0,1.0\n",
                 "te.csv": b"id,labels,v0\n0,a,1.0\n"},
                ["probe", "--train", "tr.csv", "--test", "te.csv"],
                "error: ParseError: line 1: te.csv has 1 vector columns, tr.csv has 2",
                id="probe-vector-widths-differ",
            ),
            pytest.param(
                {"q.csv": b"id,labels,v0\n", "i.csv": b"id,labels,v0\n0,a,1.0\n"},
                ["eval-retrieval", "--queries", "q.csv", "--index", "i.csv"],
                "error: AllDocumentsEmpty: no representations in q.csv",
                id="retrieval-header-only-csv",
            ),
            pytest.param(
                {"bad.cfg": b"# settings\nmodel.d=\xff\n", "in.txt": b"a\thello world\n"},
                ["--config", "bad.cfg", "preprocess", "--input", "in.txt",
                 "--format", "labeled-lines"],
                "error: ParseError: line 2: invalid UTF-8 in bad.cfg",
                id="config-file-invalid-utf8",
            ),
            pytest.param(
                {"q.csv": b"id,labels,v0\n0,a,1.0\n1,b\xff,0.5\n",
                 "i.csv": b"id,labels,v0\n0,a,1.0\n"},
                ["eval-retrieval", "--queries", "q.csv", "--index", "i.csv"],
                "error: ParseError: line 3: invalid UTF-8 in q.csv",
                id="retrieval-csv-label-invalid-utf8",
            ),
            pytest.param(
                {"bad.cfg": b"# settings\nmodel.d 4\n", "in.txt": b"a\thello world\n"},
                ["--config", "bad.cfg", "preprocess", "--input", "in.txt",
                 "--format", "labeled-lines"],
                "error: ParseError: line 2: expected key=value, got 'model.d 4'",
                id="config-line-without-equals",
            ),
            pytest.param(
                {"in.txt": b"a\thello world\n\tno label here\n"},
                ["preprocess", "--input", "in.txt", "--format", "labeled-lines"],
                "error: ParseError: line 2: empty label field",
                id="empty-labeled-lines-label",
            ),
            pytest.param(
                {"docs/000": b"a\thello world\n"},
                ["preprocess", "--input", "docs", "--format", "labeled-lines"],
                "error: IoError: not a file: docs",
                id="labeled-lines-on-a-directory",
            ),
            pytest.param(
                {},  # the fraction is refused before the missing input is looked at
                ["preprocess", "--input", "in.txt", "--format", "labeled-lines",
                 "--test-input", "test.txt", "--test-fraction", "0.2"],
                "error: ConfigError: --test-fraction cannot be combined with --test-input\n",
                id="test-fraction-with-test-input",
            ),
            pytest.param(
                {"tr.csv": b"id,labels,v0\n0,a,1.0\n1,b,0.0\n2,c,0.5\n",
                 "te.csv": b"id,labels,v0\n0,a,1.0\n"},
                ["probe", "--train", "tr.csv", "--test", "te.csv"],
                "error: ConfigError: probe needs exactly 2 classes, found ['a', 'b', 'c']",
                id="probe-three-classes",
            ),
            pytest.param(
                {"layers.cfg": b"model.encoder_layers=5,x\n"},
                ["--config", "layers.cfg", "train", "--corpus", "fit/pre/corpus.savc"],
                "error: ConfigError: model.encoder_layers=5,x is not a comma-separated list",
                id="encoder-layers-not-ints",
            ),
            pytest.param(
                {"layers.cfg": b"model.encoder_layers=16,0\n"},
                ["--config", "layers.cfg", "train", "--corpus", "fit/pre/corpus.savc"],
                "error: ConfigError: encoder_layers must all be >= 1, got [16, 0]\n",
                id="encoder-layer-width-0",
            ),
            pytest.param(
                {},
                ["neighbors", "--checkpoint", "fit/t/model.savm", "--corpus",
                 "fit/pre/corpus.savc", "--words", "the", "--space", "local"],
                "error: ConfigError: embedding space 'local' not available for nvdm checkpoints",
                id="local-space-of-nvdm",
            ),
            pytest.param(
                {},
                ["neighbors", "--checkpoint", "fit/t/model.savm", "--corpus",
                 "fit/pre/corpus.savc", "--words", "the", "--n", "0"],
                "error: ConfigError: --n must be >= 1, got 0\n",
                id="neighbors-n-0",
            ),
            pytest.param(
                {"v1.savc": ("pre/corpus.savc", lambda b: b[:4] + struct.pack("<I", 1) + b[8:])},
                ["train", "--corpus", "v1.savc"],
                "error: UnsupportedVersion: corpus file v1.savc has format version 1; only "
                "version 2 is read, so rebuild it with savae preprocess\n",
                id="corpus-version-1",
            ),
            pytest.param(
                {"bad.savm": ("t/model.savm", lambda b: b"NOPE" + b[4:])},
                ["represent", "--checkpoint", "bad.savm", "--corpus", "fit/pre/corpus.savc"],
                "error: CorruptCheckpoint: bad magic in checkpoint bad.savm\n",
                id="checkpoint-bad-magic",
            ),
            pytest.param(
                {"bad.savm": ("t/model.savm", lambda b: b[:12] + b"!" + b[13:])},
                ["represent", "--checkpoint", "bad.savm", "--corpus", "fit/pre/corpus.savc"],
                "error: CorruptCheckpoint: bad config block: ",
                id="checkpoint-unparsable-config",
            ),
            pytest.param(
                # the first parameter's name, "X", follows its u32 byte length
                {"bad.savm": ("t/model.savm",
                              lambda b: b.replace(b"\x01\x00\x00\x00X", b"\x01\x00\x00\x00Y", 1))},
                ["represent", "--checkpoint", "bad.savm", "--corpus", "fit/pre/corpus.savc"],
                "error: CorruptCheckpoint: unexpected parameter 'Y'\n",
                id="checkpoint-unexpected-name",
            ),
            pytest.param(
                # X's u32 rank and its first dimension, m = 20, follow its name
                {"bad.savm": ("t/model.savm", lambda b: b.replace(
                    b"X\x02\x00\x00\x00\x14\x00", b"X\x02\x00\x00\x00\x15\x00", 1))},
                ["represent", "--checkpoint", "bad.savm", "--corpus", "fit/pre/corpus.savc"],
                "error: CorruptCheckpoint: parameter 'X' has shape (21, 2), expected (20, 2)\n",
                id="checkpoint-wrong-shape",
            ),
            *[
                pytest.param(
                    {"bad.savm": ("t/model.savm", _config_block(old, new))},
                    ["represent", "--checkpoint", "bad.savm", "--corpus", "fit/pre/corpus.savc"],
                    f"error: CorruptCheckpoint: bad config block: {message}",
                    id=f"checkpoint-config-{name}",
                )
                for name, old, new, message in BAD_CONFIG_BLOCKS
            ],
        ],
    )
    def test_user_error(self, tmp_path, fitted, monkeypatch, capsys, files, argv, expected):
        """``files`` maps a name to its bytes, or to a file of ``fitted`` and
        an edit of its bytes; ``fitted`` itself is at ``fit``."""
        monkeypatch.chdir(tmp_path)
        Path("fit").symlink_to(fitted)
        for name, data in files.items():
            if isinstance(data, tuple):
                source, edit = data
                data = edit((fitted / source).read_bytes())
            Path(name).parent.mkdir(parents=True, exist_ok=True)
            Path(name).write_bytes(data)
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(expected) and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["labeled-lines", "unlabeled-lines"])
    def test_invalid_utf8_is_replaced(self, tmp_path, capsys, fmt):
        path = tmp_path / "in.txt"
        path.write_bytes(b"a\thello \xff world\n")
        assert run(["--out", tmp_path / "pre", "preprocess", "--input", path,
                    "--format", fmt]) == 0
        vocab = load_corpus_file(tmp_path / "pre" / "corpus.savc").vocabulary
        assert set(vocab.tokens) == {"hello", "world"}
        capsys.readouterr()


class TestMultiLabelChoice:
    """A multi-label row counts under its first label in sorted order."""

    LABELS = ["a", "b", "c", "d", "e", "f"]

    def _rows(self, first_only):
        rng = np.random.default_rng(3)
        rows = []
        for i in range(60):
            labels = set(rng.choice(self.LABELS, size=1 + i % 3, replace=False))
            first = min(labels)
            center = np.eye(len(self.LABELS))[self.LABELS.index(first)] * 4.0
            rows.append(({first} if first_only else labels, center + rng.normal(size=6)))
        return rows

    def _report(self, tmp_path, name, first_only):
        _write_reps(tmp_path / f"{name}.csv", self._rows(first_only))
        assert run(["--out", tmp_path / name, "eval-cluster",
                    "--reps", tmp_path / f"{name}.csv"]) == 0
        return (tmp_path / name / "cluster_metrics.txt").read_text()

    def test_eval_cluster(self, tmp_path, capsys):
        assert self._report(tmp_path, "multi", False) == self._report(tmp_path, "first", True)
        capsys.readouterr()

    def test_probe(self, tmp_path, capsys):
        # the multi-label rows sit with their first label's class; any other
        # choice mislabels them and costs accuracy
        rng = np.random.default_rng(4)
        for name, n in (("train", 80), ("test", 40)):
            rows = []
            for i in range(n):
                labels = [{"neg"}, {"pos"}, {"neg", "pos"}][i % 3]
                rows.append((labels, [(-3.0 if min(labels) == "neg" else 3.0), rng.normal()]))
            _write_reps(tmp_path / f"{name}.csv", rows)
        assert run(["--out", tmp_path / "probe", "probe",
                    "--train", tmp_path / "train.csv", "--test", tmp_path / "test.csv"]) == 0
        report = (tmp_path / "probe" / "probe_accuracy.txt").read_text()
        assert report == "positive_class=pos\naccuracy=1.0000\n"
        capsys.readouterr()
