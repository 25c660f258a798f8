import numpy as np
import pytest

from savae import training
from savae.cli import main, read_config_file
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


@pytest.fixture
def corpus_dir(tmp_path):
    root = tmp_path / "raw"
    for group, texts in GROUPS.items():
        gdir = root / group
        gdir.mkdir(parents=True)
        for i, text in enumerate(texts):
            (gdir / f"{i:03d}").write_text(f"From: x@y\n\n{text}\n")
    return root


def run(args):
    return main([str(a) for a in args])


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
