"""Pipeline benchmark for savae: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload savae-news --seed 1 --seconds 30 --trace 0

Run from the repository root. The workload's corpus is generated from
``--seed`` inside the process; the program receives only the generated
``labeled-lines`` files. Each round drives the pipeline the way a user
runs it: ``savae preprocess``, a corpus-file load, ``savae train``, the
held-out bound (``inference.evaluate_bound``, S=20, on the checkpoint
``train`` wrote), ``savae represent`` of both splits and ``savae
eval-retrieval``. Rounds start while one more is expected to end within
``--seconds``; at least one runs. Correctness checks run after the last
round, outside the timed regions.

The last line of standard output is the result: end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of a separate
traced run, whose wrappers record a span per call into the program.
See README.md in this directory.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, aggregate

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: the clock below is the process's CPU time, which is the
# time a user waits only while the process runs a single thread
BLAS_THREADS = 1
# Timings are CPU seconds of this process (user + system). The process is
# single-threaded, so on an idle machine they equal wall seconds; on a
# shared host they leave out the bursts in which the CPU is taken away
# (steal time), which made wall-clock rates swing by up to half between runs.
CLOCK = time.process_time
# The shared host also runs this process in two speed states that switch
# within a second: a short call takes about 1.6x as long in the slow one,
# and the share of time in the fast one drifts between runs. A median call
# lands in either state, so each rate is taken at the upper quartile of
# call time, which lies in the slow state in every run seen.
RATE_QUANTILE = 0.25  # of per-call rates, lowest first

# the workload seed makes the inputs; the program's own seed (shuffles,
# initialisation, posterior draws) is a fixed setting like the others
PROGRAM_SEED = 2
VOCAB_SIZE = 2000
D, K, BATCH, LR, EPOCHS = 50, 5, 64, 1e-3, 1
BOUND_SAMPLES = 20
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "preprocess_docs_per_s": "docs/s",
    "corpus_load_docs_per_s": "docs/s",
    "train_tokens_per_s": "tokens/s",
    "bound_docs_per_s": "docs/s",
    "heldout_perplexity": "perplexity",
    "represent_docs_per_s": "docs/s",
    "retrieval_queries_per_s": "queries/s",
    "peak_rss_mb": "MB",
}

# every traced name reports inclusive seconds (.s) and calls; spans that
# can have traced children also report self seconds (.self_s)
_TRACED = {
    "corpus.tokenize": (),
    "corpus.build_split": ("self_s",),
    "corpus.save_corpus_file": ("bytes",),
    "corpus.load_corpus_file": (),
    "model.batch_elbo_gradients": ("tokens", "gflop", "gflops_per_s", "logits_mb"),
    "model.elbo": ("self_s", "tokens", "logits_mb"),
    "model.encode": (),
    "training.train": ("self_s",),
    "training.adam_step": (),
    "training.save_checkpoint": ("bytes",),
    "training.load_checkpoint": (),
    "numerics.RngStream.permutation": (),
    "numerics.RngStream.normal": (),
    "inference.evaluate_bound": ("self_s", "docs", "tokens"),
    "inference.represent_batch": ("self_s",),
    "inference.write_representations": ("bytes",),
    "inference.read_representations": (),
    "evaluation.retrieval_pr": ("pairs",),
    "cli.preprocess": ("self_s",),
    "cli.train": ("self_s",),
    "cli.represent": ("self_s",),
    "cli.eval-retrieval": ("self_s",),
}
_UNITS = {
    "s": "s", "self_s": "s", "calls": "count", "bytes": "bytes", "tokens": "tokens",
    "gflop": "GFLOP", "gflops_per_s": "GFLOP/s", "logits_mb": "MB", "docs": "docs",
    "pairs": "pairs",
}
PER_LAYER = {
    f"{name}.{q}": _UNITS[q]
    for name, extra in _TRACED.items()
    for q in ("s", "calls") + extra
}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    relevance: str
    spec: object  # corpora.CorpusSpec
    # calls per round of the phases that take milliseconds, so that each is
    # timed often enough for a steady quartile; train and the bound run once
    repeats: dict


def workloads():
    """The benchmark's workloads by name."""
    from corpora import CorpusSpec

    news = CorpusSpec(
        n_words=2600, zipf_s=1.0, n_labels=20, max_labels=1, tilt=1.0,
        successor_rate=0.3, len_median=110.0, len_sigma=0.9, len_min=20,
        len_max=1000, n_train=192, n_test=32, label_prefix="g",
    )
    short = CorpusSpec(
        n_words=2600, zipf_s=1.0, n_labels=50, max_labels=3, tilt=1.0,
        successor_rate=0.3, len_median=14.0, len_sigma=0.8, len_min=1,
        len_max=60, n_train=1200, n_test=300, label_prefix="t",
    )
    news_repeats = {"preprocess": 6, "load": 80, "represent": 3, "eval-retrieval": 15}
    short_repeats = {"preprocess": 3, "load": 40, "represent": 1, "eval-retrieval": 1}
    return {
        w.name: w
        for w in (
            Workload("savae-news", "savae", "exact", news, news_repeats),
            Workload("nvdm-news", "nvdm", "exact", news, news_repeats),
            Workload("savae-short-multilabel", "savae", "jaccard", short, short_repeats),
        )
    }


def bound_blas_threads():
    """Set the BLAS worker count, at most the CPUs this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    threads = min(BLAS_THREADS, cpus)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


# ---------------------------------------------------------------------------
# traced run: wrappers under the names the program's callers look up
# ---------------------------------------------------------------------------


def _file_bytes(path_arg):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(args[path_arg])}


def _batch_counts(args, kwargs, result):
    docs, _, config = args[0], args[1], args[2]
    B = len(docs)
    T = sum(doc.length for doc in docs)
    enc = 0
    fan_in = config.m
    for width in config.encoder_layers:
        enc += 2 * B * fan_in * width
        fan_in = width
    enc += 2 * 2 * B * fan_in * config.d
    # backward: a weight-gradient GEMM per forward GEMM, plus input
    # gradients for every layer but the first (counts need none)
    enc_back = enc + (enc - 2 * B * config.m * config.encoder_layers[0])
    dec = 3 * 2 * T * config.m * config.decoder_dim  # logits, dX, dC
    return {
        "tokens": T,
        "gflop": (enc + enc_back + dec) / 1e9,
        "logits_mb": T * config.m * 8 / 1e6,
    }


def _elbo_counts(args, kwargs, result):
    doc, config = args[0], args[2]
    samples = kwargs.get("samples", args[4] if len(args) > 4 else 1)
    rows = samples * doc.length if config.mode == "savae" else samples
    return {"tokens": doc.length, "logits_mb": rows * config.m * 8 / 1e6}


def _bound_counts(args, kwargs, result):
    docs = [doc for doc in args[0] if not doc.is_empty]
    return {"docs": len(docs), "tokens": sum(doc.length for doc in docs)}


def install_tracing(tracer, savae):
    corpus, model, training = savae.corpus, savae.model, savae.training
    inference, evaluation, numerics = savae.inference, savae.evaluation, savae.numerics
    w = tracer.wrap
    w(corpus, "tokenize", "corpus.tokenize")
    w(corpus, "build_split", "corpus.build_split")
    w(corpus, "save_corpus_file", "corpus.save_corpus_file", _file_bytes(1))
    w(corpus, "load_corpus_file", "corpus.load_corpus_file")
    w(model, "batch_elbo_gradients", "model.batch_elbo_gradients", _batch_counts)
    w(inference, "elbo", "model.elbo", _elbo_counts)  # imported by name
    w(inference, "encode", "model.encode")  # imported by name
    w(model, "encode", "model.encode")  # called by model.elbo
    w(training, "train", "training.train")
    w(training, "adam_step", "training.adam_step")
    w(training, "save_checkpoint", "training.save_checkpoint", _file_bytes(2))
    w(training, "load_checkpoint", "training.load_checkpoint")
    w(numerics.RngStream, "permutation", "numerics.RngStream.permutation")
    w(numerics.RngStream, "normal", "numerics.RngStream.normal")
    w(inference, "evaluate_bound", "inference.evaluate_bound", _bound_counts)
    w(inference, "represent_batch", "inference.represent_batch")
    w(inference, "write_representations", "inference.write_representations", _file_bytes(1))
    w(inference, "read_representations", "inference.read_representations")
    w(evaluation, "retrieval_pr", "evaluation.retrieval_pr",
      lambda a, kw, r: {"pairs": len(a[0]) * len(a[2])})


def round_layer_metrics(tracer):
    """Per-layer metrics of one round, from the spans recorded in it."""
    agg = aggregate(tracer.spans)
    out = {}
    for name, extra in _TRACED.items():
        a = agg.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for q in ("s", "calls") + extra:
            if q == "gflops_per_s":
                out[f"{name}.{q}"] = a.get("gflop", 0.0) / a["s"] if a["s"] > 0 else 0.0
            else:
                out[f"{name}.{q}"] = a.get(q, 0)
    return out


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


class Pipeline:
    """One workload's phases in one work directory; times every call."""

    def __init__(self, workload, seed, work, savae, tracer):
        self.w, self.seed, self.work = workload, seed, work
        self.savae, self.tracer = savae, tracer
        self.calls = {}  # phase -> list of (seconds, work units)
        self.ops = []  # (phase, ok) per operation attempted
        self.digests = {}  # output file -> first digest seen
        self.changed = set()  # phases whose output differed between calls
        self.bound = None
        self.split = None
        self.pre, self.fit = work / "pre", work / "fit"
        self.rep, self.ret = work / "rep", work / "ret"

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _record(self, phase, ok, seconds=None, units=None, outputs=()):
        self.ops.append((phase, ok))
        if ok:
            self.calls.setdefault(phase, []).append((seconds, units))
            for path in outputs:
                digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
                if self.digests.setdefault(path, digest) != digest:
                    self.changed.add(phase)

    def _cli(self, phase, argv, units, outputs):
        sink = io.StringIO()
        try:
            with self._span(f"cli.{argv[0]}"), contextlib.redirect_stdout(sink):
                start = CLOCK()
                code = self.savae.cli.main(argv + ["--seed", str(PROGRAM_SEED)])
                seconds = CLOCK() - start
        except Exception:  # a raw traceback from the program is a failed op
            traceback.print_exc()
            code = None
        self._record(phase, code == 0, seconds if code == 0 else None, units, outputs)
        return code == 0

    def preprocess(self):
        spec = self.w.spec
        return self._cli(
            "preprocess",
            ["preprocess", "--out", str(self.pre), "--input", str(self.work / "train.txt"),
             "--test-input", str(self.work / "test.txt"), "--format", "labeled-lines",
             "--vocab-size", str(VOCAB_SIZE)],
            spec.n_train + spec.n_test,
            [self.pre / "corpus.savc"],
        )

    def load(self):
        try:
            start = CLOCK()
            split = self.savae.corpus.load_corpus_file(self.pre / "corpus.savc")
            seconds = CLOCK() - start
        except Exception:
            traceback.print_exc()
            self._record("load", False)
            return False
        self.split = split
        self._record("load", True, seconds, len(split.train) + len(split.test))
        return True

    def train(self):
        tokens = sum(doc.length for doc in self.split.train)
        return self._cli(
            "train",
            ["train", "--out", str(self.fit), "--corpus", str(self.pre / "corpus.savc"),
             "--mode", self.w.mode, "--d", str(D), "--k", str(K), "--lr", str(LR),
             "--epochs", str(EPOCHS), "--batch-size", str(BATCH)],
            EPOCHS * tokens,
            [self.fit / "model.savm"],
        )

    def evaluate_bound(self):
        inference, training = self.savae.inference, self.savae.training
        docs = self.split.test
        try:
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                params, config = training.load_checkpoint(self.fit / "model.savm")
            start = CLOCK()
            bound = inference.evaluate_bound(
                docs, params, config, samples=BOUND_SAMPLES, seed=PROGRAM_SEED
            )
            seconds = CLOCK() - start
        except Exception:
            traceback.print_exc()
            self._record("bound", False)
            return False
        if self.bound is None:
            self.bound = bound
        elif bound != self.bound:
            self.changed.add("bound")
        self._record("bound", True, seconds, sum(not doc.is_empty for doc in docs))
        return True

    def represent(self):
        """Both splits; the rate is over the pair, docs of both per second."""
        seconds = 0.0
        for split_name in ("train", "test"):
            phase = f"represent-{split_name}"
            argv = ["represent", "--out", str(self.rep), "--checkpoint",
                    str(self.fit / "model.savm"), "--corpus", str(self.pre / "corpus.savc"),
                    "--split", split_name]
            if not self._cli(phase, argv, 0, [self.rep / f"representations_{split_name}.csv"]):
                return False
            seconds += self.calls[phase][-1][0]
        units = len(self.split.train) + len(self.split.test)
        self.calls.setdefault("represent", []).append((seconds, units))
        return True

    def eval_retrieval(self):
        queries = sum(not doc.is_empty for doc in self.split.test)
        return self._cli(
            "eval-retrieval",
            ["eval-retrieval", "--out", str(self.ret),
             "--queries", str(self.rep / "representations_test.csv"),
             "--index", str(self.rep / "representations_train.csv"),
             "--relevance", self.w.relevance],
            queries,
            [self.ret / "pr_curve.csv"],
        )

    def run_round(self):
        r = self.w.repeats
        for _ in range(r["preprocess"]):
            self.preprocess()
        for _ in range(r["load"]):
            self.load()
        if self.split is None:
            return
        self.train()
        self.evaluate_bound()
        for _ in range(r["represent"]):
            self.represent()
        for _ in range(r["eval-retrieval"]):
            self.eval_retrieval()

    def rate(self, phase):
        """Work units per second at the upper quartile of call time."""
        return low_quantile([units / seconds for seconds, units in self.calls[phase]])


def low_quantile(values):
    """The RATE_QUANTILE quantile of ``values``, linear between the sorted values."""
    ordered = sorted(values)
    pos = RATE_QUANTILE * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def import_seconds():
    """CPU seconds of a fresh interpreter that makes the run's imports."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; "
        "import numpy, checks, corpora, savae, savae.cli"
    )
    paths = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", code, *paths], check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def run_checks(pipe, generated):
    """Failed checks as {phase: [problems]}; phases with no output are skipped."""
    import numpy as np

    import checks
    from savae import training

    seed = pipe.seed
    problems = {}

    def attempt(phase, fn, *args, **kwargs):
        try:
            found = fn(*args, **kwargs)
        except Exception as err:  # a check that cannot run is a failed check
            found = [f"check raised {type(err).__name__}: {err}"]
        if found:
            problems.setdefault(phase, []).extend(found)

    for phase in sorted(pipe.changed):
        problems[phase] = ["output differs between calls on the same inputs"]
    split = pipe.split
    if split is None:
        return problems
    attempt("preprocess", checks.check_corpus, generated, split, VOCAB_SIZE, PROGRAM_SEED)
    if "train" not in pipe.calls:
        return problems
    params, config = training.load_checkpoint(pipe.fit / "model.savm")
    batch = [doc for doc in split.train if not doc.is_empty][:8]
    attempt("train", checks.check_gradients, batch, params, config, seed)
    if pipe.bound is not None:
        ppl = pipe.bound[1]
        if not (ppl > 1.0 and ppl < float("inf")):
            problems.setdefault("bound", []).append(f"perplexity {ppl!r} not finite and > 1")
        nonempty = [doc for doc in split.test if not doc.is_empty]
        pick = sorted(np.random.default_rng([seed, 41]).permutation(len(nonempty))[:4])
        attempt("bound", checks.check_bound, [nonempty[i] for i in pick], params, config,
                PROGRAM_SEED, BOUND_SAMPLES)
    for split_name, docs in (("train", split.train), ("test", split.test)):
        path = pipe.rep / f"representations_{split_name}.csv"
        if f"represent-{split_name}" in pipe.calls:
            attempt(f"represent-{split_name}", checks.check_representations,
                    path, docs, params, config)
    if "eval-retrieval" in pipe.calls:
        attempt("eval-retrieval", checks.check_retrieval, pipe.ret,
                pipe.rep / "representations_test.csv",
                pipe.rep / "representations_train.csv", pipe.w.relevance, seed)
    return problems


def result_line(correct, attempted, failed, values, trace):
    """The result object; its metrics are exactly the declared ones."""
    units = PER_LAYER if trace else END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def run(workload, seed, seconds, trace, threads, out_root=OUT_ROOT):
    """Set up, measure, check; returns (result dict, info dict).

    The caller caps BLAS threads before numpy is first imported.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np

    import checks  # noqa: F401  (imports the program and the oracles for setup_s)
    import corpora
    import savae
    import savae.cli

    if Path(savae.__file__).resolve().parent != (ROOT / "src" / "savae").resolve():
        raise RuntimeError(f"imported savae from {savae.__file__}, not from {ROOT / 'src'}")

    work = out_root / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # set-up is the imports plus the inputs; the imports are timed in
        # fresh interpreters, as this one has made them already
        import_s = [import_seconds() for _ in range(SETUP_REPEATS)]
        gen_s = []
        for _ in range(SETUP_REPEATS):
            start = CLOCK()
            generated = corpora.generate(workload.spec, seed)
            corpora.write_labeled_lines(generated.train, work / "train.txt")
            corpora.write_labeled_lines(generated.test, work / "test.txt")
            gen_s.append(CLOCK() - start)

        tracer = Tracer(clock=CLOCK) if trace else None
        if tracer:
            install_tracing(tracer, savae)
        pipe = Pipeline(workload, seed, work, savae, tracer)
        layer_rounds = []
        deadline = time.perf_counter() + seconds
        rounds = 0
        try:
            while True:
                start = time.perf_counter()
                pipe.run_round()
                rounds += 1
                if tracer:
                    layer_rounds.append(round_layer_metrics(tracer))
                    tracer.spans.clear()
                now = time.perf_counter()
                if now + (now - start) > deadline:
                    break
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

        problems = run_checks(pipe, generated)
        for phase, found in problems.items():
            for problem in found:
                print(f"check failed [{phase}]: {problem}", file=sys.stderr)
        failed = sum(1 for phase, ok in pipe.ops if not ok or phase in problems)
        values = {}
        if tracer:
            values = {name: statistics.median(r[name] for r in layer_rounds)
                      for name in PER_LAYER}
        else:
            rates = {
                "preprocess_docs_per_s": "preprocess",
                "corpus_load_docs_per_s": "load",
                "train_tokens_per_s": "train",
                "bound_docs_per_s": "bound",
                "represent_docs_per_s": "represent",
                "retrieval_queries_per_s": "eval-retrieval",
            }
            for metric, phase in rates.items():
                if pipe.calls.get(phase):
                    values[metric] = pipe.rate(phase)
            if pipe.bound is not None:
                values["heldout_perplexity"] = pipe.bound[1]
            values["setup_s"] = statistics.median(import_s) + statistics.median(gen_s)
            values["peak_rss_mb"] = peak_rss_mb
        info = {
            "workload": workload.name, "seed": seed, "trace": trace, "rounds": rounds,
            "blas_threads": threads, "numpy": np.__version__, "import_s": import_s,
            "generate_s": gen_s,
            "phase_median_s": {p: statistics.median(c[0] for c in calls)
                               for p, calls in pipe.calls.items()},
            "phase_calls": {p: len(calls) for p, calls in pipe.calls.items()},
        }
        return result_line(not problems, len(pipe.ops), failed, values, trace), info
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    # before anything imports numpy
    threads = bound_blas_threads()
    table = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "savae").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no savae sources under {ROOT}", file=sys.stderr)
        return 2
    result, info = run(table[args.workload], args.seed, args.seconds, args.trace, threads)
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
