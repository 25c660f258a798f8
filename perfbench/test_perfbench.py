"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import corpora
import run
from spans import Span, Tracer, aggregate, self_times

sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = replace(
    run.workloads()["savae-short-multilabel"].spec,
    n_words=300, n_train=64, n_test=16,
)


def test_generator_is_deterministic_per_seed():
    a, b, c = corpora.generate(TINY, 5), corpora.generate(TINY, 5), corpora.generate(TINY, 6)
    assert a == b
    assert a != c
    # the multiset of lengths is fixed by the spec, whatever the seed
    assert sorted(len(d.tokens) for d in a.train) == sorted(len(d.tokens) for d in c.train)


def test_rendered_text_tokenizes_to_the_generator_tokens():
    from savae.corpus import tokenize

    for doc in corpora.generate(TINY, 3).train:
        assert tokenize(doc.text) == doc.tokens


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.workloads())


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(tmp_path, trace):
    workload = replace(run.workloads()["savae-short-multilabel"], spec=TINY)
    result, info = run.run(workload, seed=4, seconds=1, trace=trace, threads=1,
                           out_root=tmp_path)
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(tmp_path.iterdir()) == []  # the work directory is removed


def test_low_quantile_interpolates_between_sorted_values():
    assert run.low_quantile([7.0]) == 7.0
    assert run.low_quantile([4.0, 1.0, 3.0]) == pytest.approx(2.0)
    assert run.low_quantile([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    assert run.low_quantile([4.0, 2.0, 1.0, 3.0]) == pytest.approx(1.75)


def _tiny_model(seed):
    import numpy as np
    from savae import model
    from savae.corpus import Document
    from savae.numerics import RngStream

    config = model.ModelConfig(mode="savae", m=40, d=4, k=3, encoder_layers=(16, 16))
    params = model.init_params(config, RngStream(seed))
    rng = np.random.default_rng(seed)
    for b in params.enc_b:  # biases near zero put ReLU kinks near the start point
        b[:] = 0.05 * rng.standard_normal(b.shape)
    docs = [Document(ids=list(rng.integers(0, config.m, n)), labels={"a"}) for n in (3, 9, 1)]
    return docs, params, config


def test_gradient_check_passes_a_correct_gradient_and_catches_a_wrong_one(monkeypatch):
    import checks
    from savae import model

    docs, params, config = _tiny_model(7)
    assert checks.check_gradients(docs, params, config, seed=3) == []
    # a step this large crosses ReLU kinks, which the check must notice
    assert "across zero" in checks.check_gradients(docs, params, config, 3, steps=(10.0,))[0]

    true = model.batch_elbo_gradients

    def off_by_two_percent(*args):
        estimates, grads = true(*args)
        grads["enc_W_1"] = grads["enc_W_1"] * 1.02
        return estimates, grads

    monkeypatch.setattr(checks.model, "batch_elbo_gradients", off_by_two_percent)
    assert "directional derivative" in checks.check_gradients(docs, params, config, 3)[0]


def _span(name, start, end, parent=-1):
    return Span(name, float(start), float(end), parent)


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span("root", 0, 10),
        _span("a", 1, 4, parent=0),
        _span("a.x", 2, 3, parent=1),
        _span("b", 3.5, 6, parent=0),  # overlaps a: the union is counted once
        _span("c", 9, 12, parent=0),  # runs past its parent: clipped at 10
        _span("d", 7, 8, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10 - (6 - 1) - 1 - 1, 3 - 1, 1, 2.5, 3, 1])
    agg = aggregate(spans)
    assert agg["root"]["calls"] == 1 and agg["root"]["self_s"] == pytest.approx(3)


def test_tracer_records_parents_and_restores_wrapped_functions():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

    def outer(x):
        return Owner.inner(x) * 2

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original = Owner.__dict__["inner"]
    tracer.wrap(Owner, "inner", "inner", measure=lambda a, kw, r: {"items": a[0]})
    with tracer.span("outer"):
        assert outer(3) == 8
    with tracer.paused():
        outer(1)
    tracer.uninstall()
    assert Owner.__dict__["inner"] is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert aggregate(tracer.spans)["inner"]["items"] == 3
