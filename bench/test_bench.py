"""Tests of the benchmark itself: corpora, tracer and correctness gate.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import time

import pytest

import corpus
import run
import tracer

PACKAGE = run.load_package()

# Small calls, one per workload shape, that run in milliseconds.
SMALL = [
    ("analyze", ("--json",), ("x y^-1 x^3 y^-2 x y x",)),
    ("analyze", ("--json", "--torus-bundle"), ("h^40 x y^-3 x y^-1",)),
    ("analyze", ("--json", "--torus-bundle"), ("h^-25 y^5",)),
    ("analyze", ("--json", "--oracle"), ("x y^-1 x y x^-1 y x y^-1 x y",)),
    ("batch", ("--json", "--torus-bundle"),
     ("x", "x y x y", "y^-2 x h^3", "")),
]


def runner(tmp_path, command, flags):
    workload = corpus.Workload("small", command, flags, (None,), None,
                               round_seconds=1.0)
    return run.Runner(workload, PACKAGE, tmp_path, {})


def small_calls(tmp_path):
    for command, flags, words in SMALL:
        yield (runner(tmp_path, command, flags),
               corpus.Call("small/0/0", 0, words, tuple(map(len, words))))


def test_traced_output_is_byte_identical(tmp_path):
    for small, call in small_calls(tmp_path):
        argv = small.argv(call)
        _, code, untraced = small.execute(argv)
        with tracer.Tracer(PACKAGE):
            _, traced_code, traced = small.execute(argv)
        assert code == traced_code == 0
        assert traced == untraced


def test_wrappers_are_removed_afterwards(tmp_path):
    def current():
        attributes = [name.split(".") for name in tracer.NAMES]
        return [getattr(getattr(PACKAGE, module), function)
                for module, function in attributes]

    originals = current()
    with tracer.Tracer(PACKAGE):
        assert all(now is not before
                   for now, before in zip(current(), originals))
    assert all(now is before for now, before in zip(current(), originals))


def test_self_times_sum_to_the_root_spans(tmp_path):
    with tracer.Tracer(PACKAGE) as spans:
        for small, call in small_calls(tmp_path):
            small.execute(small.argv(call))
    roots = [span for span, parent in enumerate(spans.parent) if parent < 0]
    assert [spans.name[span] for span in roots] == [tracer.ROOT] * len(SMALL)
    root_total = sum(spans.end[span] - spans.start[span] for span in roots)
    resolution_ns = time.get_clock_info("perf_counter").resolution * 1e9
    assert abs(sum(spans.self_times()) - root_total) <= resolution_ns
    assert all(self_ns >= 0 for self_ns in spans.self_times())


def test_batch_spans_are_split_by_word(tmp_path):
    small, call = list(small_calls(tmp_path))[-1]
    with tracer.Tracer(PACKAGE) as spans:
        small.execute(small.argv(call))
    words = [word for word in call.words if word]
    assert spans.words == len(words)
    metrics = spans.metrics([len(word.split()) for word in words])
    assert metrics["words.parse.calls_per_word"] == 1
    assert metrics["invariants.analyze_word.calls_per_word"] == 1
    assert metrics["cli.main.calls_per_word"] == 1 / len(words)


def test_per_layer_metrics_cover_every_traced_function(tmp_path):
    with tracer.Tracer(PACKAGE) as spans:
        for small, call in small_calls(tmp_path):
            small.execute(small.argv(call))
    metrics = spans.metrics([1] * spans.words)
    for name in tracer.NAMES:
        assert f"{name}.calls_per_word" in metrics
        assert f"{name}.self_ms_per_word" in metrics
    assert metrics["seifert.seifert_matrix.size"] == 8  # ten reduced letters


@pytest.mark.parametrize("name", corpus.WORKLOADS)
def test_seed_fixes_the_corpus(name):
    workload = corpus.WORKLOADS[name]
    first = workload.corpus(1, 2)
    assert workload.corpus(1, 2) == first
    assert workload.corpus(2, 2) != first
    assert len(first) == 2 * workload.per_round


@pytest.mark.parametrize("name", corpus.WORKLOADS)
def test_every_call_has_a_golden_digest(name):
    goldens = json.loads(run.GOLDENS.read_text(encoding="utf-8"))
    assert all(call.key in goldens for call in corpus.WORKLOADS[name].pool())


def test_correctness_gate_rejects_changed_output(tmp_path):
    small, call = next(small_calls(tmp_path))
    _, code, output = small.execute(small.argv(call))
    small.goldens = {call.key: run.digest(output)}
    assert small.ok(call, code, output)
    assert not small.ok(call, code, output + " ")
    assert not small.ok(call, 3, output)


def test_oracle_disagreement_fails_the_gate():
    assert run.oracle_agrees('{"oracle":{"agrees":true}}\n{"summary":{}}')
    assert not run.oracle_agrees('{"oracle":{"agrees":false}}')


def test_tail_has_ten_samples_beyond():
    latencies = [float(i) for i in range(30)]
    value, percentile, beyond = run.tail(latencies)
    assert (value, beyond) == (19.0, 10)
    assert sum(latency > value for latency in latencies) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_json_lists_every_metric(tmp_path):
    spec = json.loads(
        (run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [workload["name"] for workload in spec["workloads"]] == \
        list(corpus.WORKLOADS)
    assert {metric["name"]: metric["unit"] for metric in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    with tracer.Tracer(PACKAGE) as spans:
        for small, call in small_calls(tmp_path):
            small.execute(small.argv(call))
    reported = set(spans.metrics([1] * spans.words)) | {
        "trace.untraced_words_per_s", "trace.traced_words_per_s",
        "trace.overhead"}
    assert {metric["name"] for metric in spec["per_layer"]} == reported
    assert all(metric["unit"] == run.per_layer_unit(metric["name"])
               for metric in spec["per_layer"])


def test_each_round_is_scaled_by_its_own_loop_time():
    call = corpus.Call("small/0/0", 0, ("x",), (1,))
    records = [run.Record(call, 1.0, run.REFERENCE_LOOP_S * loop, True)
               for loop in (2, 2, 4, 4)]
    assert run.reference_seconds(records, 2) == [0.5, 0.5, 0.25, 0.25]
    assert run.words_per_second(records, 2) == pytest.approx(4 / 1.5)
