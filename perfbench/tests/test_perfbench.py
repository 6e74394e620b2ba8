"""Tiny-size tests of the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402
import run  # noqa: E402
from tracer import (Tracer, layer_metrics, self_time_table,  # noqa: E402
                    union_length)


def _benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_catalogue():
    doc = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [entry[:3] for entry in metrics.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_reported_metric_is_in_the_catalogue():
    outcome = {"work": 30, "wall": 3.0, "latencies": [1.0, 1.2, 0.8],
               "setups": [0.5, 0.4, 0.6], "peak_rss_mb": 40.0}
    e2e = run.end_to_end("flood_grid", outcome)
    assert list(e2e) == [name for name, _u, _b in metrics.END_TO_END]
    assert e2e["work_per_s"] == 10.0
    assert e2e["latency_p50_ms"] == 1000.0
    assert e2e["setup_s"] == 0.5

    layers = layer_metrics(Tracer().merged(), Tracer().worker, 1.0)
    added_by_run = {"serve.queue_wait_s", "serve.job_run_s",
                    "trace.overhead_pct"}
    assert set(layers) | added_by_run == \
        {name for name, *_rest in metrics.PER_LAYER}
    assert set(metrics.EXACT_COUNTS) <= set(layers)


def test_percentile_needs_ten_samples_beyond_it():
    assert metrics.tail_percentiles(0) == []
    assert metrics.tail_percentiles(1) == [50]
    assert metrics.tail_percentiles(99) == [50]
    assert metrics.tail_percentiles(100) == [90, 50]
    assert metrics.tail_percentiles(999) == [90, 50]
    assert metrics.tail_percentiles(1000) == [99, 90, 50]
    samples = [i / 1000.0 for i in range(1, 101)]
    summary = metrics.latency_summary(samples)
    assert summary["n"] == 100
    assert set(summary) == {"n", "p90_ms", "p50_ms"}
    assert abs(summary["p50_ms"] - 50.5) < 1e-9
    assert abs(summary["p90_ms"] - 90.1) < 1e-9


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tick = clock.__setattr__

    # a [0, 10] -> b [1, 3] -> c [1.5, 2.5]; a -> d [4, 5]
    a = tracer.open("scenario", "a")
    tick("now", 1.0)
    b = tracer.open("attacks", "b")
    tick("now", 1.5)
    c = tracer.open("netsim", "c")
    tick("now", 2.5)
    tracer.close(c)
    tick("now", 3.0)
    tracer.close(b)
    tick("now", 4.0)
    d = tracer.open("netsim", "d")
    tick("now", 5.0)
    tracer.close(d)
    tick("now", 10.0)
    tracer.close(a)

    totals = tracer.merged()
    spans = {span["name"]: span for span in totals["spans"]}
    assert spans["a"]["self_s"] == 7.0
    assert spans["b"]["self_s"] == 1.0
    assert spans["c"]["self_s"] == 1.0
    assert spans["d"]["self_s"] == 1.0
    assert spans["c"]["parent_id"] == spans["b"]["span_id"]
    assert spans["b"]["parent_id"] == spans["a"]["span_id"]
    assert spans["a"]["parent_id"] == 0
    assert totals["self_s"] == {"scenario": 7.0, "attacks": 1.0,
                                "netsim": 2.0}
    # 12 s of wall, 10 of them inside the root frame.
    assert self_time_table(totals, 12.0) == [
        ("scenario", 7.0), ("netsim", 2.0), ("attacks", 1.0),
        ("unattributed", 2.0)]


def test_fine_calls_count_into_the_enclosing_cell():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def transmit():
        clock.now += 0.25

    wrapped = tracer.fine("netsim", "netsim.transmit", transmit)
    outer = tracer.open("faults", "cell")
    tracer.state().cell = cell = Counter()
    wrapped()
    wrapped()
    tracer.close(outer)
    totals = tracer.merged()
    assert cell == {"netsim.transmit": 2, "netsim.self_s": 0.5}
    assert totals["counts"]["netsim.transmit"] == 2
    assert totals["spans"][0]["self_s"] == 0.0
    assert totals["self_s"]["netsim"] == 0.5


def test_inclusive_time_counts_the_outermost_frame_of_a_group():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    isolate = tracer.open("attacks", "isolate", group="phase")
    clock.now = 1.0
    probe = tracer.open("attacks", "probe", group="phase")
    clock.now = 3.0
    tracer.close(probe)
    tracer.close(isolate)
    probe = tracer.open("attacks", "probe", group="phase")
    clock.now = 4.0
    tracer.close(probe)
    assert tracer.merged()["inclusive"] == {"isolate": 3.0, "probe": 1.0}


def test_union_of_overlapping_roots():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0
