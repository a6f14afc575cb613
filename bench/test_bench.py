"""Tests of the benchmark's own arithmetic and tracing.

Run from the root of the repository: ``python3 -m pytest bench -q``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gaussep  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_leaves_ten_samples_beyond():
    samples = [float(x) for x in range(150)]
    value, percentile, blocks = summary.tail(samples)
    assert (value, blocks) == (139.0, 1)
    assert sum(x > value for x in samples) == 10
    assert percentile == pytest.approx(100.0 * 140 / 150)


def test_tail_of_eleven_samples_is_their_minimum():
    value, percentile, _ = summary.tail([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0])
    assert value == 1.0
    assert percentile == pytest.approx(100.0 / 11.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        summary.tail([1.0] * 10)


def test_tail_is_the_median_over_blocks():
    # three blocks of 1000; one noise burst lifts only the middle block's tail
    samples = ([1.0] * 989 + [2.0] * 11) + ([1.0] * 989 + [50.0] * 11) + ([1.0] * 989 + [3.0] * 11)
    value, percentile, blocks = summary.tail(samples)
    assert (value, percentile, blocks) == (3.0, 99.0, 3)


def test_tail_sees_slow_calls_above_one_in_a_hundred():
    # 1.5% of the calls are slow, spread evenly: every block's p99 is slow
    samples = [50.0 if i % 67 == 0 else 1.0 for i in range(5000)]
    value, _, blocks = summary.tail(samples)
    assert (value, blocks) == (50.0, 5)


def test_tail_puts_the_remainder_in_the_last_block():
    # 2001 samples: two blocks, the second of 1001 ends with the 11 slow ones
    samples = [1.0] * 989 + [3.0] * 11 + [1.0] * 990 + [9.0] * 11
    value, percentile, blocks = summary.tail(samples)
    assert (value, percentile, blocks) == (6.0, 99.0, 2)


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, False]


def test_self_time_subtracts_children_not_grandchildren():
    recorded = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0


def test_layer_metrics_are_per_operation():
    recorded = [
        _span("op", 0.0, 4.0, -1),
        _span("separability.disentangle", 0.0, 3.0, 0),
        _span("linalg.eigh", 1.0, 2.0, 1),
        _span("op", 4.0, 8.0, -1),
        _span("separability.disentangle", 4.0, 7.0, 3),
        _span("linalg.eigh", 5.0, 6.0, 4),
    ]
    metrics = spans.layer_metrics(recorded, 2)
    assert metrics["separability.disentangle.calls"] == (1.0, "count")
    assert metrics["separability.disentangle.self_ms"] == (2000.0, "ms")
    assert metrics["linalg.factorizations"] == (1.0, "count")
    assert metrics["trace.unattributed_share"] == (0.25, "1")


def _traced_pass(cases):
    recorder = spans.Recorder()
    undo = spans.install(recorder)
    try:
        recorder.enabled = True
        results = [gaussep.disentangle(case.data) for case in cases]
    finally:
        recorder.enabled = False
        spans.uninstall(undo)
    counts = {name: total[0] for name, total in spans.layer_totals(recorder.spans).items()}
    return results, counts


def test_counts_repeat_and_traced_outputs_match_bit_for_bit():
    cases = workloads.sweep(0).cases[:4]
    plain = [gaussep.disentangle(case.data) for case in cases]
    first, counts_first = _traced_pass(cases)
    second, counts_second = _traced_pass(cases)
    assert counts_first == counts_second
    assert counts_first["separability.disentangle"] == 4
    assert counts_first["linalg.eigh"] > 0
    for a, b in zip(plain, first):
        assert workloads._result_digest(a) == workloads._result_digest(b)


def test_uninstall_restores_every_binding():
    before = (gaussep.disentangle, gaussep.separability.williamson, np.linalg.eigh)
    undo = spans.install(spans.Recorder())
    assert gaussep.separability.williamson is not before[1]
    assert gaussep.spectral.williamson is gaussep.separability.williamson
    spans.uninstall(undo)
    assert (gaussep.disentangle, gaussep.separability.williamson, np.linalg.eigh) == before


def test_every_declared_metric_is_measured_with_its_unit():
    tally = worker.Tally(keep_digests=False)
    for _ in range(20):
        tally.add(0, 0.002, None, None, "")
    e2e, _ = worker.end_to_end(tally, reports_latency=True)
    for entry in SPEC["end_to_end"]:
        if entry["name"] != "setup_s":  # added by run.py
            assert e2e[entry["name"]][1] == entry["unit"]

    recorder = spans.Recorder()
    undo = spans.install(recorder)
    recorder.begin_op()
    recorder.enabled = True
    gaussep.disentangle(workloads.sweep(0).cases[0].data)
    recorder.enabled = False
    recorder.end_op(0.0, 1.0, False)
    spans.uninstall(undo)
    layers = spans.layer_metrics(recorder.spans, 1)
    # import times come from run.py; the overhead and report size from worker.py
    elsewhere = {"import.gaussep_ms", "import.numpy_ms", "import.scipy_ms",
                 "trace.overhead_share", "documents.report_bytes"}
    for entry in SPEC["per_layer"]:
        if entry["name"] not in elsewhere:
            assert layers[entry["name"]][1] == entry["unit"]


def test_tally_keeps_the_first_failure_of_each_case():
    tally = worker.Tally(keep_digests=True)
    tally.add(0, 1.0, "VerificationError: x", None, "raised VerificationError: x")
    tally.add(0, 1.0, None, "bad witness", "d1")
    tally.add(1, 1.0, None, None, "d2")
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 1)
    assert tally.failures == {0: "VerificationError: x"}
    assert tally.digests == {0: {"raised VerificationError: x", "d1"}, 1: {"d2"}}
