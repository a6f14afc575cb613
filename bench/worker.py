"""Run one workload in a fresh interpreter and print its measurements as one JSON line.

Started by run.py, whose thread pins it inherits.  Set-up (imports, input generation, warm-up) ends with
the ``ready_at`` stamp; the timed loop follows.  Each operation is timed
alone: output checks, digests and span bookkeeping run outside its timing.
With ``--trace 1`` the loop alternates plain slices with slices run under
the span wrappers, and the two kinds' outputs must agree bit for bit.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import resource
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

import spans
import summary
import workloads


#: Alternating plain and traced slices in a traced run.
TRACE_SLICES = 10


class Tally:
    """What a timed loop keeps: each operation's time and how the operations ended.

    Everything but the times is bounded by the number of cases, so the
    benchmark's own bookkeeping barely moves the peak RSS it reports.
    ``digests`` (kept for traced runs) holds each case's distinct outputs.
    """

    def __init__(self, keep_digests: bool):
        self.seconds = array("d")
        self.ok = 0
        self.wrong = 0
        self.failures: dict[int, str] = {}
        self.digests: dict[int, set[str]] | None = {} if keep_digests else None
        self.rss_kb = array("q")
        self.report_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    def add(self, case: int, seconds: float, error: str | None, wrong: str | None, digest: str) -> None:
        self.seconds.append(seconds)
        if error is None and wrong is None:
            self.ok += 1
        else:
            self.wrong += wrong is not None
            self.failures.setdefault(case, error or f"wrong output: {wrong}")
        if self.digests is not None:
            self.digests.setdefault(case, set()).add(digest)


def _check(workload, case, out) -> str | None:
    try:
        return workload.check(case, out)
    except Exception as exc:  # a check that cannot read the output rejects it
        return f"check raised {type(exc).__name__}: {exc}"


def warm_up(workload) -> None:
    for case in workload.cases[: workload.warmup]:
        try:
            _check(workload, case, workload.call(case, False))
        except Exception:  # envelope inputs fail on purpose; warm-up only needs the code paths
            pass


def run_loop(workload, seconds: float, tally: Tally, recorder: spans.Recorder | None = None) -> None:
    """Closed loop over the workload's cases, in order, for ``seconds`` of wall time."""
    cases = workload.cases
    traced = recorder is not None
    count = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        index = count % len(cases)
        count += 1
        case = cases[index]
        if traced:
            root = recorder.begin_op()
            recorder.enabled = True
        out = error = None
        start = time.perf_counter()
        try:
            out = workload.call(case, traced)
        except Exception as exc:  # every failure is recorded, and the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if traced:
            recorder.enabled = False
            recorder.end_op(start, end, error is not None)
        if out is None:
            tally.add(index, end - start, error, None, f"raised {error}")
            continue
        if isinstance(out, workloads.CliRun):
            tally.rss_kb.append(out.rss_kb)
            tally.report_bytes += len(out.stdout)
            if traced:
                recorder.adopt(out.spans, root)
        digest = workload.digest(out) if tally.digests is not None else ""
        tally.add(index, end - start, None, _check(workload, case, out), digest)


def end_to_end(tally: Tally, reports_latency: bool) -> tuple[dict, dict]:
    """End-to-end metrics of one timed loop, and the details behind them."""
    metrics = {
        "ok_per_s": (tally.ok / sum(tally.seconds), "1/s"),
        "failed_share": (tally.failed / tally.attempted, "1"),
    }
    details: dict = {}
    if reports_latency:
        metrics["latency_p50_ms"] = (1e3 * statistics.median(tally.seconds), "ms")
        value, percentile, blocks = summary.tail(tally.seconds)
        metrics["latency_tail_ms"] = (1e3 * value, "ms")
        details["latency_tail_percentile"] = percentile
        details["latency_tail_blocks"] = blocks
    if tally.rss_kb:
        rss_kb = statistics.median(tally.rss_kb)
        details["peak_rss_of"] = "median over CLI child processes"
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        details["peak_rss_of"] = "benchmark worker process"
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MiB")
    return metrics, details


def traced_layers(workload, plain: Tally, traced: Tally, recorder: spans.Recorder) -> tuple[dict, dict]:
    """Per-layer metrics of the traced slices, and the bit-for-bit comparison with the plain ones."""
    shared = [case for case in traced.digests if case in plain.digests]
    mismatched = [workload.cases[case].label for case in shared
                  if traced.digests[case] != plain.digests[case]]
    metrics = spans.layer_metrics(recorder.spans, traced.attempted)
    overhead = statistics.median(traced.seconds) / statistics.median(plain.seconds) - 1.0
    metrics["trace.overhead_share"] = (overhead, "1")
    metrics["documents.report_bytes"] = (traced.report_bytes / traced.attempted, "B")
    details = {
        "bitwise_cases_compared": len(shared),
        "bitwise_mismatched": sorted(mismatched),
        "plain_ops": plain.attempted,
        "traced_ops": traced.attempted,
    }
    return metrics, details


def library_environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"numpy": np.__version__, "scipy": scipy_version, "blas": blas}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="directory for documents and spans")
    parser.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed, args.work)
    warm_up(workload)
    result: dict = {"ready_at": time.perf_counter()}
    if args.setup_only:
        print(json.dumps(result))
        return

    if args.trace:
        # plain and traced slices alternate, so drift in machine speed cancels in the overhead
        plain, traced = Tally(keep_digests=True), Tally(keep_digests=True)
        recorder = spans.Recorder()
        for _ in range(TRACE_SLICES):
            run_loop(workload, args.seconds / (2 * TRACE_SLICES), plain)
            undo = spans.install(recorder)
            run_loop(workload, args.seconds / (2 * TRACE_SLICES), traced, recorder)
            spans.uninstall(undo)
        spans_path = args.work / f"spans-{args.workload}.json"
        recorder.dump(spans_path)
        tallies = [plain, traced]
        metrics, details = traced_layers(workload, plain, traced, recorder)
        details["spans_file"] = str(spans_path)
        wrong_outputs = len(details["bitwise_mismatched"]) + (details["bitwise_cases_compared"] == 0)
    else:
        tally = Tally(keep_digests=False)
        run_loop(workload, args.seconds, tally)
        tallies = [tally]
        metrics, details = end_to_end(tally, not workload.fails_by_design)
        wrong_outputs = 0
    failures: dict[int, str] = {}
    for tally in tallies:
        wrong_outputs += tally.wrong
        for case, reason in tally.failures.items():
            failures.setdefault(case, reason)
    details["failures"] = [
        {"case": workload.cases[case].label, "reason": failures[case][:120]} for case in sorted(failures)
    ]
    failed = sum(tally.failed for tally in tallies)
    result.update(
        attempted=sum(tally.attempted for tally in tallies),
        failed=failed,
        # outside envelope, an operation that raises or exits non-zero is a defect too
        correct=wrong_outputs == 0 and (failed == 0 or workload.fails_by_design),
        metrics={name: list(pair) for name, pair in metrics.items()},
        details=details,
        environment=library_environment(),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
