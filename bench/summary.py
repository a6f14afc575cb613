"""Statistics the benchmark reports: the tail rule and the run-to-run spread."""

from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10
#: The tail is taken per block of this many consecutive operations.
TAIL_BLOCK = 1000


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Tail latency: in each block of ``TAIL_BLOCK`` consecutive samples, the
    highest percentile with at least ``TAIL_BEYOND`` samples beyond it (the
    11th-largest sample, p99); the median over blocks.

    A run of fewer than ``2 * TAIL_BLOCK`` samples is one block, so there the
    tail is that of the whole run.  On a shared machine the whole run's
    p99.95 is set by whichever burst of preemptions the run happened to
    meet; the median over blocks keeps one burst from setting it.  Returns
    ``(value, percentile, blocks)``; the percentile is that of a block.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    blocks = max(1, n // TAIL_BLOCK)
    size = n // blocks
    values = []
    for i in range(blocks):
        part = sorted(samples[i * size : n if i == blocks - 1 else (i + 1) * size])
        values.append(part[-TAIL_BEYOND - 1])
    return statistics.median(values), 100.0 * (size - TAIL_BEYOND) / size, blocks


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
