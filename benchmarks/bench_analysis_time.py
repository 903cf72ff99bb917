"""E3 — wall-clock analysis time per bounds check.

Paper: "The time to analyze one bounds check ranged from 0 to 35
milliseconds, and averaged around 4 milliseconds" on a 166 MHz PowerPC
604e.  Absolute times are incomparable (different hardware and host
language); the reproduced *shape* is a tight distribution — a small
average with a bounded, heavy-ish tail — and per-check cost independent
of program size (demand-driven sparseness).
"""

from __future__ import annotations

import statistics

from repro.bench.corpus import get
from repro.core.abcd import ABCDConfig
from repro.pipeline import abcd, compile_source


def test_per_check_analysis_time(corpus_results, benchmark):
    # Benchmark the per-check unit the paper times: one full demand query
    # (graph reuse included, as in the paper's per-check accounting).
    program = compile_source(get("biDirBubbleSort").source())

    def analyze():
        clone = compile_source(get("biDirBubbleSort").source())
        return abcd(clone, ABCDConfig())

    benchmark.pedantic(analyze, rounds=3, iterations=1)

    times_ms = [
        analysis.seconds * 1000.0
        for result in corpus_results.values()
        for analysis in result.report.analyses
    ]
    mean = statistics.mean(times_ms)
    print()
    print("E3 — analysis time per check (paper: 0-35 ms, avg ~4 ms on 166MHz)")
    print(
        f"checks={len(times_ms)}  min={min(times_ms):.4f}ms  "
        f"mean={mean:.4f}ms  p95={statistics.quantiles(times_ms, n=20)[18]:.4f}ms  "
        f"max={max(times_ms):.4f}ms"
    )
    # Shape: single checks analyze in far under a millisecond on modern
    # hardware, and no check takes catastrophically long.
    assert mean < 5.0
    assert max(times_ms) < 250.0
    del program
