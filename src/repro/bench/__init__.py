"""Benchmark corpus and measurement harness for the paper's evaluation."""

from repro.bench.corpus import BY_NAME, CORPUS, BenchmarkProgram, get, names
from repro.bench.harness import (
    BenchResult,
    format_figure6,
    measure_program,
    run_benchmark,
)

__all__ = [
    "CORPUS",
    "BY_NAME",
    "BenchmarkProgram",
    "get",
    "names",
    "BenchResult",
    "run_benchmark",
    "measure_program",
    "format_figure6",
]
