#!/usr/bin/env python
"""Gate the standard-pipeline sparseness counters against a budget.

Reads ``repro bench --json`` output (stdin or ``--input FILE``), extracts
two per-program metrics and compares each against
``benchmarks/perf_budget.json``:

* ``instructions_visited`` for the ``standard-pipeline`` pass — the
  worklist sparseness budget;
* ``solver.steps.upper + solver.steps.lower`` from the session counters —
  the demand-prover traversal budget.  The budgeted values were recorded
  with the unified dual-direction session, which shares one memo across
  both directions and all check sites; regressing past them usually
  means the sharing broke (e.g. per-site provers came back).

One budget covers both modes: plain and certify mode open the same
shared session (certify mode only records witnesses), so the output of
``repro bench --json`` and of ``repro bench --certify --json`` are each
checked against the same ``solver_steps`` values.

A program exceeding its budget by more than the file's ``tolerance``
(default 20%) fails the check; a program missing from the budget fails
the check — new programs must be budgeted explicitly.  ``--write``
instead refreshes the budget file with the measured values (for
intentional changes; commit the diff).

Exit status: 0 when all programs are within budget, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BUDGET_PATH = Path(__file__).resolve().parent / "perf_budget.json"
PASS_NAME = "standard-pipeline"


def measured_visits(bench_results) -> dict:
    visits = {}
    for entry in bench_results:
        for record in entry.get("session_stats", {}).get("passes", []):
            if record["name"] == PASS_NAME:
                visits[entry["name"]] = record["instructions_visited"]
    return visits


def measured_solver_steps(bench_results) -> dict:
    steps = {}
    for entry in bench_results:
        counters = entry.get("session_stats", {}).get("counters", {})
        if "solver.steps.upper" in counters or "solver.steps.lower" in counters:
            steps[entry["name"]] = counters.get(
                "solver.steps.upper", 0
            ) + counters.get("solver.steps.lower", 0)
    return steps


def check_metric(label: str, measured: dict, budgeted: dict, tolerance: float):
    failures = []
    for name, value in sorted(measured.items()):
        allowed = budgeted.get(name)
        if allowed is None:
            failures.append(f"{name}: {label} not budgeted (measured {value})")
            continue
        ceiling = allowed * (1.0 + tolerance)
        status = "ok" if value <= ceiling else "FAIL"
        print(
            f"{name:>18}: {label} {value:>6} budget {allowed:>6} "
            f"(ceiling {ceiling:>8.1f}) {status}"
        )
        if value > ceiling:
            failures.append(
                f"{name}: {value} {label} > {ceiling:.1f} "
                f"({allowed} +{tolerance:.0%})"
            )
    total = sum(measured.values())
    total_budget = sum(budgeted.get(name, 0) for name in measured)
    print(f"{'TOTAL':>18}: {label} {total:>6} budget {total_budget:>6}")
    return failures


def check(visits: dict, steps: dict, budget: dict) -> int:
    tolerance = budget.get("tolerance", 0.20)
    failures = check_metric(
        "visited", visits,
        budget["standard_pipeline_instructions_visited"], tolerance,
    )
    failures += check_metric(
        "steps", steps, budget.get("solver_steps", {}), tolerance,
    )
    for failure in failures:
        print(f"perf budget exceeded: {failure}", file=sys.stderr)
    return 1 if failures else 0


def write_budget(visits: dict, steps: dict, budget: dict) -> None:
    budget["standard_pipeline_instructions_visited"] = {
        name: visits[name] for name in visits
    }
    budget["solver_steps"] = {name: steps[name] for name in steps}
    BUDGET_PATH.write_text(json.dumps(budget, indent=2) + "\n")
    print(f"budget refreshed: {BUDGET_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--input",
        help="bench --json output file (default: read stdin)",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="refresh the budget file with the measured values",
    )
    args = parser.parse_args(argv)

    if args.input:
        bench_results = json.loads(Path(args.input).read_text())
    else:
        bench_results = json.load(sys.stdin)
    budget = json.loads(BUDGET_PATH.read_text())

    visits = measured_visits(bench_results)
    if not visits:
        print(
            f"no '{PASS_NAME}' pass stats found in bench output",
            file=sys.stderr,
        )
        return 1
    steps = measured_solver_steps(bench_results)
    if not steps:
        print("no solver step counters found in bench output", file=sys.stderr)
        return 1
    if args.write:
        write_budget(visits, steps, budget)
        return 0
    return check(visits, steps, budget)


if __name__ == "__main__":
    sys.exit(main())
